"""End-to-end acceptance gate.

One test per criterion; each prints a single PASS/FAIL line (visible with
-s) and the pytest verdict itself is the per-criterion pass/fail record.
All arithmetic is exact, so every comparison below is equality, no
tolerances.
"""

from itertools import combinations

from locring.arith import QQ
from locring.bounds import macaulay_bound
from locring.cli import (PASS, SKIPPED_HEAVY, SplitMix64, gll_search,
                         parse_ring_file, run_scenario, sample_element)
from locring.groebner import GroebnerBasis, buchberger, normal_form
from locring.ideal import INFINITE, Ideal, all_monomials
from locring.poly import DegRevLex, PolyRing, Polynomial
from locring.polytope import (LatticePolygon, edge_splitting_search,
                              is_integer_irreducible, minkowski_sum,
                              newton_polygon)
from oracles import lex_segment_oracle, s_polynomial

SEED = 42

MAIN_RING_TEXT = """\
field Q
vars x y z
gen x^2 - y^5
gen x*y^2 + y*z^3 - z^5
"""


def _verdict(n, ok, detail=None):
    print(f"ACCEPTANCE CRITERION {n}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_1_scenario_main():
    report = run_scenario("main")
    bad = [(c.name, c.status, c.actual) for c in report.checks
           if c.status != PASS]
    _verdict(1, not bad, bad)


def test_criterion_2_scenario_ex1():
    report = run_scenario("ex1")
    bad = [(c.name, c.status, c.actual) for c in report.checks
           if c.status != PASS]
    _verdict(2, not bad, bad)


def test_criterion_3_scenario_ex2():
    report = run_scenario("ex2", budget_seconds=600)
    statuses = {c.name: c.status for c in report.checks}
    # every check passes, or the kernel budget ran out and the dependent
    # checks were skipped rather than failed
    ok = all(s in (PASS, SKIPPED_HEAVY) for s in statuses.values())
    _verdict(3, ok, statuses)


def test_criterion_4_newton_polygon():
    R = PolyRing(QQ, ("z", "y"))
    f = R.parse("z^10 - 2*z^8*y + z^6*y^2 - y^9")
    P = newton_polygon(f)
    ok = set(P.vertices) == {(10, 0), (6, 2), (0, 9)}
    res = is_integer_irreducible(P)
    ok = ok and res.irreducible and res.method == "axis-triangle"
    # the general search must agree with the fast path
    ok = ok and edge_splitting_search(P) is None
    _verdict(4, ok)


def test_criterion_5_macaulay_bounds():
    ok = (macaulay_bound(5, 2) == 7 and macaulay_bound(2, 2) == 2
          and macaulay_bound(4, 2) == 5)
    for n in range(1, 5):
        for d in range(1, 13):
            ok = ok and lex_segment_oracle(d, n, n + d) == macaulay_bound(d, n)
    _verdict(5, ok)


# --- criterion 6: randomized property suites (seed 42) ---------------------

def _random_poly(ring, rng, max_degree, max_terms, box):
    terms = {}
    monos = [e for d in range(max_degree + 1)
             for e in all_monomials(ring, d)]
    for _ in range(rng.randint(1, max_terms)):
        e = monos[rng.randint(0, len(monos) - 1)]
        c = rng.randint(-box, box)
        if c:
            terms[e] = ring.field.from_int(c)
    return Polynomial(ring, terms)


def _suite_groebner(rng):
    """GB idempotence and S-polynomial zero reduction, 100 random ideals."""
    order = DegRevLex()
    for _ in range(100):
        nvars = rng.randint(1, 3)
        ring = PolyRing(QQ, tuple("xyz"[:nvars]))
        gens = [_random_poly(ring, rng, 4, 4, 5)
                for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        gb = buchberger(ring, gens, order)
        again = buchberger(ring, list(gb.generators), order)
        if again.generators != gb.generators:
            return False
        listed = GroebnerBasis(ring, gb.generators, order)
        for f, g in combinations(gb.generators, 2):
            if not normal_form(s_polynomial(f, g, order), listed).is_zero():
                return False
    return True


def _random_artinian_monomial(ring, rng):
    """Pure powers of every variable plus a few mixed monomials."""
    n = ring.nvars
    gens = []
    for i in range(n):
        e = [0] * n
        e[i] = rng.randint(1, 4)
        gens.append(tuple(e))
    for _ in range(rng.randint(0, 3)):
        gens.append(tuple(rng.randint(0, 3) for _ in range(n)))
    gens = [g for g in gens if sum(g) > 0]
    return Ideal(ring, [ring.monomial(e) for e in gens])


def _suite_monomial_oracle(rng):
    """Colon and intersection versus direct divisibility, 50 random pairs."""
    for _ in range(50):
        nvars = rng.randint(2, 3)
        ring = PolyRing(QQ, tuple("xyz"[:nvars]))
        A = _random_artinian_monomial(ring, rng)
        B = _random_artinian_monomial(ring, rng)
        inter = A.intersect(B)
        quot = A.quotient(B)
        box = [e for d in range(7) for e in all_monomials(ring, d)]
        for e in box:
            m = ring.monomial(e)
            if inter.member(m) != (A.member(m) and B.member(m)):
                return False
            oracle = all(A.member(m * b) for b in B.generators)
            if quot.member(m) != oracle:
                return False
    return True


def _suite_colength_inequality(rng):
    """colength(f) >= ord(f) * e(R) on 50 random elements of the domain."""
    desc = parse_ring_file(MAIN_RING_TEXT)
    R = desc.local_ring()
    e = R.multiplicity()
    count = 0
    while count < 50:
        f = sample_element(R.ring, rng, (1, 2), 3)
        if f.is_zero() or R.I.member(f):
            continue
        d = R.ord_mod(f)
        if d == INFINITE or d == 0:
            continue
        if R.colength(f) < d * e:
            return False
        count += 1
    return True


def _suite_gll_search():
    desc = parse_ring_file(MAIN_RING_TEXT)
    _, hits = gll_search(desc, 5, (1, 2), samples=500, seed=SEED,
                         coeff_box=3)
    return hits == []


def _polygon_catalog(size):
    """All distinct convex lattice polygons (up to translation) with at
    least 2 lattice points and vertices in a size x size grid."""
    grid = [(x, y) for x in range(size) for y in range(size)]
    seen = {}
    for r in range(2, min(len(grid), 8) + 1):
        for sub in combinations(grid, r):
            P = LatticePolygon(list(sub))
            key = P.translated_to_origin()
            if key not in seen and len(P.vertices) >= 2:
                seen[key] = LatticePolygon(list(key))
    return seen


def _suite_polytope_oracle():
    """Edge splitting versus the exhaustive Minkowski product table over
    all polygons in a 4x4 grid."""
    catalog = _polygon_catalog(4)

    def bbox(key):
        return (max(p[0] for p in key), max(p[1] for p in key))

    by_bbox = {}
    for key, P in catalog.items():
        by_bbox.setdefault(bbox(key), []).append(P)
    reducible = set()
    for (wa, ha), As in by_bbox.items():
        for (wb, hb), Bs in by_bbox.items():
            if wa + wb > 3 or ha + hb > 3:
                continue  # the sum cannot land back in the catalog
            for A in As:
                for B in Bs:
                    S = minkowski_sum(A, B)
                    skey = S.translated_to_origin()
                    if skey in catalog:
                        reducible.add(skey)
    for key, P in catalog.items():
        got = not is_integer_irreducible(P).irreducible
        if got != (key in reducible):
            return False
    return True


def test_criterion_6_property_suites():
    results = {
        "groebner-postchecks": _suite_groebner(SplitMix64(SEED)),
        "monomial-oracle": _suite_monomial_oracle(SplitMix64(SEED)),
        "colength-inequality": _suite_colength_inequality(SplitMix64(SEED)),
        "gll-search-500": _suite_gll_search(),
        "polytope-oracle": _suite_polytope_oracle(),
    }
    _verdict(6, all(results.values()), results)
