"""The local length engine against the slower paths it replaced.

Every length of ``LocalRing`` on an ideal not known to be m-primary now
comes from one standard basis in the local order ds truncated at a degree N,
and local models get their degrevlex basis by FGLM; the m-primary ideals of
the delta tests skip both, and are checked here against that ds route.
The oracles below are the old computations, kept here: the
J + n^M loop of ``local_model`` with one degrevlex Buchberger run per M,
colengths of the truncations I + n^d, the degree-by-degree loop of
``multiplicity``, membership in I + n^d for ``ord_mod``,
the per-N membership loop for the Loewy length, degrevlex membership for
the gll test, and the saturation by h that the tangent cone once took before
its block-order basis.  All comparisons are exact.
"""

import random
from fractions import Fraction

import pytest

from locring import cli, localring
from locring.arith import QQ, PrimeField, PrimeFieldElement
from locring.bounds import macaulay_bound
from locring.errors import NoStabilization, NotArtinianLocally
from locring.groebner import GroebnerBasis, buchberger, is_member
from locring.ideal import Ideal, all_monomials, max_ideal_power
from locring.localring import INSIDE_I, LocalRing
from locring.poly import BlockOrder, DegRevLex, Lex, Polynomial, PolyRing
from locring.subalgebra import kernel

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(32003)]
FIELD_IDS = ["Q", "F2", "F3", "Fp"]


def _old_local_model(J, bound):
    """The J + n^M loop: the first J + n^M whose colength equals that of
    J + n^(M-1), each colength from a degrevlex Buchberger run."""
    prev = None
    for M in range(1, bound + 2):
        model = J + max_ideal_power(J.ring, M)
        lam = model.vector_space_dim()
        if lam == prev:
            return M, model
        prev = lam
    raise NotArtinianLocally(f"no colength stabilization within n^{bound}")


def _truncation_colengths(R, top):
    """lambda(S/(I + n^d)) for d = 1..top, by degrevlex bases."""
    return [(R.I + max_ideal_power(R.ring, d)).vector_space_dim()
            for d in range(1, top + 1)]


def _min_power_of_max_ideal_in(ideal, bound):
    """The per-N membership loop: the smallest N <= bound with every
    degree-N monomial in the ideal, or None."""
    gb = ideal.groebner()
    for N in range(1, bound + 1):
        if all(is_member(ideal.ring.monomial(e), gb)
               for e in all_monomials(ideal.ring, N)):
            return N
    return None


def _assert_same_model(R, J):
    """local_model agrees with the loop within the ring's bound: the same M
    and generators (hence generator count) and the same installed reduced
    degrevlex basis, or NotArtinianLocally on both paths.  Returns whether
    a model exists."""
    try:
        M, old = _old_local_model(J, R.stabilization_bound)
    except NotArtinianLocally:
        with pytest.raises(NotArtinianLocally):
            R.local_model(J)
        return False
    new = R.local_model(J)
    assert new.generators == old.generators
    assert len(new.generators) == len(J.generators) + len(
        all_monomials(R.ring, M))
    assert new.gb_cache[DegRevLex()].generators == old.groebner().generators
    assert R.colength_local(J) == old.vector_space_dim()
    return True


def _ex2_ring():
    pm = cli.parse_map_file(cli.EX2_MAP_TEXT, QQ)
    return LocalRing(pm.source, kernel(pm))


SCENARIO_RINGS = {
    "main": (lambda: cli.MAIN_RING.local_ring(), "y"),
    "ex1": (lambda: cli.EX1_RING.local_ring(), "z"),
    "ex2": (_ex2_ring, "x"),
}


@pytest.fixture(scope="module")
def scenario_rings():
    return {name: (make(), witness)
            for name, (make, witness) in SCENARIO_RINGS.items()}


@pytest.mark.parametrize("name", SCENARIO_RINGS)
def test_local_model_matches_loop_on_scenario_models(scenario_rings, name,
                                                     monkeypatch):
    # every model the delta tests at n = 3, 4 ask for, and the ideals
    # I + m*C they use as their own models, on a ring with empty memos
    R, witness = scenario_rings[name]
    R = LocalRing(R.ring, R.I)
    x = R.ring.parse(witness)
    seen = []
    original = LocalRing.local_model

    def record(self, J):
        seen.append(J)
        return original(self, J)

    monkeypatch.setattr(LocalRing, "local_model", record)
    for n in (3, 4):
        R.delta_one_test(x, n)
    monkeypatch.undo()
    assert len(seen) == 6
    for J in seen:
        assert _assert_same_model(R, J)
    for n in (3, 4):
        nC = R.delta_one_test(x, n).nC
        _M, old = _old_local_model(nC, R.stabilization_bound)
        assert nC.groebner().generators == old.groebner().generators


@pytest.mark.parametrize("name", SCENARIO_RINGS)
def test_m_primary_chain_matches_the_ds_route(scenario_rings, name):
    # C = (x^n) : m^n and nC = I + m*C skip local_model and colength_local:
    # their degrevlex bases and staircase colengths against the ds route,
    # and delta_via_mu against 1 + mu(C/(x^n)) - mu(C) from ds colengths,
    # for each n the scenarios test
    R, witness = scenario_rings[name]
    x = R.ring.parse(witness)
    for n in range(1, 7):
        C = R.local_model(R.I + Ideal(R.ring, [x ** n]))
        for _ in range(n):
            C = C.quotient(R.n)
        nC = R.delta_one_test(x, n).nC
        assert nC.generators == (R.I + R.n * C).generators
        xn = Ideal(R.ring, [x ** n])
        model = R.local_model(nC)
        assert nC.groebner().generators == \
            model.gb_cache[DegRevLex()].generators
        assert C.vector_space_dim() == R.colength_local(C)
        assert nC.vector_space_dim() == R.colength_local(nC)
        assert nC.vector_space_dim() - nC.quotient(xn).vector_space_dim() \
            == R.colength_local(nC + xn)
        mu_C = R.colength_local(nC) - R.colength_local(C)
        mu_Cxn = R.colength_local(nC + xn) - R.colength_local(C)
        assert R.delta_via_mu(x, n) == 1 + mu_Cxn - mu_C


def _loop_multiplicity(R):
    """The degree-by-degree loop: HF(0..d) for d = 1, 2, ..., the ring's
    bound, each list from its own truncated ds basis, until Macaulay's
    bound holds its last value h fixed, macaulay_bound(h, d) == h.  None
    when it never does."""
    for d in range(1, R.stabilization_bound + 1):
        h = R.hilbert_function(d)[-1]
        if macaulay_bound(h, d) == h:
            return h
    return None


def _same_multiplicity(R):
    """multiplicity agrees with the loop: the same value, or
    NoStabilization where the loop finds none.  Returns the value or
    None."""
    expected = _loop_multiplicity(R)
    if expected is None:
        with pytest.raises(NoStabilization):
            R.multiplicity()
    else:
        assert R.multiplicity() == expected
    return expected


def test_macaulay_stop_test_is_h_at_most_d():
    # multiplicity stops at the first d >= 1 with HF(d) <= d: exactly the
    # values that Macaulay's bound cannot raise in the next degree
    for d in range(1, 16):
        for h in range(0, 60):
            assert (h <= d) == (macaulay_bound(h, d) == h)


@pytest.mark.parametrize("name", SCENARIO_RINGS)
def test_multiplicity_matches_the_degree_by_degree_loop(scenario_rings,
                                                        name):
    # HF(7) = 8 > 7 and HF(8) = 8 on all three, past ex2's 7, 7, 7 plateau,
    # so the value needs a bound of 8 and no bound of 7 gives one
    R, _witness = scenario_rings[name]
    assert _same_multiplicity(R) == 8
    for bound, expected in ((7, None), (8, 8)):
        small = LocalRing(R.ring, R.I, stabilization_bound=bound)
        assert _same_multiplicity(small) == expected


def test_multiplicity_of_small_rings_matches_the_loop():
    # the value bounds the limit of HF above; it is that limit, the
    # multiplicity, on a one-dimensional Cohen-Macaulay ring
    S = PolyRing(QQ, ("x", "y"))
    # Artinian, HF 1, 2, 2, 1, 0, ...: 2, where the limit is 0
    R = LocalRing(S, Ideal(S, ["x^2", "y^3"]))
    assert R.hilbert_function(5) == [1, 2, 2, 1, 0, 0]
    assert _same_multiplicity(R) == 2
    # not Cohen-Macaulay (y^2 is killed by m), HF 1, 2, 2, 1, 1, ...: 2,
    # where e = 1
    R = LocalRing(S, Ideal(S, ["x*y", "y^3"]))
    assert R.hilbert_function(5) == [1, 2, 2, 1, 1, 1]
    assert _same_multiplicity(R) == 2
    # a smooth curve, HF 1, 1, 1, ...
    assert _same_multiplicity(LocalRing(S, Ideal(S, ["y - x^2"]))) == 1
    # dimension two, HF(d) = d + 1 > d
    assert _same_multiplicity(LocalRing(S, Ideal(S, []))) is None
    T = PolyRing(QQ, ("x", "y", "z"))
    assert _same_multiplicity(LocalRing(T, Ideal(T, ["x^2 - y^3"]))) is None


@pytest.mark.parametrize("a, c", [(8, 20), (7, 18), (9, 22), (10, 25)])
def test_multiplicity_of_a_branch_is_its_least_value(a, c):
    # the kernel of t -> (t^a + t^(a+2), t^(a+1), t^c + t^(2c-4)) is one
    # branch, so e is the least value of its semigroup, v(x) = a, which is
    # also colength(x); (8, 20) is ex2, and a window of 3 equal values
    # gave a - 1 on each
    R = _curve_ring((f"t^{a} + t^{a + 2}", f"t^{a + 1}",
                     f"t^{c} + t^{2 * c - 4}"))
    x = R.ring.var(0)
    assert R.multiplicity() == R.colength(x) == a
    assert R.is_superficial(x)


def _sparse_poly(ring, rng, lo, hi):
    """Two to four monomials of degree lo..hi with nonzero coefficients in
    [-3, 3]."""
    terms = {}
    size = rng.randint(2, 4)
    while len(terms) < size:
        e = rng.choice(all_monomials(ring, rng.randint(lo, hi)))
        terms[e] = ring.field.from_int(rng.choice([-3, -2, -1, 1, 2, 3]))
    return Polynomial(ring, terms)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "Fp"])
def test_multiplicity_is_where_the_hilbert_function_settles(field):
    # two sparse generators in three variables: a complete intersection of
    # dimension one when HF is constant on 20..30, where the multiplicity
    # must be that constant; otherwise a common factor leaves dimension
    # two, HF(30) > 30 and no value
    rng = random.Random(1978)
    ring = PolyRing(field, ("x", "y", "z"))
    settled = 0
    for _ in range(12):
        gens = [_sparse_poly(ring, rng, 2, 7) for _ in range(2)]
        R = LocalRing(ring, Ideal(ring, gens), stabilization_bound=30)
        hf = R.hilbert_function(30)
        if len(set(hf[20:])) == 1:
            settled += 1
            assert R.multiplicity() == hf[30]
        else:
            assert hf[30] > 30
            with pytest.raises(NoStabilization):
                R.multiplicity()
    assert settled >= 6


def test_colength_leaves_the_model_with_its_fglm_basis(monkeypatch):
    R = cli.MAIN_RING.local_ring()
    J = R.I + Ideal(R.ring, [R.ring.parse("y")])
    colength = R.colength_local(J)

    def fail(*args, **kwargs):
        raise AssertionError("local_model ran a basis after colength_local")

    monkeypatch.setattr(localring, "buchberger", fail)
    monkeypatch.setattr(localring, "fglm", fail)
    model = R.local_model(J)
    monkeypatch.undo()
    _M, old = _old_local_model(J, R.stabilization_bound)
    assert model.generators == old.generators
    assert model.gb_cache[DegRevLex()].generators == old.groebner().generators
    assert colength == old.vector_space_dim()


def _random_poly(ring, rng, lo, hi, unit=False):
    """About a third of the monomials of degree lo..hi with coefficients in
    [-3, 3], plus a constant term if unit."""
    terms = {}
    for d in range(lo, hi + 1):
        for e in all_monomials(ring, d):
            c = ring.field.from_int(rng.randint(-3, 3))
            if c and rng.randint(0, 2) == 0:
                terms[e] = c
    if unit:
        terms[(0,) * ring.nvars] = ring.field.one()
    return Polynomial(ring, terms)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_local_model_matches_loop_on_random_ideals(field):
    # two or three generators in two or three variables: m-primary locally
    # or not (NotArtinianLocally on both paths), and now and then a unit
    rng = random.Random(1993)
    bound = 7
    outcomes = []
    for trial in range(24):
        names = ("x", "y", "z")[:rng.randint(2, 3)]
        ring = PolyRing(field, names)
        R = LocalRing(ring, Ideal(ring, []), stabilization_bound=bound)
        gens = [_random_poly(ring, rng, 1, 3, unit=(trial % 8 == 7))
                for _ in range(rng.randint(2, 3))]
        outcomes.append(_assert_same_model(R, Ideal(ring, gens)))
    assert any(outcomes) and not all(outcomes)


@pytest.mark.parametrize("k", [4, 8, 16])
def test_local_model_matches_loop_at_the_doubling_edge(xyz, k):
    # J = (x^k, y, z) has M = k + 1, just above the power of two k, so the
    # truncation degrees 2, 4, ..., k fall short and the next one is capped
    # at bound + 1: exactly M for bound k, one short of it for bound k - 1
    R = LocalRing(xyz, Ideal(xyz, []), stabilization_bound=k)
    J = Ideal(xyz, [f"x^{k}", "y", "z"])
    assert _assert_same_model(R, J)
    assert R.local_model(J).generators[3:] == \
        max_ideal_power(xyz, k + 1).generators
    short = LocalRing(xyz, Ideal(xyz, []), stabilization_bound=k - 1)
    assert not _assert_same_model(short, J)


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
def test_fglm_basis_is_canonical(field):
    ring = PolyRing(field, ("x", "y", "z"))
    R = LocalRing(ring, Ideal(ring, ["x^2 - y^5", "x*y^2 + y*z^3 - z^5"]))
    for extra in ("y", "z^2 + x*y", "x + y - z"):
        model = R.local_model(R.I + Ideal(ring, [extra]))
        installed = model.gb_cache[DegRevLex()].generators
        # the walk sets the leads that every later staircase reads
        assert model.gb_cache[DegRevLex()].leads == \
            GroebnerBasis(installed, DegRevLex()).leads
        again = buchberger(list(installed), DegRevLex())
        assert again.generators == installed
        assert buchberger(list(model.generators), DegRevLex()).generators \
            == installed
        for g in installed:
            for c in g.terms.values():
                if field == QQ:
                    assert type(c) is Fraction and c != 0
                else:
                    assert type(c) is PrimeFieldElement
                    assert c.modulus == field.p and c.value != 0


def _colon_routes(J, n):
    """J : m^n as one colon and as n colons by m, each on a copy of J that
    shares its degrevlex basis but no colon the other route kept."""
    def copy():
        out = Ideal(J.ring, J.generators)
        out.gb_cache[DegRevLex()] = J.groebner()
        return out

    chain = copy()
    for _ in range(n):
        chain = chain.quotient(max_ideal_power(J.ring, 1))
    one = copy().quotient(max_ideal_power(J.ring, n))
    return one.groebner().generators, chain.groebner().generators


@pytest.mark.parametrize("name", SCENARIO_RINGS)
def test_one_colon_by_m_to_the_n_equals_n_colons_by_m(scenario_rings, name):
    # the delta test's C = (x^n) : m^n, taken as one colon since
    # (J : m^a) : m = J : m^(a+1), against the chain it replaced
    R, witness = scenario_rings[name]
    x = R.ring.parse(witness)
    for n in range(1, 7):
        J = R.local_model(R.I + Ideal(R.ring, [x ** n]))
        one, chain = _colon_routes(J, n)
        assert one == chain


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "Fp"])
def test_one_colon_by_m_to_the_n_equals_n_colons_on_random_ideals(field):
    rng = random.Random(2015)
    for trial in range(6):
        names = ("x", "y", "z")[:2 + trial % 2]
        ring = PolyRing(field, names)
        gens = [_random_poly(ring, rng, 1, 3) for _ in range(2)]
        J = Ideal(ring, gens) + max_ideal_power(ring, rng.randint(4, 6))
        for n in range(1, 5):
            one, chain = _colon_routes(J, n)
            assert one == chain


def test_hilbert_function_matches_truncation_colengths(scenario_rings):
    for name, (R, _witness) in scenario_rings.items():
        lam = [0] + _truncation_colengths(R, 15)
        oracle = [lam[d + 1] - lam[d] for d in range(15)]
        assert R.hilbert_function(14) == oracle
        if name == "ex2":
            # the false plateau before the multiplicity
            assert oracle[4:8] == [7, 7, 7, 8]
        assert R.multiplicity() == 8


def _saturate(J, f):
    """J : f^infinity, by colons J : (f) until one adds nothing."""
    while True:
        colon = J.quotient_element(f)
        if colon.equals(J):
            return J
        J = colon


def _saturated_tangent_cone(R):
    """The reduced basis of I* by the old route: the homogenized ideal
    saturated by h, then the initial forms of its dehomogenized block-order
    basis."""
    homogenized = [g.homogenize("h", front=True) for g in R.I.generators]
    ext = homogenized[0].ring
    J = _saturate(Ideal(ext, homogenized), ext.var(0))
    target = PolyRing(R.ring.field, tuple(n.upper() for n in R.ring.names))
    pos = list(range(target.nvars))
    gens = [g.dehomogenize("h").initial_form().map_to(target, pos) for g in
            J.groebner(BlockOrder(1, first=Lex(), second=DegRevLex()))]
    return Ideal(target, gens).groebner().generators


def _curve_ring(images):
    pm = cli.parse_map_file("t\n" + "".join(
        f"{v} = {g}\n" for v, g in zip("xyz", images)), QQ)
    return LocalRing(pm.source, kernel(pm))


def test_tangent_cone_matches_the_saturation_route(scenario_rings):
    rings = [R for R, _witness in scenario_rings.values()]
    # the type-3 curve, and two monomial curves
    rings += [_curve_ring(images) for images in (
        ("t^12 + t^14", "t^13", "t^30 + t^54"), ("t^3", "t^4", "t^5"),
        ("t^4", "t^6", "t^7"))]
    rng = random.Random(32003)
    ring = PolyRing(PrimeField(32003), ("x", "y", "z"))
    while len(rings) < 31:
        I = Ideal(ring, [_random_poly(ring, rng, 2, 3) for _ in range(2)])
        if not I.is_zero_ideal():
            rings.append(LocalRing(ring, I))
    for R in rings:
        assert R.tangent_cone().generators == \
            tuple(_saturated_tangent_cone(R))


def _old_ord(R, f, bound):
    """Largest d <= bound with f in I + n^d, by degrevlex membership."""
    if R.I.member(f):
        return INSIDE_I
    ord_d = 0
    for d in range(1, bound + 1):
        if not (R.I + max_ideal_power(R.ring, d)).member(f):
            break
        ord_d = d
    return ord_d


def test_ord_matches_truncation_membership(cusp_ring, xyz):
    rng = cli.SplitMix64(7)
    elements = [xyz.parse(s) for s in ("y", "x^2", "x^2 - y^5", "x*y^2",
                                       "y*z^3 - z^5", "1 + x", "z^7")]
    while len(elements) < 20:
        f = cli.sample_element(xyz, rng, (1, 3), 3)
        if not f.is_zero():
            elements.append(f)
    for bound in (4, 12):
        R = LocalRing(xyz, cusp_ring.I, stabilization_bound=bound)
        for f in elements:
            assert R.ord_mod(f) == _old_ord(R, f, bound)


def test_loewy_length_matches_membership_loop(cusp_ring, xyz):
    # the deleted Ideal.min_power_of_max_ideal_in, now the oracle
    assert _min_power_of_max_ideal_in(
        Ideal(xyz, ["x^2", "y^2", "z^2", "x*y", "x*z", "y*z"]), 5) == 2
    assert _min_power_of_max_ideal_in(Ideal(xyz, ["x"]), 5) is None
    for s in ("y", "z", "x", "y - z", "x + y^2", "y*z", "z^2 + x*y"):
        f = xyz.parse(s)
        bound = cusp_ring.stabilization_bound
        _M, model = _old_local_model(cusp_ring.I + Ideal(xyz, [f]), bound)
        assert cusp_ring.loewy_length_mod(f) == \
            _min_power_of_max_ideal_in(model, bound)
    # the same for a plain power series ring: m^N inside (f) = (x^3)
    S = PolyRing(QQ, ("x",))
    assert LocalRing(S, Ideal(S, [])).loewy_length_mod(S.parse("x^3")) == 3


def _old_gll_hits(desc, target, samples, seed):
    """gll_search's hits by the old test: n^N inside I + (f) + n^(N+1),
    by degrevlex membership of every degree-N monomial."""
    R = desc.local_ring()
    ring = R.ring
    rng = cli.SplitMix64(seed)
    nN1 = max_ideal_power(ring, target + 1)
    hits = []
    tested = 0
    while tested < samples:
        f = cli.sample_element(ring, rng, (1, 2), 3)
        if f.is_zero() or R.I.member(f):
            continue
        gb = (R.I + Ideal(ring, [f]) + nN1).groebner()
        if all(is_member(ring.monomial(e), gb)
               for e in all_monomials(ring, target)):
            hits.append(f.to_str())
        tested += 1
    return hits


@pytest.mark.parametrize("p, samples", [(32003, 100), (3, 50)],
                         ids=["Fp", "F3"])
def test_gll_test_matches_degrevlex_membership(p, samples):
    # target 5 has no hit (the Loewy length is 6); target 6 has many
    main = cli.MAIN_RING
    desc = cli.RingDescription(PrimeField(p), main.names, main.gen_exprs)
    for target in (5, 6):
        _report, hits = cli.gll_search(desc, target, (1, 2), samples,
                                       seed=target)
        assert hits == _old_gll_hits(desc, target, samples, seed=target)
        assert bool(hits) == (target == 6)

