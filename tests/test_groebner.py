import itertools
import random
from fractions import Fraction

import pytest

from locring.arith import QQ, PrimeField, PrimeFieldElement
from locring import cli, groebner, localring
from locring.errors import BudgetExceeded, RingMismatch
from locring.groebner import (DEGREE_BOUND, GroebnerBasis, artinian_colon,
                              artinian_intersection, buchberger, fglm,
                              is_member, normal_form, packing)
from locring.ideal import Ideal, max_ideal_power
from locring.localring import LocalRing
from locring.poly import (BlockOrder, DegRevLex, NegDegRevLex, Polynomial,
                          PolyRing, mono_divides, monomials_of_degree)
from locring.subalgebra import kernel, parse_map_file
from oracles import (Block, Lex, WeightedDegRevLex, colon_by_elimination,
                     direct_colon, direct_normal_form, equals,
                     intersect_by_elimination, leading_term, s_polynomial)


@pytest.fixture
def R():
    return PolyRing(QQ, ("x", "y"))


def test_spoly_cancels_leading_terms(R):
    order = DegRevLex()
    f = R.parse("x^2 + y")
    g = R.parse("x*y + x")
    s = s_polynomial(f, g, order)
    # the lcm monomial x^2*y cancels
    assert order.key(leading_term(s, order)[0]) < order.key((2, 1))


def test_normal_form_is_zero_on_members(R):
    gb = buchberger(R, [R.parse("x^2 - y"), R.parse("y^2 - x")], DegRevLex())
    f = R.parse("x^2 - y") * R.parse("x + y^3") + R.parse("y^2 - x")
    listed = GroebnerBasis(R, gb.generators, DegRevLex())
    assert normal_form(f, listed).is_zero()
    assert is_member(f, gb)


def test_katsura_like_system(R):
    # classic textbook pair: the reduced basis under lex solves the system
    gb = buchberger(R, [R.parse("x^2 + y^2 - 1"), R.parse("x - y")], Lex())
    gens = {g.to_str() for g in gb.generators}
    assert gens == {"x - y", "y^2 - 1/2"}


def test_reduced_basis_is_canonical(R):
    f1, f2 = R.parse("x^3 - 2*x*y"), R.parse("x^2*y - 2*y^2 + x")
    gb1 = buchberger(R, [f1, f2], DegRevLex())
    gb2 = buchberger(R, [f2, f1], DegRevLex())
    assert gb1.generators == gb2.generators
    # the textbook answer for this pair
    gens = {g.to_str() for g in gb1.generators}
    assert gens == {"x^2", "x*y", "y^2 - 1/2*x"}


def test_unit_ideal(R):
    gb = buchberger(R, [R.parse("x"), R.parse("x + 1")], DegRevLex())
    assert len(gb.generators) == 1
    assert gb.generators[0].is_constant()


def test_zero_input(R):
    gb = buchberger(R, [R.zero()], DegRevLex())
    assert not gb.generators


def test_idempotence(R):
    gb = buchberger(R, [R.parse("x^3 - 2*x*y"), R.parse("x^2*y - 2*y^2 + x")],
                    DegRevLex())
    again = buchberger(R, list(gb.generators), DegRevLex())
    assert again.generators == gb.generators


def test_finite_field_basis():
    R = PolyRing(PrimeField(7), ("x", "y"))
    gb = buchberger(R, [R.parse("x^2 + y"), R.parse("x*y + 3")], DegRevLex())
    for g in gb.generators:
        assert is_member(g * R.parse("x + y"), gb)


def test_pair_budget(monkeypatch):
    monkeypatch.setattr(groebner, "MAX_PAIRS", 3)
    R = PolyRing(QQ, ("x", "y", "z"))
    gens = [R.parse("x^4 + y^3 + z^2 - 1"), R.parse("x^3 + y^2 + z - 1"),
            R.parse("x^2*y*z + x*y^2 + z^3")]
    with pytest.raises(BudgetExceeded) as exc:
        buchberger(R, gens, Lex())
    assert "pairs" in str(exc.value.diagnostics)


def test_content_is_removed(R):
    gb = buchberger(R, [R.parse("2*x^2 - 4*y")], DegRevLex())
    assert gb.generators[0] == R.parse("x^2 - 2*y")


def _divide(f, G, order):
    """Test-local remainder of f on division by G in Polynomial arithmetic:
    the leading term is reduced by the first divisor in list order whose
    leading monomial divides it, or else moved to the remainder."""
    ring = f.ring
    remainder = ring.zero()
    while not f.is_zero():
        e, c = leading_term(f, order)
        for g in G:
            lt, lc = leading_term(g, order)
            if mono_divides(lt, e):
                q = tuple(a - b for a, b in zip(e, lt))
                f = f - ring.monomial(q).scale(c / lc) * g
                break
        else:
            term = ring.monomial(e).scale(c)
            remainder = remainder + term
            f = f - term
    return remainder


def _naive_reduced_basis(gens, order):
    """Oracle: Buchberger over every pair with no criteria, then
    minimalization and interreduction, all by the test-local division, so
    that no step runs on the library's reduction kernel."""
    G = [g for g in gens if not g.is_zero()]
    pairs = [(i, j) for j in range(len(G)) for i in range(j)]
    while pairs:
        i, j = pairs.pop()
        r = _divide(s_polynomial(G[i], G[j], order), G, order)
        if not r.is_zero():
            pairs.extend((k, len(G)) for k in range(len(G)))
            G.append(r)
    key = order.key
    minimal = []
    for g in sorted(G, key=lambda g: key(leading_term(g, order)[0])):
        lm = leading_term(g, order)[0]
        if not any(mono_divides(leading_term(h, order)[0], lm)
                   for h in minimal):
            minimal.append(g)
    reduced = []
    for g in minimal:
        r = _divide(g, [h for h in minimal if h is not g], order)
        lead = leading_term(r, order)[1]
        reduced.append(r.scale(r.ring.field.one() / lead))
    return reduced


def _assert_field_coefficients(polys, field):
    """Every coefficient is a nonzero element of field itself: a Fraction
    over Q, a PrimeFieldElement of the right modulus over F_p; never a raw
    int."""
    for f in polys:
        for c in f.terms.values():
            if field == QQ:
                assert type(c) is Fraction and c != 0
            else:
                assert type(c) is PrimeFieldElement
                assert c.modulus == field.p and 0 < c.value < field.p


def _random_poly(ring, rng, draw=lambda rng: rng.randint(-3, 3)):
    """Two to four terms of degree 2..3, coefficients from draw (an int or
    a Fraction) mapped into the field; terms that are 0 there are dropped."""
    monos = [e for d in (2, 3) for e in monomials_of_degree(ring.nvars, d)]
    terms = {}
    for e in rng.sample(monos, rng.randint(2, 4)):
        c = draw(rng)
        c = ring.field.from_fraction(c.numerator, c.denominator)
        if c:
            terms[e] = c
    return Polynomial(ring, terms)


# the block order of eliminations and tangent cones, and the test-only
# orders of oracles.py, take the general packed order form, not the revlex
# shortcut
ORDERS = [DegRevLex(), Lex(), BlockOrder(), WeightedDegRevLex((15, 6, 7)),
          Block(1, first=Lex())]
ORDER_IDS = ["degrevlex", "lex", "block1", "wdegrevlex", "block1-lex"]


@pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
@pytest.mark.parametrize("field", [
    QQ, PrimeField(32003), PrimeField(2), PrimeField(3),
    PrimeField(2 ** 31 - 1)], ids=["Q", "Fp", "F2", "F3", "F2147483647"])
def test_buchberger_matches_naive_oracle(field, order):
    # local models J + n^M: mostly monomial inputs, so the monomial-pair
    # skip, the stored pair lcms and the degree pre-filter all fire
    rng = random.Random(1988)
    ring = PolyRing(field, ("x", "y", "z"))
    for M in (3, 4, 5) * 3:
        gens = [_random_poly(ring, rng) for _ in range(rng.randint(2, 3))]
        gens += [ring.monomial(e) for e in monomials_of_degree(3, M)]
        gb = buchberger(ring, gens, order)
        assert gb.generators == _naive_reduced_basis(gens, order)
        _assert_field_coefficients(gb.generators, field)


@pytest.mark.parametrize("order", [DegRevLex(), Lex(), Block(2)],
                         ids=["degrevlex", "lex", "block2"])
def test_buchberger_matches_naive_oracle_in_four_variables(order):
    rng = random.Random(4)
    ring = PolyRing(PrimeField(32003), ("w", "x", "y", "z"))
    for M in (3, 4):
        gens = [_random_poly(ring, rng) for _ in range(3)]
        gens += [ring.monomial(e) for e in monomials_of_degree(4, M)]
        gb = buchberger(ring, gens, order)
        assert gb.generators == _naive_reduced_basis(gens, order)


# Coefficient draws over Q that a unit-coefficient input never exercises in
# the fraction-free kernel: non-unit leading coefficients (every draw is
# +-2..+-9, so each gcd step has a multiplier), coefficients above 2^64, and
# fractions with non-trivial denominators.
Q_DRAWS = {
    "nonunit": lambda rng: rng.choice([-1, 1]) * rng.randint(2, 9),
    "big": lambda rng: rng.choice([-1, 1]) * rng.randint(2 ** 64, 2 ** 80),
    "fractions": lambda rng: Fraction(rng.randint(-7, 7), rng.randint(1, 6)),
}


@pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
@pytest.mark.parametrize("draw", Q_DRAWS.values(), ids=Q_DRAWS.keys())
def test_buchberger_q_coefficients_match_naive_oracle(draw, order):
    rng = random.Random(2015)
    ring = PolyRing(QQ, ("x", "y", "z"))
    for M in (3, 4, 4):
        gens = [_random_poly(ring, rng, draw) for _ in range(2)]
        gens += [ring.monomial(e) for e in monomials_of_degree(3, M)]
        gb = buchberger(ring, gens, order)
        assert gb.generators == _naive_reduced_basis(gens, order)
        _assert_field_coefficients(gb.generators, QQ)


def test_buchberger_without_truncation_matches_naive_oracle(R):
    # a positive-dimensional ideal with non-unit leads and fractional tails
    f = R.parse("6*x^3 - 4/3*x*y + 5/7")
    g = R.parse("-10*x^2*y + 9/2*y^2 - 3*x")
    for order in (DegRevLex(), Lex()):
        gb = buchberger(R, [f, g], order)
        assert gb.generators == _naive_reduced_basis([f, g], order)
        _assert_field_coefficients(gb.generators, QQ)


@pytest.mark.parametrize("field, draw", [
    (QQ, "fractions"), (QQ, "big"), (PrimeField(3), "nonunit"),
    (PrimeField(32003), "nonunit")], ids=["Q", "Q-big", "F3", "Fp"])
def test_normal_form_and_spoly_match_local_division(field, draw):
    # divisors with non-unit leading coefficients and fractional or large
    # coefficients (large ones make the kernel divide out the content), not
    # a Groebner basis, compared exactly with the test-local division
    rng = random.Random(5)
    ring = PolyRing(field, ("x", "y", "z"))
    draw = Q_DRAWS[draw]
    for _ in range(20):
        G = []
        while len(G) < 3:
            g = _random_poly(ring, rng, draw)
            if not g.is_zero():
                G.append(g)
        f = _random_poly(ring, rng, draw) * _random_poly(ring, rng, draw)
        for order in (DegRevLex(), Lex()):
            basis = GroebnerBasis(ring, G, order)
            r = normal_form(f, basis)
            assert r == _divide(f, G, order)
            _assert_field_coefficients([r], field)
            s = s_polynomial(G[0], G[1], order)
            r = normal_form(s, basis)
            assert r == _divide(s, G, order)
            _assert_field_coefficients([r], field)


def test_normal_form_by_basis_keeps_fractional_tails(R):
    gb = buchberger(R, [R.parse("3*x^2 - 2*y"), R.parse("5*y^2 - 7*x")],
                    DegRevLex())
    # gb is x^2 - 2/3*y, y^2 - 7/5*x: x^3 -> 2/3*x*y and y^3 -> 7/5*x*y
    f = R.parse("x^3 + 1/2*x*y + y^3 - 1/3*x + 2")
    r = normal_form(f, gb)
    assert r == normal_form(f, GroebnerBasis(R, gb.generators, DegRevLex()))
    assert r == _divide(f, gb.generators, DegRevLex())
    assert r == R.parse("77/30*x*y - 1/3*x + 2")
    _assert_field_coefficients([r], QQ)


def test_monomial_pairs_are_never_reduced(monkeypatch):
    monkeypatch.setattr(groebner, "MAX_PAIRS", 0)
    R = PolyRing(QQ, ("x", "y", "z"))
    gens = max_ideal_power(R, 4).generators
    gb = buchberger(R, gens, DegRevLex())
    assert len(gb) == 15
    assert set(gb.generators) == set(gens)


def test_normal_form_reduces_by_first_listed_divisor(R):
    # both leading monomials divide f; the degree pre-filter must not let
    # the lower-degree one win
    f = R.parse("x^2*y^2")
    first, second = R.parse("x^2*y - 1"), R.parse("x*y - 1")
    for divisors, r in (([first, second], "y"), ([second, first], "1")):
        assert normal_form(f, GroebnerBasis(R, divisors, DegRevLex())) == \
            R.parse(r)


def test_ds_order_puts_lowest_degree_first():
    key = NegDegRevLex().key
    # lower degree leads; within a degree, the degrevlex order
    assert key((1, 0)) > key((2, 0)) > key((0, 3))
    assert sorted([(0, 2), (1, 1), (2, 0)], key=key) == \
        sorted([(0, 2), (1, 1), (2, 0)], key=DegRevLex().key)


def test_truncated_ds_basis_keeps_a_tail_that_its_lead_divides():
    # x - x^2 = x*(1 - x) has lead x in ds; tail interreduction would not
    # terminate, and reduction stops only because x^5 is dropped
    S = PolyRing(QQ, ("x",))
    ds = NegDegRevLex()
    gb = buchberger(S, [S.parse("x - x^2")], ds, truncate=5)
    assert gb.generators == [S.parse("x - x^2")]
    assert gb.leads == [packing(ds, 1).pack((1,))]
    assert gb.truncate == 5
    assert normal_form(S.parse("x^3 + 2"), gb) == S.parse("2")


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
def test_truncation_drops_high_degree_terms_and_pairs(field):
    S = PolyRing(field, ("x", "y"))
    ds = NegDegRevLex()
    # the generator's y^4 and every S-polynomial of degree >= 4 vanish
    gb = buchberger(S, [S.parse("x^2 + y^4"), S.parse("x*y - y^3")], ds,
                    truncate=4)
    assert gb.generators == [S.parse("x*y - y^3"), S.parse("x^2")]
    assert normal_form(S.parse("x^3*y + y^2"), gb) == S.parse("y^2")
    assert buchberger(S, [S.parse("x^4 + y^5")], ds, truncate=4).generators \
        == []


ALL_ORDERS = ORDERS + [NegDegRevLex(), WeightedDegRevLex((1, 2)),
                       Block(2, first=Lex(), second=NegDegRevLex())]


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
@pytest.mark.parametrize("order", ALL_ORDERS, ids=repr)
def test_packed_monomials_follow_the_tuple_key(order, nvars):
    # the kernel's int order is order.key descending, a product is a sum
    # and the mask test is divisibility, up to degrees at the field boundary
    rng = random.Random(nvars)
    pk = packing(order, nvars)
    top = DEGREE_BOUND - 1

    def draw(d):
        cuts = sorted(rng.randint(0, d) for _ in range(nvars - 1))
        return tuple(b - a for a, b in zip([0] + cuts, cuts + [d]))

    exps = [draw(rng.choice([0, 1, 2, 7, top // 2, top - 1, top]))
            for _ in range(200)]
    # neighbours, one unit moved between two variables: keys that differ
    # only late, next to exponents at the field boundary
    for e in exps[:]:
        i, j = rng.randrange(nvars), rng.randrange(nvars)
        if e[i]:
            exps.append(tuple(x - (k == i) + (k == j)
                              for k, x in enumerate(e)))
    exps = list(dict.fromkeys(exps))
    assert sorted(exps, key=pk.pack) == \
        sorted(exps, key=order.key, reverse=True)
    for a, b in zip(exps, exps[1:] + exps[:1]):
        assert pk.unpack(pk.pack(a)) == a
        if sum(a) + sum(b) <= top:
            ab = tuple(x + y for x, y in zip(a, b))
            assert pk.pack(a) + pk.pack(b) == pk.pack(ab)
        assert (not (pk.pack(a) - pk.pack(b)) & pk.guard) == \
            mono_divides(b, a)


def test_degrees_past_the_packing_bound_raise():
    R = PolyRing(QQ, ("x", "y"))
    below = R.parse(f"x^{DEGREE_BOUND - 1} - y")
    assert buchberger(R, [below], DegRevLex()).generators == [below]
    assert normal_form(R.parse(f"x^{DEGREE_BOUND - 1} + x"),
                       GroebnerBasis(R, [below], Lex())) == R.parse("x + y")
    for text in (f"x^{DEGREE_BOUND} - y", "x^40000 - y"):
        with pytest.raises(ValueError, match="does not fit"):
            buchberger(R, [R.parse(text)], DegRevLex())
        basis = GroebnerBasis(R, [below], DegRevLex())
        with pytest.raises(ValueError, match="does not fit"):
            normal_form(R.parse(text), basis)
    # truncation drops the high terms before they are packed
    assert buchberger(R, [R.parse("x^40000 - y")], NegDegRevLex(),
                      truncate=5).generators == [R.parse("y")]
    buchberger(R, [below], NegDegRevLex(), truncate=DEGREE_BOUND)
    with pytest.raises(ValueError, match="does not fit"):
        buchberger(R, [below], NegDegRevLex(), truncate=DEGREE_BOUND + 1)


def test_degrees_formed_in_a_run_past_the_packing_bound_raise():
    R = PolyRing(QQ, ("x", "y"))
    # lex reduction raises the degree: x^2 -> x*y^h -> y^(2h)
    h = DEGREE_BOUND // 2
    gb = buchberger(R, [R.parse(f"x - y^{h - 1}"), R.parse("x^2")], Lex())
    assert gb.generators == [R.parse(f"y^{2 * h - 2}"),
                             R.parse(f"x - y^{h - 1}")]
    with pytest.raises(ValueError, match="does not fit"):
        buchberger(R, [R.parse(f"x - y^{h}"), R.parse("x^2")], Lex())
    # a degrevlex S-pair whose lcm has degree 2h
    with pytest.raises(ValueError, match="does not fit"):
        buchberger(R, [R.parse(f"x^{h}*y - 1"), R.parse(f"x*y^{h} - 1")],
                   DegRevLex())


def _standard_monomials(lts, nvars):
    """The box filter ``staircase`` replaced: exponent tuples divisible by
    none of lts, or None if infinitely many (some variable has no pure
    power among lts)."""
    bounds = []
    for i in range(nvars):
        pure = [e[i] for e in lts if sum(e) == e[i]]
        if not pure:
            return None
        bounds.append(min(pure))
    return [exps for exps in itertools.product(*(range(b) for b in bounds))
            if not any(mono_divides(l, exps) for l in lts)]


def _layers_below(lts, nvars, below):
    """Every monomial of degree < below divisible by none of lts, as
    sorted layers by degree, up to and including the first empty one."""
    layers = []
    for d in range(below):
        layers.append(sorted(e for e in monomials_of_degree(nvars, d)
                             if not any(mono_divides(l, e) for l in lts)))
        if not layers[-1]:
            break
    return layers


def _random_leads(rng, nvars):
    leads = [tuple(rng.randint(0, 3) for _ in range(nvars))
             for _ in range(rng.randint(0, 5))]
    # a pure power per variable, mostly, so that many staircases are finite
    leads += [tuple(rng.randint(1, 5) * (i == j) for j in range(nvars))
              for i in range(nvars) if rng.random() < 0.85]
    return leads


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_staircase_matches_brute_force_filter(nvars):
    rng = random.Random(nvars)
    ring = PolyRing(QQ, ("w", "x", "y", "z")[:nvars])
    for _ in range(60):
        lts = _random_leads(rng, nvars)
        for order in (DegRevLex(), NegDegRevLex(), Lex()):
            gb = GroebnerBasis(ring, [ring.monomial(e) for e in lts], order)
            unpack = packing(order, nvars).unpack
            for below in (1, 2, 5, 9):
                layers = gb._walk_staircase(below)
                assert [sorted(map(unpack, layer)) for layer in layers] == \
                    _layers_below(lts, nvars, below)
            layers = gb.staircase()
            if layers is not None:
                layers = [list(map(unpack, layer)) for layer in layers]
            box = _standard_monomials(lts, nvars)
            if box is None:
                assert layers is None
            else:
                assert not layers[-1]
                assert sorted(e for layer in layers for e in layer) == \
                    sorted(box)
                assert all(sum(e) == d for d, layer in enumerate(layers)
                           for e in layer)


def test_staircase_edge_cases():
    S = PolyRing(QQ, ("x", "y", "z"))
    units = [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert GroebnerBasis(S, [], DegRevLex()).staircase() is None
    # a ds basis truncated at 2 of generators of degree >= 2 is empty, and
    # its staircase, below 2, is 1 and the variables
    gb = buchberger(S, [S.parse("x^2 - y^5"), S.parse("x*y^2 + y*z^3 - z^5")],
                    NegDegRevLex(), truncate=2)
    assert gb.generators == []
    assert gb.ring == S and gb.truncate == 2
    unpack = packing(NegDegRevLex(), 3).unpack
    layers = gb.staircase()
    assert list(map(unpack, layers[0])) == [(0, 0, 0)]
    assert sorted(map(unpack, layers[1])) == units
    # the unit ideal has no standard monomial
    unit = buchberger(S, [S.parse("x"), S.parse("x + 1")], DegRevLex())
    assert unit.staircase() == ((),) and unit._walk_staircase(5) == ((),)
    # infinite: z has no pure power
    infinite = buchberger(S, [S.parse("x^2"), S.parse("y^3 - x*z")],
                          DegRevLex())
    assert infinite.staircase() is None
    assert [len(layer) for layer in infinite._walk_staircase(5)] == \
        [len(layer) for layer in _layers_below(
            [leading_term(g, DegRevLex())[0] for g in infinite.generators],
            3, 5)]


@pytest.mark.parametrize("order", [DegRevLex(), NegDegRevLex(), Lex()],
                         ids=["degrevlex", "ds", "lex"])
def test_empty_basis_staircase_is_every_monomial(order):
    # the staircase of no leads is every monomial, degree by degree
    for nvars in (1, 2, 3, 4):
        unpack = packing(order, nvars).unpack
        ring = PolyRing(QQ, ("w", "x", "y", "z")[:nvars])
        layers = GroebnerBasis(ring, [], order)._walk_staircase(8)
        assert len(layers) == 8
        for d, layer in enumerate(layers):
            assert sorted(map(unpack, layer)) == \
                sorted(monomials_of_degree(nvars, d))


def test_an_empty_truncation_keeps_its_ring_and_degree():
    # generators with no term of degree below N: the ds basis truncated at
    # N drops every term, as main's first truncation, at 2, does
    S = PolyRing(QQ, ("x", "y", "z"))
    unpack = packing(NegDegRevLex(), 3).unpack
    for N in (1, 2, 5):
        gb = buchberger(S, [S.parse("x^5 - y^6"), S.parse("y*z^4")],
                        NegDegRevLex(), truncate=N)
        assert gb.generators == [] and gb.ring == S and gb.truncate == N
        layers = gb.staircase()
        assert [sorted(map(unpack, layer)) for layer in layers] == \
            [sorted(monomials_of_degree(3, d)) for d in range(N)]
        assert normal_form(S.parse(f"x + y^{N} + 1"), gb) == \
            S.parse("x + 1" if N > 1 else "1")
        assert equals(Ideal.from_basis(fglm(gb)), max_ideal_power(S, N))


LEAD_ORDERS = {"lex": Lex(), "degrevlex": DegRevLex(), "ds": NegDegRevLex(),
               "weighted": WeightedDegRevLex((15, 6, 7)),
               "block": Block(1, first=Lex())}


@pytest.mark.parametrize("order", LEAD_ORDERS.values(),
                         ids=LEAD_ORDERS.keys())
def test_buchberger_leads_equal_lazy_leads(order):
    rng = random.Random(7)
    ring = PolyRing(PrimeField(32003), ("x", "y", "z"))
    truncate = 6 if order == NegDegRevLex() else 0
    for _ in range(8):
        gens = [_random_poly(ring, rng) for _ in range(rng.randint(2, 3))]
        gens += [ring.monomial(e) for e in monomials_of_degree(3, 4)]
        gb = buchberger(ring, gens, order, truncate=truncate)
        lazy = GroebnerBasis(ring, gb.generators, order)
        assert gb.leads == lazy.leads
        assert list(map(packing(order, 3).unpack, gb.leads)) == \
            [leading_term(g, order)[0] for g in gb.generators]


# Generator strings of buchberger(I.generators, ds, truncate=N) for the
# paper's ideals, computed by the tuple kernel this one replaced.  The
# bases are not canonical, so they pin divisor and pair order as well.
PINNED_DS_BASES = {
    ("main", 8): (
        "y*z^6",
        "y^7 - x*z^5 + x*y*z^3",
        "-z^5 + y*z^3 + x*y^2",
        "-y^5 + x^2",
    ),
    ("main", 16): (
        "-y^7*z^2 - y^8 + x*z^7 - z^8 + y*z^6",
        "y^7 - x*z^5 + x*y*z^3",
        "-z^5 + y*z^3 + x*y^2",
        "-y^5 + x^2",
    ),
    ("ex1", 8): (
        "y*z^6",
        "y^7 + x*y*z^3",
        "y*z^3 + x*y^2",
        "-y^5 + x^2",
    ),
    ("ex1", 16): (
        "-y^8 + y*z^6",
        "y^7 + x*y*z^3",
        "y*z^3 + x*y^2",
        "-y^5 + x^2",
    ),
    ("ex2", 8): (
        "-x^7 + 7*x^5*y^2 - 14*x^3*y^4 + 7*x*y^6 + y^4*z",
        "-x^3*y^4 + 3*x*y^6 + x^6*z - 7*x^4*y^2*z + 15*x^2*y^4*z "
        "- 9*y^6*z + x^4*y^2 - 6*x^2*y^4 + 7*y^6 - x^5 + 5*x^3*y^2 "
        "- 5*x*y^4 + x^4*z - 5*x^2*y^2*z + 5*y^4*z - y^4 + x^2*z "
        "- 2*y^2*z",
        "-x^5*y^2 + 5*x^3*y^4 - 5*x*y^6 + x^2*y^4*z - 2*y^6*z "
        "+ x^4*y^2 - 5*x^2*y^4 + 4*y^6 - x^5 + 5*x^3*y^2 - 5*x*y^4 "
        "+ x^4*z - 4*x^2*y^2*z + 2*y^4*z - x^2*z^2 + 2*y^2*z^2 "
        "+ z^2",
    ),
    ("ex2", 16): (
        "y^10 - x^9 + 9*x^7*y^2 - 27*x^5*y^4 + 30*x^3*y^6 - 9*x*y^8 "
        "+ y^8",
        "-x^7*y^8 + 7*x^5*y^10 - 14*x^3*y^12 + 7*x*y^14 + x^2*y^12 "
        "- 2*y^14 - x^7*y^6 + 7*x^5*y^8 - 14*x^3*y^10 + 7*x*y^12 "
        "+ x^2*y^10 - 2*y^12 - x^7*y^4 + 7*x^5*y^6 - 14*x^3*y^8 "
        "+ 7*x*y^10 + x^2*y^8 - 2*y^10 - x^7*y^2 + 7*x^5*y^4 "
        "- 14*x^3*y^6 + 7*x*y^8 + x^2*y^6 - 3*y^8 - x^7 + 7*x^5*y^2 "
        "- 14*x^3*y^4 + 7*x*y^6 + y^4*z",
        "-x^15 + 15*x^13*y^2 - 94*x^11*y^4 + 319*x^9*y^6 "
        "- 633*x^7*y^8 + 734*x^5*y^10 - 460*x^3*y^12 + 120*x*y^14 "
        "+ x^14*z - 15*x^12*y^2*z + 95*x^10*y^4*z - 329*x^8*y^6*z "
        "+ 672*x^6*y^8*z - 808*x^4*y^10*z + 528*x^2*y^12*z "
        "- 144*y^14*z + x^12*y^2 - 14*x^10*y^4 + 79*x^8*y^6 "
        "- 230*x^6*y^8 + 364*x^4*y^10 - 296*x^2*y^12 + 96*y^14 "
        "- x^13 + 13*x^11*y^2 - 68*x^9*y^4 + 183*x^7*y^6 "
        "- 267*x^5*y^8 + 200*x^3*y^10 - 60*x*y^12 + x^12*z "
        "- 13*x^10*y^2*z + 69*x^8*y^4*z - 191*x^6*y^6*z "
        "+ 290*x^4*y^8*z - 228*x^2*y^10*z + 72*y^12*z + x^10*y^2 "
        "- 12*x^8*y^4 + 55*x^6*y^6 - 120*x^4*y^8 + 124*x^2*y^10 "
        "- 48*y^12 - x^11 + 11*x^9*y^2 - 46*x^7*y^4 + 91*x^5*y^6 "
        "- 85*x^3*y^8 + 30*x*y^10 + x^10*z - 11*x^8*y^2*z "
        "+ 47*x^6*y^4*z - 97*x^4*y^6*z + 96*x^2*y^8*z - 36*y^10*z "
        "+ x^8*y^2 - 10*x^6*y^4 + 35*x^4*y^6 - 50*x^2*y^8 + 24*y^10 "
        "- x^9 + 9*x^7*y^2 - 28*x^5*y^4 + 35*x^3*y^6 - 15*x*y^8 "
        "+ x^8*z - 9*x^6*y^2*z + 29*x^4*y^4*z - 39*x^2*y^6*z "
        "+ 18*y^8*z + x^6*y^2 - 8*x^4*y^4 + 19*x^2*y^6 - 12*y^8 "
        "- x^3*y^4 + 3*x*y^6 + x^6*z - 7*x^4*y^2*z + 15*x^2*y^4*z "
        "- 9*y^6*z + x^4*y^2 - 6*x^2*y^4 + 7*y^6 - x^5 + 5*x^3*y^2 "
        "- 5*x*y^4 + x^4*z - 5*x^2*y^2*z + 5*y^4*z - y^4 + x^2*z "
        "- 2*y^2*z",
        "-x^5*y^2 + 5*x^3*y^4 - 5*x*y^6 + x^2*y^4*z - 2*y^6*z "
        "+ x^4*y^2 - 5*x^2*y^4 + 4*y^6 - x^5 + 5*x^3*y^2 - 5*x*y^4 "
        "+ x^4*z - 4*x^2*y^2*z + 2*y^4*z - x^2*z^2 + 2*y^2*z^2 "
        "+ z^2",
    ),
}


@pytest.fixture(scope="module")
def paper_ideals():
    return {"main": cli.MAIN_RING.ideal(), "ex1": cli.EX1_RING.ideal(),
            "ex2": kernel(cli.parse_map_file(cli.EX2_MAP_TEXT, QQ))}


@pytest.mark.parametrize("name, N", sorted(PINNED_DS_BASES))
def test_truncated_ds_bases_of_the_paper_are_pinned(paper_ideals, name, N):
    I = paper_ideals[name]
    gb = buchberger(I.ring, list(I.generators), NegDegRevLex(), truncate=N)
    assert tuple(g.to_str() for g in gb.generators) == \
        PINNED_DS_BASES[name, N]


# ---------------------------------------------------------------------------
# packed bases: buchberger and the FGLM walk hand over their divisors, and
# the generators are built only when read

def _eager_generators(gb, ring):
    """The monic generators of a packed basis, converted here from its
    divisors (lead, lead coefficient, tail, top)."""
    unpack = packing(gb.order, ring.nvars).unpack
    out = []
    for lt, a, tail, _ in gb.divisors:
        terms = {unpack(e): ring.field.from_fraction(c, a)
                 for e, c in {lt: a, **tail}.items()}
        out.append(Polynomial(ring, terms))
    return out


PACKED_FIELDS = {"Q": QQ, "F2": PrimeField(2), "Fp": PrimeField(32003)}
PACKED_RUNS = {"ds-truncated": (NegDegRevLex(), 6, None),
               "degrevlex": (DegRevLex(), 0, None),
               "fglm": (DegRevLex(), 0, "fglm"),
               "artinian-colon": (DegRevLex(), 0, "artinian_colon"),
               "artinian-intersection": (DegRevLex(), 0,
                                         "artinian_intersection")}


def _packed_runs(field, order, truncate, walk):
    """Six packed bases over field, each with generators of its ideal got
    without the FGLM walk: buchberger's basis of random generators (plus
    m^5 unless truncated) under order, or with walk the degrevlex basis
    that ``fglm`` builds from their ds basis truncated at 6, that
    ``artinian_colon`` builds for (generators) + m^5 : m, or that
    ``artinian_intersection`` builds for (generators) + m^5 and a second
    random ideal plus m^4; the colon and the intersection by elimination."""
    rng = random.Random(2026)
    ring = PolyRing(field, ("x", "y", "z"))
    m5 = [ring.monomial(e) for e in monomials_of_degree(3, 5)]
    for _ in range(6):
        gens = [_random_poly(ring, rng) for _ in range(rng.randint(2, 3))]
        if walk == "fglm":
            ds = buchberger(ring, gens, NegDegRevLex(), truncate=6)
            layers = ds.staircase()
            d = 6 if layers[-1] else len(layers) - 1
            gens += [ring.monomial(e) for e in monomials_of_degree(3, d)]
            gb = fglm(ds)
        elif walk == "artinian_colon":
            I = Ideal(ring, gens + m5)
            gb = artinian_colon(I.groebner(), ring.gens())
            colons = [colon_by_elimination(I, v) for v in ring.gens()]
            gens = list(intersect_by_elimination(intersect_by_elimination(
                colons[0], colons[1]), colons[2]).generators)
        elif walk == "artinian_intersection":
            I = Ideal(ring, gens + m5)
            J = Ideal(ring, [_random_poly(ring, rng) for _ in range(2)]) + \
                max_ideal_power(ring, 4)
            gb = artinian_intersection(I.groebner(), J.groebner())
            gens = list(intersect_by_elimination(I, J).generators)
        else:
            if not truncate:
                gens += m5
            gb = buchberger(ring, gens, order, truncate=truncate)
        yield ring, rng, gb, gens


@pytest.mark.parametrize("run", PACKED_RUNS.values(), ids=PACKED_RUNS.keys())
@pytest.mark.parametrize("field", PACKED_FIELDS.values(),
                         ids=PACKED_FIELDS.keys())
def test_packed_basis_generators_match_an_eager_conversion(field, run):
    order = run[0]
    for ring, rng, gb, _ in _packed_runs(field, *run):
        assert "generators" not in gb.__dict__
        assert len(gb) == len(gb.divisors) == len(gb.leads)
        assert gb.generators == _eager_generators(gb, ring)
        _assert_field_coefficients(gb.generators, field)
        assert all(leading_term(g, order)[1] == field.one()
                   for g in gb.generators)
        assert gb.generators is gb.generators  # built once


@pytest.mark.parametrize("run", PACKED_RUNS.values(), ids=PACKED_RUNS.keys())
@pytest.mark.parametrize("field", PACKED_FIELDS.values(),
                         ids=PACKED_FIELDS.keys())
def test_packed_basis_and_public_basis_agree(field, run):
    order, truncate, _ = run
    for ring, rng, gb, _ in _packed_runs(field, *run):
        fs = [_random_poly(ring, rng) for _ in range(4)]
        # normal forms first, while the packed basis has no generators
        packed = [normal_form(f, gb) for f in fs]
        assert "generators" not in gb.__dict__
        assert gb.truncate == truncate
        public = GroebnerBasis(ring, list(gb.generators), order)
        assert public.leads == gb.leads
        assert public.ring == gb.ring == ring
        if truncate:
            # a basis from polynomials is not truncated, and reduction
            # against a ds tail such as that of x - x^2 runs to the degree
            # bound without a truncation: reduce against the truncated run
            # of the same generators
            public = buchberger(ring, public.generators, order,
                                truncate=truncate)
            assert public.leads == gb.leads
        assert packed == [normal_form(f, public) for f in fs]


@pytest.mark.parametrize("other", [
    PolyRing(PrimeField(32003), ("x", "y", "z")),
    PolyRing(QQ, ("x", "y", "w"))], ids=["field", "names"])
def test_normal_form_against_a_packed_basis_of_another_ring(other):
    ring = PolyRing(QQ, ("x", "y", "z"))
    for order, truncate, _ in PACKED_RUNS.values():
        gb = buchberger(ring, [ring.parse("x^2 - y^3"), ring.parse("y*z - x")],
                        order, truncate=truncate)
        with pytest.raises(RingMismatch):
            normal_form(other.parse("x*y"), gb)
        assert "generators" not in gb.__dict__
        with pytest.raises(RingMismatch):
            GroebnerBasis(ring, [ring.parse("x"), other.parse("x")], order)


def test_gll_search_test_builds_no_generators(monkeypatch):
    # the test of cli.gll_search, LocalRing.loewy_length_at_most: one ds
    # basis of I alone per N, truncated at N + 1 and kept on the ring, and
    # no Buchberger run per f; no basis is converted to generators
    desc = cli.RingDescription(PrimeField(32003), cli.MAIN_RING.names,
                               cli.MAIN_RING.gen_exprs)
    R = desc.local_ring()
    built = []

    def record(ring, gens, order, **kwargs):
        built.append((tuple(gens), buchberger(ring, gens, order, **kwargs)))
        return built[-1][1]

    monkeypatch.setattr(localring, "buchberger", record)
    f = R.ring.parse("y + 3*z^2 - x*z")
    assert not R.loewy_length_at_most(f, 5)  # m^5 is not inside (f): no hit
    [(gens, gb)] = built
    assert gens == R.I.generators
    assert gb.order == NegDegRevLex() and gb.truncate == 6
    # a second f at the same N builds nothing
    assert not R.loewy_length_at_most(R.ring.parse("z - x*y"), 5)
    assert len(built) == 1
    # another N builds one more basis, of I again
    assert R.loewy_length_at_most(R.ring.parse("y"), 6)  # Loewy length 6
    assert len(built) == 2
    gens, gb = built[1]
    assert gens == R.I.generators and gb.truncate == 7
    assert all("generators" not in gb.__dict__ for _, gb in built)


def test_gll_search_draw_costs_one_rank_count(monkeypatch):
    # a nonzero row of fA puts f outside I, so on main, where every draw
    # at target 5 reads one, the search makes one Buchberger run, the ds
    # basis of I truncated at N + 1, and no degrevlex basis, membership
    # test or normal form.  At target 1 every row of a draw of order 2 is
    # 0, and each draw is tested against I's degrevlex basis instead
    desc = cli.RingDescription(PrimeField(32003), cli.MAIN_RING.names,
                               cli.MAIN_RING.gen_exprs)
    runs, normal_forms, members = [], [], []

    def run(ring, gens, order, **kwargs):
        runs.append((order, kwargs.get("truncate", 0)))
        return buchberger(ring, gens, order, **kwargs)

    def reduce(*args):
        normal_forms.append(args)
        return normal_form(*args)

    def member(ideal, f):
        members.append(f)
        return is_member(f, ideal.groebner())

    for module in (groebner, localring):
        monkeypatch.setattr(module, "buchberger", run)
        monkeypatch.setattr(module, "normal_form", reduce)
    monkeypatch.setattr(Ideal, "member", member)
    _report, hits = cli.gll_search(desc, 5, (1, 2), 50, seed=3)
    assert hits == []
    assert runs == [(NegDegRevLex(), 6)]
    assert normal_forms == [] and members == []
    _report, hits = cli.gll_search(desc, 1, (2, 2), 50, seed=3)
    assert hits == []
    assert runs[1:] == [(NegDegRevLex(), 2), (DegRevLex(), 0)]
    assert len(normal_forms) == len(members) == 50


def test_gll_test_keeps_what_depends_only_on_the_terms_and_rows(monkeypatch):
    # the rank count keeps, per basis, the normal forms of t * b for each
    # term t of f and row b: once f has been tested, a second f with the
    # same support reduces nothing, reads no table entry and builds no
    # generators; only its coefficients are new
    desc = cli.RingDescription(PrimeField(32003), cli.MAIN_RING.names,
                               cli.MAIN_RING.gen_exprs)
    R = desc.local_ring()
    assert not R.loewy_length_at_most(R.ring.parse("y + 3*z^2 - x*z"), 5)
    reduced, read = [], []
    nf_dict = groebner._nf_dict

    def counted_nf(*args):
        reduced.append(args)
        return nf_dict(*args)

    def counted_read(table, e):
        read.append(e)
        return dict.__getitem__(table, e)

    monkeypatch.setattr(groebner, "_nf_dict", counted_nf)
    monkeypatch.setattr(groebner._NormalForms, "__getitem__", counted_read)
    assert not R.loewy_length_at_most(R.ring.parse("5*y - z^2 + 7*x*z"), 5)
    assert reduced == [] and read == []
    assert "generators" not in R._gll_bases[5].__dict__
    # a new term is one new column, whose products are reduced once
    assert not R.loewy_length_at_most(R.ring.parse("y + x*y"), 5)
    assert reduced and read


@pytest.mark.parametrize("walk", ["fglm", "artinian_colon",
                                  "artinian_intersection"])
@pytest.mark.parametrize("field", PACKED_FIELDS.values(),
                         ids=PACKED_FIELDS.keys())
def test_walk_bases_equal_buchberger_of_the_same_ideal(field, walk):
    for ring, rng, gb, gens in _packed_runs(field, DegRevLex(), 0, walk):
        assert gb.generators == buchberger(ring, gens, DegRevLex()).generators


@pytest.mark.parametrize("field", PACKED_FIELDS.values(),
                         ids=PACKED_FIELDS.keys())
def test_colon_reduces_a_tail_past_the_border_of_the_walk(field):
    # I : (x^2) contains x, so the tail x^2 of y^3 + x^2 is a multiple of a
    # kernel lead that no independent column reaches: only its own image
    # reduces y^3 + x^2 to y^3
    ring = PolyRing(field, ("x", "y", "z"))
    I = Ideal(ring, ["y^3 + x^2", "x^3", "z"])
    gb = artinian_colon(I.groebner(), [ring.parse("x^2")])
    assert gb.generators == [ring.parse(g) for g in ("z", "x", "y^3")]


def test_kept_staircase_equals_a_fresh_walk_and_is_immutable():
    rng = random.Random(5)
    for field in (QQ, PrimeField(32003)):
        ring = PolyRing(field, ("x", "y", "z"))
        for _ in range(4):
            gens = [_random_poly(ring, rng) for _ in range(2)]
            gb = (Ideal(ring, gens) + max_ideal_power(ring, 5)).groebner()
            kept = gb.staircase()
            assert gb.staircase() is kept
            # an equal basis walked afresh, and walks below a degree
            fresh = GroebnerBasis(ring, list(gb.generators), DegRevLex())
            assert fresh._walk_staircase(DEGREE_BOUND) == kept
            assert fresh.staircase() == kept
            assert gb._walk_staircase(3) == kept[:3]
            assert isinstance(kept, tuple)
            assert all(isinstance(layer, tuple) for layer in kept)
            with pytest.raises(AttributeError):
                kept[0].append(1)
            with pytest.raises(TypeError):
                kept[1][0] = 0
    # an empty basis reads the number of variables off its ring
    for names in (("x", "y"), ("x", "y", "z")):
        empty = GroebnerBasis(PolyRing(QQ, names), [], DegRevLex())
        assert empty.staircase() is None


def test_artinian_colon_needs_a_zero_dimensional_ideal():
    S = PolyRing(QQ, ("x", "y", "z"))
    I = Ideal(S, ["x^2", "y^3"])
    with pytest.raises(ValueError, match="not zero-dimensional"):
        artinian_colon(I.groebner(), S.gens())


def test_artinian_intersection_needs_zero_dimensional_ideals():
    S = PolyRing(QQ, ("x", "y", "z"))
    I = Ideal(S, ["x^2", "y^3"])
    J = Ideal(S, ["x", "y", "z^2"])
    for pair in ((I, J), (J, I)):
        with pytest.raises(ValueError, match="not zero-dimensional"):
            artinian_intersection(*(K.groebner() for K in pair))
    with pytest.raises(ValueError, match="two orders"):
        artinian_intersection(J.groebner(),
                              buchberger(S, list(J.generators), Lex()))


@pytest.mark.parametrize("field", PACKED_FIELDS.values(),
                         ids=PACKED_FIELDS.keys())
def test_a_model_basis_stays_packed_through_colons_and_membership(field):
    ring = PolyRing(field, ("x", "y", "z"))
    R = LocalRing(ring, Ideal(ring, ["x^2 - y^5", "x*y^2 + y*z^3 - z^5"]))
    for extra in ("y", "z^2 + x*y", "x + y - z"):
        f = ring.parse(extra)
        model = R.local_model(R.I + Ideal(ring, [f]))
        colon = model.quotient(R.n)
        assert colon.contains(model) and not model.contains(colon)
        assert model.member(f) and not model.member(ring.one())


# ---------------------------------------------------------------------------
# the normal-form table of a basis: packed monomial -> (vec, m), vec the raw
# normal form of m times the monomial

def _table_bases(field, draw, N):
    """The ds bases truncated at N + 1 of the main ring and of the cusp
    5*x^2 - 7*y^3, whose lead coefficient gives its normal forms a
    multiplier, the degrevlex local model of the main ring plus (y), and
    the given, unreduced degrevlex basis x + y, y + z, z^2, which reduces x
    in a chain.  With draw, every coefficient of the generators is a draw
    of Q_DRAWS instead: then the chain divides out a content that the
    multipliers do not cancel."""
    rng = random.Random(28)
    for names, texts in ((("x", "y", "z"), ("x^2 - y^5",
                                            "x*y^2 + y*z^3 - z^5")),
                         (("x", "y"), ("5*x^2 - 7*y^3",)),
                         (("x", "y", "z"), ("x + y", "y + z", "z^2"))):
        ring = PolyRing(field, names)
        gens = [ring.parse(t) for t in texts]
        if draw:
            gens = [Polynomial(ring, {e: field.from_fraction(Q_DRAWS[draw](
                rng), 1) for e in g.terms}) for g in gens]
        if "z^2" in texts:
            yield GroebnerBasis(ring, gens, DegRevLex())
            continue
        yield buchberger(ring, gens, NegDegRevLex(), truncate=N + 1)
        if len(names) == 3:
            R = LocalRing(ring, Ideal(ring, gens))
            yield R.local_model(R.I + Ideal(ring, [ring.var(1)])).groebner()


@pytest.mark.parametrize("field, draw", [
    (QQ, None), (PrimeField(32003), None), (QQ, "big")],
    ids=["Q", "Fp", "Q-big"])
def test_table_entries_are_normal_forms_with_an_int_multiplier(field, draw):
    # the big coefficients make reduction divide out the content, which the
    # multiplier must then carry back: the test-local division, which
    # shares no code with the kernel, checks the bases that are not
    # truncated
    N = 5
    multipliers = set()
    for gb in _table_bases(field, draw, N):
        ring = gb.ring
        pk = packing(gb.order, ring.nvars)
        standard = {e for layer in gb.staircase() for e in layer}
        for d in range(N + 2):
            for e in monomials_of_degree(ring.nvars, d):
                x = pk.pack(e)
                vec, m = gb._normal_forms[x]
                assert type(m) is int and m > 0
                multipliers.add(m)
                if x in standard:
                    assert (vec, m) == ({x: 1}, 1)
                nf = Polynomial(ring, {pk.unpack(y): field.from_fraction(c, m)
                                       for y, c in vec.items()})
                assert nf == normal_form(ring.monomial(e), gb)
                if not gb.truncate:
                    assert nf == _divide(ring.monomial(e), gb.generators,
                                         gb.order)
    assert (multipliers == {1}) == bool(field.characteristic)


def _fixed_bases(field):
    """Four kinds of fixed basis over field: the degrevlex bases of main's
    I and of ex2's kernel (computed over Q, read over field), whose
    staircases are infinite; the local model of main's I + (y), which is
    m-primary; main's I truncated in ds at 6; and three seeded
    polynomials listed as divisors, which are not a Groebner basis."""
    ring = PolyRing(field, ("x", "y", "z"))
    I = Ideal(ring, list(cli.MAIN_RING.gen_exprs))
    ex2 = kernel(parse_map_file(cli.EX2_MAP_TEXT, QQ)).groebner()
    K = Ideal(ring, [g.to_str() for g in ex2.generators])
    R = LocalRing(ring, I)
    rng = random.Random(35)
    listed = [_random_poly(ring, rng) for _ in range(3)]
    bases = {"main": I.groebner(), "ex2-kernel": K.groebner(),
             "model": R.local_model(I + Ideal(ring, ["y"])).groebner(),
             "ds-6": buchberger(ring, I.generators, NegDegRevLex(),
                                truncate=6),
             "listed": GroebnerBasis(ring, listed, DegRevLex())}
    assert bases["main"].staircase() is None
    assert bases["ex2-kernel"].staircase() is None
    assert bases["model"].staircase() is not None
    assert buchberger(ring, listed, DegRevLex()).generators != listed
    return ring, bases


@pytest.mark.parametrize("field", PACKED_FIELDS.values(),
                         ids=PACKED_FIELDS.keys())
def test_normal_form_sums_table_entries_as_the_direct_route_reduces(field):
    # over Q the coefficients have denominators, so normal_form brings
    # them and the entries' multipliers to one scale
    ring, bases = _fixed_bases(field)
    draw = Q_DRAWS["fractions"] if field == QQ else \
        (lambda rng: rng.randint(-3, 3))
    rng = random.Random(2035)
    for name, gb in bases.items():
        nonzero = 0
        for _ in range(12):
            f = _random_poly(ring, rng, draw) * _random_poly(ring, rng, draw)
            f = f * _random_poly(ring, rng, draw) + _random_poly(ring, rng,
                                                                 draw)
            r = normal_form(f, gb)
            assert r == direct_normal_form(f, gb), name
            _assert_field_coefficients([r], field)
            nonzero += not r.is_zero()
        assert nonzero, name


@pytest.mark.parametrize("field", PACKED_FIELDS.values(),
                         ids=PACKED_FIELDS.keys())
def test_colon_by_longer_generators_equals_the_direct_route(field):
    # generators of two or more terms, alone and beside monomials, on the
    # m-primary model and on I + m^5
    ring, bases = _fixed_bases(field)
    I = Ideal(ring, list(cli.MAIN_RING.gen_exprs))
    I5 = I + max_ideal_power(ring, 5)
    gens_lists = [["y - y^2"], ["x + z", "y*z - 2*x^2 + z^3"],
                  ["x", "y + z^2", "z"], ["x^2 - y^5", "y*z + 3*x*y"]]
    for gb in (bases["model"], I5.groebner()):
        for texts in gens_lists:
            gens = [ring.parse(t) for t in texts]
            colon = artinian_colon(gb, gens)
            assert colon.generators == direct_colon(gb, gens).generators
    I4 = I + max_ideal_power(ring, 4)
    g = ring.parse("x + z")
    assert equals(Ideal.from_basis(artinian_colon(I4.groebner(), [g])),
                  colon_by_elimination(I4, g))


@pytest.mark.parametrize("field", PACKED_FIELDS.values(),
                         ids=PACKED_FIELDS.keys())
def test_readers_leave_table_entries_unchanged(field):
    # entries are shared: normal_form and a colon sum them into new dicts
    ring, bases = _fixed_bases(field)
    rng = random.Random(7)
    for name, gb in bases.items():
        table = gb._normal_forms
        pk = packing(gb.order, ring.nvars)
        for d in range(7):
            for e in monomials_of_degree(3, d):
                table[pk.pack(e)]
        kept = {e: (vec, dict(vec), m) for e, (vec, m) in table.items()}
        for _ in range(6):
            f = _random_poly(ring, rng) * _random_poly(ring, rng)
            normal_form(f, gb)
        if name == "model":
            artinian_colon(gb, [ring.parse("x"), ring.parse("y - z^2"),
                                ring.parse("x*y + z")])
        for e, (vec, copy, m) in kept.items():
            assert table[e][0] is vec and table[e] == (copy, m), name


# ---------------------------------------------------------------------------
# the reducer lookup of buchberger and fglm against the plain scan

LOOKUP_CASES = {"ds-truncated": (NegDegRevLex(), 5),
                "degrevlex": (DegRevLex(), 0), "block1": (BlockOrder(), 0)}


@pytest.mark.parametrize("order, truncate", LOOKUP_CASES.values(),
                         ids=LOOKUP_CASES.keys())
@pytest.mark.parametrize("field, draw", [
    (QQ, "nonunit"), (QQ, "big"), (PrimeField(32003), None),
    (PrimeField(3), None)], ids=["Q", "Q-big", "Fp", "F3"])
def test_reducer_lookup_matches_the_plain_scan(field, draw, order, truncate):
    # seeded reductions against a divisor list that grows at its end between
    # calls, as buchberger's does, sharing one lookup: each remainder and
    # scale is the plain scan's, a found entry is the first divisor in list
    # order that divides its monomial, and a miss counts divisors none of
    # which divides it
    rng = random.Random(31)
    ring = PolyRing(field, ("x", "y", "z"))
    pk = packing(order, ring.nvars)
    p = field.characteristic
    draw = Q_DRAWS[draw] if draw else (lambda rng: rng.randint(-3, 3))
    for _ in range(4):
        polys = []
        while len(polys) < 6:
            g = _random_poly(ring, rng, draw)
            if not g.is_zero():
                polys.append(g)
        everything = GroebnerBasis(ring, polys, order).divisors
        divisors, lookup = [], {}
        for size in (2, 4, 6):
            divisors += everything[len(divisors):size]
            for _ in range(5):
                f = _random_poly(ring, rng, draw) * _random_poly(ring, rng,
                                                                 draw)
                if f.is_zero():
                    continue
                raw, _scale = groebner._to_raw(f.terms, p, pk)
                plain = groebner._nf_dict(raw, divisors, pk, p, truncate)
                found = groebner._nf_dict(raw, divisors, pk, p, truncate,
                                          lookup)
                assert list(found[0].items()) == list(plain[0].items())
                assert found[1] == plain[1]
            for e, g in lookup.items():
                tried = g if type(g) is int else divisors.index(g) + 1
                first = [h for h in divisors[:tried]
                         if not (e - h[0]) & pk.guard]
                assert first == ([] if type(g) is int else [g])
        assert lookup
