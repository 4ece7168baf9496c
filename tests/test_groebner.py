import random

import pytest

from locring.arith import QQ, PrimeField
from locring.errors import BudgetExceeded
from locring.groebner import buchberger, is_member, normal_form, spoly
from locring.ideal import max_ideal_power
from locring.poly import (BlockOrder, DegRevLex, Lex, Polynomial, PolyRing,
                          mono_divides, monomials_of_degree)


@pytest.fixture
def R():
    return PolyRing(QQ, ("x", "y"))


def test_spoly_cancels_leading_terms(R):
    order = DegRevLex()
    f = R.parse("x^2 + y")
    g = R.parse("x*y + x")
    s = spoly(f, g, order)
    # the lcm monomial x^2*y cancels
    assert order.key(s.leading_term(order)[0]) < order.key((2, 1))


def test_normal_form_is_zero_on_members(R):
    gb = buchberger([R.parse("x^2 - y"), R.parse("y^2 - x")], DegRevLex())
    f = R.parse("x^2 - y") * R.parse("x + y^3") + R.parse("y^2 - x")
    assert normal_form(f, gb.generators, DegRevLex()).is_zero()
    assert is_member(f, gb)


def test_katsura_like_system(R):
    # classic textbook pair: the reduced basis under lex solves the system
    gb = buchberger([R.parse("x^2 + y^2 - 1"), R.parse("x - y")], Lex())
    gens = {g.to_str() for g in gb.generators}
    assert gens == {"x - y", "y^2 - 1/2"}


def test_reduced_basis_is_canonical(R):
    f1, f2 = R.parse("x^3 - 2*x*y"), R.parse("x^2*y - 2*y^2 + x")
    gb1 = buchberger([f1, f2], DegRevLex())
    gb2 = buchberger([f2, f1], DegRevLex())
    assert gb1.generators == gb2.generators
    # the textbook answer for this pair
    gens = {g.to_str() for g in gb1.generators}
    assert gens == {"x^2", "x*y", "y^2 - 1/2*x"}


def test_unit_ideal(R):
    gb = buchberger([R.parse("x"), R.parse("x + 1")], DegRevLex())
    assert len(gb.generators) == 1
    assert gb.generators[0].is_constant()


def test_zero_input(R):
    gb = buchberger([R.zero()], DegRevLex())
    assert not gb.generators


def test_idempotence(R):
    gb = buchberger([R.parse("x^3 - 2*x*y"), R.parse("x^2*y - 2*y^2 + x")],
                    DegRevLex())
    again = buchberger(list(gb.generators), DegRevLex())
    assert again.generators == gb.generators


def test_finite_field_basis():
    R = PolyRing(PrimeField(7), ("x", "y"))
    gb = buchberger([R.parse("x^2 + y"), R.parse("x*y + 3")], DegRevLex())
    for g in gb.generators:
        assert is_member(g * R.parse("x + y"), gb)


def test_pair_budget():
    R = PolyRing(QQ, ("x", "y", "z"))
    gens = [R.parse("x^4 + y^3 + z^2 - 1"), R.parse("x^3 + y^2 + z - 1"),
            R.parse("x^2*y*z + x*y^2 + z^3")]
    with pytest.raises(BudgetExceeded) as exc:
        buchberger(gens, Lex(), max_pairs=3)
    assert "pairs" in str(exc.value.diagnostics)


def test_content_is_removed(R):
    gb = buchberger([R.parse("2*x^2 - 4*y")], DegRevLex())
    assert gb.generators[0] == R.parse("x^2 - 2*y")


def _naive_reduced_basis(gens, order):
    """Oracle: Buchberger over every pair with no criteria, then
    minimalization and interreduction by normal_form."""
    G = [g for g in gens if not g.is_zero()]
    pairs = [(i, j) for j in range(len(G)) for i in range(j)]
    while pairs:
        i, j = pairs.pop()
        r = normal_form(spoly(G[i], G[j], order), G, order)
        if not r.is_zero():
            pairs.extend((k, len(G)) for k in range(len(G)))
            G.append(r)
    key = order.key
    minimal = []
    for g in sorted(G, key=lambda g: key(g.leading_monomial(order))):
        lm = g.leading_monomial(order)
        if not any(mono_divides(h.leading_monomial(order), lm)
                   for h in minimal):
            minimal.append(g)
    reduced = []
    for g in minimal:
        r = normal_form(g, [h for h in minimal if h is not g], order)
        lead = r.leading_term(order)[1]
        reduced.append(r.scale(r.ring.field.one() / lead))
    return reduced


def _random_poly(ring, rng):
    """Two to four terms of degree 2..3, coefficients in [-3, 3]."""
    monos = [e for d in (2, 3) for e in monomials_of_degree(ring.nvars, d)]
    terms = {}
    for e in rng.sample(monos, rng.randint(2, 4)):
        c = rng.randint(-3, 3)
        if c:
            terms[e] = ring.field.from_int(c)
    return Polynomial(ring, terms)


@pytest.mark.parametrize("order", [DegRevLex(), Lex(), BlockOrder(1)],
                         ids=["degrevlex", "lex", "block1"])
@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "Fp"])
def test_buchberger_matches_naive_oracle(field, order):
    # local models J + n^M: mostly monomial inputs, so the monomial-pair
    # skip, the stored pair lcms and the degree pre-filter all fire
    rng = random.Random(1988)
    ring = PolyRing(field, ("x", "y", "z"))
    for M in (3, 4, 5) * 3:
        gens = [_random_poly(ring, rng) for _ in range(rng.randint(2, 3))]
        gens += [ring.monomial(e) for e in monomials_of_degree(3, M)]
        assert buchberger(gens, order).generators == \
            _naive_reduced_basis(gens, order)


def test_monomial_pairs_are_never_reduced():
    R = PolyRing(QQ, ("x", "y", "z"))
    gens = max_ideal_power(R, 4).generators
    gb = buchberger(gens, DegRevLex(), max_pairs=0)
    assert len(gb) == 15
    assert set(gb.generators) == set(gens)


def test_normal_form_reduces_by_first_listed_divisor(R):
    # both leading monomials divide f; the degree pre-filter must not let
    # the lower-degree one win
    f = R.parse("x^2*y^2")
    first, second = R.parse("x^2*y - 1"), R.parse("x*y - 1")
    assert normal_form(f, [first, second], DegRevLex()) == R.parse("y")
    assert normal_form(f, [second, first], DegRevLex()) == R.parse("1")
