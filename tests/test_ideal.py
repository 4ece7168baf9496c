import random
from fractions import Fraction

import pytest

from locring import cli, groebner
from locring.arith import QQ, PrimeField
from locring.errors import RingMismatch, ZeroColon
from locring.groebner import DEGREE_BOUND, GroebnerBasis, buchberger
from locring.ideal import (INFINITE, Ideal, all_monomials, max_ideal,
                           max_ideal_power)
from locring.poly import BlockOrder, DegRevLex, Polynomial, PolyRing
from locring.subalgebra import kernel
from oracles import (Lex, colon_by_elimination, equals,
                     intersect_by_elimination, leading_term)


@pytest.fixture
def R():
    return PolyRing(QQ, ("x", "y", "z"))


def test_all_monomials_count(R):
    assert len(all_monomials(R, 2)) == 6
    assert len(all_monomials(R, 5)) == 21
    assert all(sum(e) == 3 for e in all_monomials(R, 3))


def test_membership(R):
    I = Ideal(R, ["x^2 - y^5", "x*y^2 + y*z^3 - z^5"])
    f = R.parse("x^2 - y^5") * R.parse("z + 1") + R.parse("x*y^2 + y*z^3 - z^5")
    assert I.member(f)
    assert not I.member(R.parse("x"))


def test_sum_and_product(R):
    I = Ideal(R, ["x"])
    J = Ideal(R, ["y"])
    assert (I + J).member(R.parse("x + y"))
    IJ = I * J
    assert IJ.member(R.parse("x*y"))
    assert not IJ.member(R.parse("x"))


# the elimination oracles of tests/oracles.py, on ideals that are not
# zero-dimensional, which Ideal.intersect and Ideal.quotient do not take

def test_intersection_of_principal_ideals(R):
    I = Ideal(R, ["x"])
    J = Ideal(R, ["y"])
    K = intersect_by_elimination(I, J)
    assert equals(K, Ideal(R, ["x*y"]))


def test_intersection_with_variable_named_like_aux():
    # the oracle's auxiliary variable is t; a ring with a t takes t_
    R2 = PolyRing(QQ, ("t", "x"))
    t, x = R2.gens()
    K = intersect_by_elimination(Ideal(R2, [t * x]), Ideal(R2, [x ** 2]))
    assert equals(K, Ideal(R2, [t * x ** 2]))
    assert K.ring == R2


def test_quotient_principal(R):
    I = Ideal(R, ["x*y", "x*z"])
    Q = colon_by_elimination(I, R.parse("x"))
    assert equals(Q, Ideal(R, ["y", "z"]))


def test_quotient_by_ideal(R):
    I = Ideal(R, ["x^2", "x*y"])
    Q = colon_by_elimination(I, R.parse("x"))
    assert equals(Q, Ideal(R, ["x", "y"]))


def _random_poly(ring, rng, lo, hi):
    """About a third of the monomials of degree lo..hi, coefficients in
    [-3, 3]; those that vanish in the field (2 mod 2, 3 mod 3) are left
    out."""
    terms = {}
    for d in range(lo, hi + 1):
        for e in all_monomials(ring, d):
            c = rng.randint(-3, 3) if rng.randint(0, 2) == 0 else 0
            c = ring.field.from_int(c)
            if c:
                terms[e] = c
    return Polynomial(ring, terms)


def _colon_oracle(J, K):
    """J : K as the intersection of the colons by single generators, each
    colon and intersection taken by elimination, with no FGLM walk."""
    out = None
    for g in K.generators:
        q = colon_by_elimination(J, g)
        out = q if out is None else intersect_by_elimination(out, q)
    return out


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3),
                                   PrimeField(32003)],
                         ids=["Q", "F2", "F3", "Fp"])
def test_artinian_quotient_matches_intersection_oracle(field):
    rng = random.Random(2015)
    for names in (("x", "y"), ("x", "y", "z"), ("x", "y", "z")):
        ring = PolyRing(field, names)
        while True:
            gens = [_random_poly(ring, rng, 2, 3) for _ in names[1:]]
            J = Ideal(ring, gens) + max_ideal_power(ring, 5)
            # over F_2 a draw can vanish and leave J = m^5: draw again, so
            # that every J has a basis element with a tail
            if not all(g.is_monomial() for g in J.groebner().generators):
                break
        assert J.vector_space_dim() != INFINITE
        K = Ideal(ring, [])
        while K.is_zero_ideal():  # the same over F_2 for K = 0
            K = Ideal(ring, [_random_poly(ring, rng, 1, 2) for _ in range(2)])
        for colon_by in (max_ideal(ring), K):
            got = J.quotient(colon_by)
            installed = got._gb.generators
            assert got._gb.leads == \
                GroebnerBasis(ring, installed, DegRevLex()).leads
            assert installed == _colon_oracle(J, colon_by).groebner() \
                .generators
            assert buchberger(ring, list(got.generators), DegRevLex()) \
                .generators == installed


# monomial generators with coefficients other than 1: the colon walk reads
# a product b * (c * e) as c times a normal form of e + b that it computes
# once and shares between generators, so a shared one must be scaled by
# each c.  An error shows only on a colon element whose support mixes
# columns read off that memo with others, as it does on these two ideals.
SCALED_DIVIDENDS = (("x^2 - y^5", "x*y^2 + y*z^3 - z^5", "x^6", "y^6", "z^6"),
                    ("x^2 - 2*y*z", "y^2 + 3*x*z", "z^3 - x*y"))
SCALED_DIVISORS = ((("2", "x"), ("3", "y^2")),
                   (("-1", "x*y"), ("5", "z^2"), ("7", "x^2")),
                   (("2", "x^2"), ("3", "x*y"), ("-5", "y^2"), ("7", "z")),
                   (("1/2", "x"), ("-3/4", "y*z"), ("1", "z^2")))


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "Fp"])
def test_colon_by_scaled_monomials_matches_intersection_oracle(field):
    ring = PolyRing(field, ("x", "y", "z"))
    for gens in SCALED_DIVIDENDS:
        J = Ideal(ring, gens)
        for divisor in SCALED_DIVISORS:
            K = Ideal(ring, [ring.parse(m).scale(field.from_fraction(
                Fraction(c).numerator, Fraction(c).denominator))
                for c, m in divisor])
            got = Ideal(ring, J.generators).quotient(K)
            assert got.groebner().generators == \
                _colon_oracle(J, K).groebner().generators


def test_artinian_quotient_scales_a_basis_element_between_removals():
    # a basis element of I has two tail terms that lead elements of I : J
    # with fractional coefficients: the fraction-free assembly removes the
    # second from the element as scaled by the first removal
    S = PolyRing(QQ, ("x", "y"))
    I = Ideal(S, ["-3*x^2*y + x^2 - x*y", "x^3 + 5*x*y^2 + 3*y^3"]) + \
        max_ideal_power(S, 4)
    J = Ideal(S, ["y^2 + 5*x - 3*y"])
    installed = I.quotient(J)._gb.generators
    assert installed == _colon_oracle(I, J).groebner().generators
    assert any(c.denominator > 1 for g in installed for c in g.terms.values())


def test_artinian_quotient_edge_cases(R):
    unit = Ideal(R, [R.one()])
    J = Ideal(R, ["x^2 - y*z", "y^3", "z^2"])
    n = max_ideal(R)
    for ideal in (unit.quotient(n), J.quotient(J), J.quotient(n * J)):
        assert ideal._gb.generators == [R.one()]
        assert ideal.member(R.one())
    same = J.quotient(unit)
    assert same._gb.generators == J.groebner().generators


def test_quotient_by_zero_raises(R):
    I = Ideal(R, ["x"])
    with pytest.raises(ZeroColon):
        I.quotient_element(R.zero())


def test_elimination_cusp():
    R2 = PolyRing(QQ, ("t", "x", "y"))
    I = Ideal(R2, ["x - t^2", "y - t^3"])
    E = I.eliminate()
    assert {g.to_str() for g in E.groebner().generators} == {"x^3 - y^2"}


def _assert_installed_basis_is_fresh(ideal):
    """The degrevlex basis the ideal carries equals a fresh Buchberger run
    on its generators, which are that basis."""
    installed = ideal._gb
    fresh = buchberger(ideal.ring, list(ideal.generators), DegRevLex())
    assert installed.generators == fresh.generators == list(ideal.generators)
    assert installed.leads == fresh.leads


def test_eliminate_installs_the_reduced_basis_of_a_kernel():
    # ex2's kernel, the elimination of t from (x - t^8 - t^10, ...)
    _assert_installed_basis_is_fresh(
        kernel(cli.parse_map_file(cli.EX2_MAP_TEXT, QQ)))


def test_eliminate_converts_only_the_elements_it_keeps(monkeypatch):
    # ex2's kernel: the elements free of t are picked on the packed block
    # basis, whose own generators are never built, and are those that the
    # whole converted basis gives
    runs = []
    original = groebner.buchberger

    def run(*args, **kwargs):
        runs.append(original(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(groebner, "buchberger", run)
    E = kernel(cli.parse_map_file(cli.EX2_MAP_TEXT, QQ))
    (gb,) = runs
    assert gb.order == BlockOrder() and "generators" not in gb.__dict__
    kept = [Polynomial(E.ring, {e[1:]: c for e, c in g.terms.items()})
            for g in gb.generators if not any(e[0] for e in g.terms)]
    assert list(E.generators) == kept
    assert len(kept) < len(gb)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "Fp"])
def test_eliminate_installs_the_reduced_basis_of_an_intersection(field):
    rng = random.Random(1993)
    ring = PolyRing(field, ("x", "y", "z"))
    for _ in range(4):
        I = Ideal(ring, [_random_poly(ring, rng, 1, 2) for _ in range(2)])
        J = Ideal(ring, [_random_poly(ring, rng, 1, 2) for _ in range(2)])
        K = intersect_by_elimination(I, J)
        _assert_installed_basis_is_fresh(K)
        assert I.contains(K) and J.contains(K)


def _random_zero_dimensional(ring, rng):
    """Generators v^a + (terms of degree < a), one for each variable v, so
    that v^a leads under degrevlex, plus one random element: a
    zero-dimensional ideal, and with a constant term most often not
    m-primary."""
    gens = [_random_poly(ring, rng, 1, 1)]
    for v in ring.gens():
        a = rng.randint(1, 3)
        gens.append(v ** a + _random_poly(ring, rng, 0, a - 1))
    return Ideal(ring, gens)


def _assert_walk_equals_elimination(I, J):
    K = I.intersect(J)
    installed = K._gb.generators
    assert installed == intersect_by_elimination(I, J).groebner().generators
    assert buchberger(K.ring, list(K.generators), DegRevLex()).generators == \
        installed
    assert I.contains(K) and J.contains(K)
    return K


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(32003)],
                         ids=["Q", "F2", "Fp"])
def test_artinian_intersection_matches_elimination(field):
    rng = random.Random(1993)
    for names in (("x", "y"), ("x", "y"), ("x", "y", "z"), ("x", "y", "z")):
        ring = PolyRing(field, names)
        for _ in range(2):
            I = _random_zero_dimensional(ring, rng)
            J = _random_zero_dimensional(ring, rng)
            assert I.vector_space_dim() != INFINITE
            assert J.vector_space_dim() != INFINITE
            _assert_walk_equals_elimination(I, J)


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(32003)],
                         ids=["Q", "F3", "Fp"])
def test_artinian_intersection_of_ideals_that_are_not_m_primary(field):
    # the points (1, 1) and (-1, -1) and a double point at the origin
    ring = PolyRing(field, ("x", "y"))
    I = Ideal(ring, ["x^2 - 1", "y - x"])
    J = Ideal(ring, ["x", "y^2"])
    K = _assert_walk_equals_elimination(I, J)
    assert K.vector_space_dim() == 4
    assert K.member(ring.parse("x^3 - x")) and not K.member(ring.parse("y^2"))


def test_artinian_intersection_edge_cases(R):
    I = Ideal(R, ["x^2 - y*z", "y^3", "z^2", "x*y"])
    J = Ideal(R, ["x", "y^2", "z"])
    unit = Ideal(R, [R.one()])
    assert J.contains(I)
    for K in (I.intersect(J), J.intersect(I), I.intersect(unit),
              unit.intersect(I), I.intersect(I)):
        assert K._gb.generators == I.groebner().generators
    assert unit.intersect(unit)._gb.generators == [R.one()]


@pytest.mark.parametrize("gens", [[], ["x*y"]], ids=["zero", "xy"])
def test_colons_and_intersections_need_zero_dimensional_ideals(gens):
    S = PolyRing(QQ, ("x", "y"))
    I = Ideal(S, gens)
    m = max_ideal(S)
    with pytest.raises(ValueError, match="not zero-dimensional"):
        I.quotient(m)
    with pytest.raises(ValueError, match="not zero-dimensional"):
        I.quotient_element(S.parse("x"))
    for pair in ((I, m), (m, I), (I, I)):
        with pytest.raises(ValueError, match="not zero-dimensional"):
            pair[0].intersect(pair[1])
    assert not I.colon_cache


def test_member_of_the_zero_ideal(R):
    Z = Ideal(R, [])
    assert Z.groebner().ring == R  # an empty basis has a ring too
    assert Z.member(R.zero())
    assert not Z.member(R.parse("x")) and not Z.member(R.one())
    assert Ideal(R, ["x"]).contains(Z) and not Z.contains(Ideal(R, ["x"]))


def test_from_basis_of_an_empty_basis_is_the_zero_ideal(R):
    Z = Ideal.from_basis(GroebnerBasis(R, [], DegRevLex()))
    assert Z.ring == R and Z.is_zero_ideal()
    assert Z.member(R.zero()) and not Z.member(R.parse("x"))
    assert Z.vector_space_dim() == INFINITE
    assert equals(Z, Ideal(R, []))


def test_from_basis_of_the_unit_basis_is_the_unit_ideal(R):
    U = Ideal.from_basis(GroebnerBasis(R, [R.one()], DegRevLex()))
    assert U.generators == (R.one(),)
    assert U.member(R.parse("x + 1")) and U.member(R.one())
    assert U.vector_space_dim() == 0
    assert equals(U, Ideal(R, ["x", "x + 1"]))


def test_from_basis_rejects_a_basis_that_is_not_degrevlex(R):
    # an ideal holds one basis, the reduced degrevlex one
    lex = buchberger(R, [R.parse("x^2 - y*z"), R.parse("y^2 - x")], Lex())
    with pytest.raises(ValueError, match="not degrevlex"):
        Ideal.from_basis(lex)


def test_vector_space_dim(R):
    assert Ideal(R, ["x^2", "y^2", "z^2"]).vector_space_dim() == 8
    assert Ideal(R, ["x", "y"]).vector_space_dim() == INFINITE
    assert max_ideal_power(R, 3).vector_space_dim() == 10


def test_ring_mismatch(R):
    other = PolyRing(QQ, ("a", "b"))
    with pytest.raises(RingMismatch):
        Ideal(R, ["x"]) + Ideal(other, ["a"])


def test_max_ideal(R):
    n = max_ideal(R)
    assert n.member(R.parse("x + 2*y"))
    assert not n.member(R.parse("x + 1"))


@pytest.mark.parametrize("p", [2, 3])
def test_coefficients_zero_in_the_field_are_dropped(p):
    # p*x used to stay a term with coefficient 0, the leading term of f
    F = PrimeField(p)
    S = PolyRing(F, ("x", "y"))
    f = Polynomial(S, {(1, 0): F.from_int(p), (0, 1): F.from_int(1)})
    assert f == S.parse("y") and leading_term(f, DegRevLex())[0] == (0, 1)
    assert Ideal(S, [f]).member(S.parse("y"))
    assert not Ideal(S, [f]).member(S.parse("x"))
    colon = colon_by_elimination(Ideal(S, ["x*y"]), f)
    assert equals(colon, Ideal(S, ["x"]))


def test_artinian_colon_past_the_packing_bound_raises():
    S = PolyRing(QQ, ("x", "y"))
    I = Ideal(S, ["x^2", "y^2"])
    # the image of the column y, x^(DEGREE_BOUND - 1)*y + y^2, does not fit
    with pytest.raises(ValueError, match="does not fit"):
        I.quotient(Ideal(S, [f"x^{DEGREE_BOUND - 1} + y"]))
    colon = I.quotient(Ideal(S, [f"x^{DEGREE_BOUND - 2} + y"]))
    assert equals(colon, Ideal(S, ["x^2", "y"]))
