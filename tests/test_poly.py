import random

import pytest

from locring.arith import QQ, PrimeField, Rational
from locring.errors import (FieldMismatch, ParseError, VariableClash,
                            ZeroPolynomial)
from locring.poly import (BlockOrder, DegRevLex, NegDegRevLex, Polynomial,
                          PolyRing, mono_div, mono_divides, mono_lcm,
                          mono_mul)
from oracles import leading_term, substitute_in_field


@pytest.fixture
def R():
    return PolyRing(QQ, ("x", "y", "z"))


def test_mono_helpers():
    assert mono_mul((1, 2), (0, 3)) == (1, 5)
    assert mono_div((2, 3), (1, 1)) == (1, 2)
    assert mono_div((1, 0), (0, 1)) is None
    assert mono_lcm((2, 0), (1, 3)) == (2, 3)
    assert mono_divides((1, 1), (2, 1))
    assert not mono_divides((1, 2), (2, 1))


def test_parse_and_print_roundtrip(R):
    for s in ("x^2 - y^5", "x*y^2 + y*z^3 - z^5", "1/2*x - 3", "-x + y"):
        f = R.parse(s)
        assert R.parse(f.to_str()) == f


def test_parse_rejects_garbage(R):
    for bad in ("x +", "x^", "2x", "w + 1", "(x"):
        with pytest.raises(ParseError):
            R.parse(bad)


def test_duplicate_variables_rejected():
    with pytest.raises(VariableClash):
        PolyRing(QQ, ("x", "x"))


def test_extend_clash(R):
    # a clash appends "_" until the name is free
    assert R.extend("y").names == ("y_", "x", "y", "z")
    assert PolyRing(QQ, ("h", "h_")).extend("h").names == ("h__", "h", "h_")


def test_arithmetic(R):
    x, y, z = R.gens()
    f = (x + y) ** 2
    assert f == x ** 2 + x * y * R.constant(2) + y ** 2
    assert (f - f).is_zero()
    assert (x * y) * z == x * (y * z)


def test_degrees_and_forms(R):
    f = R.parse("x^2 - y^5")
    assert f.total_degree() == 5
    assert f.order() == 2
    assert f.initial_form() == R.parse("x^2")


def test_order_of_zero_raises(R):
    with pytest.raises(ZeroPolynomial):
        R.zero().order()


def test_term_order_keys():
    drl = DegRevLex()
    assert drl.key((0, 2, 0)) > drl.key((1, 0, 0))        # degree first
    assert drl.key((1, 1, 0)) > drl.key((1, 0, 1))        # revlex tie-break
    ds = NegDegRevLex()
    assert ds.key((1, 0, 0)) > ds.key((0, 2, 0))          # lowest degree
    assert ds.key((1, 1, 0)) > ds.key((1, 0, 1))          # revlex tie-break


def test_block_order_eliminates_first_block():
    b = BlockOrder()
    # degrevlex on the first variable, then on the rest
    assert b.key((2, 1, 3)) == (2, -2, 4, -3, -1)
    # any power of the first variable beats anything without it
    assert b.key((1, 0, 0)) > b.key((0, 9, 9))
    assert b.key((0, 2, 0)) > b.key((0, 1, 1)) or \
        b.key((0, 1, 1)) > b.key((0, 2, 0))


def test_homogenize_dehomogenize(R):
    f = R.parse("x^2 - y^5")
    h = f.homogenize("h")
    assert len({sum(e) for e in h.terms}) == 1
    assert h.dehomogenize() == f


def test_substitute(R):
    T = PolyRing(QQ, ("t",))
    t = T.var(0)
    f = R.parse("x^3 - y^2")
    assert f.substitute([t ** 2, t ** 3, T.zero()]).is_zero()


@pytest.mark.parametrize("source, target", [(3, 5), (0, 5), (5, 0)])
def test_substitute_rejects_values_over_another_field(source, target):
    # residues mod 3 read mod 5 would give a wrong polynomial, not an error
    def ring(p, names):
        return PolyRing(PrimeField(p) if p else QQ, names)

    f = ring(source, ("x",)).parse("x^2 + x")
    with pytest.raises(FieldMismatch):
        f.substitute([ring(target, ("t",)).parse("t + 1")])


def _naive_substitute(f, values):
    """Every term evaluated on its own, each power taken afresh."""
    ring = values[0].ring
    out = ring.zero()
    for e, c in f.terms.items():
        term = ring.one().scale(c)
        for v, x in zip(values, e):
            term = term * v ** x
        out = out + term
    return out


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(32003)],
                         ids=["Q", "F2", "Fp"])
def test_substitute_matches_term_by_term_evaluation(field):
    # the integer route against evaluation in field arithmetic, with
    # non-integral coefficients over Q in f and in the values, values in
    # a ring other than f's, of one and of two variables, 0 and constants
    rng = random.Random(2015)
    S = PolyRing(field, ("x", "y", "z"))
    targets = [PolyRing(field, ("s", "t")), PolyRing(field, ("t",)), S]

    def coefficient():
        num = rng.randint(-9, 9)
        if field.characteristic:
            return field.from_int(num)
        return field.from_fraction(num, rng.choice([1, 1, 2, 3, 12, 35]))

    def random_poly(ring, nterms, top):
        # terms in random order, so a variable's exponents rise and fall
        return Polynomial(ring, {
            tuple(rng.randint(0, top) for _ in range(ring.nvars)):
                coefficient() for _ in range(nterms)})

    falls = 0
    for k in range(18):
        T = targets[k % len(targets)]
        f = random_poly(S, 8, 6)
        exps = [e[0] for e in f.terms]
        falls += any(a > b for a, b in zip(exps, exps[1:]))
        values = [random_poly(T, 3, 2) for _ in range(S.nvars)]
        values[rng.randrange(S.nvars)] = T.zero() if rng.randint(0, 1) \
            else T.constant(coefficient())
        for g in (f, S.zero(), S.constant(coefficient())):
            got = g.substitute(values)
            assert got.ring == T
            assert got == substitute_in_field(g, values) \
                == _naive_substitute(g, values)
    assert falls


def test_prime_field_polynomials():
    F = PrimeField(5)
    R = PolyRing(F, ("x", "y"))
    f = R.parse("x + y") ** 5
    # Frobenius: (x+y)^5 = x^5 + y^5 over F_5
    assert f == R.parse("x^5 + y^5")


def test_leading_term(R):
    f = R.parse("x*y^2 + y*z^3 - z^5")
    e, c = leading_term(f, DegRevLex())
    assert e == (0, 0, 5)
    assert c == Rational(-1)
