import pytest

from locring.arith import QQ, PrimeField
from locring.cli import EX2_MAP_TEXT
from locring.errors import ParseError
from locring.ideal import Ideal, max_ideal_power
from locring.localring import LocalRing
from locring.poly import PolyRing
from locring.subalgebra import (ParametrizedMap, kernel, parse_map_file,
                                verify_in_kernel)
from oracles import equals


@pytest.fixture
def T():
    return PolyRing(QQ, ("t",))


def _monomial_map(T, exps, names):
    t = T.var(0)
    src = PolyRing(QQ, tuple(names))
    return ParametrizedMap(src, [t ** e for e in exps])


def test_images_must_be_nonconstant(T):
    src = PolyRing(QQ, ("x",))
    with pytest.raises(ValueError):
        ParametrizedMap(src, [T.one()])
    with pytest.raises(ValueError):
        ParametrizedMap(src, [T.parse("t + 1")])


@pytest.mark.parametrize("a,b", [(2, 3), (2, 5), (3, 4)])
def test_monomial_curve_kernels(T, a, b):
    pm = _monomial_map(T, (a, b), ("x", "y"))
    K = kernel(pm)
    expected = Ideal(pm.source, [f"x^{b} - y^{a}"])
    assert equals(K, expected)
    assert all(verify_in_kernel(g, pm) for g in K.generators)


def test_kernel_source_variable_named_t():
    # the eliminated parameter must not clash with a source variable
    pm = parse_map_file("s\nt = s^2\nu = s^3\n", QQ)
    K = kernel(pm)
    assert [g.to_str() for g in K.groebner().generators] == ["t^3 - u^2"]


def test_kernel_source_variable_named_like_the_parameter():
    # the eliminated parameter is _t, or _t_ when a source variable is _t
    named = kernel(parse_map_file("s\n_t = s^3\ny = s^4\nz = s^5\n", QQ))
    plain = kernel(parse_map_file("s\nx = s^3\ny = s^4\nz = s^5\n", QQ))
    assert named.ring.names == ("_t", "y", "z")
    rename = PolyRing(QQ, ("x", "y", "z"))
    assert [g.substitute(rename.gens())
            for g in named.groebner().generators] \
        == plain.groebner().generators


def test_verify_in_kernel(T):
    pm = _monomial_map(T, (2, 3), ("x", "y"))
    src = pm.source
    assert verify_in_kernel(src.parse("x^3 - y^2"), pm)
    assert not verify_in_kernel(src.parse("x - y"), pm)


def test_heavy_parametrization_kernel(T):
    t = T.var(0)
    src = PolyRing(QQ, ("x", "y", "z"))
    pm = ParametrizedMap(src, [t ** 8 + t ** 10, t ** 9, t ** 20 + t ** 36])
    J = kernel(pm)
    assert all(verify_in_kernel(g, pm) for g in J.generators)
    n5 = max_ideal_power(src, 5)
    target = Ideal(src, ["z^2", "y^4 - x^2*z + 2*y^2*z"]) + n5
    assert equals(J + n5, target)
    # the quotient is a one-dimensional local ring of multiplicity 8
    R = LocalRing(src, J)
    assert R.multiplicity() == 8


@pytest.fixture(scope="module")
def ex2_kernel_over_q():
    return kernel(parse_map_file(EX2_MAP_TEXT, QQ))


@pytest.mark.parametrize("p, loewy", [(2, 5), (3, 6)])
def test_ex2_over_small_prime_fields(ex2_kernel_over_q, p, loewy):
    # the reduced basis of the kernel over F_p is that over Q reduced mod p,
    # and the index is 5; the Loewy length of R/xR is the Q value 6 over
    # F_3 but 5 over F_2, so p = 2 is exceptional for ex2
    pm = parse_map_file(EX2_MAP_TEXT, PrimeField(p))
    S = pm.source
    J = kernel(pm)
    assert J.groebner().generators == [
        S.parse(g.to_str()) for g in ex2_kernel_over_q.groebner().generators]
    R = LocalRing(S, J)
    x = S.var(0)
    assert (R.loewy_length_mod(x), R.index(x)) == (loewy, 5)


def test_map_file_roundtrip():
    text = "t\nx = t^8 + t^10\ny = t^9\nz = t^20 + t^36\n"
    pm = parse_map_file(text, QQ)
    assert pm.source.names == ("x", "y", "z")
    assert [g.order() for g in pm.images] == [8, 9, 20]


def test_map_file_errors():
    with pytest.raises(ParseError):
        parse_map_file("", QQ)
    with pytest.raises(ParseError):
        parse_map_file("t\nx t^2\n", QQ)
    with pytest.raises(ParseError):
        parse_map_file("t\n", QQ)


def test_map_file_errors_name_the_line():
    # lines count from 1, comment and blank lines included
    for text, line in (("# a curve\n\n1t\n", 3),
                       ("t\nx = t^2\n\n# y\ny t^3\n", 5),
                       ("t\nx = t^2\n2y = t^3\n", 3),
                       ("t\nx = t^2\ny = s^3\n", 3),
                       ("t\nx = t^2\n# again\nx = t^3\n", 4)):
        with pytest.raises(ParseError, match=f"^line {line}: "):
            parse_map_file(text, QQ)
    # an expression error names its line too
    with pytest.raises(ParseError,
                       match=r"^line 3: unexpected end of input$"):
        parse_map_file("t\n\nx = t^2 +\n", QQ)
    # so does an image outside the maximal ideal of k[t], or a zero image
    for text, message in (
            ("t\nx = t^2\n\ny = t + 1\n",
             "line 4: images must have zero constant term"),
            ("t\nx = t^2\ny = 3\n", "line 3: images must be nonconstant"),
            ("t\nx = t^2\ny = 0\n", "line 3: images must be nonconstant")):
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_map_file(text, QQ)
