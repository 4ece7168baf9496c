import pytest

from locring.arith import QQ
from locring.errors import UnitIdeal
from locring.ideal import Ideal
from locring.monomial import MonomialIdeal
from locring.poly import PolyRing


def M(*gens):
    return MonomialIdeal(3, gens)


def test_minimal_generators():
    A = M((2, 0, 0), (2, 1, 0), (0, 1, 0))
    assert A.generators == ((0, 1, 0), (2, 0, 0))


def test_membership_and_containment():
    A = M((1, 1, 0), (0, 0, 2))
    assert A.member((2, 1, 0))
    assert not A.member((1, 0, 1))
    assert M((1, 0, 0)).contains(A.intersect(M((1, 0, 0))))


def test_intersection():
    A = M((2, 0, 0), (0, 1, 0))
    B = M((1, 0, 0), (0, 0, 6))
    C = A.intersect(B)
    assert C == M((2, 0, 0), (1, 1, 0), (0, 1, 6))


def test_from_ideal_rejects_non_monomial():
    R = PolyRing(QQ, ("x", "y", "z"))
    with pytest.raises(ValueError):
        MonomialIdeal.from_ideal(Ideal(R, ["x^2 - y^5"]))


def test_irreducible_decomposition_simple():
    # (x*y) = (x) cap (y)
    A = M((1, 1, 0))
    comps = A.irreducible_decomposition()
    assert comps == [M((0, 1, 0)), M((1, 0, 0))]


def test_decomposition_intersects_back():
    A = M((2, 0, 0), (1, 2, 0), (1, 1, 3), (0, 1, 6))
    comps = A.irreducible_decomposition()
    inter = comps[0]
    for c in comps[1:]:
        inter = inter.intersect(c)
    assert inter == A
    assert all(c.is_irreducible() for c in comps)


def test_decomposition_is_irredundant():
    A = M((2, 0, 0), (1, 2, 0), (1, 1, 3), (0, 1, 6))
    comps = A.irreducible_decomposition()
    for i, c in enumerate(comps):
        inter = None
        for j, d in enumerate(comps):
            if i == j:
                continue
            inter = d if inter is None else inter.intersect(d)
        assert not c.contains(inter)


def test_unit_ideal_has_no_decomposition():
    with pytest.raises(UnitIdeal):
        M((0, 0, 0)).irreducible_decomposition()


def test_minimal_primes():
    A = M((2, 0, 0), (1, 2, 0), (1, 1, 3), (0, 1, 6))
    assert A.minimal_primes() == [frozenset({0, 1}), frozenset({0, 2})]
