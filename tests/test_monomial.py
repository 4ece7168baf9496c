import random

import pytest

from locring.arith import QQ
from locring.errors import UnitIdeal
from locring.ideal import Ideal
from locring.monomial import MonomialIdeal
from locring.poly import PolyRing
from oracles import monomial_intersect


def M(*gens):
    return MonomialIdeal(3, gens)


def test_minimal_generators():
    A = M((2, 0, 0), (2, 1, 0), (0, 1, 0))
    assert A.generators == ((0, 1, 0), (2, 0, 0))


def test_membership_and_containment():
    A = M((1, 1, 0), (0, 0, 2))
    assert A.member((2, 1, 0))
    assert not A.member((1, 0, 1))
    assert M((1, 0, 0)).contains(monomial_intersect(A, M((1, 0, 0))))


def test_intersection():
    A = M((2, 0, 0), (0, 1, 0))
    B = M((1, 0, 0), (0, 0, 6))
    C = monomial_intersect(A, B)
    assert C == M((2, 0, 0), (1, 1, 0), (0, 1, 6))
    assert monomial_intersect(A, M()) == M()


def test_from_ideal_rejects_non_monomial():
    R = PolyRing(QQ, ("x", "y", "z"))
    with pytest.raises(ValueError):
        MonomialIdeal.from_ideal(Ideal(R, ["x^2 - y^5"]))


def test_irreducible_decomposition_simple():
    # (x*y) = (x) cap (y)
    A = M((1, 1, 0))
    comps = A.irreducible_decomposition()
    assert comps == [M((0, 1, 0)), M((1, 0, 0))]


def _decomposition_inputs():
    """The tangent cone of the main ring, and seeded random proper
    monomial ideals in three variables."""
    rng = random.Random(1978)
    out = [M((2, 0, 0), (1, 2, 0), (1, 1, 3), (0, 1, 6))]
    while len(out) < 25:
        gens = [tuple(rng.randint(0, 4) for _ in range(3))
                for _ in range(rng.randint(1, 6))]
        if all(any(g) for g in gens):
            out.append(M(*gens))
    return out


def test_decomposition_intersects_back():
    for A in _decomposition_inputs():
        comps = A.irreducible_decomposition()
        inter = comps[0]
        for c in comps[1:]:
            inter = monomial_intersect(inter, c)
        assert inter == A
        # irreducible: generated by pure variable powers
        assert all(sum(1 for e in g if e > 0) <= 1
                   for c in comps for g in c.generators)


def test_decomposition_is_irredundant():
    for A in _decomposition_inputs():
        comps = A.irreducible_decomposition()
        if len(comps) == 1:  # an irreducible ideal is its own decomposition
            continue
        for i, c in enumerate(comps):
            inter = None
            for j, d in enumerate(comps):
                if i == j:
                    continue
                inter = d if inter is None else monomial_intersect(inter, d)
            assert not c.contains(inter)


def test_unit_ideal_has_no_decomposition():
    with pytest.raises(UnitIdeal):
        M((0, 0, 0)).irreducible_decomposition()


def test_minimal_primes():
    A = M((2, 0, 0), (1, 2, 0), (1, 1, 3), (0, 1, 6))
    assert A.minimal_primes() == [frozenset({0, 1}), frozenset({0, 2})]
