import pytest

from locring.arith import QQ
from locring.errors import ZeroPolynomial
from locring.poly import PolyRing
from locring.polytope import (LatticePolygon, axis_triangle_fast_path,
                              convex_hull, edge_splitting_search,
                              is_integer_irreducible, minkowski_sum,
                              newton_polygon)


@pytest.fixture
def R():
    return PolyRing(QQ, ("z", "y"))


def test_convex_hull_drops_interior_and_collinear():
    pts = [(0, 0), (4, 0), (0, 4), (2, 1), (2, 0)]
    assert convex_hull(pts) == [(0, 0), (4, 0), (0, 4)]
    assert convex_hull([(0, 0), (1, 1), (2, 2)]) == [(0, 0), (2, 2)]
    assert convex_hull([(3, 3)]) == [(3, 3)]


def test_polygon_contains():
    P = LatticePolygon([(0, 0), (4, 0), (0, 4)])
    assert P.contains((1, 1))
    assert P.contains((2, 2))  # on the hypotenuse
    assert not P.contains((3, 3))


def test_edges_are_primitive_with_lattice_lengths():
    P = LatticePolygon([(0, 0), (4, 0), (0, 2)])
    edges = dict(P.edges())
    assert edges[(1, 0)] == 4
    assert edges[(-2, 1)] == 2
    assert edges[(0, -1)] == 2


def test_newton_polygon_of_zero_raises(R):
    with pytest.raises(ZeroPolynomial):
        newton_polygon(R.zero())


def test_newton_polygon_needs_two_vars():
    R3 = PolyRing(QQ, ("x", "y", "z"))
    with pytest.raises(ValueError):
        newton_polygon(R3.parse("x + y + z"))


def test_headline_polygon(R):
    f = R.parse("z^10 - 2*z^8*y + z^6*y^2 - y^9")
    P = newton_polygon(f)
    assert set(P.vertices) == {(10, 0), (6, 2), (0, 9)}
    assert axis_triangle_fast_path(P) is True
    assert edge_splitting_search(P) is None
    res = is_integer_irreducible(P)
    assert res.irreducible


def test_square_splits_with_certificate():
    P = LatticePolygon([(0, 0), (2, 0), (2, 2), (0, 2)])
    res = is_integer_irreducible(P)
    assert not res.irreducible
    ks, a, b = res.certificate
    assert minkowski_sum(a, b).translated_to_origin() == \
        P.translated_to_origin()


def test_segments():
    assert is_integer_irreducible(
        LatticePolygon([(0, 0), (3, 2)])).irreducible
    assert not is_integer_irreducible(
        LatticePolygon([(0, 0), (2, 2)])).irreducible


def test_unit_triangle_irreducible():
    assert is_integer_irreducible(
        LatticePolygon([(0, 0), (1, 0), (0, 1)])).irreducible


def test_single_point_rejected():
    with pytest.raises(ValueError):
        is_integer_irreducible(LatticePolygon([(1, 1)]))


def test_large_trinomial_is_decided_without_a_scan(monkeypatch):
    # the polygon's bounding box holds about 9 million lattice points; the
    # two-point guard reads the vertex count, and the axis triangle decides
    # from the vertices alone.  A point polygon is still rejected.
    calls = [0]
    contains = LatticePolygon.contains

    def counted(self, p):
        calls[0] += 1
        return contains(self, p)

    monkeypatch.setattr(LatticePolygon, "contains", counted)
    S = PolyRing(QQ, ("x", "y"))
    P = newton_polygon(S.parse("x^3000 + y^2999 + 1"))
    res = is_integer_irreducible(P)
    assert res.irreducible and res.method == "axis-triangle"
    assert calls[0] <= 3 * len(P.vertices)
    with pytest.raises(ValueError, match="at least 2 lattice points"):
        is_integer_irreducible(newton_polygon(S.parse("x^5*y^7")))
    assert calls[0] <= 3 * len(P.vertices)


def _brute_force_reducible(P):
    """Exhaustive Minkowski-summand search over sub-boxes of the polygon."""
    base = P.translated_to_origin()
    xs = [p[0] for p in base]
    ys = [p[1] for p in base]
    box = [(x, y) for x in range(min(xs), max(xs) + 1)
           for y in range(min(ys), max(ys) + 1)]
    from itertools import combinations
    pts = [p for p in box if LatticePolygon(list(base)).contains(p)]
    for r in range(2, len(pts) + 1):
        for sub in combinations(pts, r):
            A = LatticePolygon(list(sub))
            if len(A.vertices) < 2:
                continue
            for r2 in range(2, len(pts) + 1):
                for sub2 in combinations(pts, r2):
                    B = LatticePolygon(list(sub2))
                    if len(B.vertices) < 2:
                        continue
                    if minkowski_sum(A, B).translated_to_origin() == base:
                        return True
    return False


def test_splitting_agrees_with_exhaustive_oracle_small():
    # every polygon with vertices in a 2x2 box (cheap enough to brute force)
    from itertools import combinations
    box = [(x, y) for x in range(3) for y in range(3)]
    seen = set()
    for r in (2, 3, 4):
        for sub in combinations(box, r):
            P = LatticePolygon(list(sub))
            key = P.translated_to_origin()
            if key in seen or len(P.vertices) < 2:
                continue
            seen.add(key)
            got = not is_integer_irreducible(P).irreducible
            assert got == _brute_force_reducible(P), key
