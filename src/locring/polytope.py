"""Newton polygons of bivariate polynomials and integer (Minkowski)
irreducibility.

A convex lattice polygon decomposes as a Minkowski sum exactly when its
edge-vector multiset splits; the search below enumerates sub-multisets
(k_i picks from each primitive edge), which is tiny at our scale.
"""

from itertools import product
from math import gcd

from .errors import ZeroPolynomial


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points):
    """Monotone-chain hull; counterclockwise vertices, collinear points
    dropped.  Degenerate inputs give a single point or a segment."""
    pts = sorted(set(points))
    if len(pts) == 1:
        return pts
    if len(pts) == 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:  # all points collinear
        return [pts[0], pts[-1]]
    return hull


class LatticePolygon:
    """Convex lattice polygon: ccw vertex list, possibly a segment or point."""

    def __init__(self, points):
        self.vertices = convex_hull(points)

    def edges(self):
        """(primitive vector, lattice length) pairs, in traversal order.
        A segment contributes its vector and its negation."""
        v = self.vertices
        if len(v) == 1:
            return []
        pairs = []
        cyc = v + [v[0]] if len(v) > 2 else [v[0], v[1], v[0]]
        for a, b in zip(cyc, cyc[1:]):
            dx, dy = b[0] - a[0], b[1] - a[1]
            g = gcd(abs(dx), abs(dy))
            pairs.append(((dx // g, dy // g), g))
        return pairs

    def contains(self, p):
        v = self.vertices
        if len(v) == 1:
            return p == v[0]
        if len(v) == 2:
            a, b = v
            if _cross(a, b, p) != 0:
                return False
            return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
                    and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))
        cyc = v + [v[0]]
        return all(_cross(a, b, p) >= 0 for a, b in zip(cyc, cyc[1:]))

    def translated_to_origin(self):
        mx = min(x for x, _ in self.vertices)
        my = min(y for _, y in self.vertices)
        return tuple(sorted((x - mx, y - my) for x, y in self.vertices))

    def __eq__(self, other):
        return isinstance(other, LatticePolygon) and self.vertices == other.vertices

    def __repr__(self):
        return f"LatticePolygon({self.vertices})"


def newton_polygon(f):
    """Convex hull of the support of a bivariate polynomial."""
    if f.is_zero():
        raise ZeroPolynomial("Newton polygon of 0")
    if f.ring.nvars != 2:
        raise ValueError("newton_polygon expects a bivariate polynomial")
    return LatticePolygon(list(f.terms))


def minkowski_sum(a, b):
    return LatticePolygon([(p[0] + q[0], p[1] + q[1])
                           for p in a.vertices for q in b.vertices])


def polygon_from_edges(edge_vectors):
    """Rebuild a polygon (up to translation) by walking edge vectors."""
    pos = (0, 0)
    pts = [pos]
    for (vx, vy), k in edge_vectors:
        pos = (pos[0] + vx * k, pos[1] + vy * k)
        pts.append(pos)
    return LatticePolygon(pts)


class IrreducibilityResult:
    def __init__(self, irreducible, method, certificate):
        self.irreducible = irreducible
        self.method = method            # "axis-triangle" | "edge-splitting"
        self.certificate = certificate  # if reducible: (ks, summand A, B)


def axis_triangle_fast_path(P):
    """Irreducible if some edge joins (0, m) to (n, 0) with gcd(m, n) = 1
    and P sits inside the triangle (0,m), (n,0), (0,0).  Returns True when
    the test applies and concludes, else None."""
    verts = P.vertices
    if len(verts) < 2:
        return None
    if len(verts) == 2:
        pairs = [(verts[0], verts[1])]
    else:
        pairs = list(zip(verts, verts[1:] + [verts[0]]))
    for a, b in pairs:
        for p, q in ((a, b), (b, a)):
            if p[0] == 0 and q[1] == 0 and p[1] > 0 and q[0] > 0:
                m, n = p[1], q[0]
                if gcd(m, n) != 1:
                    continue
                tri = LatticePolygon([(0, m), (n, 0), (0, 0)])
                if all(tri.contains(v) for v in P.vertices):
                    return True
    return None


def edge_splitting_search(P):
    """Look for a proper sub-multiset of edges summing to zero; that is the
    edge set of a Minkowski summand.  Returns (ks, A, B) or None."""
    edges = P.edges()
    if not edges:
        return None
    lengths = [l for _, l in edges]
    for ks in product(*(range(l + 1) for l in lengths)):
        if all(k == 0 for k in ks) or all(k == l for k, l in zip(ks, lengths)):
            continue
        sx = sum(v[0] * k for (v, _), k in zip(edges, ks))
        sy = sum(v[1] * k for (v, _), k in zip(edges, ks))
        if sx or sy:
            continue
        a = polygon_from_edges([(v, k) for (v, _), k in zip(edges, ks) if k])
        b = polygon_from_edges([(v, l - k)
                                for (v, l), k in zip(edges, ks) if l - k])
        if (minkowski_sum(a, b).translated_to_origin()
                == P.translated_to_origin()):
            return ks, a, b
    return None


def is_integer_irreducible(P):
    """Decide integer irreducibility, with a certificate for splits."""
    # the vertices are lattice points: two of them are two lattice points
    if len(P.vertices) < 2:
        raise ValueError("polygon must contain at least 2 lattice points")
    fast = axis_triangle_fast_path(P)
    if fast:
        # cross-checked against the general search in the test suite
        return IrreducibilityResult(True, "axis-triangle", None)
    split = edge_splitting_search(P)
    if split is None:
        return IrreducibilityResult(True, "edge-splitting", None)
    return IrreducibilityResult(False, "edge-splitting", split)
