"""Slow routes kept as oracles for the fast paths that replaced them.

``Ideal.quotient`` and ``Ideal.intersect`` take zero-dimensional ideals
only, by FGLM walks; the elimination routes below take any ideal and share
no code with the walks, so the tests check each walk against them.
``s_polynomial`` forms in Polynomial arithmetic what the Buchberger kernel
forms on packed ints."""

from locring.ideal import Ideal
from locring.poly import DegRevLex, mono_div


def intersect_by_elimination(I, J):
    """The intersection of I and J by eliminating t from t*I + (1-t)*J; its
    result carries the reduced degrevlex basis."""
    ring = I.ring
    if I.is_zero_ideal() or J.is_zero_ideal():
        return Ideal(ring, [])
    name = "t"
    while name in ring.names:
        name += "_"
    ext = ring.extend(name)
    t, one = ext.var(0), ext.one()
    pos = list(range(1, ext.nvars))
    gens = [t * f.map_to(ext, pos) for f in I.generators]
    gens += [(one - t) * g.map_to(ext, pos) for g in J.generators]
    return Ideal(ext, gens).eliminate([name])


def colon_by_elimination(I, g):
    """I : (g) for a nonzero polynomial g: the intersection of I and (g) by
    elimination, each generator divided exactly by g."""
    inter = intersect_by_elimination(I, Ideal(I.ring, [g]))
    return Ideal(I.ring, [_exact_div(f, g) for f in inter.generators])


def _exact_div(f, g):
    """q with f = q*g, by degrevlex long division; ValueError if g does not
    divide f."""
    order = DegRevLex()
    ring = f.ring
    lt_g, c_g = g.leading_term(order)
    q = ring.zero()
    r = f
    while not r.is_zero():
        lt_r, c_r = r.leading_term(order)
        m = mono_div(lt_r, lt_g)
        if m is None:
            raise ValueError("exact_div: division is not exact")
        t = ring.monomial(m, c_r / c_g)
        q = q + t
        r = r - t * g
    return q


def s_polynomial(f, g, order):
    """The S-polynomial of two nonzero polynomials in Polynomial
    arithmetic: lcm/lt(f) * f - lcm/lt(g) * g, lt the leading terms."""
    ring = f.ring
    ef, cf = f.leading_term(order)
    eg, cg = g.leading_term(order)
    lcm = tuple(map(max, ef, eg))

    def cofactor(e, c):  # lcm / (c * x^e)
        return ring.monomial(mono_div(lcm, e), ring.field.one() / c)
    return cofactor(ef, cf) * f - cofactor(eg, cg) * g
