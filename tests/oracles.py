"""Slow routes kept as oracles for the fast paths that replaced them."""

from locring.ideal import Ideal


def intersect_by_elimination(I, J):
    """The intersection of I and J by eliminating t from t*I + (1-t)*J, the
    route ``Ideal.intersect`` keeps for ideals that are not Artinian; its
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
