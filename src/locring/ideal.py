"""Ideal arithmetic on top of the Groebner kernel.

An ``Ideal`` holds its generators and one Groebner basis, the reduced
degrevlex basis, computed on the first read or installed from a basis at
hand by ``Ideal.from_basis``.  Reduced bases are canonical, so two ideals
are equal iff their bases are.  A basis under another order (an
elimination, the Lazard run of a tangent cone) is a ``buchberger`` run of
its own and never stays on an ideal.

``Ideal.eliminate`` is the one elimination routine: one ``BlockOrder`` run
drops the first variable.  Kernels of parametrizations (``subalgebra.kernel``)
build their generators in a ring extended by the parameter
(``PolyRing.extend``) and call it.  Its result, an Artinian colon or
intersection and a local model each come from ``Ideal.from_basis``, with
the reduced basis at hand.

Standard monomials come from one place, ``GroebnerBasis.staircase``, which
walks them layer by layer on the basis's packed leading monomials and keeps
the whole staircase on the basis.  ``vector_space_dim`` counts them; it is
INFINITE when some variable has no pure power among the leads, so that the
staircase is infinite, as it is for the zero ideal's empty basis.

Colons and intersections are taken on zero-dimensional ideals only, where
they are linear algebra on S/I: ``Ideal.quotient`` is the FGLM walk of
``groebner.artinian_colon``, ``Ideal.intersect`` the kernel of
S -> S/I x S/J walked by ``groebner.artinian_intersection``, and the
reduced degrevlex basis each walk returns generates the result.  Every
colon and intersection the local-ring layer takes is on an m-primary local
model.  An ideal that is not zero-dimensional, the zero ideal among them,
raises the walks' ValueError; the elimination routes kept as test oracles
take those.  Each ideal keeps its colons, keyed by the divisor's
generators, as it keeps its basis.
"""

from math import inf

from . import groebner
from .errors import RingMismatch, ZeroColon
from .poly import (BlockOrder, DegRevLex, Polynomial, PolyRing,
                   monomials_of_degree)

INFINITE = inf


def all_monomials(ring, d):
    """All exponent tuples of total degree d, as a tuple in descending lex
    order."""
    return monomials_of_degree(ring.nvars, d)


def max_ideal(ring):
    """The ideal generated by all the variables."""
    return Ideal(ring, ring.gens())


def max_ideal_power(ring, d):
    """n^d, generated by all degree-d monomials."""
    return Ideal(ring, [ring.monomial(e) for e in all_monomials(ring, d)])


class Ideal:
    """An ideal given by generators, with its reduced degrevlex basis."""

    def __init__(self, ring, generators):
        self.ring = ring
        gens = []
        for g in generators:
            if not isinstance(g, Polynomial):
                g = ring.parse(g)
            if g.ring != ring:
                raise RingMismatch("generator in wrong ring")
            if not g.is_zero():
                gens.append(g)
        self.generators = tuple(gens)
        self._gb = None         # the reduced degrevlex basis, once known
        self.colon_cache = {}  # J.generators -> self : J

    @classmethod
    def from_basis(cls, basis):
        """The ideal a reduced degrevlex basis generates in the basis's
        ring, with the basis installed; ValueError for a basis under
        another order."""
        if basis.order != DegRevLex():
            raise ValueError(f"from_basis: a {basis.order} basis, "
                             "not degrevlex")
        out = cls(basis.ring, basis.generators)
        out._gb = basis
        return out

    def __repr__(self):
        return f"Ideal({len(self.generators)} gens in {self.ring})"

    def is_zero_ideal(self):
        return not self.generators

    def groebner(self):
        """The reduced degrevlex basis, computed on the first call."""
        if self._gb is None:
            self._gb = groebner.buchberger(self.ring, list(self.generators),
                                           DegRevLex())
        return self._gb

    # -- membership ---------------------------------------------------------

    def member(self, f):
        return groebner.is_member(f, self.groebner())

    def contains(self, other):
        return all(self.member(g) for g in other.generators)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        self._same_ring(other)
        return Ideal(self.ring, list(self.generators) + list(other.generators))

    def __mul__(self, other):
        self._same_ring(other)
        return Ideal(self.ring, [f * g for f in self.generators
                                 for g in other.generators])

    def _same_ring(self, other):
        if other.ring != self.ring:
            raise RingMismatch("ideals in different rings")

    # -- intersection and quotient ------------------------------------------

    def intersect(self, other):
        """I and J's intersection, by linear algebra on S/I x S/J; ValueError
        unless both are zero-dimensional."""
        self._same_ring(other)
        return Ideal.from_basis(groebner.artinian_intersection(
            self.groebner(), other.groebner()))

    def quotient_element(self, g):
        """I : (g) for a single nonzero polynomial g, as ``quotient``."""
        return self.quotient(Ideal(self.ring, [g]))

    def quotient(self, other):
        """I : J, by linear algebra on S/I, generated by the reduced
        degrevlex basis of the result; ValueError unless I is
        zero-dimensional.  The result is kept in ``colon_cache``: the same
        generators of J give the same instance."""
        self._same_ring(other)
        if other.is_zero_ideal():
            raise ZeroColon("colon by zero ideal")
        out = self.colon_cache.get(other.generators)
        if out is None:
            out = self.colon_cache[other.generators] = Ideal.from_basis(
                groebner.artinian_colon(self.groebner(), other.generators))
        return out

    # -- elimination --------------------------------------------------------

    def eliminate(self, *, time_budget=None):
        """Contract to the subring of the variables after the first, as
        ``subalgebra.kernel`` does; the second block is degrevlex, so the
        basis elements free of the first variable are a reduced basis."""
        gb = groebner.buchberger(self.ring, list(self.generators),
                                 BlockOrder(), time_budget=time_budget)
        target = PolyRing(self.ring.field, self.ring.names[1:])
        return Ideal.from_basis(groebner.eliminate_first_variable(gb, target))

    # -- dimensions ---------------------------------------------------------

    def vector_space_dim(self):
        """Length of S/I as a k-vector space (count of standard monomials),
        or INFINITE."""
        layers = self.groebner().staircase()
        return INFINITE if layers is None else sum(map(len, layers))

