"""Monomial ideals: membership, irreducible decomposition, minimal primes.

A MonomialIdeal stores its minimal generating set as sorted exponent tuples.
"""

from .errors import UnitIdeal
from .poly import mono_divides


def _minimalize(monos):
    out = []
    for e in sorted(set(monos), key=lambda m: (sum(m), m)):
        if not any(mono_divides(g, e) for g in out):
            out.append(e)
    return tuple(sorted(out))


class MonomialIdeal:
    """An ideal generated by monomials, kept in minimal canonical form."""

    def __init__(self, nvars, generators):
        self.nvars = nvars
        gens = []
        for g in generators:
            g = tuple(g)
            if len(g) != nvars:
                raise ValueError("exponent tuple of wrong length")
            gens.append(g)
        self.generators = _minimalize(gens)

    @classmethod
    def from_ideal(cls, ideal):
        """Build from an Ideal whose reduced Groebner basis is monomial."""
        gb = ideal.groebner()
        exps = []
        for g in gb.generators:
            if not g.is_monomial():
                raise ValueError("ideal is not a monomial ideal")
            exps.append(next(iter(g.terms)))
        return cls(ideal.ring.nvars, exps)

    def __eq__(self, other):
        return (isinstance(other, MonomialIdeal) and self.nvars == other.nvars
                and self.generators == other.generators)

    def __hash__(self):
        return hash((self.nvars, self.generators))

    def __repr__(self):
        return f"MonomialIdeal{self.generators}"

    def is_proper(self):
        return all(sum(g) > 0 for g in self.generators)

    def member(self, mono):
        return any(mono_divides(g, mono) for g in self.generators)

    def contains(self, other):
        return all(self.member(g) for g in other.generators)

    def plus(self, monos):
        return MonomialIdeal(self.nvars, list(self.generators) + list(monos))

    def support(self):
        """Variables appearing in some generator."""
        return frozenset(i for g in self.generators for i in range(self.nvars)
                         if g[i] > 0)

    def irreducible_decomposition(self):
        """Irredundant list of irreducible components, canonically sorted.

        A mixed generator u*v with coprime nontrivial u, v splits the ideal
        as (A+(u)) intersect (A+(v)); recursion bottoms out at pure-power
        ideals.  The components minimal under inclusion are irredundant.
        Let no other Q_j lie in Q_i = (x_s^a_s : s in S_i), and pick for
        each j a generator m_j of Q_j outside Q_i, a pure power.  The lcm
        of the m_j lies in every Q_j; its exponent at each x_s, s in S_i,
        is 0 or that of some m_j = x_s^b with b < a_s, so the lcm lies
        outside Q_i, and the other components do not intersect into Q_i.
        """
        if not self.is_proper():
            raise UnitIdeal("unit ideal has no decomposition")
        components = set()
        self._decompose(components)
        return sorted((c for c in components
                       if not any(d != c and c.contains(d)
                                  for d in components)),
                      key=lambda c: c.generators)

    def _decompose(self, acc):
        split = self._first_mixed_generator()
        if split is None:
            acc.add(self)
            return
        u, v = split
        self.plus([u])._decompose(acc)
        self.plus([v])._decompose(acc)

    def _first_mixed_generator(self):
        for g in self.generators:
            nz = [i for i, e in enumerate(g) if e > 0]
            if len(nz) > 1:
                i = nz[0]
                u = tuple(g[j] if j == i else 0 for j in range(self.nvars))
                v = tuple(0 if j == i else g[j] for j in range(self.nvars))
                return u, v
        return None

    def minimal_primes(self):
        """Supports of the irreducible components, minimal under inclusion."""
        supports = {c.support() for c in self.irreducible_decomposition()}
        minimal = []
        for s in sorted(supports, key=lambda s: (len(s), sorted(s))):
            if not any(m < s for m in minimal):
                minimal.append(s)
        return minimal
