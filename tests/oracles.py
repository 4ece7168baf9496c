"""Slow routes kept as oracles for the fast paths that replaced them.

``Ideal.quotient`` and ``Ideal.intersect`` take zero-dimensional ideals
only, by FGLM walks; the elimination routes below take any ideal and share
no code with the walks, so the tests check each walk against them.
``s_polynomial`` forms in Polynomial arithmetic what the Buchberger kernel
forms on packed ints, and ``leading_term`` reads in it what the kernel
compares as packed ints.  ``equals`` compares two ideals by their reduced
degrevlex bases, which are canonical.  ``ds_top_layer_empty`` is the gll
test by one truncated ds Buchberger run on I + (f), the route that
``LocalRing.loewy_length_at_most``'s rank count on S/(I + n^(N+1))
replaced.  ``lex_segment_oracle`` counts the growth of a lex-segment
quotient monomial by monomial, the independent check of
``bounds.macaulay_bound``.  ``monomial_intersect`` intersects monomial
ideals by the lcms of their generators, the check that
``MonomialIdeal.irreducible_decomposition`` intersects back.
``substitute_in_field`` is ``Polynomial.substitute`` in field arithmetic
(``Fraction`` over Q), the route its integer arithmetic replaced.  ``direct_normal_form`` and
``direct_colon`` reduce each input against a basis's divisors in one
``groebner._nf_dict`` call, the route that the sums of entries of the
basis's normal-form table replaced in ``normal_form`` and in
``artinian_colon``.

``Lex``, ``WeightedDegRevLex`` and ``Block`` are term orders the library
does not run.  ``groebner.packing`` takes any order whose key is a tuple of
integer linear forms, so the Buchberger and packing sweeps use them to
cover the general branch of ``groebner._order_form``."""

from math import comb

from locring import groebner
from locring.errors import BudgetExceeded, ZeroPolynomial
from locring.groebner import buchberger
from locring.ideal import Ideal
from locring.monomial import MonomialIdeal
from locring.poly import (DegRevLex, NegDegRevLex, Polynomial, TermOrder,
                          mono_div, mono_lcm, monomials_of_degree)

_MAX_MONOMIALS = 2_000_000  # the lex-segment oracle's size guard


class _Parametrized(TermOrder):
    """An order with parameters: equal to another of its type only with
    the same parameters, so that ``packing``'s cache tells them apart."""

    def __eq__(self, other):
        return type(self) is type(other) and self._ident() == other._ident()

    def __hash__(self):
        return hash((type(self).__name__, self._ident()))


class Lex(TermOrder):
    def key(self, exps):
        return exps

    def __repr__(self):
        return "lex"


class WeightedDegRevLex(_Parametrized):
    """Weighted degree first, ties broken by degrevlex."""

    def __init__(self, weights):
        self.weights = tuple(weights)

    def key(self, exps):
        w = sum(e * wt for e, wt in zip(exps, self.weights))
        return (w, sum(exps)) + tuple(-e for e in reversed(exps))

    def _ident(self):
        return self.weights

    def __repr__(self):
        return f"wdegrevlex{self.weights}"


class Block(_Parametrized):
    """The first ``split`` variables under ``first``, then the rest under
    ``second``."""

    def __init__(self, split, first=DegRevLex(), second=DegRevLex()):
        self.split, self.first, self.second = split, first, second

    def key(self, exps):
        s = self.split
        return self.first.key(exps[:s]) + self.second.key(exps[s:])

    def _ident(self):
        return (self.split, self.first, self.second)

    def __repr__(self):
        return f"block({self.split}; {self.first}, {self.second})"


def leading_term(f, order):
    """(exponents, coefficient) of the largest term of f under order."""
    if f.is_zero():
        raise ZeroPolynomial("leading term of 0")
    e = max(f.terms, key=order.key)
    return e, f.terms[e]


def equals(I, J):
    """True iff the ideals I and J are equal: same reduced basis."""
    return I.groebner().generators == J.groebner().generators


def intersect_by_elimination(I, J):
    """The intersection of I and J by eliminating t from t*I + (1-t)*J; its
    result carries the reduced degrevlex basis."""
    ring = I.ring
    if I.is_zero_ideal() or J.is_zero_ideal():
        return Ideal(ring, [])
    ext = ring.extend("t")
    t, one = ext.var(0), ext.one()
    xs = ext.gens()[1:]
    gens = [t * f.substitute(xs) for f in I.generators]
    gens += [(one - t) * g.substitute(xs) for g in J.generators]
    return Ideal(ext, gens).eliminate()


def monomial_intersect(A, B):
    """A cap B for MonomialIdeals A and B, generated by the lcms of their
    generators: the check that an irreducible decomposition intersects
    back."""
    return MonomialIdeal(A.nvars, [mono_lcm(a, b) for a in A.generators
                                   for b in B.generators])


def direct_normal_form(f, gb):
    """``normal_form(f, gb)`` by one reduction of the whole of f against
    gb's divisors, its terms of degree >= N dropped first when gb is
    truncated at N."""
    ring, N = f.ring, gb.truncate
    p = ring.field.characteristic
    pk = groebner.packing(gb.order, ring.nvars)
    terms = {e: c for e, c in f.terms.items() if not N or sum(e) < N}
    raw, scale = groebner._to_raw(terms, p, pk, 0)
    vec, m = groebner._nf_dict(raw, gb.divisors, pk, p, N)
    return Polynomial(ring, groebner._from_raw(vec, scale * m, ring.field,
                                               pk.unpack))


def direct_colon(gb, gens):
    """``artinian_colon(gb, gens)`` with each product b * g of a standard
    monomial b of gb and a generator g reduced against gb's divisors in one
    call: the same kernel walk, with no table."""
    ring = gb.ring
    p = ring.field.characteristic
    pk = groebner.packing(gb.order, ring.nvars)
    raws = [groebner._to_raw(g.terms, p, pk, 0)[0] for g in gens]

    def image(b):
        return groebner._stacked([groebner._nf_dict(
            {e + b: c for e, c in raw.items()}, gb.divisors, pk, p, 0)
            for raw in raws])

    return groebner._extend_by_kernel(ring, gb.order, gb.divisors, image)


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
    lt_g, c_g = leading_term(g, order)
    q = ring.zero()
    r = f
    while not r.is_zero():
        lt_r, c_r = leading_term(r, order)
        m = mono_div(lt_r, lt_g)
        if m is None:
            raise ValueError("exact_div: division is not exact")
        t = ring.monomial(m).scale(c_r / c_g)
        q = q + t
        r = r - t * g
    return q


def s_polynomial(f, g, order):
    """The S-polynomial of two nonzero polynomials in Polynomial
    arithmetic: lcm/lt(f) * f - lcm/lt(g) * g, lt the leading terms."""
    ring = f.ring
    ef, cf = leading_term(f, order)
    eg, cg = leading_term(g, order)
    lcm = tuple(map(max, ef, eg))

    def cofactor(e, c):  # lcm / (c * x^e)
        return ring.monomial(mono_div(lcm, e)).scale(ring.field.one() / c)
    return cofactor(ef, cf) * f - cofactor(eg, cg) * g


def substitute_in_field(f, values):
    """values[i] substituted for var i of f in Polynomial arithmetic over
    the field, each value's powers kept in one table."""
    ring = values[0].ring
    powers = [[ring.one(), v] for v in values]
    out = ring.zero()
    for e, c in f.terms.items():
        term = ring.one().scale(c)
        for i, x in enumerate(e):
            if x:
                table = powers[i]
                while len(table) <= x:
                    table.append(table[-1] * values[i])
                term = term * table[x]
        out = out + term
    return out


def ds_top_layer_empty(R, f, N):
    """True iff m^N lies in (f) in the LocalRing R, for f in the maximal
    ideal and N >= 0: by Nakayama iff m^N lies in I + (f) + n^(N+1), iff
    the ds basis of I + (f) truncated at N + 1 has no standard monomial of
    degree N, the last layer of its staircase being empty."""
    gb = buchberger(R.ring, R.I.generators + (f,), NegDegRevLex(),
                    truncate=N + 1)
    return not gb.staircase()[-1]


def lex_segment_oracle(d, n, v):
    """Growth of the lex-segment quotient: keep the d lex-smallest degree-n
    monomials in the quotient and count the surviving degree-(n+1) ones.

    Independent combinatorial check of macaulay_bound (use v >= n + d)."""
    total_n = comb(n + v - 1, v - 1)
    total_n1 = comb(n + v, v - 1)
    if max(total_n, total_n1) > _MAX_MONOMIALS:
        raise BudgetExceeded("lex_segment_oracle: too many monomials",
                             {"total": max(total_n, total_n1)})
    if d == 0:
        return 0
    if d > total_n:
        raise ValueError("d exceeds the number of degree-n monomials")
    monos = monomials_of_degree(v, n)
    in_ideal = monos[:total_n - d]  # the lex-largest go into the ideal
    next_ideal = set()
    for m in in_ideal:
        for i in range(v):
            e = list(m)
            e[i] += 1
            next_ideal.add(tuple(e))
    return total_n1 - len(next_ideal)
