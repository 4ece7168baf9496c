"""Buchberger's algorithm with sugar selection and Gebauer-Moeller pruning.

The engine works on term dicts (exps tuple -> coeff) for speed; the public
functions take and return Polynomial objects.  Determinism: divisors are
tried in list order during reduction, the pair queue breaks ties by
(sugar, lcm degree, order key of lcm, indices), and the reduced basis is
sorted by leading monomial.

Bookkeeping: each pending pair keeps the lcm of its leading monomials, so
the Gebauer-Moeller criteria compute one lcm per basis element on every
insertion.  A pair of two single-term elements is never queued, since its
S-polynomial is 0; it still takes part in the lcm grouping, so the chain
criterion and the evolution of the basis are as if it had been reduced.
In reduction a divisor whose leading monomial has higher total degree than
the term is skipped before the exponent-wise test; the first divisor in
list order that divides the term still reduces it.
"""

import heapq
import time
from fractions import Fraction
from math import gcd
from operator import ge, sub

from .errors import BudgetExceeded, RingMismatch
from .poly import (Polynomial, mono_degree, mono_div, mono_divides, mono_lcm,
                   mono_mul)

DEFAULT_MAX_PAIRS = 2_000_000


class GroebnerBasis:
    """A (reduced) Groebner basis with its order."""

    def __init__(self, generators, order, reduced=True):
        self.generators = list(generators)
        self.order = order
        self.reduced = reduced

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def leading_monomials(self):
        return [g.leading_monomial(self.order) for g in self.generators]

    def __repr__(self):
        return f"GroebnerBasis({len(self.generators)} gens, {self.order})"


# ---------------------------------------------------------------------------
# term-dict helpers

def _normalize(terms, field):
    """Canonical scaling: monic over a finite field; over Q, integer
    coefficients with content 1 and positive leading-ish sign left to the
    caller (we normalize so that gcd of numerators is 1)."""
    if not terms:
        return terms
    sample = next(iter(terms.values()))
    if isinstance(sample, Fraction):
        num_gcd = 0
        den_lcm = 1
        for c in terms.values():
            num_gcd = gcd(num_gcd, c.numerator)
            den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
        scale = Fraction(den_lcm, num_gcd)
        return {e: c * scale for e, c in terms.items()}
    inv = field.inverse(sample)
    return {e: c * inv for e, c in terms.items()}


def _monic(terms, lt_exps, field):
    c = terms[lt_exps]
    if c == field.one():
        return terms
    inv = field.inverse(c)
    return {e: x * inv for e, x in terms.items()}


def _lt(terms, key):
    return max(terms, key=key)


def _nf_dict(terms, divisors, key, field):
    """Full normal form of a term dict against divisors.

    divisors: list of (lt_exps, lt_coeff, terms_dict), tried in order; the
    first whose leading monomial divides a term reduces it.  A divisor of
    higher total degree than the term cannot divide it and is skipped
    before the exponent-wise test.
    """
    if not terms:
        return {}
    divs = [(sum(lt_e), lt_e, lt_c, div_terms)
            for lt_e, lt_c, div_terms in divisors]
    work = dict(terms)
    heap = [tuple(-x for x in key(e)) + (e,) for e in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        e = heapq.heappop(heap)[-1]
        c = work.get(e)
        if c is None:
            continue
        deg = sum(e)
        for lt_deg, lt_e, lt_c, div_terms in divs:
            if lt_deg <= deg and all(map(ge, e, lt_e)):
                break
        else:
            remainder[e] = work.pop(e)
            continue
        q = tuple(map(sub, e, lt_e))
        factor = c / lt_c
        del work[e]
        for de, dc in div_terms.items():
            if de == lt_e:
                continue
            ne = mono_mul(de, q)
            s = work.get(ne)
            if s is None:
                work[ne] = -factor * dc
                heapq.heappush(heap, tuple(-x for x in key(ne)) + (ne,))
            else:
                s = s - factor * dc
                if s:
                    work[ne] = s
                else:
                    del work[ne]
    return remainder


def _spoly_dict(f, lt_f, g, lt_g, field):
    """S-polynomial of term dicts f, g with known leading terms."""
    lcm = mono_lcm(lt_f[0], lt_g[0])
    qf = mono_div(lcm, lt_f[0])
    qg = mono_div(lcm, lt_g[0])
    cf = field.one() / lt_f[1]
    cg = field.one() / lt_g[1]
    out = {}
    for e, c in f.items():
        out[mono_mul(e, qf)] = c * cf
    for e, c in g.items():
        ne = mono_mul(e, qg)
        s = out.get(ne)
        if s is None:
            out[ne] = -c * cg
        else:
            s = s - c * cg
            if s:
                out[ne] = s
            else:
                del out[ne]
    return out


# ---------------------------------------------------------------------------
# public operations

def normal_form(f, G, order):
    """Remainder of f on division by the list G (divisors in list order)."""
    ring = f.ring
    for g in G:
        if g.ring != ring:
            raise RingMismatch("normal_form: mixed rings")
    key = order.key
    divisors = []
    for g in G:
        if g.is_zero():
            continue
        lt_e = _lt(g.terms, key)
        divisors.append((lt_e, g.terms[lt_e], g.terms))
    return Polynomial(ring, _nf_dict(f.terms, divisors, key, ring.field))


def spoly(f, g, order):
    """S-polynomial of two nonzero polynomials."""
    key = order.key
    field = f.ring.field
    lt_f = _lt(f.terms, key)
    lt_g = _lt(g.terms, key)
    terms = _spoly_dict(f.terms, (lt_f, f.terms[lt_f]), g.terms,
                        (lt_g, g.terms[lt_g]), field)
    return Polynomial(f.ring, terms)


def buchberger(gens, order, max_pairs=DEFAULT_MAX_PAIRS, time_budget=None):
    """Reduced Groebner basis of the ideal generated by gens.

    max_pairs bounds the S-pairs actually reduced: pairs removed by the
    criteria and monomial x monomial pairs, which are never queued, do not
    count.  Either budget raises BudgetExceeded with diagnostics.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return GroebnerBasis([], order, reduced=True)
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingMismatch("buchberger: mixed rings")
    field = ring.field
    key = order.key
    deadline = None if time_budget is None else time.monotonic() + time_budget

    G = []          # (lt exps, lt coeff, terms), the divisors of _nf_dict
    lt_degs = []
    sugars = []
    pairs = {}      # pending (i, j) -> lcm of their leading monomials
    heap = []

    def add_poly(terms, sugar):
        t = len(G)
        lt_e = _lt(terms, key)
        deg_e = mono_degree(lt_e)
        new_lcms = [mono_lcm(g[0], lt_e) for g in G]
        # Gebauer-Moeller: prune pending pairs made redundant by the new lt
        doomed = [ij for ij, L in pairs.items()
                  if mono_divides(lt_e, L)
                  and L != new_lcms[ij[0]] and L != new_lcms[ij[1]]]
        for ij in doomed:
            del pairs[ij]
        G.append((lt_e, terms[lt_e], terms))
        lt_degs.append(deg_e)
        sugars.append(sugar)
        # group candidate pairs by lcm, minimalize, apply coprime criterion
        lcm_groups = {}
        for i, L in enumerate(new_lcms):
            lcm_groups.setdefault(L, []).append(i)
        # a proper divisor has lower degree, so a degree sort is enough to
        # meet every divisor of L before L
        minimal = []
        for L in sorted(lcm_groups, key=mono_degree):
            if not any(mono_divides(M, L) for M in minimal):
                minimal.append(L)
        monomial = len(terms) == 1
        for L in minimal:
            members = lcm_groups[L]
            deg_L = mono_degree(L)
            if any(deg_L == lt_degs[i] + deg_e for i in members):
                continue  # a coprime pair covers this lcm
            i = min(members)
            if monomial and len(G[i][2]) == 1:
                continue  # the S-polynomial of two monomials is 0
            s = max(sugars[i] + deg_L - lt_degs[i], sugar + deg_L - deg_e)
            heapq.heappush(heap, (s, deg_L, key(L), i, t))
            pairs[i, t] = L

    for g in sorted(gens, key=lambda p: key(p.leading_monomial(order))):
        terms = _normalize(dict(g.terms), field)
        add_poly(terms, max(mono_degree(e) for e in terms))

    processed = 0
    while heap:
        entry = heapq.heappop(heap)
        i, j = entry[3], entry[4]
        if pairs.pop((i, j), None) is None:
            continue
        processed += 1
        if processed > max_pairs:
            raise BudgetExceeded(
                "buchberger: pair budget exceeded",
                {"pairs_processed": processed, "basis_size": len(G),
                 "pairs_pending": len(pairs)})
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded(
                "buchberger: time budget exceeded",
                {"pairs_processed": processed, "basis_size": len(G),
                 "pairs_pending": len(pairs)})
        s = _spoly_dict(G[i][2], G[i][:2], G[j][2], G[j][:2], field)
        r = _nf_dict(s, G, key, field)
        if r:
            add_poly(_normalize(r, field), entry[0])

    # minimalize: drop generators whose lt is divisible by another lt
    minimal = []
    for g in sorted(G, key=lambda g: key(g[0])):
        if all(mono_div(g[0], h[0]) is None for h in minimal):
            minimal.append(g)
    # interreduce: a tail term below lt(g) cannot be a multiple of lt(g),
    # so one normal form against the others leaves g fully reduced
    final = []
    for g in minimal:
        r = _nf_dict(g[2], [h for h in minimal if h is not g], key, field)
        final.append(_monic(r, g[0], field))
    return GroebnerBasis([Polynomial(ring, t) for t in final], order,
                         reduced=True)


def is_member(f, gb):
    """Ideal membership via a cached Groebner basis."""
    if f.is_zero():
        return True
    return normal_form(f, gb.generators, gb.order).is_zero()
