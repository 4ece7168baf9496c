"""Buchberger's algorithm with sugar selection and Gebauer-Moeller pruning.

The engine works on raw term dicts (exps tuple -> int) for speed; the public
functions take and return Polynomial objects.  Determinism: divisors are
tried in list order during reduction, the pair queue breaks ties by
(sugar, lcm degree, order key of lcm, indices), and the reduced basis is
sorted by leading monomial.

Raw coefficients: over F_p a coefficient is its residue in [0, p); over Q a
polynomial is an integer polynomial, and basis elements are primitive.
Reduction over Q is fraction-free: a term c*e is removed by a divisor g with
leading coefficient a by multiplying the work and the remainder by
a/gcd(c, a) and subtracting (c/gcd(c, a)) * q * g, so the remainder comes
back as lambda * NF for a positive rational scale lambda; dividing out the
content when the multipliers grow keeps coefficients small.  A raw
polynomial is always a positive multiple of what field arithmetic would
give, so it has the same terms, and every divisor and pair choice is the
same.  ``buchberger`` converts its generators once and builds Fraction or
PrimeFieldElement values only for the final monic basis; ``normal_form``
and ``spoly`` divide by the scale to return exact field elements, and a
``GroebnerBasis`` converts its generators to raw divisors once.

Bookkeeping: each pending pair keeps the lcm of its leading monomials, so
the Gebauer-Moeller criteria compute one lcm per basis element on every
insertion.  A pair of two single-term elements is never queued, since its
S-polynomial is 0; it still takes part in the lcm grouping, so the chain
criterion and the evolution of the basis are as if it had been reduced.
In reduction a divisor whose leading monomial has higher total degree than
the term is skipped before the exponent-wise test; the first divisor in
list order that divides the term still reduces it.

Truncation (the highest-corner trick of Mora's tangent cone algorithm;
Greuel and Pfister, *A Singular Introduction to Commutative Algebra*,
section 1.7): ``buchberger(gens, NegDegRevLex(), truncate=N)`` computes a
standard basis of (gens) + m^N in the local order ``ds`` (lowest degree
leads), with every term of degree >= N dropped, since it lies in m^N.  On
that finite set of monomials reduction terminates without Mora's ecart,
and a pair whose lcm has degree >= N is skipped, because every term of its
S-polynomial is ds-below the lcm and so has degree >= N.  The leading ideal
is then L(J*) + m^N for J* the ideal of initial forms, so the standard
monomials of degree d < N count the Hilbert-Samuel function of (gens) in
degree d.  The final tail interreduction is skipped: in a local order a
tail term can be a multiple of its own lead (x - x^2 has lead x), so
reducing tails need not terminate and is not needed for lengths.  The
basis is still minimal and monic.
"""

import heapq
import time
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import add, ge, neg, sub

from .arith import PrimeFieldElement
from .errors import BudgetExceeded, RingMismatch
from .poly import (Polynomial, mono_degree, mono_div, mono_divides, mono_lcm,
                   mono_mul)

DEFAULT_MAX_PAIRS = 2_000_000

# Over Q, the content of the work polynomial is divided out once the
# multipliers since the last division exceed this.
_CONTENT_GROWTH = 1 << 64


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

    @cached_property
    def divisors(self):
        """The generators as raw divisors of _nf_dict, converted once."""
        if not self.generators:
            return []
        p = self.generators[0].ring.field.characteristic
        return [_raw_divisor(g.terms, self.order.key, p)
                for g in self.generators]

    def __repr__(self):
        return f"GroebnerBasis({len(self.generators)} gens, {self.order})"


# ---------------------------------------------------------------------------
# raw term dicts

class _Remainder(dict):
    """A raw remainder: the normal form of the reduced input is
    self / scale, for a positive rational scale (1 over F_p)."""

    __slots__ = ("scale",)

    def __init__(self, terms, scale):
        super().__init__(terms)
        self.scale = scale


def _to_raw(terms, p):
    """A term dict of field elements as (raw, scale), raw = scale * terms:
    residues over F_p with scale 1; over Q integers, with scale the lcm of
    the denominators."""
    if p:
        return {e: c.value for e, c in terms.items()}, 1
    den = lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (den // c.denominator)
            for e, c in terms.items()}, den


def _from_raw(raw, scale, field):
    """The term dict of field elements raw / scale (scale an int or a
    Fraction, nonzero); terms that vanish mod p are dropped."""
    p = field.characteristic
    if p:
        inv = pow(scale, -1, p)
        out = {}
        for e, c in raw.items():
            c = c * inv % p
            if c:
                out[e] = PrimeFieldElement(c, p)
        return out
    num, den = scale.numerator, scale.denominator
    return {e: Fraction(c * den, num) for e, c in raw.items()}


def _normalize(terms, lead, p):
    """Canonical scaling of a raw polynomial with leading coefficient lead:
    primitive over Q (the content divided out, signs kept), monic over F_p."""
    if p:
        if lead == 1:
            return terms
        inv = pow(lead, -1, p)
        return {e: c * inv % p for e, c in terms.items()}
    content = gcd(*terms.values())
    if content == 1:
        return terms
    return {e: c // content for e, c in terms.items()}


def _raw_divisor(terms, key, p):
    """The divisor (lt exps, lt coeff, raw terms, lt degree) of a nonzero
    polynomial's term dict, primitive over Q and monic over F_p."""
    raw = _to_raw(terms, p)[0]
    lt_e = _lt(raw, key)
    raw = _normalize(raw, raw[lt_e], p)
    return lt_e, raw[lt_e], raw, sum(lt_e)


def _lt(terms, key):
    return max(terms, key=key)


def _nf_dict(terms, divisors, key, p, truncate):
    """Full normal form of a raw term dict against raw divisors, over F_p
    for p > 0 and over Q for p = 0, modulo m^truncate if truncate > 0.

    divisors: list of (lt_exps, lt_coeff, terms_dict, lt_degree), monic over
    F_p, tried in order; the first whose leading monomial divides a term
    reduces it.  A divisor of higher total degree than the term cannot
    divide it and is skipped before the exponent-wise test.  With truncate
    N > 0 every term of degree >= N is dropped, on entry and whenever a
    reduction forms it; 0 means no truncation.  Returns a _Remainder, empty
    exactly when the normal form is 0.
    """
    if truncate:
        terms = {e: c for e, c in terms.items() if sum(e) < truncate}
    if not terms:
        return _Remainder({}, 1)
    push, pop = heapq.heappush, heapq.heappop
    # Terms that cancel stay in work as 0 (or a multiple of p) and are
    # skipped when popped; a term is pushed once, when it enters work, since
    # every product q * tail is below the term being removed.
    work = dict(terms)
    heap = [(*map(neg, key(e)), e) for e in work]
    heapq.heapify(heap)
    remainder = {}
    num = den = grown = 1   # scale num/den; multipliers since the last content
    while heap:
        e = pop(heap)[-1]
        c = work.pop(e)
        if p:
            c %= p
        if not c:
            continue
        deg = sum(e)
        for lt_e, a, div_terms, lt_deg in divisors:
            if lt_deg <= deg and all(map(ge, e, lt_e)):
                break
        else:
            remainder[e] = c
            continue
        q = tuple(map(sub, e, lt_e))
        if p or a == 1:
            factor = c
        else:
            h = gcd(c, a)
            factor, m = c // h, a // h
            if m < 0:
                factor, m = -factor, -m
            if m != 1:
                for x in work:
                    work[x] *= m
                for x in remainder:
                    remainder[x] *= m
                num *= m
                grown *= m
                if grown > _CONTENT_GROWTH:
                    h = gcd(*work.values(), *remainder.values(), factor)
                    if h > 1:
                        work = {x: v // h for x, v in work.items()}
                        remainder = {x: v // h for x, v in remainder.items()}
                        factor //= h
                        den *= h
                    grown = 1
        for de, dc in div_terms.items():
            if de == lt_e:
                continue
            ne = tuple(map(add, de, q))
            if truncate and sum(ne) >= truncate:
                continue
            s = work.get(ne)
            if s is None:
                work[ne] = -factor * dc
                push(heap, (*map(neg, key(ne)), ne))
            else:
                work[ne] = s - factor * dc
    return _Remainder(remainder, num if den == 1 else Fraction(num, den))


def _spoly_dict(f, lt_f, g, lt_g):
    """S-polynomial of raw term dicts with known leading terms (a, b their
    coefficients), times lcm(|a|, |b|): (b/h)*qf*f - (a/h)*qg*g, h = gcd(a, b),
    both signs flipped if a*b < 0.  Over F_p the coefficients are left
    unreduced mod p."""
    lcm_e = mono_lcm(lt_f[0], lt_g[0])
    qf = mono_div(lcm_e, lt_f[0])
    qg = mono_div(lcm_e, lt_g[0])
    a, b = lt_f[1], lt_g[1]
    h = gcd(a, b)
    cf, cg = b // h, a // h
    if (a < 0) != (b < 0):
        cf, cg = -cf, -cg
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

def normal_form(f, G, order, truncate=0):
    """Remainder of f on division by G, divisors in list order: a list of
    polynomials, or a GroebnerBasis for this order, whose raw divisors are
    reused.  With truncate = N > 0, terms of degree >= N are dropped."""
    ring = f.ring
    key = order.key
    p = ring.field.characteristic
    if isinstance(G, GroebnerBasis):
        if G.generators and G.generators[0].ring != ring:
            raise RingMismatch("normal_form: mixed rings")
        divisors = G.divisors
    else:
        for g in G:
            if g.ring != ring:
                raise RingMismatch("normal_form: mixed rings")
        divisors = [_raw_divisor(g.terms, key, p) for g in G
                    if not g.is_zero()]
    raw, scale = _to_raw(f.terms, p)
    r = _nf_dict(raw, divisors, key, p, truncate)
    return Polynomial(ring, _from_raw(r, scale * r.scale, ring.field))


def spoly(f, g, order):
    """S-polynomial of two nonzero polynomials."""
    key = order.key
    p = f.ring.field.characteristic
    lt_f, a, raw_f, _ = _raw_divisor(f.terms, key, p)
    lt_g, b, raw_g, _ = _raw_divisor(g.terms, key, p)
    terms = _spoly_dict(raw_f, (lt_f, a), raw_g, (lt_g, b))
    return Polynomial(f.ring, _from_raw(terms, lcm(a, b), f.ring.field))


def buchberger(gens, order, max_pairs=DEFAULT_MAX_PAIRS, time_budget=None,
               truncate=0):
    """Reduced Groebner basis of the ideal generated by gens; with
    truncate = N > 0, a minimal standard basis of (gens) + m^N, every term
    of degree >= N dropped (see the module docstring).

    The generators are converted once to raw form (residues over F_p,
    integers over Q), and the run stays on raw ints.  An S-polynomial and
    its remainder come back as positive multiples lambda * NF of the field
    values; lambda is dropped, since every new basis element is made
    primitive (Q) or monic (F_p) before it is added.  Only the final monic
    basis is converted back to Fraction or PrimeFieldElement coefficients.

    max_pairs bounds the S-pairs actually reduced: pairs removed by the
    criteria and monomial x monomial pairs, which are never queued, do not
    count.  Either budget raises BudgetExceeded with diagnostics.
    """
    if truncate:
        gens = [Polynomial(g.ring, {e: c for e, c in g.terms.items()
                                    if sum(e) < truncate}) for g in gens]
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return GroebnerBasis([], order, reduced=True)
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingMismatch("buchberger: mixed rings")
    field = ring.field
    p = field.characteristic
    key = order.key
    deadline = None if time_budget is None else time.monotonic() + time_budget

    G = []          # (lt exps, lt coeff, raw terms, lt degree): the divisors
    sugars = []
    pairs = {}      # pending (i, j) -> lcm of their leading monomials
    heap = []

    def add_poly(terms, sugar):
        t = len(G)
        lt_e = _lt(terms, key)
        terms = _normalize(terms, terms[lt_e], p)
        deg_e = mono_degree(lt_e)
        new_lcms = [mono_lcm(g[0], lt_e) for g in G]
        # Gebauer-Moeller: prune pending pairs made redundant by the new lt
        doomed = [ij for ij, L in pairs.items()
                  if mono_divides(lt_e, L)
                  and L != new_lcms[ij[0]] and L != new_lcms[ij[1]]]
        for ij in doomed:
            del pairs[ij]
        G.append((lt_e, terms[lt_e], terms, deg_e))
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
            if truncate and deg_L >= truncate:
                continue  # every term of the S-polynomial lies in m^N
            if any(deg_L == G[i][3] + deg_e for i in members):
                continue  # a coprime pair covers this lcm
            i = min(members)
            if monomial and len(G[i][2]) == 1:
                continue  # the S-polynomial of two monomials is 0
            s = max(sugars[i] + deg_L - G[i][3], sugar + deg_L - deg_e)
            heapq.heappush(heap, (s, deg_L, key(L), i, t))
            pairs[i, t] = L

    for g in sorted(gens, key=lambda g: key(g.leading_monomial(order))):
        terms = _to_raw(g.terms, p)[0]
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
        s = _spoly_dict(G[i][2], G[i][:2], G[j][2], G[j][:2])
        r = _nf_dict(s, G, key, p, truncate)
        if r:
            add_poly(r, entry[0])

    # minimalize: drop generators whose lt is divisible by another lt
    minimal = []
    for g in sorted(G, key=lambda g: key(g[0])):
        if not any(mono_divides(h[0], g[0]) for h in minimal):
            minimal.append(g)
    if truncate:
        final = [Polynomial(ring, _from_raw(g[2], g[1], field))
                 for g in minimal]
        return GroebnerBasis(final, order, reduced=False)
    # interreduce: a tail term below lt(g) cannot be a multiple of lt(g),
    # so one normal form against the others leaves g fully reduced
    final = []
    for g in minimal:
        r = _nf_dict(g[2], [h for h in minimal if h is not g], key, p, 0)
        final.append(Polynomial(ring, _from_raw(r, r[g[0]], field)))
    return GroebnerBasis(final, order, reduced=True)


def is_member(f, gb):
    """Ideal membership via a cached Groebner basis."""
    if f.is_zero():
        return True
    return normal_form(f, gb, gb.order).is_zero()
