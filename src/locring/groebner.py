"""Buchberger's algorithm with sugar selection and Gebauer-Moeller pruning.

The engine works on raw term dicts (packed monomial -> int); the public
functions take and return Polynomial objects.  Determinism: divisors are
tried in list order during reduction, the pair queue breaks ties by
(sugar, lcm degree, order of lcm, indices), and the reduced basis is sorted
by leading monomial.

Packed monomials (after Bachmann and Schoenemann, "Monomial representations
for Groebner bases computations", ISSAC 1998): in the kernel a monomial of
an n-variable ring is one int.  Its low bits P hold a 16-bit field per
exponent, variable 0 lowest, and the total degree in the field above; the
top bit of each field is a guard that stays 0, since every degree stays
below ``DEGREE_BOUND``.  Above P sits W(e), the order's tuple key read as
one integer (``_order_form``).  Both parts are linear in e, so a product is
a sum, ``lt | e`` is the mask test ``not (e - lt) & guard``, and the
smallest int is the largest monomial: the ds int is P itself, the degrevlex
int P - (deg << bits of P).  This module is the only one that knows the
format.  Exponent tuples and ``order.key`` stay the public representation,
converted at the boundary: generators in, ``normal_form`` in and out, and a
basis's ``generators`` out.  Every ``GroebnerBasis`` holds its ring, its
order, its truncation degree, its divisors and their packed leads, so a
caller passes none of these back to the operations on it.  One from
``buchberger`` or the FGLM walk builds its ``generators`` only when a
caller first reads them, so a basis that is only counted (a Hilbert
function), or only reduced against (a local model, or the truncation of I
that the gll-search test reads), is never converted, and one built from
Polynomials converts them once.
Other modules get packed ints only as staircase layers, which they count.
A degree that would not fit raises ValueError on conversion, for an S-pair
or for a product in reduction, so nothing is ever mis-ordered.

Raw coefficients: over F_p a coefficient is its residue in [0, p); over Q a
polynomial is an integer polynomial, and basis elements are primitive.
Reduction over Q is fraction-free: a term c*e is removed by a divisor g with
leading coefficient a by multiplying the work and the remainder by
a/gcd(c, a) and subtracting (c/gcd(c, a)) * q * g, q = e - lt(g) packed, so
the remainder comes back as the raw normal form of m times the input, for a
positive int multiplier m (1 over F_p).  Dividing out the content when the
multipliers grow keeps coefficients small; the part of it that m does not
cancel is multiplied back once, at the end.  A raw polynomial is always a
positive multiple of what field arithmetic would give, so it has the same
terms, and every divisor and pair choice is the same.  A divisor is (lead,
lead coefficient, tail, top degree field), primitive over Q and monic over
F_p.

Bookkeeping: each pending pair keeps the lcm of its leading monomials as an
int of exponent fields, the larger of fields x and y being y + (x - y) where
the guard of (x | guard) - y is set.  So the Gebauer-Moeller and coprime
criteria are int operations: one lcm per basis element on every insertion,
mask tests after that.  Only a queued pair's lcm is packed with its order
part, from the leads' exponent tuples.  A pair of two single-term elements
is never queued, since its S-polynomial is 0; it still takes part in the
lcm grouping, so the chain criterion and the evolution of the basis are as
if it had been reduced.

Truncation (the highest-corner trick of Mora's tangent cone algorithm;
Greuel and Pfister, *A Singular Introduction to Commutative Algebra*,
section 1.7): ``buchberger(ring, gens, NegDegRevLex(), truncate=N)`` computes a
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
basis is still minimal and monic.  It records N, so that ``normal_form``
against it truncates at N and its staircase stops below N.

Staircases and the normal-form table: ``GroebnerBasis.staircase`` is the
one enumeration of standard monomials.  It walks them a degree at a time on
the packed leads (``leads``), so a divisibility test is one mask; a layer
is the previous one times the variables, minus the multiples of a lead.
The layers are tuples of packed ints, never unpacked, walked once per basis
and kept on it; for a basis truncated at N they stop below N.  Callers read
counts (Hilbert functions, colengths) or the monomials themselves.  Each
basis with a finite staircase also keeps one table of monomial normal forms
(``_NormalForms``), built on first use and truncated as the basis is:
packed monomial e -> (vec, m), vec the raw normal form of m * e.  A
standard monomial is its own entry, and any other is reduced once, however
many products form it.  Three readers share it: the colon (by a generator
of one term), the intersection, and the gll-search test
(``top_degree_in_multiples``), a rank count on A = S/J for a truncated ds
basis of J, for which the basis also keeps (``_Columns``) the table's
entries for each term of f times the count's rows, so a test reads only
f's coefficients.  ``fglm`` reduces against its own truncation at d
instead, with the reducer lookup of ``_nf_dict``, as ``buchberger`` does.

The FGLM walk (Faugere, Gianni, Lazard and Mora, "Efficient computation of
zero-dimensional Groebner bases by change of ordering", 1993) reads the
reduced basis of I + K off a linear map on S/I whose kernel is K/I.
``artinian_colon`` takes, for a zero-dimensional I, the map that multiplies
by the generators of J, so I + K = I : J with no Buchberger run;
``artinian_intersection`` takes I = 0 and the map S -> S/I1 x S/I2 of
two zero-dimensional ideals, whose kernel is their intersection (Marinari,
Moeller and Mora, "Groebner bases of ideals defined by functionals with an
application to ideals of projective points", AAECC 1993); ``fglm``
turns a truncated ds standard basis of J into the degrevlex basis of J + m^N
from S/m^d, the basis of m^d being the monomials of degree d, for the first
degree d in which J has no standard monomial (read off the basis's kept
staircase), or N if there is none.  As in classical FGLM the
walk finds its own columns: from 1 upwards, each independent column adds
its multiples by the variables, and a candidate is skipped when a lead of
I divides it or a predecessor is dead (a multiple of a kernel lead), so
only the staircase of I + K, its border and the tails of I's basis are
imaged.  The walk stays on ints, like ``_nf_dict``, from the divisors of I
to the divisors of the result: each image is the packed raw normal form of
a packed product with an integer multiplier, rows, kernel vectors and the
final basis are formed fraction-free over Q and on residues over F_p, and
divisibility of columns and leads is the guard-mask test.  The result is a
packed basis like one from ``buchberger``.
"""

import heapq
import time
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import mul

from .arith import PrimeFieldElement
from .errors import BudgetExceeded, RingMismatch
from .poly import (DegRevLex, Polynomial, mono_div, mono_lcm,
                   monomials_of_degree)

MAX_PAIRS = 2_000_000  # S-pairs one buchberger run may reduce

# Over Q, the content of the work polynomial is divided out once the
# multipliers since the last division exceed this.
_CONTENT_GROWTH = 1 << 64

_FIELD = 16                       # bits per packed field, guard bit on top
DEGREE_BOUND = 1 << (_FIELD - 1)  # every exponent and degree stays below


def _check_degree(d):
    if d >= DEGREE_BOUND:
        raise ValueError(f"monomial degree {d} does not fit a packed "
                         f"monomial: degrees must stay below {DEGREE_BOUND}")


class Packing:
    """Packed monomials of an n-variable ring under one term order (see the
    module docstring): ``pack`` and ``unpack`` convert exponent tuples,
    ``guard`` and ``degree`` mask the guard bits and the degree field, whose
    lowest bit is ``1 << shift``, and ``units`` are the variables."""

    def __init__(self, order, nvars):
        fields = [_FIELD * i for i in range(nvars)]
        self.shift = _FIELD * nvars
        self.guard = sum(1 << (s + _FIELD - 1) for s in fields)
        self.degree = ((1 << _FIELD) - 1) << self.shift
        width = self.shift + _FIELD
        form = _order_form(order, nvars)
        # the packed variables, which are also the weights of pack
        self.units = tuple((w << width) + (1 << s) + (1 << self.shift)
                           for w, s in zip(form, fields))
        self._fields = fields

    def pack(self, e):
        return sum(map(mul, e, self.units))

    def unpack(self, m):
        return tuple([m >> s & (DEGREE_BOUND - 1) for s in self._fields])


packing = lru_cache(maxsize=64)(Packing)


def _order_form(order, n):
    """Per-variable weights of the linear form W: W(e) ascending is
    order.key(e) descending.  Every key is a tuple of integer linear forms in
    e; W reads it as one integer in a base that no form can overflow while
    degrees stay below DEGREE_BOUND.  P itself, ascending, is the order
    (-deg, -e_{n-1}, ..., -e_0) descending, so a key ending in that revlex
    tail after a component +-deg leaves the tail (and -deg) to P."""
    forms = list(zip(*(order.key(tuple(int(i == j) for j in range(n)))
                       for i in range(n))))
    tail = [tuple(-int(i == j) for i in range(n)) for j in reversed(range(n))]
    if n and len(forms) > n and forms[-n:] == tail:
        if forms[-n - 1] == (1,) * n:
            forms = forms[:-n]
        elif forms[-n - 1] == (-1,) * n:
            forms = forms[:-n - 1]
    top = max((abs(c) for form in forms for c in form), default=1)
    base = 1 << (_FIELD + (top - 1).bit_length())
    weights = [0] * n
    for form in forms:
        weights = [w * base - c for w, c in zip(weights, form)]
    return weights


class GroebnerBasis:
    """A (reduced) Groebner basis: its ring, its order, the degree N at which
    it is truncated (``truncate``, 0 when it is not), its packed divisors
    and their leads.  Whoever builds the basis fixes the first three, so
    the zero ideal's empty basis has a ring too.  ``buchberger`` and the
    FGLM walk hand over their divisors, and the generators are built from
    them when a caller first reads them; given generators are converted to
    divisors once and kept as given, in a basis that is not truncated."""

    def __init__(self, ring, generators, order):
        gens = list(generators)
        if any(g.ring != ring for g in gens):
            raise RingMismatch("GroebnerBasis: mixed rings")
        self.ring, self.order, self.truncate = ring, order, 0
        self.divisors = _divisors(gens, packing(order, ring.nvars),
                                  ring.field.characteristic)
        self.leads = [g[0] for g in self.divisors]
        self.generators = gens

    @classmethod
    def _packed(cls, ring, order, truncate, divisors):
        basis = cls.__new__(cls)
        basis.ring, basis.order, basis.truncate = ring, order, truncate
        basis.divisors = divisors
        basis.leads = [g[0] for g in divisors]
        return basis

    def __len__(self):
        return len(self.leads)

    @cached_property
    def _normal_forms(self):
        """The basis's table of monomial normal forms (``_NormalForms``),
        for a basis whose staircase is finite."""
        return _NormalForms(self)

    @cached_property
    def _columns(self):
        """The rows and product columns of the gll rank count
        (``_Columns``), for a ds basis truncated at N + 1."""
        return _Columns(self)

    @cached_property
    def generators(self):
        """The monic generators, from the divisors."""
        return _generators(self.divisors, self.ring,
                           packing(self.order, self.ring.nvars).unpack)

    def staircase(self):
        """The standard monomials of the leading ideal, as layers of packed
        ints by degree, packed under the basis's order: layer 0 is the
        monomial 1 unless a lead is, and layer d + 1 is layer d times the
        variables, minus the multiples of a lead (a lead enters the test at
        its own degree).  It stops after the first empty layer, past which
        no monomial is standard, or, for a basis truncated at N, before
        degree N.  None if the staircase of a basis that is not truncated
        is infinite: some variable has no pure power among the leads.

        The layers are tuples, walked once and kept on the basis."""
        try:
            return self._layers
        except AttributeError:
            self._layers = self._walk_staircase(self.truncate)
            return self._layers

    def _walk_staircase(self, below):
        """The layers of ``staircase`` below degree below, or the whole
        staircase (None if infinite) for below 0."""
        nvars = self.ring.nvars
        pk = packing(self.order, nvars)
        guard, shift = pk.guard, pk.shift
        if not below:
            exps = (1 << shift) - 1
            for i in range(nvars):
                others = exps ^ (((1 << _FIELD) - 1) << (_FIELD * i))
                if all(lt & others for lt in self.leads):
                    return None
            below = DEGREE_BOUND
        entering = {}
        for lt in self.leads:
            entering.setdefault((lt & pk.degree) >> shift, []).append(lt)
        units = pk.units
        active = []
        layers = []
        layer = {0}
        for d in range(below):
            active += entering.get(d, ())
            layer = tuple([e for e in layer
                           if all((e - lt) & guard for lt in active)])
            layers.append(layer)
            if not layer:
                break
            layer = {e + u for e in layer for u in units}
        return tuple(layers)

    def __repr__(self):
        return f"GroebnerBasis({len(self)} gens, {self.order})"


# ---------------------------------------------------------------------------
# raw term dicts

class _Remainder(dict):
    """A raw remainder: the raw normal form of scale times the reduced
    input, for a positive int scale (1 over F_p)."""

    __slots__ = ("scale",)

    def __init__(self, terms, scale):
        super().__init__(terms)
        self.scale = scale


def _to_raw(terms, p, pk):
    """A term dict of field elements as (raw, scale), raw = scale * terms
    with packed monomials: residues over F_p with scale 1; over Q integers,
    with scale the lcm of the denominators.  ValueError if a degree does not
    fit."""
    _check_degree(max(map(sum, terms), default=0))
    pack = pk.pack
    if p:
        return {pack(e): c.value for e, c in terms.items()}, 1
    den = lcm(*(c.denominator for c in terms.values()))
    return {pack(e): c.numerator * (den // c.denominator)
            for e, c in terms.items()}, den


def _from_raw(raw, scale, field, unpack):
    """The term dict of field elements raw / scale (scale a nonzero int),
    its monomials unpacked by unpack; terms that vanish mod p are dropped."""
    p = field.characteristic
    if p:
        inv = pow(scale, -1, p)
        out = {}
        for e, c in raw.items():
            c = c * inv % p
            if c:
                out[unpack(e)] = PrimeFieldElement(c, p)
        return out
    return {unpack(e): Fraction(c, scale) for e, c in raw.items()}


def _generators(divisors, ring, unpack):
    """The monic Polynomials in ring of divisors, their monomials unpacked
    by unpack."""
    return [Polynomial(ring, _from_raw({lt: a, **tail}, a, ring.field,
                                       unpack))
            for lt, a, tail, _ in divisors]


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


def _divisor(raw, p, pk):
    """The divisor (lead, lead coefficient, tail, top) of a nonzero packed
    raw polynomial: primitive over Q and monic over F_p, top the largest
    degree field of its terms."""
    lt = min(raw)
    raw = _normalize(raw, raw[lt], p)
    tail = {e: c for e, c in raw.items() if e != lt}
    return lt, raw[lt], tail, max(map(pk.degree.__and__, raw))


def _divisors(polys, pk, p):
    return [_divisor(_to_raw(g.terms, p, pk)[0], p, pk) for g in polys
            if not g.is_zero()]


def _nf_dict(terms, divisors, pk, p, truncate, lookup=None):
    """Full normal form of a packed raw term dict against divisors, over
    F_p for p > 0 and over Q for p = 0, modulo m^truncate if truncate > 0.

    divisors: list of (lead, lead coeff, tail, top), monic over F_p, tried
    in order; the first whose leading monomial divides a term reduces it.
    lookup, optional, is the reducer lookup of calls against one divisor
    list that only grows at its end: packed monomial -> the first divisor
    that divides it, or, for none, the number of divisors tried, from
    which a later call resumes.  A run of ``buchberger`` and a walk of
    ``fglm`` each keep one; a lookup per term costs more than a short scan,
    so the other callers pass none.  It is passed positionally, since
    perfbench's tracer wraps this function for positional arguments only.
    With truncate N > 0 every term of degree >= N is dropped, on entry and
    whenever a reduction forms it; 0 means no truncation, and a reduction
    that would form a degree of DEGREE_BOUND or more raises ValueError.
    Returns a _Remainder, empty exactly when the normal form is 0: the raw
    normal form of m times the input, for the int scale m.
    """
    guard, degree = pk.guard, pk.degree
    cap = (truncate or DEGREE_BOUND) << pk.shift
    if truncate:
        terms = {e: c for e, c in terms.items() if e & degree < cap}
    if not terms:
        return _Remainder({}, 1)
    push, pop = heapq.heappush, heapq.heappop
    # Terms that cancel stay in work as 0 (or a multiple of p) and are
    # skipped when popped; a term is pushed once, when it enters work, since
    # every product q * tail is below the term being removed.  The smallest
    # packed int is the largest monomial.
    work = dict(terms)
    heap = list(work)
    heapq.heapify(heap)
    remainder = {}
    # num: the product of the multipliers; den: of the contents divided
    # out; grown: of the multipliers since the last division
    num = den = grown = 1
    while heap:
        e = pop(heap)
        c = work.pop(e)
        if p:
            c %= p
        if not c:
            continue
        if lookup is None:
            for lt, a, tail, top in divisors:
                if not (e - lt) & guard:
                    break
            else:
                remainder[e] = c
                continue
        else:
            g = lookup.get(e)
            if g is None or g.__class__ is int:
                for g in (divisors[g:] if g else divisors):
                    if not (e - g[0]) & guard:
                        lookup[e] = g
                        break
                else:
                    lookup[e] = len(divisors)
                    remainder[e] = c
                    continue
            lt, a, tail, top = g
        q = e - lt
        if not truncate and (q & degree) + top >= cap:
            _check_degree(((q & degree) + top) >> pk.shift)
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
        for de, dc in tail.items():
            ne = de + q
            if truncate and ne & degree >= cap:
                continue
            s = work.get(ne)
            if s is None:
                work[ne] = -factor * dc
                push(heap, ne)
            else:
                work[ne] = s - factor * dc
    if den != 1:
        # remainder is num/den times the normal form: multiply back the part
        # of the contents that num does not cancel
        h = gcd(num, den)
        num, den = num // h, den // h
        remainder = {x: v * den for x, v in remainder.items()}
    return _Remainder(remainder, num)


class _NormalForms(dict):
    """The table of a basis: packed monomial e -> (vec, m), vec the raw
    normal form of m * e for an int m > 0, truncated as the basis is.  A
    standard monomial is its own entry, ({e: 1}, 1), and any other is
    reduced by ``_nf_dict`` on its first lookup.  The entries are plain
    dicts, which the row loops read faster than a _Remainder.  The table
    keeps the basis's divisors, packing, characteristic and truncation,
    never the basis, so it makes no reference cycle."""

    __slots__ = ("divisors", "pk", "p", "truncate")

    def __init__(self, gb):
        super().__init__({e: ({e: 1}, 1)
                          for layer in gb.staircase() for e in layer})
        self.divisors, self.truncate = gb.divisors, gb.truncate
        self.pk = packing(gb.order, gb.ring.nvars)
        self.p = gb.ring.field.characteristic

    def __missing__(self, e):
        r = _nf_dict({e: 1}, self.divisors, self.pk, self.p, self.truncate)
        entry = self[e] = dict(r), r.scale
        return entry


class _Columns(dict):
    """What the rank count of ``top_degree_in_multiples`` needs of a ds
    basis truncated at N + 1 alone, for N >= 0: its rows, the standard
    monomials of degree < N from degree N - 1 down; ``need``, the number
    of standard monomials of degree N, and ``top``, the index of the first
    of them, indices numbering the standard monomials in ds order, so the
    ds-largest term is the smallest index and degree N the last ones; and
    exponent tuple t of degree <= N -> its column, built on its first
    lookup.  Entry i of a column is the table entry (``_NormalForms``) of
    t times row i, re-keyed by index and kept with its int multiplier, or
    None where it is 0 or the product has degree > N.  It keeps the
    basis's table, not the basis, and the table does not keep it."""

    __slots__ = ("table", "rows", "index", "need", "top")

    def __init__(self, gb):
        N, layers = gb.truncate - 1, gb.staircase()
        standard = sorted(e for layer in layers for e in layer)
        self.table = gb._normal_forms
        self.index = {e: i for i, e in enumerate(standard)}
        self.rows = [b for layer in reversed(layers[:N]) for b in layer]
        self.need = len(layers[N]) if len(layers) > N else 0
        self.top = len(standard) - self.need

    def __missing__(self, t):
        table, index = self.table, self.index
        pk = table.pk
        degree, cap = pk.degree, table.truncate << pk.shift
        t_packed = pk.pack(t)
        col = [None] * len(self.rows)
        for i, b in enumerate(self.rows):
            e = t_packed + b
            if e & degree < cap:
                vec, m = table[e]
                if vec:
                    col[i] = {index[x]: c for x, c in vec.items()}, m
        self[t] = col
        return col


def _spoly_dict(f, lt_f, g, lt_g, pk, check):
    """S-polynomial of two divisors with leading exponent tuples lt_f, lt_g
    (a, b their leading coefficients), times lcm(|a|, |b|):
    (b/h)*qf*f - (a/h)*qg*g, h = gcd(a, b), both signs flipped if a*b < 0.
    The leading terms cancel, so only the tails are multiplied.  Over F_p
    the coefficients are left unreduced mod p.  With check, ValueError if a
    product's degree would not fit; without, the caller truncates at some
    N <= DEGREE_BOUND, which drops every such product."""
    lcm_e = mono_lcm(lt_f, lt_g)
    qf = mono_div(lcm_e, lt_f)
    qg = mono_div(lcm_e, lt_g)
    if check:
        _check_degree(max((f[3] >> pk.shift) + sum(qf),
                          (g[3] >> pk.shift) + sum(qg)))
    qf, qg = pk.pack(qf), pk.pack(qg)
    a, b = f[1], g[1]
    h = gcd(a, b)
    cf, cg = b // h, a // h
    if (a < 0) != (b < 0):
        cf, cg = -cf, -cg
    out = {e + qf: c * cf for e, c in f[2].items()}
    for e, c in g[2].items():
        ne = e + qg
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

def normal_form(f, G):
    """Remainder of f on division by the GroebnerBasis G, under G's order,
    its divisors tried in list order; when G is truncated at N, terms of
    degree >= N are dropped."""
    ring = f.ring
    if G.ring != ring:
        raise RingMismatch("normal_form: mixed rings")
    p = ring.field.characteristic
    pk = packing(G.order, ring.nvars)
    truncate = G.truncate
    terms = f.terms
    if truncate:
        terms = {e: c for e, c in terms.items() if sum(e) < truncate}
    raw, scale = _to_raw(terms, p, pk)
    r = _nf_dict(raw, G.divisors, pk, p, truncate)
    return Polynomial(ring, _from_raw(r, scale * r.scale, ring.field,
                                      pk.unpack))


def buchberger(ring, gens, order, time_budget=None, truncate=0):
    """Reduced Groebner basis of the ideal generated by gens in ring; with
    truncate = N > 0, a minimal standard basis of (gens) + m^N, every term
    of degree >= N dropped (see the module docstring).  The basis records
    ring, order and truncate, also when it is empty.

    The generators are converted once to packed raw form (residues over
    F_p, integers over Q), and the run stays on ints.  An S-polynomial and
    its remainder come back as positive multiples lambda * NF of the field
    values; lambda is dropped, since every new basis element is made
    primitive (Q) or monic (F_p) before it is added.  The basis is returned
    packed, as its final divisors; it converts them to monic generators
    with exponent tuples and Fraction or PrimeFieldElement coefficients
    only when they are read.  ValueError if a degree of DEGREE_BOUND or
    more would arise.

    MAX_PAIRS bounds the S-pairs actually reduced: pairs removed by the
    criteria and monomial x monomial pairs, which are never queued, do not
    count.  Either budget raises BudgetExceeded with diagnostics.
    """
    _check_degree(truncate - 1)
    for g in gens:
        if g.ring != ring:
            raise RingMismatch("buchberger: mixed rings")
    if truncate:
        gens = [Polynomial(ring, {e: c for e, c in g.terms.items()
                                  if sum(e) < truncate}) for g in gens]
    gens = [g for g in gens if not g.is_zero()]
    p = ring.field.characteristic
    pk = packing(order, ring.nvars)
    guard, degree, shift = pk.guard, pk.degree, pk.shift
    exps = (1 << shift) - 1
    deadline = None if time_budget is None else time.monotonic() + time_budget

    G = []          # the divisors (lead, lead coeff, tail, top)
    xs = []         # the exponent fields of their leads
    lts = []        # their leading exponent tuples
    sugars = []
    pairs = {}      # pending (i, j) -> exponent fields of the leads' lcm
    heap = []
    lookup = {}     # the reducer lookup of _nf_dict: G only grows at its end

    def add_poly(terms, sugar):
        t = len(G)
        g = _divisor(terms, p, pk)
        lt_e = pk.unpack(g[0])
        x = g[0] & exps
        # lcms of the exponent fields: y + (x - y where x >= y), field-wise
        new_lcms = []
        for y in xs:
            d = (x | guard) - y
            m = d & guard
            new_lcms.append(y + (d & (m - (m >> (_FIELD - 1)))))
        # Gebauer-Moeller: prune pending pairs made redundant by the new lt
        doomed = [ij for ij, L in pairs.items()
                  if not (L - x) & guard
                  and L != new_lcms[ij[0]] and L != new_lcms[ij[1]]]
        for ij in doomed:
            del pairs[ij]
        # group candidate pairs by lcm, minimalize, apply coprime criterion;
        # a proper divisor is a smaller int, so ascending order meets every
        # divisor of L before L
        lcm_groups = {}
        for i, L in enumerate(new_lcms):
            lcm_groups.setdefault(L, []).append(i)
        minimal = []
        for L in sorted(lcm_groups):
            for M in minimal:
                if not (L - M) & guard:
                    break
            else:
                minimal.append(L)
        for L in minimal:
            members = lcm_groups[L]
            if any(L == xs[i] + x for i in members):
                continue  # a coprime pair covers this lcm
            i = min(members)
            if not g[2] and not G[i][2]:
                continue  # the S-polynomial of two monomials is 0
            lcm_e = mono_lcm(lts[i], lt_e)
            deg_L = sum(lcm_e)
            if truncate and deg_L >= truncate:
                continue  # every term of the S-polynomial lies in m^N
            s = max(sugars[i] + deg_L - sum(lts[i]),
                    sugar + deg_L - sum(lt_e))
            heapq.heappush(heap, (s, deg_L, -pk.pack(lcm_e), i, t))
            pairs[i, t] = L
        G.append(g)
        xs.append(x)
        lts.append(lt_e)
        sugars.append(sugar)

    raws = [_to_raw(g.terms, p, pk)[0] for g in gens]
    for terms in sorted(raws, key=lambda terms: -min(terms)):
        add_poly(terms, max(map(degree.__and__, terms)) >> shift)

    processed = 0
    while heap:
        entry = heapq.heappop(heap)
        i, j = entry[3], entry[4]
        if pairs.pop((i, j), None) is None:
            continue
        processed += 1
        if processed > MAX_PAIRS:
            raise BudgetExceeded(
                "buchberger: pair budget exceeded",
                {"pairs_processed": processed, "basis_size": len(G),
                 "pairs_pending": len(pairs)})
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded(
                "buchberger: time budget exceeded",
                {"pairs_processed": processed, "basis_size": len(G),
                 "pairs_pending": len(pairs)})
        s = _spoly_dict(G[i], lts[i], G[j], lts[j], pk, not truncate)
        r = _nf_dict(s, G, pk, p, truncate, lookup)
        if r:
            add_poly(r, entry[0])

    # minimalize: drop generators whose lt is divisible by another lt
    minimal = []
    for g in sorted(G, key=lambda g: -g[0]):
        if all((g[0] - h[0]) & guard for h in minimal):
            minimal.append(g)
    if not truncate:
        # interreduce: a tail term below lt(g) cannot be a multiple of
        # lt(g), so one normal form against the others leaves g fully
        # reduced
        minimal = [_divisor(_nf_dict({g[0]: g[1], **g[2]},
                                     [h for h in minimal if h is not g],
                                     pk, p, 0), p, pk)
                   for g in minimal]
    return GroebnerBasis._packed(ring, order, truncate, minimal)


def eliminate_first_variable(gb, target):
    """The reduced degrevlex basis, in target, the ring of the variables
    after the first, of the elements of gb free of the first variable, for
    gb a reduced ``BlockOrder`` basis.  An element is free of it iff its
    lead is, by the elimination property; only those are unpacked."""
    first = (1 << _FIELD) - 1
    unpack = packing(gb.order, gb.ring.nvars).unpack
    kept = [g for g in gb.divisors if not g[0] & first]
    return GroebnerBasis(target, _generators(kept, target,
                                             lambda m: unpack(m)[1:]),
                         DegRevLex())


def is_member(f, gb):
    """Ideal membership via a cached Groebner basis."""
    return normal_form(f, gb).is_zero()


def top_degree_in_multiples(gb, f):
    """The pair (whether f*A contains the image T of m^N, whether it read a
    nonzero row of f*A), for A = S/J, gb a ds basis truncated at N + 1,
    J = (its generators) + m^(N+1), and f in the ideal of the variables;
    ValueError if gb is not truncated or f has a constant term.  A nonzero
    row NF(f*b) says that f*b, and so f, lies outside J and outside the
    ideal of gb's generators; with no row read (T = 0, or no b of degree
    < N) or every row 0, it says nothing about f.

    The standard monomials B of gb are a basis of A, and the ds normal form
    of a monomial of degree N stays in degree N, so T is spanned by the
    standard monomials of degree N.  f*m^N lies in m^(N+1), so f*A is
    spanned by the rows NF(f*b) for the b in B of degree < N, taken from
    degree N - 1 down.  Each row is reduced against the earlier ones and
    pivoted on its ds-largest term, the smallest index.  A combination of
    rows then leads with the largest of its pivots, so dim(f*A meet T) is
    the number of rows whose pivot has degree N, and the test stops when
    that number reaches dim T.  Row i is the sum of c * entry i of the
    column of t (``_Columns``, kept on gb) over the terms c * t of f of
    degree <= N, read as they are.  An entry (vec, m) is the normal form
    of m times its product, so a row is summed fraction-free, with no
    reduction mod p until it is complete (every m is 1 over F_p).  Over Q
    it is reduced with the gcd scaling of ``_extend_by_kernel`` and kept
    primitive; over F_p a kept row carries the inverse of its pivot
    coefficient in place of being made monic."""
    if gb.truncate < 1:
        raise ValueError("top_degree_in_multiples: the basis is not "
                         "truncated")
    ring = gb.ring
    if f.ring != ring:
        raise RingMismatch("top_degree_in_multiples: mixed rings")
    terms = f.terms
    if (0,) * ring.nvars in terms:
        raise ValueError("top_degree_in_multiples: f has a constant term")
    columns = gb._columns
    need, top, N = columns.need, columns.top, gb.truncate - 1
    if not need:
        return True, False
    terms = [(t, c) for t, c in terms.items() if sum(t) <= N]
    if not terms:
        return False, False
    p = ring.field.characteristic
    if p:
        cols = [(columns[t], c.value) for t, c in terms]
    else:
        den = lcm(*[c.denominator for _, c in terms])
        cols = [(columns[t], c.numerator * (den // c.denominator))
                for t, c in terms]
    # pivot -> (its coefficient, row) over Q, (its inverse, row) over F_p
    kept, found = {}, 0
    for i in range(len(columns.rows)):
        row, m = {}, 1     # m times the sum so far
        for col, c in cols:
            entry = col[i]
            if entry:
                vec, me = entry
                if me != m:
                    k = lcm(m, me)
                    if k != m:
                        for j in row:
                            row[j] *= k // m
                        m = k
                    c *= k // me
                for j, x in vec.items():
                    row[j] = row.get(j, 0) + c * x
        row = {j: r for j, v in row.items() if (r := v % p if p else v)}
        while row:
            pivot = min(row)
            prev = kept.get(pivot)
            if prev is None:
                break
            a, r = prev
            if p:
                _combine(row, 1, row[pivot] * a % p, r, p)
            else:
                h = gcd(a, row[pivot])
                _combine(row, a // h, row[pivot] // h, r, 0)
        if row:
            if p:
                kept[pivot] = pow(row[pivot], -1, p), row
            else:
                row = _normalize(row, row[pivot], 0)
                kept[pivot] = row[pivot], row
            if pivot >= top:
                found += 1
                if found == need:
                    return True, True
    # the first nonzero row is always kept
    return False, bool(kept)


# ---------------------------------------------------------------------------
# the FGLM walk

def artinian_colon(gb, gens):
    """The reduced basis of I : J, for gb the reduced basis of a
    zero-dimensional ideal I and gens the generators of J: (I : J)/I is the
    kernel of c -> (NF(sum_b c_b * b * g))_g over the generators g of J, on
    the standard monomials b of I.  A nonzero constant times one block
    leaves that kernel as it is, so the block of g may be any fixed
    multiple of NF(b * g).  For a generator of one term c * e it is the
    normal form of the monomial e + b, read off the basis's table
    (``_NormalForms``), whose entries colons by m and by m^n meet many
    times; a product with any other generator is reduced directly.
    ValueError if I is not zero-dimensional or a product's degree would not
    fit."""
    ring = gb.ring
    if gb.staircase() is None:
        raise ValueError("artinian_colon: the ideal is not zero-dimensional")
    p = ring.field.characteristic
    pk = packing(gb.order, ring.nvars)
    raw_gens = [_to_raw(g.terms, p, pk)[0] for g in gens]
    monomials = [min(raw) for raw in raw_gens if len(raw) == 1]
    others = [raw for raw in raw_gens if len(raw) > 1]
    top = max(g.total_degree() for g in gens)
    table = gb._normal_forms

    def image(b):
        _check_degree(top + ((b & pk.degree) >> pk.shift))
        blocks = [table[e + b] for e in monomials]
        for raw in others:
            r = _nf_dict({e + b: c for e, c in raw.items()}, gb.divisors, pk,
                         p, 0)
            blocks.append((r, r.scale))
        return _stacked(blocks)

    return _extend_by_kernel(ring, gb.order, gb.divisors, image)


def artinian_intersection(gb1, gb2):
    """The reduced basis of the intersection of I1 and I2, for gb1 and gb2
    the reduced bases of two zero-dimensional ideals under one order: it is
    the kernel of S -> S/I1 x S/I2, b -> (NF1(b), NF2(b)), walked from 1
    with no base, each normal form read off its basis's table
    (``_NormalForms``).  ValueError if an ideal is not zero-dimensional or
    the orders differ."""
    if gb1.order != gb2.order:
        raise ValueError("artinian_intersection: bases under two orders")
    if gb1.staircase() is None or gb2.staircase() is None:
        raise ValueError("artinian_intersection: an ideal is not "
                         "zero-dimensional")
    tables = (gb1._normal_forms, gb2._normal_forms)
    return _extend_by_kernel(gb1.ring, gb1.order, [],
                             lambda b: _stacked([t[b] for t in tables]))


def _stacked(blocks):
    """The raw image (vec, m) of blocks (r, s), r the raw normal form of s
    times a product: the nonzero blocks are brought to one multiplier m,
    the lcm of their s, and block i keys its rows (i, row)."""
    m = lcm(*[s for r, s in blocks if r])
    out = {}
    for i, (r, s) in enumerate(blocks):
        if r:
            f = m // s
            for e, c in r.items():
                out[i, e] = c * f
    return out, m


def fglm(ds_basis):
    """The reduced degrevlex basis of J + m^N, for ds_basis a standard
    basis of J in the local order ds truncated at a degree N.  It is
    J + m^d, for d the first degree of the basis's kept staircase with no
    standard monomial, or N if every degree below N has one.  FGLM from
    S/m^d, whose basis is the monomials of degree d: each monomial b of
    degree < d that the walk reaches maps to its ds normal form truncated
    at d, which m^d inside J + m^N makes exact; a raw remainder r is the
    image of r.scale * b.  That reduction never forms a term of degree
    >= d, so the divisors whose lead has such a degree and the tail terms
    that do are dropped before the walk, and one reducer lookup
    (``_nf_dict``) serves the walk."""
    ring = ds_basis.ring
    layers = ds_basis.staircase()
    d = len(layers) - 1 if not layers[-1] else ds_basis.truncate
    p = ring.field.characteristic
    order = DegRevLex()
    pk = packing(ds_basis.order, ring.nvars)
    pk_out = packing(order, ring.nvars)
    degree, cap = pk.degree, d << pk.shift
    divisors = [(lt, a, {e: c for e, c in tail.items() if e & degree < cap},
                 top) for lt, a, tail, top in ds_basis.divisors
                if lt & degree < cap]
    lookup = {}

    def image(b):
        r = _nf_dict({pk.pack(pk_out.unpack(b)): 1}, divisors, pk, p, d,
                     lookup)
        return r, r.scale

    base = [pk_out.pack(e) for e in monomials_of_degree(ring.nvars, d)]
    return _extend_by_kernel(ring, order,
                             [(e, 1, {}, e & pk_out.degree) for e in base],
                             image)


def _extend_by_kernel(ring, order, base, image):
    """The reduced basis of I + K under order, for I + K zero-dimensional
    and K/I the kernel of a linear map on S/I, everything packed under
    order: base, the divisors of the reduced basis of I (empty for I = 0);
    image(b), the raw image of a standard monomial b of I, a pair (vec, m)
    of a dict {row: int} and an int m > 0, nonzero mod p, such that vec is
    the image of m * b (residues in [0, p) over F_p).

    The walk finds its columns as classical FGLM does.  A heap hands out
    candidates in ascending order (descending ints), starting at 1, and
    each independent column pushes its multiples by the variables, so the
    walk reaches the staircase of I + K and its border and nothing past
    them.  A candidate is skipped when a lead of base divides it (only
    leads of degree at most its own are tried), or when a predecessor
    b / x_i is dead: a kernel lead, or a skipped multiple of one, which is
    dead in turn.  That is at most nvars set lookups, and it finds every
    multiple of a kernel lead that the walk reaches: if b = q * u is one,
    reached from an independent b / x_j, then x_j does not divide u, and
    for x_i dividing u the predecessor b / x_i was reached from the
    independent b / (x_i * x_j) and is a multiple of q.  The tails of base
    are pushed from the start and never skipped, since the reduction of
    base below needs the kernel vectors of those that are dependent.

    Each column's image is reduced against a row echelon form of the
    earlier ones, keeping the combination of columns it came from, which
    starts as {b: m}.  A column b that reduces to 0 gives the kernel vector,
    a multiple of b - sum c_s * s over earlier independent columns s: the
    reduced element of I + K with leading monomial b.

    A row with pivot coefficient a removes the entry c of the vector being
    reduced by vec := (a/h) * vec - (c/h) * row, h = gcd(a, c), and the same
    on the combination; over F_p rows are monic and entries stay residues.
    A new row and its combination have their content divided out and a
    positive pivot (over F_p: are made monic).  Every vector is a nonzero
    multiple of what field arithmetic gives, so every pivot and zero is the
    same.  A kernel vector is made primitive (monic over F_p); an element of
    base keeps its lead unless a kernel lead divides it, and each tail term
    that is a kernel lead is removed the same fraction-free way.  The basis
    is returned packed, as the divisors of these raw polynomials.
    """
    p = ring.field.characteristic
    pk = packing(order, ring.nvars)
    guard, degree, units = pk.guard, pk.degree, pk.units
    leads = sorted((g[0] for g in base), key=degree.__and__)
    lead_set = set(leads)
    lead_degrees = [lt & degree for lt in leads]
    tails = {e for g in base for e in g[2]}
    seen = tails | {0}   # 0 is the packed monomial 1
    heap = [-e for e in seen]
    heapq.heapify(heap)
    dead = set()
    rows = []    # (pivot, a, vector, combination): vector = image(comb)
    kernel = {}  # leading monomial -> raw kernel vector
    while heap:
        b = -heapq.heappop(heap)
        if b not in tails:
            if any(b - u in dead for u in units):
                dead.add(b)
                continue
            if b in lead_set or any(
                    not (b - lt) & guard
                    for lt in leads[:bisect_left(lead_degrees, b & degree)]):
                continue
        vec, m = image(b)
        comb = {b: m}
        for pivot, a, row, row_comb in rows:
            c = vec.get(pivot)
            if c is not None:
                h = gcd(a, c)
                s, t = a // h, c // h
                _combine(vec, s, t, row, p)
                _combine(comb, s, t, row_comb, p)
        if not vec:
            kernel[b] = _normalize(comb, comb[b], p)
            dead.add(b)
            continue
        pivot = next(iter(vec))
        lead = vec[pivot]
        if p:
            vec = _normalize(vec, lead, p)
            comb = _normalize(comb, lead, p)
        else:
            h = gcd(*vec.values(), *comb.values())
            if lead < 0:
                h = -h
            if h != 1:
                vec = {r: x // h for r, x in vec.items()}
                comb = {e: x // h for e, x in comb.items()}
        rows.append((pivot, vec[pivot], vec, comb))
        for u in units:
            if b + u not in seen:
                seen.add(b + u)
                heapq.heappush(heap, -b - u)
    basis = []
    for lt, a, tail, _ in base:
        if all((lt - q) & guard for q in kernel):
            terms = {lt: a, **tail}
            for e in tail:
                k = kernel.get(e)
                if k is not None:
                    h = gcd(terms[e], k[e])
                    _combine(terms, k[e] // h, terms[e] // h, k, p)
            basis.append(_divisor(terms, p, pk))
    basis += [_divisor(vec, p, pk) for q, vec in kernel.items()
              if all(r == q or (q - r) & guard for r in kernel)]
    basis.sort(key=lambda g: -g[0])
    return GroebnerBasis._packed(ring, order, 0, basis)


def _combine(dst, s, t, src, p):
    """dst := s * dst - t * src on raw term dicts, in place, dropping zero
    terms.  Over F_p (p > 0) s is 1 and entries stay residues mod p."""
    if s != 1:
        for e in dst:
            dst[e] *= s
    for e, x in src.items():
        v = dst.get(e)
        v = -t * x if v is None else v - t * x
        if p:
            v %= p
        if v:
            dst[e] = v
        else:
            del dst[e]
