"""Ideal arithmetic on top of the Groebner kernel.

``Ideal.eliminate`` is the one elimination routine: intersections (eliminate
an auxiliary t from t*I + (1-t)*J) and kernels of parametrizations
(``subalgebra.kernel``) build their generators in a ring extended by
``_aux_name`` and call it.

Standard monomials come from one place, ``GroebnerBasis.staircase``, which
walks them layer by layer on the basis's packed leading monomials.
``vector_space_dim`` counts them; it is INFINITE when some variable has no
pure power among the leads, so that the staircase is infinite.

``Ideal.quotient`` takes one of two routes.  When S/I is finite-dimensional
(``vector_space_dim`` is finite) it is linear algebra on S/I: (I : J)/I is
the kernel of multiplication by the generators of J on the staircase of
I's degrevlex basis, and the reduced basis of I : J is read off
by the FGLM walk (Faugere, Gianni, Lazard, Mora 1993), with no Buchberger
run.  Otherwise it intersects the single-element colons I : (g), each an
intersection with (g) followed by exact division; ``quotient_element`` and
``saturate`` always take that route.  Each ideal keeps its colons, keyed by
the divisor's generators, as it keeps its Groebner bases.  ``fglm`` runs the
same walk to turn a truncated standard basis in the local order ds into a
degrevlex basis, reducing each monomial modulo m^d for the first degree d
in which the ideal has no standard monomial.

The walk runs on plain ints, like ``groebner._nf_dict``: each image is the
kernel's packed normal form of a packed product (one int per monomial, a
product an addition), kept as a raw vector with packed monomials as row
labels and an integer multiplier; rows are eliminated fraction-free over Q
and on residues over F_p, and only the kernel vectors, indexed by the
exponent tuples of the columns, get Fraction or F_p coefficients, when they
are made monic.
"""

from math import gcd, inf, lcm

from . import groebner
from .errors import BudgetExceeded, RingMismatch, ZeroColon
from .groebner import DEFAULT_MAX_PAIRS
from .monomial import _minimalize
from .poly import (BlockOrder, DegRevLex, Polynomial, PolyRing, mono_div,
                   mono_divides, monomials_of_degree)

INFINITE = inf

_AUX = "_t"


def all_monomials(ring, d):
    """All exponent tuples of total degree d, in descending lex order."""
    return monomials_of_degree(ring.nvars, d)


def max_ideal(ring):
    """The ideal generated by all the variables."""
    return Ideal(ring, ring.gens())


def max_ideal_power(ring, d):
    """n^d, generated by all degree-d monomials."""
    if d == 0:
        return Ideal(ring, [ring.one()])
    return Ideal(ring, [ring.monomial(e) for e in all_monomials(ring, d)])


def exact_div(f, g, order=None):
    """Return q with f = q*g; assumes g divides f (f in the ideal (g))."""
    order = order or DegRevLex()
    ring = f.ring
    q = ring.zero()
    r = f
    while not r.is_zero():
        lt_r, c_r = r.leading_term(order)
        lt_g, c_g = g.leading_term(order)
        m = mono_div(lt_r, lt_g)
        if m is None:
            raise ValueError("exact_div: division is not exact")
        t = ring.monomial(m, c_r / c_g)
        q = q + t
        r = r - t * g
    return q


class Ideal:
    """An ideal given by generators, with cached reduced Groebner bases."""

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
        self.gb_cache = {}
        self.colon_cache = {}  # J.generators -> self : J

    def __repr__(self):
        return f"Ideal({len(self.generators)} gens in {self.ring})"

    def is_zero_ideal(self):
        return not self.generators

    def groebner(self, order=None, max_pairs=DEFAULT_MAX_PAIRS,
                 time_budget=None):
        order = order or DegRevLex()
        gb = self.gb_cache.get(order)
        if gb is None:
            gb = groebner.buchberger(list(self.generators), order,
                                     max_pairs=max_pairs,
                                     time_budget=time_budget)
            self.gb_cache[order] = gb
        return gb

    # -- membership and comparison ------------------------------------------

    def member(self, f, order=None):
        if f.is_zero():
            return True
        if self.is_zero_ideal():
            return False
        return groebner.is_member(f, self.groebner(order))

    def contains(self, other):
        return all(self.member(g) for g in other.generators)

    def equals(self, other):
        ga = self.groebner()
        gb = other.groebner()
        return ga.generators == gb.generators

    def is_unit_ideal(self):
        gb = self.groebner()
        return len(gb.generators) == 1 and gb.generators[0].is_constant() \
            and not gb.generators[0].is_zero()

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        self._same_ring(other)
        return Ideal(self.ring, list(self.generators) + list(other.generators))

    def __mul__(self, other):
        self._same_ring(other)
        gens = [f * g for f in self.generators for g in other.generators]
        if gens and all(g.is_monomial() for g in gens):
            gens = [self.ring.monomial(e) for e in reversed(
                _minimalize(next(iter(g.terms)) for g in gens))]
        return Ideal(self.ring, gens)

    def power(self, n):
        if n < 0:
            raise ValueError("negative ideal power")
        if n == 0:
            return Ideal(self.ring, [self.ring.one()])
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def _same_ring(self, other):
        if other.ring != self.ring:
            raise RingMismatch("ideals in different rings")

    # -- intersection, quotient, saturation ---------------------------------

    def intersect(self, other, max_pairs=DEFAULT_MAX_PAIRS,
                  time_budget=None):
        self._same_ring(other)
        if self.is_zero_ideal() or other.is_zero_ideal():
            return Ideal(self.ring, [])
        aux = _aux_name(self.ring)
        ext = self.ring.extend(aux, front=True)
        t = ext.var(0)
        one = ext.one()
        pos = list(range(1, ext.nvars))
        gens = [t * f.map_to(ext, pos) for f in self.generators]
        gens += [(one - t) * g.map_to(ext, pos) for g in other.generators]
        return Ideal(ext, gens).eliminate([aux], max_pairs=max_pairs,
                                          time_budget=time_budget)

    def quotient_element(self, g, max_pairs=DEFAULT_MAX_PAIRS,
                         time_budget=None):
        """I : (g) for a single nonzero polynomial g."""
        if g.is_zero():
            raise ZeroColon("colon by zero element")
        if self.is_zero_ideal():
            return Ideal(self.ring, [])
        inter = self.intersect(Ideal(self.ring, [g]), max_pairs=max_pairs,
                               time_budget=time_budget)
        return Ideal(self.ring, [exact_div(f, g) for f in inter.generators])

    def quotient(self, other, max_pairs=DEFAULT_MAX_PAIRS,
                 time_budget=None):
        """I : J.  By linear algebra on S/I when that space is
        finite-dimensional, with the reduced degrevlex basis of the result
        cached; otherwise as the intersection of the single-element colons.
        The result is kept in ``colon_cache``: the same generators of J give
        the same instance."""
        self._same_ring(other)
        if other.is_zero_ideal():
            raise ZeroColon("colon by zero ideal")
        out = self.colon_cache.get(other.generators)
        if out is not None:
            return out
        if self.vector_space_dim(max_pairs=max_pairs,
                                 time_budget=time_budget) != INFINITE:
            out = self._artinian_quotient(other)
        else:
            for g in other.generators:
                q = self.quotient_element(g, max_pairs=max_pairs,
                                          time_budget=time_budget)
                out = q if out is None else out.intersect(
                    q, max_pairs=max_pairs, time_budget=time_budget)
        self.colon_cache[other.generators] = out
        return out

    def saturate(self, f, max_iter=100, max_pairs=DEFAULT_MAX_PAIRS,
                 time_budget=None):
        """I : f^infinity by iterated colon until stabilization."""
        if f.is_zero():
            raise ZeroColon("saturation by zero")
        cur = self
        for _ in range(max_iter):
            nxt = cur.quotient_element(f, max_pairs=max_pairs,
                                       time_budget=time_budget)
            if nxt.equals(cur):
                return cur
            cur = nxt
        raise BudgetExceeded("saturation did not stabilize",
                             {"iterations": max_iter})

    def _artinian_quotient(self, other):
        """I : J for a zero-dimensional I: (I : J)/I is the kernel of
        c -> (NF(sum_b c_b * b * g))_g over the generators g of J, on the
        standard monomials b of I."""
        p = self.ring.field.characteristic
        gb = self.groebner()
        pk = groebner.packing(gb.order, self.ring.nvars)
        raw_gens = [groebner._to_raw(g.terms, p, pk) for g in other.generators]
        top = max(g.total_degree() for g in other.generators)

        def image(b):
            # block i, the normal form of g_i * b, is r / s for the scale
            # s = scale * r.scale (1 over F_p); the blocks are brought to
            # one multiplier m, the lcm of the numerators of the scales
            groebner._check_degree(top + sum(b))
            b = pk.pack(b)
            blocks = []
            for i, (raw, scale) in enumerate(raw_gens):
                prod = {e + b: c for e, c in raw.items()}
                r = groebner._nf_dict(prod, gb.divisors, pk, p, 0)
                if r:
                    blocks.append((i, r, scale * r.scale))
            m = lcm(*(s.numerator for _, _, s in blocks))
            out = {}
            for i, r, s in blocks:
                f = s.denominator * (m // s.numerator)
                for e, c in r.items():
                    out[i, e] = c * f
            return out, m

        std = [e for layer in gb.staircase(self.ring.nvars) for e in layer]
        basis = _extend_by_kernel(gb, sorted(std, key=gb.order.key), image)
        out = Ideal(self.ring, basis.generators)
        out.gb_cache[basis.order] = basis
        return out

    # -- elimination --------------------------------------------------------

    def eliminate(self, drop_names, max_pairs=DEFAULT_MAX_PAIRS,
                  time_budget=None, inner_order=None):
        """Contract to the subring without the dropped variables."""
        drop = [n for n in self.ring.names if n in set(drop_names)]
        if not drop:
            return Ideal(self.ring, list(self.generators))
        keep = [n for n in self.ring.names if n not in set(drop_names)]
        reordered = PolyRing(self.ring.field, tuple(drop) + tuple(keep))
        pos = [reordered.names.index(n) for n in self.ring.names]
        gens = [g.map_to(reordered, pos) for g in self.generators]
        order = BlockOrder(len(drop), second=inner_order)
        gb = groebner.buchberger(gens, order, max_pairs=max_pairs,
                                 time_budget=time_budget)
        target = PolyRing(self.ring.field, tuple(keep))
        kept = []
        for g in gb.generators:
            if all(all(e[i] == 0 for i in range(len(drop))) for e in g.terms):
                terms = {e[len(drop):]: c for e, c in g.terms.items()}
                kept.append(Polynomial(target, terms))
        return Ideal(target, kept)

    # -- dimensions ---------------------------------------------------------

    def vector_space_dim(self, max_pairs=DEFAULT_MAX_PAIRS,
                         time_budget=None):
        """Length of S/I as a k-vector space (count of standard monomials),
        or INFINITE."""
        if self.is_zero_ideal():
            return INFINITE
        gb = self.groebner(max_pairs=max_pairs, time_budget=time_budget)
        layers = gb.staircase(self.ring.nvars)
        return INFINITE if layers is None else sum(map(len, layers))


def _extend_by_kernel(gb, columns, image):
    """The reduced degrevlex basis of I + K, for I zero-dimensional with
    reduced degrevlex basis gb and K/I the kernel of a linear map on S/I;
    columns: the standard monomials of I in ascending degrevlex order;
    image(b): the raw image of the column b, a pair (vec, m) of a dict
    {row: int} and an int m > 0, nonzero mod p, such that vec is the image
    of m * b (residues in [0, p) over F_p).

    The FGLM walk: each column's image is reduced against a row echelon
    form of the earlier ones, keeping the combination of columns it came
    from, which starts as {b: m}.  A column b that reduces to 0 gives the
    kernel vector b - sum c_s * s over earlier independent columns s: the
    reduced element of I + K with leading monomial b.  A column divisible
    by such a b is dependent too and is skipped, unless a tail of gb uses
    it.

    The walk runs on plain ints, as ``groebner._nf_dict`` does.  A row with
    pivot coefficient a removes the entry c of the vector being reduced by
    vec := (a/h) * vec - (c/h) * row, h = gcd(a, c), and the same on the
    combination; over F_p rows are monic and entries stay residues.  A new
    row and its combination have their content divided out and a positive
    pivot (over F_p: are made monic).  Every vector is a nonzero multiple
    of what field arithmetic gives, so every pivot and zero is the same,
    and a kernel vector becomes Fraction or F_p elements only once, when
    it is made monic.
    """
    key = gb.order.key
    ring = gb.generators[0].ring
    field = ring.field
    p = field.characteristic
    tails = {e for g in gb.generators for e in g.terms}
    rows = []    # (pivot, a, vector, combination): vector = image(comb)
    kernel = {}  # leading monomial -> monic kernel vector as term dict
    for b in columns:
        if b not in tails and any(mono_divides(q, b) for q in kernel):
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
            kernel[b] = groebner._from_raw(comb, comb[b], field)
            continue
        pivot = next(iter(vec))
        lead = vec[pivot]
        if p:
            vec = groebner._normalize(vec, lead, p)
            comb = groebner._normalize(comb, lead, p)
        else:
            h = gcd(*vec.values(), *comb.values())
            if lead < 0:
                h = -h
            if h != 1:
                vec = {r: x // h for r, x in vec.items()}
                comb = {e: x // h for e, x in comb.items()}
        rows.append((pivot, vec[pivot], vec, comb))
    basis = []
    for lt, g in zip(gb.leading_monomials(), gb.generators):
        if not any(mono_divides(q, lt) for q in kernel):
            terms = dict(g.terms)
            for e, c in g.terms.items():
                if e in kernel:
                    _sub_scaled(terms, c, kernel[e])
            basis.append(terms)
    basis += [vec for q, vec in kernel.items()
              if not any(r != q and mono_divides(r, q) for r in kernel)]
    basis.sort(key=lambda terms: key(max(terms, key=key)))
    return groebner.GroebnerBasis(
        [Polynomial(ring, terms) for terms in basis], gb.order)


def fglm(ds_basis, d):
    """The reduced degrevlex basis of J + m^N, for ds_basis a standard
    basis of J in the local order ds truncated at a degree N, given
    d <= N with m^d inside J + m^N (d the first degree with no standard
    monomial).  FGLM from S/m^d: each monomial b of degree < d maps to its
    ds normal form truncated at d, which m^d inside J + m^N makes exact;
    a raw remainder r of scale num/den is the image of num * b as den * r.
    """
    ring = ds_basis.generators[0].ring
    p = ring.field.characteristic
    order = DegRevLex()
    base = groebner.GroebnerBasis(
        [ring.monomial(e)
         for e in sorted(all_monomials(ring, d), key=order.key)], order)
    columns = sorted((e for k in range(d) for e in all_monomials(ring, k)),
                     key=order.key)
    pk = groebner.packing(ds_basis.order, ring.nvars)

    def image(b):
        r = groebner._nf_dict({pk.pack(b): 1}, ds_basis.divisors, pk, p, d)
        num, den = r.scale.numerator, r.scale.denominator
        if den != 1:
            r = {e: c * den for e, c in r.items()}
        return r, num

    return _extend_by_kernel(base, columns, image)


def _combine(dst, s, t, src, p):
    """dst := s * dst - t * src on raw term dicts, in place, dropping zero
    terms; over F_p (p > 0) s is 1 and entries stay residues mod p."""
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


def _sub_scaled(dst, c, src):
    """dst -= c * src on term dicts, in place, dropping zero terms."""
    for e, x in src.items():
        s = dst.get(e)
        s = -c * x if s is None else s - c * x
        if s:
            dst[e] = s
        else:
            del dst[e]


def _aux_name(ring):
    name = _AUX
    while name in ring.names:
        name += "_"
    return name
