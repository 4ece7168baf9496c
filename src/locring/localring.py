"""Invariants of R = (k[vars]/I) localized at the ideal of the variables.

Lengths and memberships are evaluated in the polynomial ring on m-primary
representatives: a quotient ideal J is replaced by its local model J + n^M,
where M is the smallest exponent at which the colength of S/(J + n^M)
stabilizes.  That stabilized ideal equals the contraction of the localized
ideal, so polynomial-ring answers agree with local ones.  The tool does not
verify that I equals its own local contraction (``contraction_assumed``)
nor that dim R = 1; both caveats are surfaced in reports.

Every length that is not already m-primary comes from a standard basis in
the local order ds truncated at a degree N (``buchberger(..., truncate=N)``):
its standard monomials of degree d < N number HF(d) = lambda(J + n^(d+1)) -
lambda(J + n^d), whatever N is.  ``GroebnerBasis.staircase(nvars, N)`` walks
them layer by layer, and this module only counts its layers.  One loop,
``LocalRing._truncations``, grows N = 2, 4, 8, ..., capped at a bound plus
one, and two readers scan what it yields:

* ``_stabilize`` stops at the first truncation with an empty degree d.
  Then M = max(2, d + 1) <= N, the truncation is a basis of the same ideal
  J + n^N = J + n^M, and ``groebner.fglm`` turns it, modulo n^d, into the
  degrevlex basis of the local model.
* ``multiplicity`` stops at the first window of equal HF values.

Each ring keeps two memos for as long as it lives.  One holds, keyed by J's
generators, HF(0..M-1) of S/J and the local model (a bound only decides
whether d comes too late).  The other holds, per witness x and n, the
``DeltaTestResult``.  The delta tests build m-primary ideals by
construction, colons of local models (C = (x^n) : m^n is one colon) and the
ideal nC = I + n*C over them, and use them as their own local models: S/J
is then local, its degrevlex basis answers local membership and its
colength is its number of standard monomials (``Ideal.vector_space_dim``).
The result keeps nC, which ``delta_via_mu`` reads.

The Hilbert function of R is the staircase of one truncated basis of I,
ord(f) the lowest degree of f's truncated ds normal form, and the Loewy
length of R/(f) one more than the top degree of the staircase of the local
model of I + (f).
"""

from dataclasses import dataclass, field

from .errors import (InternalInconsistency, NoStabilization,
                     NotArtinianLocally, NotFound, NotGorenstein,
                     ZeroPolynomial)
from .groebner import buchberger, fglm, normal_form
from .ideal import Ideal, max_ideal, max_ideal_power
from .poly import BlockOrder, DegRevLex, Lex, NegDegRevLex, PolyRing


class _Sentinel:
    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name


INSIDE_I = _Sentinel("INSIDE_I")

DEFAULT_ORD_BOUND = 12
DEFAULT_LOEWY_BOUND = 12
DEFAULT_INDEX_BOUND = 10
DEFAULT_STABILIZATION_BOUND = 20

DS = NegDegRevLex()


@dataclass(frozen=True)
class DeltaTestResult:
    n: int
    cond_ii: bool
    cond_iii: bool
    cond_iv: bool
    colon: object  # the ideal x*m^n : m (condition iii), as an Ideal
    verdict: bool
    # nC = I + m*((x^n) : m^n) (condition ii), as an Ideal
    nC: object = field(compare=False)


class LocalRing:
    """Presentation of a local ring: ambient ring, defining ideal, and the
    maximal ideal generated by all variables."""

    def __init__(self, ring, defining_ideal,
                 stabilization_bound=DEFAULT_STABILIZATION_BOUND):
        if stabilization_bound < 1:
            raise ValueError("stabilization_bound must be >= 1")
        if not isinstance(defining_ideal, Ideal):
            defining_ideal = Ideal(ring, defining_ideal)
        for g in defining_ideal.generators:
            if (0,) * ring.nvars in g.terms:
                raise ValueError("defining ideal not contained in the "
                                 "ideal of the variables")
        self.ring = ring
        self.I = defining_ideal
        self.n = max_ideal(ring)
        self.stabilization_bound = stabilization_bound
        self._models = {}       # J.generators -> (hf, local model)
        self._delta_tests = {}  # (x, n) -> DeltaTestResult

    # -- length plumbing ----------------------------------------------------

    def _truncations(self, J, bound):
        """(HF list, ds basis) for the ds bases of J + n^N truncated at
        N = 2, 4, 8, ..., capped at bound + 1.  The list holds the sizes of
        the basis's staircase layers, HF(0), HF(1), ... of S/J, up to degree
        N - 1 or up to and including the first zero, whichever comes first;
        HF(d) does not depend on N."""
        N = 2
        while True:
            gb = buchberger(list(J.generators), DS, truncate=N)
            layers = gb.staircase(self.ring.nvars, N)
            yield [len(layer) for layer in layers], gb
            if N > bound:
                return
            N = min(2 * N, bound + 1)

    def _stabilize(self, J, bound=None):
        """The memo entry (hf, model) of the local model J + n^M of J, where
        hf is HF(0..M-1) of S/J, whose first zero is at M - 1, or at 0 when
        J contains a unit (then M = 2).  On a miss, the first truncation
        whose staircase has an empty degree d is a basis of J + n^N =
        J + n^M, which FGLM turns into the model's degrevlex basis, read
        modulo n^d.  The entry does not depend on the bound, which only
        decides whether the first empty degree comes too late:
        NotArtinianLocally when it exceeds the bound, on a hit as on a
        miss."""
        if bound is None:
            bound = self.stabilization_bound
        elif bound < 1:
            raise ValueError("bound must be >= 1")
        entry = self._models.get(J.generators)
        if entry is None:
            for hf, gb in self._truncations(J, bound):
                if not hf[-1]:
                    M = max(2, len(hf))
                    hf += [0] * (M - len(hf))
                    model = J + max_ideal_power(self.ring, M)
                    model.gb_cache[DegRevLex()] = fglm(gb, hf.index(0))
                    entry = self._models[J.generators] = (hf, model)
                    break
        if entry is None or entry[0].index(0) > bound:
            raise NotArtinianLocally(
                f"no colength stabilization within n^{bound}")
        return entry

    def local_model(self, J, bound=None):
        """m-primary representative J + n^M equal to the contraction of the
        localization of J: the first J + n^M whose colength equals that of
        J + n^(M-1).  Its degrevlex basis, by FGLM, is already cached, and
        the same instance is returned for the same J."""
        return self._stabilize(J, bound)[1]

    def colength_local(self, J, bound=None):
        """Length of S_n/(J localized): the colength of its local model."""
        return sum(self._stabilize(J, bound)[0])

    # -- Hilbert function and multiplicity ----------------------------------

    def hilbert_function(self, max_degree):
        """[HF(0), ..., HF(max_degree)], HF(d) = lambda(S/(I+n^{d+1})) -
        lambda(S/(I+n^d)), from one ds basis of I + n^(max_degree+1)."""
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        N = max_degree + 1
        gb = buchberger(list(self.I.generators), DS, truncate=N)
        layers = gb.staircase(self.ring.nvars, N)
        return [len(layer) for layer in layers] + [0] * (N - len(layers))

    def multiplicity(self, window=3, max_degree=30):
        """Stable Hilbert-function value (dimension-one multiplicity): HF(d)
        at the first d <= max_degree with HF(d - window + 1..d) all equal."""
        if window < 1:
            raise ValueError("window must be >= 1")
        for hf, _gb in self._truncations(self.I, max_degree):
            if not hf[-1]:
                hf += [0] * (max_degree + 1 - len(hf))
            for d in range(window - 1, min(len(hf), max_degree + 1)):
                if len(set(hf[d - window + 1:d + 1])) == 1:
                    return hf[d]
        raise NoStabilization(
            f"Hilbert function not constant on a window of {window} "
            f"by degree {max_degree}")

    # -- orders and colengths -----------------------------------------------

    def ord_mod(self, f, bound=DEFAULT_ORD_BOUND):
        """Largest d <= bound with f in I + n^d; INSIDE_I if f lies in I.
        That is the lowest degree of the ds normal form of f modulo
        I + n^(bound+1), or bound if the normal form is 0."""
        if bound < 0:
            raise ValueError("bound must be >= 0")
        if f.is_zero():
            raise ZeroPolynomial("ord of 0")
        if self.I.member(f):
            return INSIDE_I
        N = bound + 1
        gb = buchberger(list(self.I.generators), DS, truncate=N)
        r = normal_form(f, gb, DS, truncate=N)
        return bound if r.is_zero() else r.order()

    def colength(self, f):
        """Length of R/(f) for a nonzerodivisor f."""
        return self.colength_local(self.I + Ideal(self.ring, [f]))

    def is_superficial(self, f):
        """True iff colength(f) equals ord(f) * e, the superficiality test."""
        d = self.ord_mod(f)
        if d is INSIDE_I or d == 0:
            return False
        return self.colength(f) == d * self.multiplicity()

    def loewy_length_mod(self, f, bound=DEFAULT_LOEWY_BOUND):
        """Smallest N <= bound with m^N contained in (f) in R: one more than
        the top degree of a ds standard monomial of the local model of
        I + (f), which is stabilized within this bound."""
        self.check_parameter(f)
        try:
            N = self._stabilize(self.I + Ideal(self.ring, [f]),
                                max(bound, 1))[0].index(0)
        except NotArtinianLocally:
            N = None
        if N is None or N > bound:
            raise NotFound(f"no N <= {bound} with m^N inside the ideal")
        return N

    # -- tangent cone -------------------------------------------------------

    def tangent_cone(self):
        """The initial ideal I* in fresh uppercase variables."""
        upper = tuple(n.upper() for n in self.ring.names)
        target = PolyRing(self.ring.field, upper)
        if self.I.is_zero_ideal():
            return Ideal(target, [])
        hname = "h"
        while hname in self.ring.names:
            hname += "_"
        # Lazard's method (Greuel and Pfister, section 1.7): with h the most
        # significant variable, larger h-exponent means smaller x-degree, so
        # on the homogeneous ideal of the homogenized generators the block
        # order is the homogenized local degree order, and its basis
        # dehomogenizes to a standard basis, whose initial forms generate I*.
        homogenized = [g.homogenize(hname, front=True) for g in self.I.generators]
        J = Ideal(homogenized[0].ring, homogenized)
        gb = J.groebner(BlockOrder(1, first=Lex(), second=DegRevLex()))
        gens = []
        for g in gb.generators:
            inf = g.dehomogenize(hname).initial_form()
            gens.append(inf.map_to(target, list(range(target.nvars))))
        out = Ideal(target, gens)
        return Ideal(target, list(out.groebner().generators))

    # -- delta invariant and index ------------------------------------------

    def check_parameter(self, x):
        """Raise unless x lies in m and outside I, so that R/(x) can be
        Artinian: a unit or an element of I cannot be a witness."""
        s = x.to_str()
        if (0,) * self.ring.nvars in x.terms:
            raise ValueError(f"{s} is a unit of R: it does not lie in the "
                             "maximal ideal")
        if self.I.member(x):
            raise NotArtinianLocally(f"{s} lies in the defining ideal, so "
                                     f"R/({s}) = R is not Artinian")

    def _socle(self, x):
        """The local model of I + (x) and its colon by m, whose quotient is
        the socle of R/(x); NotGorenstein unless that socle has dimension
        one.  x is a parameter of the one-dimensional R, so R is Gorenstein
        iff R/(x) is, iff R/(x) has type 1: the three delta criteria agree
        only then."""
        Ix = self.local_model(self.I + Ideal(self.ring, [x]))
        soc = Ix.quotient(self.n)
        t = Ix.vector_space_dim() - soc.vector_space_dim()
        if t != 1:
            raise NotGorenstein(f"R is not Gorenstein: R/({x.to_str()}) "
                                f"has type {t}")
        return Ix, soc

    def delta_one_test(self, x, n):
        """Evaluate the three colon criteria for delta(R/m^n) = 1 and check
        that they agree; NotGorenstein, before any criterion, when R/(x)
        has type other than 1.  The result is memoized per (x, n) once
        every check has passed, so a failure is raised on every call."""
        result = self._delta_tests.get((x, n))
        if result is not None:
            return result
        self.check_parameter(x)
        I = self.I
        S = self.ring
        Ix, soc = self._socle(x)
        # (iii): x*m^n : m  inside (x)
        J3 = self.local_model(I + Ideal(S, [x]) * max_ideal_power(S, n))
        colon3 = J3.quotient(self.n)
        cond_iii = Ix.contains(colon3)
        # (ii): x^n in m*C with C = (x^n) : m^n, taken on the local model
        # of I + (x^n) as one colon by m^n (equal to n colons by m); C
        # contains that model, so C and nC = I + m*C contain a power of m
        # and each is its own local model
        C = self.local_model(I + Ideal(S, [x ** n])).quotient(
            max_ideal_power(S, n))
        nC = I + self.n * C
        cond_ii = nC.member(x ** n)
        # (iv): no socle element of R/(x) lies in x*m^n : m
        cond_iv = Ix.contains(soc.intersect(colon3))
        if not (cond_ii == cond_iii == cond_iv):
            raise InternalInconsistency(
                f"delta criteria disagree at n={n}: "
                f"ii={cond_ii} iii={cond_iii} iv={cond_iv}")
        result = self._delta_tests[x, n] = DeltaTestResult(
            n, cond_ii, cond_iii, cond_iv, colon3, cond_iii, nC)
        return result

    def delta_via_mu(self, x, n):
        """delta(R/m^n) via 1 + mu(C/(x^n)) - mu(C) with C = (x^n) : m^n;
        errors as in ``delta_one_test``, whose memoized nC = I + m*C it
        reads.  mu(C) = lambda(S/nC) - lambda(S/C) and mu(C/(x^n)) =
        lambda(S/(nC + (x^n))) - lambda(S/C), so lambda(S/C) cancels, and
        the exact sequence 0 -> S/(nC : x^n) -> S/nC -> S/(nC + (x^n)) -> 0,
        whose first map is multiplication by x^n, leaves
        1 - lambda(S/(nC : x^n)).  nC is m-primary, so nC : x^n is too, and
        its colength counts standard monomials."""
        nC = self.delta_one_test(x, n).nC
        return 1 - nC.quotient(Ideal(self.ring, [x ** n])).vector_space_dim()

    def index(self, x, max_n=DEFAULT_INDEX_BOUND):
        """Smallest n with delta(R/m^n) = 1, tested on the witness x."""
        if max_n < 1:
            raise ValueError(f"max_n must be >= 1, got {max_n}: the index "
                             "is the least n >= 1 with delta(R/m^n) = 1")
        self.check_parameter(x)
        hit = None
        for n in range(1, max_n + 1):
            if self.delta_one_test(x, n).verdict:
                hit = n
                break
        if hit is None:
            raise NotFound(f"delta(R/m^n) = 0 for all n <= {max_n}")
        if hit < max_n:
            # one step past the hit; the full 1..6 chain is exercised by the
            # property suite
            if not self.delta_one_test(x, hit + 1).verdict:
                raise InternalInconsistency(
                    f"delta not monotone: true at {hit}, false at {hit + 1}")
        return hit


# ---------------------------------------------------------------------------
# quasi-homogeneity

def weighted_degrees(f, weights):
    return sorted({sum(e * w for e, w in zip(exps, weights))
                   for exps in f.terms})


def weighted_homogeneity_check(gens, weights):
    """True iff every generator is homogeneous under the given weights."""
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    return all(len(weighted_degrees(g, weights)) <= 1 for g in gens)
