"""Invariants of R = (k[vars]/I) localized at the ideal of the variables.

Lengths and memberships are evaluated in the polynomial ring on m-primary
representatives: a quotient ideal J is replaced by J + n^M where M is the
smallest exponent at which the colength of S/(J + n^M) stabilizes.  That
stabilized ideal equals the contraction of the localized ideal, so
polynomial-ring answers agree with local ones.  The tool does not verify
that I equals its own local contraction (``contraction_assumed``) nor that
dim R = 1; both caveats are surfaced in reports.
"""

from dataclasses import dataclass
from itertools import product as iproduct
from math import gcd

from .errors import (InternalInconsistency, NoStabilization,
                     NotArtinianLocally, NotFound, ZeroPolynomial)
from .ideal import Ideal, max_ideal, max_ideal_power
from .poly import BlockOrder, DegRevLex, Lex, PolyRing


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


@dataclass
class HilbertData:
    values: list
    stabilized_at: object  # index or None
    multiplicity: object   # integer or None
    window: int


@dataclass
class DeltaTestResult:
    n: int
    cond_ii: bool
    cond_iii: bool
    cond_iv: bool
    colon: object  # the ideal x*m^n : m (condition iii), as an Ideal
    verdict: bool


class LocalRing:
    """Presentation of a local ring: ambient ring, defining ideal, and the
    maximal ideal generated by all variables."""

    def __init__(self, ring, defining_ideal, contraction_assumed=True,
                 stabilization_bound=DEFAULT_STABILIZATION_BOUND):
        if not isinstance(defining_ideal, Ideal):
            defining_ideal = Ideal(ring, defining_ideal)
        for g in defining_ideal.generators:
            if (0,) * ring.nvars in g.terms:
                raise ValueError("defining ideal not contained in the "
                                 "ideal of the variables")
        self.ring = ring
        self.I = defining_ideal
        self.n = max_ideal(ring)
        self.contraction_assumed = contraction_assumed
        self.stabilization_bound = stabilization_bound
        self._colength_cache = {}

    # -- length plumbing ----------------------------------------------------

    def truncation(self, d):
        """I + n^d (cached)."""
        key = ("trunc", d)
        cached = self._colength_cache.get(key)
        if cached is None:
            cached = self.I + max_ideal_power(self.ring, d)
            self._colength_cache[key] = cached
        return cached

    def local_model(self, J, bound=None):
        """m-primary representative J + n^M equal to the contraction of the
        localization of J: the first J + n^M whose colength equals that of
        J + n^(M-1).  Its degrevlex basis is already cached."""
        bound = bound or self.stabilization_bound
        prev = None
        for M in range(1, bound + 2):
            model = J + max_ideal_power(self.ring, M)
            lam = model.vector_space_dim()
            if lam == prev:
                return model
            prev = lam
        raise NotArtinianLocally(
            f"no colength stabilization within n^{bound}")

    def colength_local(self, J, bound=None):
        """Length of S_n/(J localized): the colength of its local model."""
        return self.local_model(J, bound).vector_space_dim()

    # -- Hilbert function and multiplicity ----------------------------------

    def _hilbert_values(self, max_degree):
        """Yield HF(d) = lambda(S/(I+n^{d+1})) - lambda(S/(I+n^d)) for
        d = 0..max_degree, from the truncation colengths."""
        lam_prev = 0
        for d in range(1, max_degree + 2):
            lam = self.truncation(d).vector_space_dim()
            yield lam - lam_prev
            lam_prev = lam

    def hilbert_function(self, max_degree, window=3):
        """HF(d) for d <= max_degree, and where it first stays constant."""
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        if window < 1:
            raise ValueError("window must be >= 1")
        values = list(self._hilbert_values(max_degree))
        stabilized_at = None
        mult = None
        for s in range(len(values)):
            if len(values) - s >= window and len(set(values[s:])) == 1:
                stabilized_at = s
                mult = values[s]
                break
        return HilbertData(values, stabilized_at, mult, window)

    def multiplicity(self, window=3, max_degree=30):
        """Stable Hilbert-function value (dimension-one multiplicity)."""
        if window < 1:
            raise ValueError("window must be >= 1")
        run = 0
        prev = None
        for hf in self._hilbert_values(max_degree):
            if hf == prev:
                run += 1
            else:
                run = 1
                prev = hf
            if run >= window:
                return prev
        raise NoStabilization(
            f"Hilbert function not constant on a window of {window} "
            f"by degree {max_degree}")

    # -- orders, zerodivisors, colengths ------------------------------------

    def ord_mod(self, f, bound=DEFAULT_ORD_BOUND):
        """Largest d <= bound with f in I + n^d; INSIDE_I if f lies in I."""
        if f.is_zero():
            raise ZeroPolynomial("ord of 0")
        if self.I.member(f):
            return INSIDE_I
        ord_d = 0
        for d in range(1, bound + 1):
            if self.truncation(d).member(f):
                ord_d = d
            else:
                break
        return ord_d

    def is_nonzerodivisor(self, f):
        """True iff I : f = I (valid under contraction_assumed)."""
        if f.is_zero():
            return False
        if self.I.is_zero_ideal():
            return True
        return self.I.quotient_element(f).equals(self.I)

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
        """Smallest N with m^N contained in (f) in R."""
        if self.I.member(f):
            raise NotArtinianLocally(
                f"{f.to_str()} lies in the defining ideal, so R/(f) = R is "
                "not Artinian")
        model = self.local_model(self.I + Ideal(self.ring, [f]))
        N = model.min_power_of_max_ideal_in(bound)
        if N is None:
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
        # Lazard homogenization: with h the most significant variable,
        # larger h-exponent means smaller x-degree, so leading terms of the
        # homogeneous basis correspond to initial forms downstairs.
        homogenized = [g.homogenize(hname, front=True) for g in self.I.generators]
        ext_ring = homogenized[0].ring
        hpoly = ext_ring.var(0)
        J = Ideal(ext_ring, homogenized).saturate(hpoly)
        gb = J.groebner(BlockOrder(1, first=Lex(), second=DegRevLex()))
        gens = []
        for g in gb.generators:
            inf = g.dehomogenize(hname).initial_form()
            gens.append(inf.map_to(target, list(range(target.nvars))))
        out = Ideal(target, gens)
        return Ideal(target, list(out.groebner().generators))

    # -- delta invariant and index ------------------------------------------

    def _colon_by_max_ideal_power(self, J, k):
        out = J
        for _ in range(k):
            out = out.quotient(self.n)
        return out

    def delta_one_test(self, x, n):
        """Evaluate the three colon criteria for delta(R/m^n) = 1 and check
        that they agree."""
        I = self.I
        S = self.ring
        Ix = self.local_model(I + Ideal(S, [x]))
        # (iii): x*m^n : m  inside (x)
        J3 = self.local_model(I + Ideal(S, [x]) * max_ideal_power(S, n))
        colon3 = J3.quotient(self.n)
        cond_iii = Ix.contains(colon3)
        # (ii): x^n in m*((x^n) : m^n)
        C = self._colon_by_max_ideal_power(
            self.local_model(I + Ideal(S, [x ** n])), n)
        nC = self.local_model(I + self.n * C)
        cond_ii = nC.member(x ** n)
        # (iv): no socle element of R/(x) lies in x*m^n : m
        soc = Ix.quotient(self.n)
        cond_iv = Ix.contains(soc.intersect(colon3))
        if not (cond_ii == cond_iii == cond_iv):
            raise InternalInconsistency(
                f"delta criteria disagree at n={n}: "
                f"ii={cond_ii} iii={cond_iii} iv={cond_iv}")
        return DeltaTestResult(n, cond_ii, cond_iii, cond_iv, colon3,
                               cond_iii)

    def delta_via_mu(self, x, n):
        """delta(R/m^n) via 1 + mu(C/(x^n)) - mu(C) with C = (x^n) : m^n."""
        I = self.I
        S = self.ring
        C = self._colon_by_max_ideal_power(
            self.local_model(I + Ideal(S, [x ** n])), n)
        nC = I + self.n * C
        lam_C = self.colength_local(C)
        lam_nC = self.colength_local(nC)
        lam_nCx = self.colength_local(nC + Ideal(S, [x ** n]))
        mu_C = lam_nC - lam_C
        mu_Cxn = lam_nCx - lam_C
        return 1 + mu_Cxn - mu_C

    def index(self, x, max_n=DEFAULT_INDEX_BOUND, verify_monotone=True):
        """Smallest n with delta(R/m^n) = 1, tested on the witness x."""
        hit = None
        for n in range(1, max_n + 1):
            if self.delta_one_test(x, n).verdict:
                hit = n
                break
        if hit is None:
            raise NotFound(f"delta(R/m^n) = 0 for all n <= {max_n}")
        if verify_monotone and hit < max_n:
            # one step past the hit; the full 1..6 chain is exercised by the
            # property suite
            if not self.delta_one_test(x, hit + 1).verdict:
                raise InternalInconsistency(
                    f"delta not monotone: true at {hit}, false at {hit + 1}")
        return hit

    # -- socle --------------------------------------------------------------

    def socle_dimension(self, J):
        """dim_k of ((I+J) : m)/(I+J) for an m-primary I+J."""
        M = self.local_model(self.I + J)
        lam_M = self.colength_local(M)
        lam_soc = self.colength_local(M.quotient(self.n))
        return lam_M - lam_soc


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


def weight_search(gens, bound):
    """First weight vector (lex order, entries 1..bound, gcd 1) making every
    generator weighted-homogeneous, or None."""
    if not gens:
        return None
    nvars = gens[0].ring.nvars
    for w in iproduct(range(1, bound + 1), repeat=nvars):
        g = 0
        for x in w:
            g = gcd(g, x)
        if g != 1:
            continue
        if weighted_homogeneity_check(gens, w):
            return w
    return None
