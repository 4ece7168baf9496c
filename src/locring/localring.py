"""Invariants of R = (k[vars]/I) localized at the ideal of the variables.

Lengths and memberships are evaluated in the polynomial ring on m-primary
representatives: a quotient ideal J is replaced by its local model J + n^M,
where M is the smallest exponent at which the colength of S/(J + n^M)
stabilizes.  That stabilized ideal equals the contraction of the localized
ideal, so polynomial-ring answers agree with local ones.  The tool does not
verify that I equals its own local contraction (``contraction_assumed``)
nor that dim R = 1; both caveats are surfaced in reports.

An ideal that already contains a power of n is its own local model: S/J is
then local, its degrevlex basis answers local membership and its colength
is its number of standard monomials (``Ideal.vector_space_dim``).  The delta
tests build such ideals by construction, colons of local models and the
ideals I + n*C over them (``_chain``), and use them as they are.  Each ring
memoizes, per witness x and n, that chain and the ``DeltaTestResult``.

Every other length, of I + (x), I + x*n^k, I + (x^k) or a ring file's
ideal, comes from a standard basis in the local order ds truncated at
a degree N (``buchberger(..., truncate=N)``): its standard monomials of
degree d < N number HF(d) = lambda(J + n^(d+1)) - lambda(J + n^d), whatever
N is.  ``GroebnerBasis.staircase(nvars, N)`` walks them layer by layer on
the basis's packed leads, and this module only counts its layers.  M is max(2, d + 1) for the first degree d with
no standard monomial; N doubles from 2 (2, 4, 8, ..., capped at the bound
plus one) until such a d < N appears, each round walking its own basis's
staircase from degree 0.  Then N >= M, and the truncation at N is a basis
of the same ideal J + n^N = J + n^M, so ``groebner.fglm`` turns it into
the degrevlex basis the model carries; FGLM reads it modulo n^d for that first empty
degree d.  Each ring keeps, for as long as it lives, a memo of its models
keyed by J's generators (a bound only decides whether d comes too late): M,
HF(0..M-1) and, once a caller has asked for it, the model itself, whose ds
basis is then dropped.  The Hilbert function of R is the staircase of one
truncated basis of I, ord(f) the lowest degree of f's truncated ds normal
form, and the Loewy length of R/(f) one more than the top degree of the
staircase of the local model of I + (f).
"""

from dataclasses import dataclass

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
        self._ds_bases = {}  # N -> truncated ds basis of I + n^N
        self._models = {}    # J.generators -> _Model
        self._chains = {}    # (x, n) -> (C, nC) of _chain
        self._delta_tests = {}  # (x, n) -> DeltaTestResult

    # -- length plumbing ----------------------------------------------------

    def _ds_basis_of_I(self, N):
        gb = self._ds_bases.get(N)
        if gb is None:
            gb = self._ds_bases[N] = buchberger(list(self.I.generators), DS,
                                                truncate=N)
        return gb

    def _stabilize(self, J, bound=None):
        """The memo entry of the local model J + n^M: M and HF(0..M-1) of
        S/J, whose first zero is at M - 1, or at 0 when J contains a unit
        (then M = 2).  On a miss, ds bases of J + n^N truncated at
        N = 2, 4, 8, ..., capped at bound + 1, are built until the staircase
        of one has an empty degree; that basis is kept for FGLM.  The entry
        does not depend on the bound, which only decides whether the first
        empty degree comes too late: NotArtinianLocally when it exceeds the
        bound, on a hit as on a miss."""
        if bound is None:
            bound = self.stabilization_bound
        elif bound < 1:
            raise ValueError("bound must be >= 1")
        model = self._models.get(J.generators)
        if model is not None:
            if model.hf.index(0) > bound:
                raise NotArtinianLocally(
                    f"no colength stabilization within n^{bound}")
            return model
        N = 2
        while True:
            gb = buchberger(list(J.generators), DS, truncate=N)
            hf = [len(layer) for layer in gb.staircase(self.ring.nvars, N)]
            if not hf[-1]:
                M = max(2, len(hf))
                hf += [0] * (M - len(hf))
                model = self._models[J.generators] = _Model(M, hf, gb)
                return model
            if N > bound:
                raise NotArtinianLocally(
                    f"no colength stabilization within n^{bound}")
            N = min(2 * N, bound + 1)

    def local_model(self, J, bound=None):
        """m-primary representative J + n^M equal to the contraction of the
        localization of J: the first J + n^M whose colength equals that of
        J + n^(M-1).  Its degrevlex basis, by FGLM, is already cached, and
        the same instance is returned for the same J and bound."""
        model = self._stabilize(J, bound)
        if model.ideal is None:
            model.ideal = J + max_ideal_power(self.ring, model.M)
            model.ideal.gb_cache[DegRevLex()] = fglm(
                model.ds_basis, model.hf.index(0))
            model.ds_basis = None
        return model.ideal

    def colength_local(self, J, bound=None):
        """Length of S_n/(J localized): the colength of its local model."""
        return sum(self._stabilize(J, bound).hf)

    # -- Hilbert function and multiplicity ----------------------------------

    def hilbert_function(self, max_degree):
        """[HF(0), ..., HF(max_degree)], HF(d) = lambda(S/(I+n^{d+1})) -
        lambda(S/(I+n^d)), from one ds basis of I + n^(max_degree+1)."""
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        N = max_degree + 1
        layers = self._ds_basis_of_I(N).staircase(self.ring.nvars, N)
        return [len(layer) for layer in layers] + [0] * (N - len(layers))

    def multiplicity(self, window=3, max_degree=30):
        """Stable Hilbert-function value (dimension-one multiplicity)."""
        if window < 1:
            raise ValueError("window must be >= 1")
        # one degree more at a time: a basis truncated far above the window
        # it needs costs more than all the lower ones together
        for d in range(max_degree + 1):
            values = self.hilbert_function(d)
            if len(values) >= window and len(set(values[-window:])) == 1:
                return values[-1]
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
        r = normal_form(f, self._ds_basis_of_I(N), DS, truncate=N)
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
                                max(bound, 1)).hf.index(0)
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

    def _chain(self, x, n):
        """C = (x^n) : m^n, taken on the local model of I + (x^n), and
        nC = I + m*C, memoized per (x, n).  C contains that model, which
        contains a power of m, so C and nC are m-primary: each is its own
        local model, and its degrevlex basis answers local questions."""
        chain = self._chains.get((x, n))
        if chain is None:
            C = self.local_model(self.I + Ideal(self.ring, [x ** n]))
            for _ in range(n):
                C = C.quotient(self.n)
            chain = self._chains[x, n] = (C, self.I + self.n * C)
        return chain

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
        # (ii): x^n in m*((x^n) : m^n)
        _C, nC = self._chain(x, n)
        cond_ii = nC.member(x ** n)
        # (iv): no socle element of R/(x) lies in x*m^n : m
        cond_iv = Ix.contains(soc.intersect(colon3))
        if not (cond_ii == cond_iii == cond_iv):
            raise InternalInconsistency(
                f"delta criteria disagree at n={n}: "
                f"ii={cond_ii} iii={cond_iii} iv={cond_iv}")
        result = self._delta_tests[x, n] = DeltaTestResult(
            n, cond_ii, cond_iii, cond_iv, colon3, cond_iii)
        return result

    def delta_via_mu(self, x, n):
        """delta(R/m^n) via 1 + mu(C/(x^n)) - mu(C) with C = (x^n) : m^n;
        NotGorenstein as in ``delta_one_test``.  mu(C) = lambda(S/nC) -
        lambda(S/C) and mu(C/(x^n)) = lambda(S/(nC + (x^n))) - lambda(S/C)
        with nC = I + m*C.  C and nC are m-primary (``_chain``), so their
        colengths count standard monomials, and the exact sequence
        0 -> S/(nC : x^n) -> S/nC -> S/(nC + (x^n)) -> 0, whose first map
        is multiplication by x^n, gives the third."""
        self.check_parameter(x)
        self._socle(x)
        C, nC = self._chain(x, n)
        lam_C = C.vector_space_dim()
        lam_nC = nC.vector_space_dim()
        lam_nCx = lam_nC - nC.quotient(
            Ideal(self.ring, [x ** n])).vector_space_dim()
        mu_C = lam_nC - lam_C
        mu_Cxn = lam_nCx - lam_C
        return 1 + mu_Cxn - mu_C

    def index(self, x, max_n=DEFAULT_INDEX_BOUND):
        """Smallest n with delta(R/m^n) = 1, tested on the witness x."""
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


class _Model:
    """A memo entry of ``LocalRing``: M, HF(0..M-1) of S/J, and a ds basis
    of J truncated at some N >= M until FGLM has turned it into the
    degrevlex basis of ``ideal``, the local model J + n^M."""

    __slots__ = ("M", "hf", "ds_basis", "ideal")

    def __init__(self, M, hf, ds_basis):
        self.M = M
        self.hf = hf
        self.ds_basis = ds_basis
        self.ideal = None


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
