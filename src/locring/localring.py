"""Invariants of R = (k[vars]/I) localized at the ideal of the variables,
for I an ``Ideal`` inside the ideal of the variables.

Lengths and memberships are evaluated in the polynomial ring on m-primary
representatives: a quotient ideal J is replaced by its local model J + n^M,
where M is the smallest exponent at which the colength of S/(J + n^M)
stabilizes.  That stabilized ideal equals the contraction of the localized
ideal, so polynomial-ring answers agree with local ones.  The tool does not
verify that I equals its own local contraction (``contraction_assumed``)
nor that dim R = 1; both caveats are surfaced in reports.

Every length that is not already m-primary comes from a standard basis in
the local order ds truncated at a degree N, built by ``LocalRing._ds_basis``
alone (``buchberger(..., truncate=N)``) for ``_truncations``,
``hilbert_function`` and ``loewy_length_at_most``: its standard monomials of
degree d < N number HF(d) = lambda(J + n^(d+1)) - lambda(J + n^d),
whatever N is.  The basis records N, and ``GroebnerBasis.staircase()``
walks them layer by layer below it; this module only counts its layers.
Each ring has one degree bound, ``stabilization_bound``.  One loop,
``LocalRing._truncations``, grows N = 2, 4, 8, ..., capped at that bound
plus one.  Three readers scan what it yields, ``ord_mod`` and these two:

* ``_stabilize`` stops at the first truncation with an empty degree d.
  Then the truncation is a basis of the same ideal J + n^N = J + n^d, and
  ``groebner.fglm`` reads d off the same kept staircase and turns the
  truncation, modulo n^d, into the reduced degrevlex basis that generates
  the local model (``Ideal.from_basis``).
* ``multiplicity`` stops at the first d >= 1 with HF(d) <= d, after which
  HF never rises.

Each ring keeps five memos for as long as it lives.  One holds, keyed by
J's generators, HF of S/J up to its first zero and the local model.  The
second holds, per witness x, whether I + (x) is m-primary in S, the third,
per x and n, the ``DeltaTestResult``, the fourth the tangent cone, and the
fifth, per N, the ds basis of I truncated at N + 1 that the gll test reads.
The delta tests build m-primary ideals by construction, colons of local
models (C = (x^n) : m^n is one colon) and the ideal nC = I + n*C over
them, and use them as their own local models: S/J is then local, its
degrevlex basis answers local membership and its colength is its number
of standard monomials (``Ideal.vector_space_dim``).  When x meets the
curve only at the origin, as the witnesses of ``main`` and ``ex1`` do,
I + (x) is m-primary, and so are I + x*m^n and I + (x^n), whose zero sets
lie in its own and the origin: the delta tests take them as their own
models too and build no ladder of truncations for them.  Deciding this
costs one degrevlex basis per witness, of I + (x), whose colength must
equal that of its local model.  The witness of ``ex2``, x = t^8 + t^10,
also vanishes at t = i and t = -i, so its delta tests take local models.
The three criteria are equal on a Gorenstein ring, and a disagreement
raises ``InternalInconsistency``, so the result keeps one verdict, the
colon of criterion (iii) and nC, which ``delta_via_mu`` reads.

The Hilbert function of R is the staircase of one truncated basis of I,
ord(f) the lowest degree of f's first nonzero ds normal form on the
truncations of I (``ideal.INFINITE`` for f in I), and the Loewy length of
R/(f) one more than the top degree of the staircase of the local model of
I + (f).  Whether that length is at most a given N is a rank count on
A = S/(I + n^(N+1)), whose basis is the staircase of one truncation of I
at N + 1, kept per N: m^N lies in (f) iff the degree-N standard monomials
lie in fA (``loewy_length_at_most``, the test of the CLI's
``gll-search``), and no Buchberger run is made per f.  The tangent cone
comes from one block-order ``buchberger`` run on the homogenized
generators (Lazard's method).
"""

from .errors import (InternalInconsistency, NoStabilization,
                     NotArtinianLocally, NotFound, NotGorenstein,
                     RingMismatch, ZeroPolynomial)
from .groebner import buchberger, fglm, normal_form, top_degree_in_multiples
from .ideal import INFINITE, Ideal, max_ideal, max_ideal_power
from .poly import BlockOrder, NegDegRevLex, Polynomial, PolyRing

DEFAULT_INDEX_BOUND = 10
DEFAULT_STABILIZATION_BOUND = 20

DS = NegDegRevLex()


class DeltaTestResult:
    def __init__(self, verdict, colon, nC):
        # delta(R/m^n) = 1, on which the three criteria agree
        self.verdict = verdict
        # the ideal x*m^n : m (condition iii), as an Ideal
        self.colon = colon
        # nC = I + m*((x^n) : m^n) (condition ii), as an Ideal
        self.nC = nC


class LocalRing:
    """Presentation of a local ring: ambient ring, defining ideal, and the
    maximal ideal generated by all variables."""

    def __init__(self, ring, defining_ideal,
                 stabilization_bound=DEFAULT_STABILIZATION_BOUND):
        if stabilization_bound < 1:
            raise ValueError("stabilization_bound must be >= 1")
        if defining_ideal.ring != ring:
            raise RingMismatch(f"defining ideal in {defining_ideal.ring}, "
                               f"not in {ring}")
        for g in defining_ideal.generators:
            if (0,) * ring.nvars in g.terms:
                raise ValueError("defining ideal not contained in the "
                                 "ideal of the variables")
        self.ring = ring
        self.I = defining_ideal
        self.n = max_ideal(ring)
        self.stabilization_bound = stabilization_bound
        self._models = {}       # J.generators -> (hf, local model)
        self._primary = {}      # x -> whether I + (x) is m-primary in S
        self._delta_tests = {}  # (x, n) -> DeltaTestResult
        self._tangent_cone = None
        self._gll_bases = {}    # N -> ds basis of I truncated at N + 1

    # -- length plumbing ----------------------------------------------------

    def _ds_basis(self, gens, N):
        """The ds basis of (gens) + n^N, truncated at N."""
        return buchberger(self.ring, gens, DS, truncate=N)

    def _truncations(self, J):
        """(HF list, ds basis) for the ds bases of J + n^N truncated at
        N = 2, 4, 8, ..., capped at the ring's bound plus one.  The list
        holds the sizes of the basis's staircase layers, HF(0), HF(1), ...
        of S/J, up to degree N - 1 or up to and including the first zero,
        whichever comes first; HF(d) does not depend on N."""
        bound = self.stabilization_bound
        N = 2
        while True:
            gb = self._ds_basis(J.generators, N)
            yield [len(layer) for layer in gb.staircase()], gb
            if N > bound:
                return
            N = min(2 * N, bound + 1)

    def _stabilize(self, J):
        """The memo entry (hf, model) of J: hf is HF(0), ..., HF(d) of S/J
        up to its first zero HF(d) (d = 0 when J contains a unit), model
        the local model J + n^(d+1), generated by its reduced degrevlex
        basis.  On a miss, the first truncation whose staircase has an
        empty degree d is a basis of J + n^N = J + n^d, which FGLM turns
        into that basis; NotArtinianLocally when no truncation has one."""
        entry = self._models.get(J.generators)
        if entry is not None:
            return entry
        for hf, gb in self._truncations(J):
            if not hf[-1]:
                model = Ideal.from_basis(fglm(gb))
                entry = self._models[J.generators] = (hf, model)
                return entry
        raise NotArtinianLocally(
            f"no colength stabilization within n^{self.stabilization_bound}")

    def local_model(self, J):
        """m-primary representative J + n^M equal to the contraction of the
        localization of J: the first J + n^M whose colength equals that of
        J + n^(M-1).  It is generated by its reduced degrevlex basis, from
        FGLM, and the same instance is returned for the same J."""
        return self._stabilize(J)[1]

    def colength_local(self, J):
        """Length of S_n/(J localized): the colength of its local model."""
        return sum(self._stabilize(J)[0])

    # -- Hilbert function and multiplicity ----------------------------------

    def hilbert_function(self, max_degree):
        """[HF(0), ..., HF(max_degree)], HF(d) = lambda(S/(I+n^{d+1})) -
        lambda(S/(I+n^d)), from one ds basis of I + n^(max_degree+1)."""
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        N = max_degree + 1
        layers = self._ds_basis(self.I.generators, N).staircase()
        return [len(layer) for layer in layers] + [0] * (N - len(layers))

    def multiplicity(self):
        """HF(d0) at the first d0 >= 1 with HF(d0) <= d0, read off the
        truncations; NoStabilization when there is none within the bound.

        HF is the Hilbert function of the standard graded algebra gr_m(R),
        so HF(d+1) <= HF(d)^<d> (Macaulay; Bruns and Herzog,
        *Cohen-Macaulay Rings*, 4.2.10).  When h <= d, the d-th Macaulay
        representation of h is h binomials (k choose k), so h^<d> = h.
        Hence HF never rises after d0, and the value is at least the limit
        of HF: e when dim R = 1, 0 when R is Artinian.  It is e when R is
        one-dimensional and Cohen-Macaulay, since then HF(d) <= e for every
        d (Sally, *Numbers of generators of ideals in local rings*, 1978).
        An Artinian or non-CM ring gets only that upper bound:
        k[x,y]/(x^2, y^3) has HF 1, 2, 2, 1, 0, ... and gives 2.  When
        dim R >= 2, HF grows without bound, so it never falls to d or
        below, and this raises NoStabilization."""
        for hf, _gb in self._truncations(self.I):
            for d in range(1, len(hf)):
                if hf[d] <= d:
                    return hf[d]
        raise NoStabilization(
            f"Hilbert function above d at every degree d <= "
            f"{self.stabilization_bound}")

    # -- orders and colengths -----------------------------------------------

    def ord_mod(self, f):
        """Largest d <= bound with f in I + n^d, for the ring's bound;
        INFINITE if f lies in I.  f lies in I + n^d, for d <= N, iff its ds
        normal form modulo I + n^N has no term of degree below d, so the
        answer is the lowest degree of the first nonzero normal form on the
        truncations, or bound if every one is 0."""
        if f.is_zero():
            raise ZeroPolynomial("ord of 0")
        if self.I.member(f):
            return INFINITE
        for _hf, gb in self._truncations(self.I):
            r = normal_form(f, gb)
            if not r.is_zero():
                return r.order()
        return self.stabilization_bound

    def colength(self, f):
        """Length of R/(f) for a nonzerodivisor f."""
        return self.colength_local(self.I + Ideal(self.ring, [f]))

    def is_superficial(self, f):
        """True iff colength(f) equals ord(f) * e, the superficiality test."""
        d = self.ord_mod(f)
        if d == INFINITE or d == 0:
            return False
        return self.colength(f) == d * self.multiplicity()

    def loewy_length_mod(self, f):
        """Smallest N with m^N contained in (f) in R: one more than the top
        degree of a ds standard monomial of the local model of I + (f);
        NotFound when that model does not stabilize within the bound."""
        self.check_parameter(f)
        try:
            return self._stabilize(
                self.I + Ideal(self.ring, [f]))[0].index(0)
        except NotArtinianLocally:
            raise NotFound(f"no N <= {self.stabilization_bound} with m^N "
                           "inside the ideal") from None

    def loewy_length_at_most(self, f, N):
        """True iff m^N lies in (f) in R, for f that passes
        ``check_parameter`` (not checked again here).  I + n^(N+1) is
        m-primary, so A = S/(I + n^(N+1)) is R/m^(N+1), and by Nakayama m^N
        lies in (f) iff its image in A lies in fA: a rank count on A
        (``groebner.top_degree_in_multiples``) against one ds basis of I
        truncated at N + 1, built once per N.  N = 0 gives False, and an
        Artinian R whose staircase ends before degree N gives True."""
        if N < 0:
            raise ValueError(f"N must be >= 0, got {N}")
        gb = self._gll_bases.get(N)
        if gb is None:
            gb = self._gll_bases[N] = self._ds_basis(self.I.generators, N + 1)
        return top_degree_in_multiples(gb, f)

    # -- tangent cone -------------------------------------------------------

    def tangent_cone(self):
        """The initial ideal I* in fresh variables, each name uppercased
        and, on a clash with an earlier one, extended by "_"; the same
        instance on every call."""
        if self._tangent_cone is None:
            self._tangent_cone = self._initial_ideal()
        return self._tangent_cone

    def _initial_ideal(self):
        upper = []
        for name in self.ring.names:
            name = name.upper()
            while name in upper:
                name += "_"
            upper.append(name)
        target = PolyRing(self.ring.field, tuple(upper))
        # Lazard's method (Greuel and Pfister, section 1.7): with h the most
        # significant variable, larger h-exponent means smaller x-degree, so
        # on the homogeneous ideal of the homogenized generators the block
        # order is the homogenized local degree order, and its basis
        # dehomogenizes to a standard basis, whose initial forms generate I*.
        homogenized = [g.homogenize("h") for g in self.I.generators]
        gb = buchberger(self.ring.extend("h"), homogenized, BlockOrder())
        gens = [Polynomial(target, g.dehomogenize().initial_form().terms)
                for g in gb.generators]
        return Ideal.from_basis(Ideal(target, gens).groebner())

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
        """The local model Ix of I + (x), its colon by m, whose quotient is
        the socle of R/(x), and whether I + (x) is m-primary in S;
        NotGorenstein unless that socle has dimension one.  x is a parameter
        of the one-dimensional R, so R is Gorenstein iff R/(x) is, iff R/(x)
        has type 1: criteria (ii) and (iii) agree only then.  I + (x) lies
        in Ix, so it is m-primary, and equal to Ix, iff its global colength
        is finite and equal to that of Ix: one degrevlex basis, decided
        once per x."""
        Ix_global = self.I + Ideal(self.ring, [x])
        Ix = self.local_model(Ix_global)
        soc = Ix.quotient(self.n)
        t = Ix.vector_space_dim() - soc.vector_space_dim()
        if t != 1:
            raise NotGorenstein(f"R is not Gorenstein: R/({x.to_str()}) "
                                f"has type {t}")
        primary = self._primary.get(x)
        if primary is None:
            primary = self._primary[x] = (
                Ix_global.vector_space_dim() == Ix.vector_space_dim())
        return Ix, soc, primary

    def delta_one_test(self, x, n):
        """Evaluate the three colon criteria for delta(R/m^n) = 1 and check
        that they agree; NotGorenstein, before any criterion, when R/(x)
        has type other than 1.  I + x*m^n and I + (x^n) enter the colons
        as their local models, or as themselves when I + (x) is m-primary
        in S (``_socle``): then they are m-primary too, each equal to its
        local model, and neither waits on ``stabilization_bound``.  The
        result is memoized per (x, n) once every check has passed, so a
        failure is raised on every call."""
        result = self._delta_tests.get((x, n))
        if result is not None:
            return result
        self.check_parameter(x)
        I = self.I
        S = self.ring
        Ix, soc, primary = self._socle(x)
        model = (lambda J: J) if primary else self.local_model
        # (iii): x*m^n : m  inside (x)
        mn = max_ideal_power(S, n)
        J3 = model(I + Ideal(S, [x]) * mn)
        colon3 = J3.quotient(self.n)
        cond_iii = Ix.contains(colon3)
        # (ii): x^n in m*C with C = (x^n) : m^n, taken on the local model
        # of I + (x^n) as one colon by m^n (equal to n colons by m); C
        # contains that model, so C and nC = I + m*C contain a power of m
        # and each is its own local model
        C = model(I + Ideal(S, [x ** n])).quotient(mn)
        nC = I + self.n * C
        cond_ii = nC.member(x ** n)
        # (iv): no socle element of R/(x) lies in x*m^n : m.  J3 lies in
        # Ix, as x*m^n lies in (x), so colon3 = J3 : m lies in Ix : m = soc:
        # the intersection is colon3, and (iv) is (iii) by a second algorithm
        cond_iv = Ix.contains(soc.intersect(colon3))
        if not (cond_ii == cond_iii == cond_iv):
            raise InternalInconsistency(
                f"delta criteria disagree at n={n}: "
                f"ii={cond_ii} iii={cond_iii} iv={cond_iv}")
        result = self._delta_tests[x, n] = DeltaTestResult(
            cond_iii, colon3, nC)
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
        return 1 - nC.quotient_element(x ** n).vector_space_dim()

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
