"""The local length engine against the slower paths it replaced.

Every length of ``LocalRing`` on an ideal not known to be m-primary now
comes from one standard basis in the local order ds truncated at a degree N,
and local models get their degrevlex basis by FGLM; the m-primary ideals of
the delta tests skip both, and are checked here against that ds route and
the J + n^M loop.
The oracles below are the old computations, kept here: the
J + n^M loop of ``local_model`` with one degrevlex Buchberger run per M,
colengths of the truncations I + n^d, the degree-by-degree loop of
``multiplicity``, membership in I + n^d for ``ord_mod``,
the per-N membership loop for the Loewy length, degrevlex membership and
one ds truncation of I + (f) per f (``oracles.ds_top_layer_empty``) for
the gll test, and the saturation by h that the tangent cone once took before
its block-order basis.  All comparisons are exact.
"""

import random
from fractions import Fraction

import pytest

from locring import cli, groebner, localring
from locring.arith import QQ, PrimeField, PrimeFieldElement
from locring.bounds import macaulay_bound
from locring.errors import (InternalInconsistency, NoStabilization,
                            NotArtinianLocally, RingMismatch)
from locring.groebner import GroebnerBasis, buchberger, fglm, is_member
from locring.ideal import INFINITE, Ideal, all_monomials, max_ideal_power
from locring.localring import LocalRing
from locring.poly import BlockOrder, DegRevLex, Polynomial, PolyRing
from locring.subalgebra import kernel
from oracles import colon_by_elimination, ds_top_layer_empty, equals

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(32003)]
FIELD_IDS = ["Q", "F2", "F3", "Fp"]


def _old_local_model(J, bound):
    """The J + n^M loop: the first J + n^M whose colength equals that of
    J + n^(M-1), each colength from a degrevlex Buchberger run."""
    prev = None
    for M in range(1, bound + 2):
        model = J + max_ideal_power(J.ring, M)
        lam = model.vector_space_dim()
        if lam == prev:
            return M, model
        prev = lam
    raise NoStabilization(f"no colength stabilization within n^{bound}")


def _truncation_colengths(R, top):
    """lambda(S/(I + n^d)) for d = 1..top, by degrevlex bases."""
    return [(R.I + max_ideal_power(R.ring, d)).vector_space_dim()
            for d in range(1, top + 1)]


def _min_power_of_max_ideal_in(ideal, bound):
    """The per-N membership loop: the smallest N <= bound with every
    degree-N monomial in the ideal, or None."""
    gb = ideal.groebner()
    for N in range(1, bound + 1):
        if all(is_member(ideal.ring.monomial(e), gb)
               for e in all_monomials(ideal.ring, N)):
            return N
    return None


def _assert_same_model(R, J):
    """local_model agrees with the loop within the ring's bound: it is
    generated by the reduced degrevlex basis of the loop's J + n^M, which
    it has installed, and has its colength.  Where the loop finds no model
    within the bound, the ladder fails with the class the tangent cone J*
    of the saturation route names: NotArtinianLocally when J* is not
    m-primary, so that S/J is not Artinian at the origin, and otherwise
    NoStabilization; then a ring with twice the bound finds the loop's
    model, of colength dim S/J*.  Returns whether a model exists within
    the ring's bound."""
    try:
        _M, old = _old_local_model(J, R.stabilization_bound)
    except NoStabilization:
        cone = _saturated_tangent_cone(J)
        length = Ideal(cone[0].ring, cone).vector_space_dim()
        error = NotArtinianLocally if length == INFINITE else NoStabilization
        for call in (R.local_model, R.colength_local):
            with pytest.raises(error):
                call(J)
        if error is NoStabilization:
            wider = LocalRing(R.ring, R.I,
                              stabilization_bound=2 * R.stabilization_bound)
            assert _assert_same_model(wider, J)
            assert wider.colength_local(J) == length
        return False
    new = R.local_model(J)
    basis = old.groebner().generators
    assert new._gb.generators == basis
    assert list(new.generators) == basis
    assert R.colength_local(J) == old.vector_space_dim()
    return True


def _ex2_ring():
    pm = cli.parse_map_file(cli.EX2_MAP_TEXT, QQ)
    return LocalRing(pm.source, kernel(pm))


SCENARIO_RINGS = {
    "main": (lambda: cli.MAIN_RING.local_ring(), "y"),
    "ex1": (lambda: cli.EX1_RING.local_ring(), "z"),
    "ex2": (_ex2_ring, "x"),
}


@pytest.fixture(scope="module")
def scenario_rings():
    return {name: (make(), witness)
            for name, (make, witness) in SCENARIO_RINGS.items()}


def _spy_ds_basis(monkeypatch, of_i_only=False):
    """The truncation degrees of every ``_ds_basis`` call from now on, or
    of those on I's own generators."""
    seen = []
    original = LocalRing._ds_basis

    def record(self, gens, N):
        if not of_i_only or gens == self.I.generators:
            seen.append(N)
        return original(self, gens, N)

    monkeypatch.setattr(LocalRing, "_ds_basis", record)
    return seen


@pytest.mark.parametrize("name", ["main", "ex1"])
def test_colength_of_an_element_of_i_runs_no_ladder(scenario_rings, name,
                                                    monkeypatch):
    # I + (f) = I for f in I: colength used to run I's ladder to the bound
    # and then call f a zero divisor; check_parameter names f at once
    R = LocalRing(scenario_rings[name][0].ring, scenario_rings[name][0].I)
    f = R.ring.parse("x^2 - y^5")
    seen = _spy_ds_basis(monkeypatch)
    with pytest.raises(NotArtinianLocally) as raised:
        R.colength(f)
    assert str(raised.value) == ("-y^5 + x^2 lies in the defining ideal, so "
                                 "R/(-y^5 + x^2) = R is not Artinian")
    assert seen == []
    assert R.colength(R.ring.parse("1 + y")) == 0 and seen == []


def _spy_stabilize(monkeypatch):
    """The ideal of every ``_stabilize`` call from now on."""
    seen = []
    original = LocalRing._stabilize

    def record(self, J, length_bound=None):
        seen.append(J)
        return original(self, J, length_bound)

    monkeypatch.setattr(LocalRing, "_stabilize", record)
    return seen


@pytest.mark.parametrize("name", SCENARIO_RINGS)
def test_local_model_matches_loop_on_scenario_models(scenario_rings, name,
                                                     monkeypatch):
    # every ideal the delta tests at n = 1..6 take as a model, on a ring
    # with empty memos: the models the ladder builds, and, when I + (x)
    # is m-primary in S (main and ex1, not ex2), I + x*m^n and I + (x^n)
    # taken as their own models, whose reduced bases must be those of the
    # loop and of local_model on a fresh ring; then the ideals I + m*C
    R, witness = scenario_rings[name]
    R = LocalRing(R.ring, R.I)
    x = R.ring.parse(witness)
    seen = _spy_stabilize(monkeypatch)
    for n in range(1, 7):
        R.delta_one_test(x, n)
    monkeypatch.undo()
    for J in seen:
        assert _assert_same_model(R, J)
    laddered = {J.generators for J in seen}
    S = R.ring
    Ix = (R.I + Ideal(S, [x])).generators
    ideals = [J for n in range(1, 7)
              for J in (R.I + Ideal(S, [x]) * max_ideal_power(S, n),
                        R.I + Ideal(S, [x ** n]))]
    if name == "ex2":
        # I + (x) is not m-primary: the ladder built every model
        assert laddered == {Ix} | {J.generators for J in ideals}
    else:
        # it is: the ladder built the model of I + (x) alone
        assert laddered == {Ix}
        fresh = LocalRing(S, R.I)
        for J in ideals:
            _M, old = _old_local_model(J, R.stabilization_bound)
            basis = old.groebner().generators
            assert J.groebner().generators == basis
            assert fresh.local_model(J)._gb.generators == basis
    for n in range(1, 7):
        nC = R.delta_one_test(x, n).nC
        _M, old = _old_local_model(nC, R.stabilization_bound)
        assert nC.groebner().generators == old.groebner().generators


def test_bounded_ladder_matches_the_doubling_ladder(scenario_rings,
                                                   monkeypatch):
    # ex2's I + (x^n), whose local length is at most n * lambda(R/xR): with
    # that bound the ladder gives the hf of the doubling ladder and a
    # truncation that FGLM turns into the reduced basis of the J + n^M
    # loop, and stops sooner
    R, witness = scenario_rings["ex2"]
    S = R.ring
    x = S.parse(witness)
    lam = R.local_model(R.I + Ideal(S, [x])).vector_space_dim()
    for n in range(1, 7):
        J = R.I + Ideal(S, [x ** n])
        hf, gb = LocalRing(S, R.I)._stabilize(J, n * lam)
        assert hf == LocalRing(S, R.I)._stabilize(J)[0]
        M, old = _old_local_model(J, R.stabilization_bound)
        assert fglm(gb).generators == old.groebner().generators
        assert (len(hf), sum(hf)) == (M, old.vector_space_dim())
        # the exact length is a bound too
        assert LocalRing(S, R.I)._stabilize(J, sum(hf))[0] == hf
    J5 = R.I + Ideal(S, [x ** 5])
    seen = _spy_ds_basis(monkeypatch)
    LocalRing(S, R.I).local_model(J5)
    assert seen == [2, 4, 8, 16]
    seen.clear()
    LocalRing(S, R.I)._stabilize(J5, 5 * lam)
    assert seen == [2, 4, 8, 12]
    # the delta test passes that bound: its three ladders (I + (x),
    # I + x*m^5, I + (x^5)) stop at 12
    seen.clear()
    LocalRing(S, R.I).delta_one_test(x, 5)
    assert max(seen) == 12
    # a bound below the layer sum of a truncation is a wrong bound, on
    # every call
    fresh = LocalRing(S, R.I)
    for _ in range(2):
        with pytest.raises(InternalInconsistency):
            fresh._stabilize(J5, 2)


@pytest.mark.parametrize("name", SCENARIO_RINGS)
def test_m_primary_chain_matches_the_ds_route(scenario_rings, name):
    # C = (x^n) : m^n and nC = I + m*C skip local_model and colength_local:
    # their degrevlex bases and staircase colengths against the ds route,
    # and delta_via_mu against 1 + mu(C/(x^n)) - mu(C) from ds colengths,
    # for each n the scenarios test
    R, witness = scenario_rings[name]
    x = R.ring.parse(witness)
    for n in range(1, 7):
        C = R.local_model(R.I + Ideal(R.ring, [x ** n]))
        for _ in range(n):
            C = C.quotient(R.n)
        nC = R.delta_one_test(x, n).nC
        assert nC.generators == (R.I + R.n * C).generators
        xn = Ideal(R.ring, [x ** n])
        model = R.local_model(nC)
        assert nC.groebner().generators == model._gb.generators
        assert C.vector_space_dim() == R.colength_local(C)
        assert nC.vector_space_dim() == R.colength_local(nC)
        assert nC.vector_space_dim() - nC.quotient(xn).vector_space_dim() \
            == R.colength_local(nC + xn)
        mu_C = R.colength_local(nC) - R.colength_local(C)
        mu_Cxn = R.colength_local(nC + xn) - R.colength_local(C)
        assert R.delta_via_mu(x, n) == 1 + mu_Cxn - mu_C


def _loop_multiplicity(R):
    """The degree-by-degree loop: HF(0..d) for d = 1, 2, ..., the ring's
    bound, each list from its own truncated ds basis, until Macaulay's
    bound holds its last value h fixed, macaulay_bound(h, d) == h.  None
    when it never does."""
    for d in range(1, R.stabilization_bound + 1):
        h = R.hilbert_function(d)[-1]
        if macaulay_bound(h, d) == h:
            return h
    return None


def _same_multiplicity(R):
    """multiplicity agrees with the loop: the same value, or
    NoStabilization where the loop finds none.  Returns the value or
    None."""
    expected = _loop_multiplicity(R)
    if expected is None:
        with pytest.raises(NoStabilization):
            R.multiplicity()
    else:
        assert R.multiplicity() == expected
    return expected


@pytest.mark.parametrize("name, ladder", [("main", [2, 4, 7, 9]),
                                          ("ex1", [2, 4, 7, 9]),
                                          ("ex2", [2, 4, 7, 8, 9])])
def test_multiplicity_ladder_stops_at_its_answer(scenario_rings, name,
                                                 ladder, monkeypatch):
    # after a truncation at N that does not answer, the next N is the one
    # that answers if HF stays at HF(N - 1), at most 2N: HF(3) = 6 gives
    # 7, HF(6) = 8 gives 9, and on ex2 HF(6) = 7 gives 8 and HF(7) = 8
    # gives 9; doubling went 2, 4, 8, 16 on all three
    R, _witness = scenario_rings[name]
    seen = _spy_ds_basis(monkeypatch)
    assert LocalRing(R.ring, R.I).multiplicity() == 8
    assert seen == ladder


def test_one_main_pass_builds_each_truncation_of_i_once(monkeypatch):
    # hilbert-function-0-8 builds N = 9, multiplicity's ladder 2, 4, 7 and
    # reads 9, and the order-case report reads HF(1) off N = 2 and e off
    # the same ladder, which it does not rerun
    seen = _spy_ds_basis(monkeypatch, of_i_only=True)
    assert cli.run_scenario("main").passed()
    assert seen == [9, 2, 4, 7]


def test_every_reader_of_i_shares_its_truncations(scenario_rings,
                                                   monkeypatch):
    # after hilbert_function(8) and multiplicity, the order-case report
    # and ord_mod's ladder (N = 2, 4 for an f of order 2) build no ds
    # basis, nor does the gll test at N after hilbert_function(N); every
    # answer is a fresh ring's
    M, _witness = scenario_rings["main"]
    S = M.ring
    f, g = S.parse("y^2 + x*z"), S.parse("y + 3*z^2 - x*z")
    R = LocalRing(S, M.I)
    R.hilbert_function(8)
    R.multiplicity()
    seen = _spy_ds_basis(monkeypatch)
    answers = (cli._case_report(R, 5, 4), R.ord_mod(f))
    assert seen == []
    fresh = LocalRing(S, M.I)
    assert answers == (cli._case_report(fresh, 5, 4), fresh.ord_mod(f))
    assert answers[1] == 2
    R = LocalRing(S, M.I)
    hf = R.hilbert_function(5)
    seen.clear()
    answer = R.loewy_length_at_most(g, 5)
    assert seen == []
    fresh = LocalRing(S, M.I)
    assert (hf, answer) == (fresh.hilbert_function(5),
                            fresh.loewy_length_at_most(g, 5))


@pytest.mark.parametrize("name, loewy", [("main", 6), ("ex1", 7),
                                         ("ex2", 6)])
def test_witness_loewy_length_is_read_from_the_socle_memo(scenario_rings,
                                                          name, loewy,
                                                          monkeypatch):
    # after a delta test on x, Loewy(R/xR) is the socle entry's: no ds
    # basis, and the value of a fresh ring's ladder (ex1's Loewy element
    # is y - z, not its witness z)
    R, witness = scenario_rings[name]
    x = R.ring.parse(witness)
    R = LocalRing(R.ring, R.I)
    R.delta_one_test(x, 4)
    seen = _spy_ds_basis(monkeypatch)
    assert R.loewy_length_mod(x) == loewy
    assert seen == []
    assert LocalRing(R.ring, R.I).loewy_length_mod(x) == loewy
    assert seen


@pytest.mark.parametrize("name", SCENARIO_RINGS)
def test_delta_test_at_one_reads_the_socle(scenario_rings, name,
                                           monkeypatch):
    # at n = 1, I + (x^n) is I + (x), whose model the socle entry holds,
    # and C = (x) : m is its socle: a fresh ring ladders I + (x) once,
    # and, for ex2's non-primary witness, I + x*m once; the verdict, the
    # colon and nC are those of the route through I + (x^1)
    R, witness = scenario_rings[name]
    S = R.ring
    x = S.parse(witness)
    R = LocalRing(S, R.I)
    seen = _spy_stabilize(monkeypatch)
    result = R.delta_one_test(x, 1)
    Ix = (R.I + Ideal(S, [x])).generators
    J3 = (R.I + Ideal(S, [x]) * R.n).generators
    primary = R._socle(x)[2]
    assert [J.generators for J in seen] == ([Ix] if primary else [Ix, J3])
    monkeypatch.undo()
    Jn = R.I + Ideal(S, [x])
    if not primary:
        Jn = R.local_model(Jn)
    C = Jn.quotient(max_ideal_power(S, 1))
    nC = R.I + R.n * C
    assert nC.generators == result.nC.generators
    assert result.verdict == nC.member(x)
    assert not result.verdict
    colon = R.local_model(R.I + Ideal(S, [x]) * R.n).quotient(R.n)
    assert result.colon.groebner().generators == colon.groebner().generators


def test_macaulay_stop_test_is_h_at_most_d():
    # multiplicity stops at the first d >= 1 with HF(d) <= d: exactly the
    # values that Macaulay's bound cannot raise in the next degree
    for d in range(1, 16):
        for h in range(0, 60):
            assert (h <= d) == (macaulay_bound(h, d) == h)


@pytest.mark.parametrize("name", SCENARIO_RINGS)
def test_multiplicity_matches_the_degree_by_degree_loop(scenario_rings,
                                                        name):
    # HF(7) = 8 > 7 and HF(8) = 8 on all three, past ex2's 7, 7, 7 plateau,
    # so the value needs a bound of 8 and no bound of 7 gives one
    R, _witness = scenario_rings[name]
    assert _same_multiplicity(R) == 8
    for bound, expected in ((7, None), (8, 8)):
        small = LocalRing(R.ring, R.I, stabilization_bound=bound)
        assert _same_multiplicity(small) == expected


def test_multiplicity_of_small_rings_matches_the_loop():
    # the value bounds the limit of HF above; it is that limit, the
    # multiplicity, on a one-dimensional Cohen-Macaulay ring
    S = PolyRing(QQ, ("x", "y"))
    # Artinian, HF 1, 2, 2, 1, 0, ...: 2, where the limit is 0
    R = LocalRing(S, Ideal(S, ["x^2", "y^3"]))
    assert R.hilbert_function(5) == [1, 2, 2, 1, 0, 0]
    assert _same_multiplicity(R) == 2
    # not Cohen-Macaulay (y^2 is killed by m), HF 1, 2, 2, 1, 1, ...: 2,
    # where e = 1
    R = LocalRing(S, Ideal(S, ["x*y", "y^3"]))
    assert R.hilbert_function(5) == [1, 2, 2, 1, 1, 1]
    assert _same_multiplicity(R) == 2
    # a smooth curve, HF 1, 1, 1, ...
    assert _same_multiplicity(LocalRing(S, Ideal(S, ["y - x^2"]))) == 1
    # dimension two, HF(d) = d + 1 > d
    assert _same_multiplicity(LocalRing(S, Ideal(S, []))) is None
    T = PolyRing(QQ, ("x", "y", "z"))
    assert _same_multiplicity(LocalRing(T, Ideal(T, ["x^2 - y^3"]))) is None


@pytest.mark.parametrize("a, c", [(8, 20), (7, 18), (9, 22), (10, 25)])
def test_multiplicity_of_a_branch_is_its_least_value(a, c):
    # the kernel of t -> (t^a + t^(a+2), t^(a+1), t^c + t^(2c-4)) is one
    # branch, so e is the least value of its semigroup, v(x) = a, which is
    # also colength(x); (8, 20) is ex2, and a window of 3 equal values
    # gave a - 1 on each
    R = _curve_ring((f"t^{a} + t^{a + 2}", f"t^{a + 1}",
                     f"t^{c} + t^{2 * c - 4}"))
    x = R.ring.var(0)
    assert R.multiplicity() == R.colength(x) == a
    assert R.is_superficial(x)


def _sparse_poly(ring, rng, lo, hi):
    """Two to four monomials of degree lo..hi with nonzero coefficients in
    [-3, 3]."""
    terms = {}
    size = rng.randint(2, 4)
    while len(terms) < size:
        e = rng.choice(all_monomials(ring, rng.randint(lo, hi)))
        terms[e] = ring.field.from_int(rng.choice([-3, -2, -1, 1, 2, 3]))
    return Polynomial(ring, terms)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "Fp"])
def test_multiplicity_is_where_the_hilbert_function_settles(field):
    # two sparse generators in three variables: a complete intersection of
    # dimension one when HF is constant on 20..30, where the multiplicity
    # must be that constant; otherwise a common factor leaves dimension
    # two, HF(30) > 30 and no value
    rng = random.Random(1978)
    ring = PolyRing(field, ("x", "y", "z"))
    settled = 0
    for _ in range(12):
        gens = [_sparse_poly(ring, rng, 2, 7) for _ in range(2)]
        R = LocalRing(ring, Ideal(ring, gens), stabilization_bound=30)
        hf = R.hilbert_function(30)
        if len(set(hf[20:])) == 1:
            settled += 1
            assert R.multiplicity() == hf[30]
        else:
            assert hf[30] > 30
            with pytest.raises(NoStabilization):
                R.multiplicity()
    assert settled >= 6


def test_colength_leaves_the_model_with_its_fglm_basis(monkeypatch):
    # colength_local and loewy_length_mod read the ladder's layers alone and
    # run no FGLM walk; local_model walks the same truncation to the basis
    # of the J + n^M loop
    R = cli.MAIN_RING.local_ring()
    y = R.ring.parse("y")
    J = R.I + Ideal(R.ring, [y])

    def fail(*args, **kwargs):
        raise AssertionError("a length ran an FGLM walk")

    monkeypatch.setattr(localring, "fglm", fail)
    colength = R.colength_local(J)
    assert R.loewy_length_mod(y) == 6
    monkeypatch.undo()
    basis = R.local_model(J).groebner().generators
    _M, old = _old_local_model(J, R.stabilization_bound)
    assert basis == old.groebner().generators
    assert colength == old.vector_space_dim()


def _random_poly(ring, rng, lo, hi, unit=False):
    """About a third of the monomials of degree lo..hi with coefficients in
    [-3, 3], plus a constant term if unit."""
    terms = {}
    for d in range(lo, hi + 1):
        for e in all_monomials(ring, d):
            c = ring.field.from_int(rng.randint(-3, 3))
            if c and rng.randint(0, 2) == 0:
                terms[e] = c
    if unit:
        terms[(0,) * ring.nvars] = ring.field.one()
    return Polynomial(ring, terms)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_local_model_matches_loop_on_random_ideals(field):
    # two or three generators in two or three variables: m-primary locally
    # or not (NotArtinianLocally from the ladder), and now and then a unit;
    # over F_2 one is Artinian at the origin with M = 9, above the bound 7
    # (NoStabilization; it used to raise NotArtinianLocally)
    rng = random.Random(1993)
    bound = 7
    outcomes = []
    for trial in range(24):
        names = ("x", "y", "z")[:rng.randint(2, 3)]
        ring = PolyRing(field, names)
        R = LocalRing(ring, Ideal(ring, []), stabilization_bound=bound)
        gens = [_random_poly(ring, rng, 1, 3, unit=(trial % 8 == 7))
                for _ in range(rng.randint(2, 3))]
        outcomes.append(_assert_same_model(R, Ideal(ring, gens)))
    assert any(outcomes) and not all(outcomes)


@pytest.mark.parametrize("k", [4, 8, 16])
def test_local_model_matches_loop_at_the_doubling_edge(xyz, k):
    # J = (x^k, y, z) has M = k + 1, just above the power of two k, so the
    # truncation degrees 2, 4, ..., k fall short and the next one is capped
    # at bound + 1: exactly M for bound k, one short of it for bound k - 1,
    # where S/J is Artinian and the ladder raises NoStabilization (it used
    # to raise NotArtinianLocally)
    R = LocalRing(xyz, Ideal(xyz, []), stabilization_bound=k)
    J = Ideal(xyz, [f"x^{k}", "y", "z"])
    assert _assert_same_model(R, J)
    assert R.local_model(J).groebner().generators == \
        (J + max_ideal_power(xyz, k + 1)).groebner().generators
    short = LocalRing(xyz, Ideal(xyz, []), stabilization_bound=k - 1)
    assert not _assert_same_model(short, J)


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
def test_fglm_basis_is_canonical(field):
    ring = PolyRing(field, ("x", "y", "z"))
    R = LocalRing(ring, Ideal(ring, ["x^2 - y^5", "x*y^2 + y*z^3 - z^5"]))
    for extra in ("y", "z^2 + x*y", "x + y - z"):
        model = R.local_model(R.I + Ideal(ring, [extra]))
        installed = model._gb.generators
        # the walk sets the leads that every later staircase reads
        assert model._gb.leads == \
            GroebnerBasis(ring, installed, DegRevLex()).leads
        again = buchberger(ring, list(installed), DegRevLex())
        assert again.generators == installed
        assert buchberger(ring, list(model.generators),
                          DegRevLex()).generators == installed
        for g in installed:
            for c in g.terms.values():
                if field == QQ:
                    assert type(c) is Fraction and c != 0
                else:
                    assert type(c) is PrimeFieldElement
                    assert c.modulus == field.p and c.value != 0


def _colon_routes(J, n):
    """J : m^n as one colon and as n colons by m, each on a copy of J that
    shares its degrevlex basis but no colon the other route kept."""
    chain = Ideal.from_basis(J.groebner())
    for _ in range(n):
        chain = chain.quotient(max_ideal_power(J.ring, 1))
    one = Ideal.from_basis(J.groebner()).quotient(
        max_ideal_power(J.ring, n))
    return one.groebner().generators, chain.groebner().generators


@pytest.mark.parametrize("name", SCENARIO_RINGS)
def test_one_colon_by_m_to_the_n_equals_n_colons_by_m(scenario_rings, name):
    # the delta test's C = (x^n) : m^n, taken as one colon since
    # (J : m^a) : m = J : m^(a+1), against the chain it replaced
    R, witness = scenario_rings[name]
    x = R.ring.parse(witness)
    for n in range(1, 7):
        J = R.local_model(R.I + Ideal(R.ring, [x ** n]))
        one, chain = _colon_routes(J, n)
        assert one == chain


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "Fp"])
def test_one_colon_by_m_to_the_n_equals_n_colons_on_random_ideals(field):
    rng = random.Random(2015)
    for trial in range(6):
        names = ("x", "y", "z")[:2 + trial % 2]
        ring = PolyRing(field, names)
        gens = [_random_poly(ring, rng, 1, 3) for _ in range(2)]
        J = Ideal(ring, gens) + max_ideal_power(ring, rng.randint(4, 6))
        for n in range(1, 5):
            one, chain = _colon_routes(J, n)
            assert one == chain


def test_hilbert_function_matches_truncation_colengths(scenario_rings):
    for name, (R, _witness) in scenario_rings.items():
        lam = [0] + _truncation_colengths(R, 15)
        oracle = [lam[d + 1] - lam[d] for d in range(15)]
        assert R.hilbert_function(14) == oracle
        if name == "ex2":
            # the false plateau before the multiplicity
            assert oracle[4:8] == [7, 7, 7, 8]
        assert R.multiplicity() == 8


def _saturate(J, f):
    """J : f^infinity, by colons J : (f) taken by elimination until one adds
    nothing."""
    while True:
        colon = colon_by_elimination(J, f)
        if equals(colon, J):
            return J
        J = colon


def _saturated_tangent_cone(I):
    """The reduced basis of I* by the old route: the homogenized ideal
    saturated by h, then the initial forms of its dehomogenized block-order
    basis."""
    homogenized = [g.homogenize("h") for g in I.generators]
    ext = homogenized[0].ring
    J = _saturate(Ideal(ext, homogenized), ext.var(0))
    target = PolyRing(I.ring.field, tuple(n.upper() for n in I.ring.names))
    gens = [Polynomial(target, g.dehomogenize().initial_form().terms)
            for g in buchberger(ext, list(J.generators),
                                BlockOrder()).generators]
    return Ideal(target, gens).groebner().generators


def _curve_ring(images):
    pm = cli.parse_map_file("t\n" + "".join(
        f"{v} = {g}\n" for v, g in zip("xyz", images)), QQ)
    return LocalRing(pm.source, kernel(pm))


def test_tangent_cone_matches_the_saturation_route(scenario_rings):
    rings = [R for R, _witness in scenario_rings.values()]
    # the type-3 curve, and two monomial curves
    rings += [_curve_ring(images) for images in (
        ("t^12 + t^14", "t^13", "t^30 + t^54"), ("t^3", "t^4", "t^5"),
        ("t^4", "t^6", "t^7"))]
    rng = random.Random(32003)
    ring = PolyRing(PrimeField(32003), ("x", "y", "z"))
    while len(rings) < 31:
        I = Ideal(ring, [_random_poly(ring, rng, 2, 3) for _ in range(2)])
        if not I.is_zero_ideal():
            rings.append(LocalRing(ring, I))
    for R in rings:
        assert R.tangent_cone().generators == \
            tuple(_saturated_tangent_cone(R.I))


def _old_ord(R, f, bound):
    """Largest d <= bound with f in I + n^d, by degrevlex membership."""
    if R.I.member(f):
        return INFINITE
    ord_d = 0
    for d in range(1, bound + 1):
        if not (R.I + max_ideal_power(R.ring, d)).member(f):
            break
        ord_d = d
    return ord_d


def test_ord_matches_truncation_membership(cusp_ring, xyz):
    rng = cli.SplitMix64(7)
    elements = [xyz.parse(s) for s in ("y", "x^2", "x^2 - y^5", "x*y^2",
                                       "y*z^3 - z^5", "1 + x", "z^7")]
    while len(elements) < 20:
        f = cli.sample_element(xyz, rng, (1, 3), 3)
        if not f.is_zero():
            elements.append(f)
    for bound in (4, 12):
        R = LocalRing(xyz, cusp_ring.I, stabilization_bound=bound)
        for f in elements:
            assert R.ord_mod(f) == _old_ord(R, f, bound)


def test_loewy_length_matches_membership_loop(cusp_ring, xyz):
    # the deleted Ideal.min_power_of_max_ideal_in, now the oracle
    assert _min_power_of_max_ideal_in(
        Ideal(xyz, ["x^2", "y^2", "z^2", "x*y", "x*z", "y*z"]), 5) == 2
    assert _min_power_of_max_ideal_in(Ideal(xyz, ["x"]), 5) is None
    for s in ("y", "z", "x", "y - z", "x + y^2", "y*z", "z^2 + x*y"):
        f = xyz.parse(s)
        bound = cusp_ring.stabilization_bound
        _M, model = _old_local_model(cusp_ring.I + Ideal(xyz, [f]), bound)
        assert cusp_ring.loewy_length_mod(f) == \
            _min_power_of_max_ideal_in(model, bound)
    # the same for a plain power series ring: m^N inside (f) = (x^3)
    S = PolyRing(QQ, ("x",))
    assert LocalRing(S, Ideal(S, [])).loewy_length_mod(S.parse("x^3")) == 3


def _old_gll_hits(desc, target, samples, seed):
    """gll_search's hits by the old test: n^N inside I + (f) + n^(N+1),
    by degrevlex membership of every degree-N monomial."""
    R = desc.local_ring()
    ring = R.ring
    rng = cli.SplitMix64(seed)
    nN1 = max_ideal_power(ring, target + 1)
    hits = []
    tested = 0
    while tested < samples:
        f = cli.sample_element(ring, rng, (1, 2), 3)
        if f.is_zero() or R.I.member(f):
            continue
        gb = (R.I + Ideal(ring, [f]) + nN1).groebner()
        if all(is_member(ring.monomial(e), gb)
               for e in all_monomials(ring, target)):
            hits.append(f.to_str())
        tested += 1
    return hits


def _scenario_ring_over(name, field):
    if name == "ex2":
        pm = cli.parse_map_file(cli.EX2_MAP_TEXT, field)
        return LocalRing(pm.source, kernel(pm))
    desc = cli.MAIN_RING if name == "main" else cli.EX1_RING
    return cli.RingDescription(field, desc.names, desc.gen_exprs).local_ring()


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "Fp"])
@pytest.mark.parametrize("name", SCENARIO_RINGS)
def test_loewy_length_at_most_matches_loewy_length_mod(name, field):
    # the gll test, a rank count on S/(I + n^(N+1)), against the memoized
    # doubling route of loewy_length_mod, on the witnesses (and y - z on
    # ex1) and on 20 seeded gll-search draws.  On ex1, whose z-axis is a
    # component, a draw with no z in its linear part is a zerodivisor:
    # R/(f) is not Artinian, no m^N lies in (f), and loewy_length_mod
    # names f as no parameter
    R = _scenario_ring_over(name, field)
    ring = R.ring
    witnesses = [SCENARIO_RINGS[name][1]] + (["y - z"] if name == "ex1"
                                             else [])
    elements = [ring.parse(s) for s in witnesses]
    rng = cli.SplitMix64(cli.DEFAULT_SEED)
    while len(elements) < len(witnesses) + 20:
        f = cli.sample_element(ring, rng, (1, 2), 3)
        if not f.is_zero() and not R.I.member(f):
            elements.append(f)
    lengths = []
    for f in elements:
        try:
            lengths.append(R.loewy_length_mod(f))
        except NotArtinianLocally as exc:
            assert "is not a parameter of R" in str(exc)
            lengths.append(INFINITE)
    assert lengths[len(witnesses) - 1] == 6  # y on main, y - z, x on ex2
    assert (INFINITE in lengths) == (name == "ex1")
    for f, length in zip(elements, lengths):
        for N in range(4, 8):
            assert R.loewy_length_at_most(f, N) == (length <= N)


def _small_ring_over(name, field):
    if name == "cusp":
        # the lead coefficient 5 gives the normal forms over Q a scale, and
        # 5*x^2 - 7*y^3 + x*y^2 = x*y^2 in R is tested for a row that must
        # cancel the scaled normal form of x^2 against -7*y^3
        S = PolyRing(field, ("x", "y"))
        return LocalRing(S, Ideal(S, ["5*x^2 - 7*y^3"]))
    if name == "artinian":
        S = PolyRing(field, ("x", "y"))
        return LocalRing(S, Ideal(S, ["x^2", "y^3"]))
    S = PolyRing(field, ("x",))
    return LocalRing(S, Ideal(S, []))


# per ring: the elements tested besides the draws, and the (N, answer) pairs
# the first must give.  R/(f) has Loewy length 6 for y on main, 6 for x on
# ex2 (5 over F_2, where x = (t^4 + t^5)^2), 2 on the cusp and on
# k[x,y]/(x^2, y^3), where (x + y)*x = x*y and (x + y)*y = x*y + y^2, and
# 3 for x^3 in k[x]; y and x - y^2 vanish on the z-axis of ex1
TOP_DEGREE_RINGS = {
    "main": (["y"], [(5, False), (6, True), (7, True)]),
    "ex1": (["y", "x - y^2"], []),
    "ex2": (["x"], [(4, False), (6, True)]),
    "cusp": (["y", "5*x^2 - 7*y^3 + x*y^2"], [(1, False), (2, True)]),
    "artinian": (["x + y"], [(1, False), (2, True)]),
    "line": (["x^3"], [(2, False), (3, True)]),
}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", TOP_DEGREE_RINGS)
def test_rank_count_matches_ds_truncation_of_i_plus_f(name, field):
    # the gll test, a rank count on S/(I + n^(N+1)) against one memoized ds
    # basis of I per N, against one ds truncation of I + (f) at N + 1 per f,
    # for N = 0..7, on the forced elements and 10 seeded draws of orders 1..3
    R = (_scenario_ring_over(name, field) if name in SCENARIO_RINGS
         else _small_ring_over(name, field))
    ring = R.ring
    forced, answers = TOP_DEGREE_RINGS[name]
    elements = [ring.parse(s) for s in forced]
    rng = cli.SplitMix64(cli.DEFAULT_SEED)
    while len(elements) < len(forced) + 10:
        f = cli.sample_element(ring, rng, (1, 3), 3)
        if not f.is_zero() and not R.I.member(f):
            elements.append(f)
    hits = set()  # (index of the element, N)
    for i, f in enumerate(elements):
        for N in range(8):
            answer = R.loewy_length_at_most(f, N)
            assert answer == ds_top_layer_empty(R, f, N), (f.to_str(), N)
            if answer:
                hits.add((i, N))
    assert all(((0, N) in hits) == answer for N, answer in answers)
    if name == "ex1":  # zerodivisors: R/(f) is not Artinian
        assert not any(i < 2 for i, _ in hits)
    if name == "main":  # draws hit from N = 6 on, and never below
        drawn = {N for i, N in hits if i >= len(forced)}
        assert min(drawn) == 6


# per ring: elements with denominators, one with terms of degree > N for
# every N <= 7 (x^40000 does not even fit a packed monomial), and one whose
# terms all lie above N = 7, so that its rows are 0 and it is tested against
# I's degrevlex basis.  On the cusp, x^2 - 7/5*y^3 + x*y^2 is x*y^2 in R,
# hit from N = 5 on; without its denominator, from N = 4
DIRECT_ELEMENTS = {
    "main": ["1/3*y + 2/5*z^2 - 1/7*x*y",
             "y - x*z + z^9 - x^8*y^3 + x^40000", "x^8*y + z^9"],
    "cusp": ["1/3*y + 2/5*x^2 - 1/7*x*y", "x^2 - 7/5*y^3 + x*y^2",
             "y + 1/2*x*y + x^9 - y^12 + y^40000", "x^9 + x^4*y^5"],
}


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "Fp"])
@pytest.mark.parametrize("name", DIRECT_ELEMENTS)
def test_rank_count_reads_f_directly_and_checks_its_input(name, field):
    # the rank count reads f's terms and coefficients as they are, with no
    # conversion: Fractions over Q, and a term of degree > N adds nothing.
    # At N = 0 it reads no row, so f is tested against I's degrevlex basis,
    # which cannot pack x^40000, as check_parameter cannot
    R = (_scenario_ring_over(name, field) if name in SCENARIO_RINGS
         else _small_ring_over(name, field))
    ring = R.ring
    for text in DIRECT_ELEMENTS[name]:
        f = ring.parse(text)
        for N in range(8):
            if N == 0 and f.total_degree() >= groebner.DEGREE_BOUND:
                with pytest.raises(ValueError, match="does not fit"):
                    R.loewy_length_at_most(f, N)
                continue
            assert (R.loewy_length_at_most(f, N)
                    == ds_top_layer_empty(R, f, N)), (text, N)
    f = ring.parse(DIRECT_ELEMENTS[name][0])
    with pytest.raises(ValueError, match="not truncated"):
        groebner.top_degree_in_multiples(R.I.groebner(), f)
    with pytest.raises(ValueError, match="constant term"):
        R.loewy_length_at_most(f + ring.one(), 5)
    other = PolyRing(field, ring.names + ("w",))
    with pytest.raises(RingMismatch):
        R.loewy_length_at_most(other.parse("y"), 5)


# rows whose sums hold entries that are 0 or read entries with different
# multipliers, each with its ring, field and the N where it matters:
# - y - z^2 on main over F_3 (N = 6): a row sums to 0 mod 3 at its smallest
#   index, which must be dropped before it becomes a pivot with no inverse;
# - x^2 - 7*y^3 on the cusp over Q: the normal form of x^2 is 7/5*y^3, kept
#   as 7*y^3 with multiplier 5, and that of y^3 has multiplier 1.  f is
#   -28/5*y^3 in R, and every row meets both columns: summed at the wrong
#   scale it cancels to 0;
# - x + y + x*y + z^3 on main (N = 4): a kept row holds an entry that summed
#   to 0, at an index the row it then reduces does not hold
ZERO_AND_SCALE_ROWS = [
    ("main", PrimeField(3), "y - z^2"),
    ("cusp", QQ, "x^2 - 7*y^3"),
    *[("main", field, "x + y + x*y + z^3") for field in FIELDS],
]


@pytest.mark.parametrize(
    "name, field, text", ZERO_AND_SCALE_ROWS,
    ids=["F3-zero-pivot", "Q-cusp-multipliers",
         *[f"{i}-zero-in-kept-row" for i in FIELD_IDS]])
def test_rank_count_on_zero_entries_and_mixed_multipliers(name, field, text):
    # the pair (answer, outside) of the rank count at N = 4..7 against one
    # ds truncation of I + (f) and degrevlex membership of f in I + n^(N+1);
    # f in both term orders, since the order decides which multiplier a row
    # is scaled to first
    R = (_scenario_ring_over(name, field) if name in SCENARIO_RINGS
         else _small_ring_over(name, field))
    f = R.ring.parse(text)
    for g in f, Polynomial(R.ring, dict(reversed(f.terms.items()))):
        for N in range(4, 8):
            outside = not (R.I + max_ideal_power(R.ring, N + 1)).member(g)
            got = groebner.top_degree_in_multiples(R._truncation_of_I(N + 1),
                                                   g)
            assert got == (ds_top_layer_empty(R, g, N), outside), (text, N)


@pytest.mark.parametrize("p, samples", [(32003, 100), (3, 50)],
                         ids=["Fp", "F3"])
def test_gll_test_matches_degrevlex_membership(p, samples):
    # target 5 has no hit (the Loewy length is 6); target 6 has many
    main = cli.MAIN_RING
    desc = cli.RingDescription(PrimeField(p), main.names, main.gen_exprs)
    for target in (5, 6):
        _report, hits = cli.gll_search(desc, target, (1, 2), samples,
                                       seed=target)
        assert hits == _old_gll_hits(desc, target, samples, seed=target)
        assert bool(hits) == (target == 6)


def _gll_draws_member_first(desc, target, orders, samples, coeff_box, seed):
    """gll_search's tested draws, hits and skipped draws in I, with the
    degrevlex membership test of I on every draw before the gll test, the
    path that the rank count's own answer on f in I replaced."""
    R = desc.local_ring()
    ring = R.ring
    rng = cli.SplitMix64(seed)
    tested, hits, skipped = [], [], 0
    while len(tested) < samples:
        f = cli.sample_element(ring, rng, orders, coeff_box)
        if f.is_zero():
            continue
        if R.I.member(f):
            skipped += 1
            continue
        tested.append(f.to_str())
        if R.loewy_length_at_most(f, target):
            hits.append(f.to_str())
    return tested, hits, skipped


SQUARE_ZERO = cli.RingDescription(PrimeField(2), ("x", "y"),
                                  ("x^2", "x*y", "y^2"))
MAIN_FP = cli.RingDescription(PrimeField(32003), cli.MAIN_RING.names,
                              cli.MAIN_RING.gen_exprs)


# (ring, target, orders, coeff_box): on k[x,y]/(x^2, xy, y^2) over F_2
# about 1 draw in 9 has no linear part and lies in I; at target 1 every
# other reads a nonzero row, and at target 2, where m^2 = 0, none is read
# and every tested draw is a hit.  On main at target 1 every row of a draw
# of order 2 is 0, and no draw lies in I
@pytest.mark.parametrize("desc, target, orders, coeff_box", [
    (SQUARE_ZERO, 1, (1, 2), 1),
    (SQUARE_ZERO, 2, (1, 2), 1),
    (MAIN_FP, 1, (2, 2), 3),
], ids=["square-zero-1", "square-zero-2", "main-Fp-1"])
def test_gll_search_matches_membership_before_every_test(desc, target,
                                                         orders, coeff_box):
    tested, hits, skipped = _gll_draws_member_first(desc, target, orders,
                                                    40, coeff_box, seed=7)
    _report, found = cli.gll_search(desc, target, orders, 40, seed=7,
                                    coeff_box=coeff_box)
    assert found == hits
    if desc is SQUARE_ZERO:
        assert skipped > 0
        assert hits == (tested if target == 2 else [])
    else:
        assert skipped == 0 and hits == []
