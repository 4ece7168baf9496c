import re

import pytest

from locring import cli, groebner, localring
from locring.arith import QQ, PrimeField
from locring.errors import (NotArtinianLocally, NotFound, NotGorenstein,
                            RingMismatch, ZeroPolynomial)
from locring.ideal import INFINITE, Ideal
from locring.localring import (LocalRing, weighted_degrees,
                               weighted_homogeneity_check)
from locring.monomial import MonomialIdeal
from locring.poly import BlockOrder, PolyRing
from locring.subalgebra import kernel, parse_map_file
from oracles import equals, intersect_by_elimination


def test_defining_ideal_must_avoid_units(xyz):
    with pytest.raises(ValueError):
        LocalRing(xyz, Ideal(xyz, ["x + 1"]))


def test_defining_ideal_must_lie_in_the_ring(xyz):
    # the same names over another field, and other names over Q
    for names, field in ((xyz.names, PrimeField(32003)), (("a", "b"), QQ)):
        other = PolyRing(field, names)
        with pytest.raises(RingMismatch):
            LocalRing(xyz, Ideal(other, [other.var(0) ** 2]))


def test_hilbert_function_table(cusp_ring):
    assert cusp_ring.hilbert_function(8) == [1, 3, 5, 6, 7, 7, 8, 8, 8]


def test_multiplicity(cusp_ring):
    assert cusp_ring.multiplicity() == 8
    # HF is constant from degree 6 on, at the multiplicity
    assert cusp_ring.hilbert_function(12)[6:] == [8] * 7


def test_hilbert_function_rejects_negative_degree(cusp_ring):
    with pytest.raises(ValueError):
        cusp_ring.hilbert_function(-3)


def test_ord(cusp_ring, xyz):
    assert cusp_ring.ord_mod(xyz.parse("y")) == 1
    assert cusp_ring.ord_mod(xyz.parse("x^2")) == 5  # x^2 = y^5 in R
    assert cusp_ring.ord_mod(xyz.parse("x^2 - y^5")) == INFINITE
    with pytest.raises(ZeroPolynomial):
        cusp_ring.ord_mod(xyz.zero())


def test_colength_and_superficiality(cusp_ring, xyz):
    y = xyz.parse("y")
    assert cusp_ring.colength(y) == 10
    # 10 > 1 * 8, so y is not superficial
    assert not cusp_ring.is_superficial(y)
    # nor is an element of I; 0 used to raise ZeroPolynomial from ord_mod
    for f in (xyz.zero(), xyz.parse("x^2 - y^5")):
        assert not cusp_ring.is_superficial(f)


def test_colength_is_colength_of_local_model(cusp_ring, xyz):
    J = cusp_ring.I + Ideal(xyz, ["y"])
    model = cusp_ring.local_model(J)
    assert model._gb is not None
    assert cusp_ring.colength_local(J) == model.vector_space_dim() == 10


def test_loewy_length(cusp_ring, xyz):
    assert cusp_ring.loewy_length_mod(xyz.parse("y")) == 6


def test_loewy_not_found():
    R1 = PolyRing(QQ, ("x",))
    L = LocalRing(R1, Ideal(R1, []), stabilization_bound=2)
    with pytest.raises(NotFound):
        L.loewy_length_mod(R1.parse("x^3"))


def test_loewy_length_stabilizes_within_its_own_bound():
    # R/(x^25) has Loewy length 25, above the default bound 20: the model
    # of I + (f) is stabilized within the ring's one bound
    R1 = PolyRing(QQ, ("x",))
    x25 = R1.parse("x^25")
    assert LocalRing(R1, Ideal(R1, [])).stabilization_bound < 25
    L = LocalRing(R1, Ideal(R1, []), stabilization_bound=30)
    assert L.loewy_length_mod(x25) == 25
    L = LocalRing(R1, Ideal(R1, []), stabilization_bound=24)
    with pytest.raises(NotFound, match="no N <= 24"):
        L.loewy_length_mod(x25)


@pytest.mark.parametrize("witness", ["y", "x"])
def test_a_zero_divisor_witness_is_named(witness):
    # y and x vanish on the line x = y = 0 of ex1's curve, so R/(y) and
    # R/(x) are not Artinian; index and loewy used to report the ladder's
    # bound, "no colength stabilization within n^20" and "no N <= 20"
    R = cli.EX1_RING.local_ring()
    x = R.ring.parse(witness)
    message = (f"R/({witness}) is not Artinian: {witness} is not a "
               "parameter of R (a zero divisor when dim R = 1)")
    for call in (R.index, R.loewy_length_mod):
        with pytest.raises(NotArtinianLocally) as raised:
            call(x)
        assert str(raised.value) == message
    assert not R._socles


def test_a_parameter_keeps_the_ladder_errors():
    # z is a parameter of ex1, of index 5; y is one of main, whose Loewy
    # length 6 is above a bound of 3, so the ladder's own errors stand
    R = cli.EX1_RING.local_ring()
    assert R.index(R.ring.parse("z")) == 5
    M = cli.MAIN_RING.local_ring()
    R = LocalRing(M.ring, M.I, stabilization_bound=3)
    y = R.ring.parse("y")
    with pytest.raises(NotArtinianLocally,
                       match=r"^no colength stabilization within n\^3$"):
        R.index(y)
    with pytest.raises(NotFound,
                       match=r"^no N <= 3 with m\^N inside the ideal$"):
        R.loewy_length_mod(y)


def test_loewy_length_at_most_needs_n_at_least_zero(cusp_ring, xyz):
    # N = -1 used to ask for an untruncated ds basis and fail inside it
    # with "min() arg is an empty sequence"; m^0 = R is never inside (y)
    y = xyz.parse("y")
    with pytest.raises(ValueError, match="N must be >= 0, got -1"):
        cusp_ring.loewy_length_at_most(y, -1)
    assert not cusp_ring.loewy_length_at_most(y, 0)


def test_loewy_length_at_most_rejects_elements_of_i():
    # a nonzero row of fA puts f outside I; f with every row 0, or with no
    # row read because m^N = 0 in A, is tested against I and rejected as
    # check_parameter rejects it.  x^2 - y^5 on main at N = 5 used to give
    # False, and x^2 on k[x,y]/(x^2, y^3) at N = 4 True
    R = cli.MAIN_RING.local_ring()
    S = PolyRing(QQ, ("x", "y"))
    A = LocalRing(S, Ideal(S, ["x^2", "y^3"]))
    for L, f, N in ((R, R.ring.parse("x^2 - y^5"), 5),
                    (A, S.parse("x^2"), 4)):
        with pytest.raises(NotArtinianLocally) as raised:
            L.loewy_length_at_most(f, N)
        with pytest.raises(NotArtinianLocally) as expected:
            L.check_parameter(f)
        assert str(raised.value) == str(expected.value)
    # every row of z^2 is 0 at N = 1, and z^2 lies outside I
    assert not R.loewy_length_at_most(R.ring.parse("z^2"), 1)
    assert A.loewy_length_at_most(S.parse("x + y"), 4)  # m^4 = 0 in A


def test_tangent_cone(cusp_ring):
    tc = cusp_ring.tangent_cone()
    P = tc.ring
    expected = Ideal(P, ["X^2", "X*Y^2", "X*Y*Z^3", "Y*Z^6"])
    assert equals(tc, expected)


def test_tangent_cone_decomposition(cusp_ring):
    A = MonomialIdeal.from_ideal(cusp_ring.tangent_cone())
    comps = A.irreducible_decomposition()
    assert {c.generators for c in comps} == {
        ((0, 1, 0), (2, 0, 0)),
        ((0, 0, 6), (1, 0, 0)),
        ((0, 0, 3), (0, 2, 0), (2, 0, 0)),
    }
    assert A.minimal_primes() == [frozenset({0, 1}), frozenset({0, 2})]


def test_tangent_cone_of_cusp():
    R2 = PolyRing(QQ, ("x", "y"))
    L = LocalRing(R2, Ideal(R2, ["x^3 - y^2"]))
    tc = L.tangent_cone()
    assert equals(tc, Ideal(tc.ring, ["Y^2"]))


def test_tangent_cone_names_stay_distinct():
    # x and X both uppercase to X: the second takes a "_"
    S = PolyRing(QQ, ("x", "X"))
    tc = LocalRing(S, Ideal(S, ["x^2 - X^3"])).tangent_cone()
    assert tc.ring.names == ("X", "X_")
    assert equals(tc, Ideal(tc.ring, ["X^2"]))


def _count_block_order_runs(monkeypatch):
    """The block-order runs of ``buchberger``: eliminations, through
    ``groebner``, and the Lazard run of the tangent cone, through the
    binding in ``localring``."""
    calls = []
    original = groebner.buchberger

    def counted(ring, gens, order, *args, **kwargs):
        if isinstance(order, BlockOrder):
            calls.append(order)
        return original(ring, gens, order, *args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", counted)
    monkeypatch.setattr(localring, "buchberger", counted)
    return calls


def test_tangent_cone_is_computed_once_per_ring(monkeypatch):
    calls = _count_block_order_runs(monkeypatch)
    for _ in range(2):
        before = len(calls)
        report = cli.run_scenario("main")
        assert all(c.status == cli.PASS for c in report.checks)
        # the three tangent-cone checks share one Lazard run, and the
        # delta tests' intersections eliminate nothing
        assert len(calls) - before == 1
    R = cli.MAIN_RING.local_ring()
    assert R.tangent_cone() is R.tangent_cone()


def test_delta_tests_run_no_elimination(cusp_ring, xyz, monkeypatch):
    calls = _count_block_order_runs(monkeypatch)
    R = LocalRing(xyz, cusp_ring.I)
    for n in (4, 5):
        R.delta_one_test(xyz.parse("y"), n)
    assert calls == []


def _paper_rings_and_witnesses():
    pm = parse_map_file(cli.EX2_MAP_TEXT, QQ)
    return {"main": (cli.MAIN_RING.local_ring(), "y"),
            "ex1": (cli.EX1_RING.local_ring(), "z"),
            "ex2": (LocalRing(pm.source, kernel(pm)), "x")}


@pytest.mark.parametrize("name", ["main", "ex1", "ex2"])
def test_condition_iv_intersects_the_socle_with_a_colon_inside_it(name):
    # x*m^n lies in (x), so x*m^n : m lies in (x) : m, the socle, and
    # condition (iv) reads the ideal of condition (iii): the intersection,
    # taken by elimination here, is the colon itself
    R, witness = _paper_rings_and_witnesses()[name]
    x = R.ring.parse(witness)
    soc = R.local_model(R.I + Ideal(R.ring, [x])).quotient(R.n)
    for n in range(1, 7):
        colon3 = R.delta_one_test(x, n).colon
        assert soc.contains(colon3)
        assert intersect_by_elimination(soc, colon3).groebner().generators \
            == colon3.groebner().generators


@pytest.mark.parametrize("name, primary", [("main", True), ("ex1", True),
                                           ("ex2", False)])
def test_witness_decides_whether_the_delta_tests_skip_the_ladder(name,
                                                                 primary):
    # on ex2, x = t^8 + t^10 also vanishes at t = i and t = -i, so
    # I + (x) has global colength 10 against local colength 8
    R, witness = _paper_rings_and_witnesses()[name]
    assert R._socle(R.ring.parse(witness))[2] is primary


def test_ladder_path_agrees_with_the_own_model_path(xyz):
    # y - y^2 is y times a unit of R, but I + (y - y^2) also vanishes
    # where y = 1, so its delta tests take the ladder; y's take I + x*m^n
    # and I + (x^n) as their own models.  The two must agree
    R = cli.MAIN_RING.local_ring()
    y, w = xyz.parse("y"), xyz.parse("y - y^2")
    assert R._socle(y)[2] and not R._socle(w)[2]
    for n in range(1, 7):
        ry, rw = R.delta_one_test(y, n), R.delta_one_test(w, n)
        assert ry.verdict == rw.verdict
        assert ry.colon.groebner().generators == \
            rw.colon.groebner().generators
    assert R.index(y) == R.index(w) == 5


@pytest.mark.parametrize("curve, primary", [("x^2 - y^3 + y^4", False),
                                            ("x^2 - y^3", True)])
def test_plane_cusp_index_on_both_paths(curve, primary):
    # x^2 - y^3 + y^4 has the rational point (0, 1) away from the origin,
    # where x vanishes too: witness x takes the ladder there, and the
    # cusp x^2 - y^3 the own-model path; both have index 2
    S = PolyRing(QQ, ("x", "y"))
    R = LocalRing(S, Ideal(S, [curve]))
    x = S.parse("x")
    assert R._socle(x)[2] is primary
    assert R.index(x) == 2


def test_delta_tests(cusp_ring, xyz):
    y = xyz.parse("y")
    r5 = cusp_ring.delta_one_test(y, 5)
    assert r5.verdict
    r4 = cusp_ring.delta_one_test(y, 4)
    assert not r4.verdict
    assert cusp_ring.delta_via_mu(y, 5) == 1
    assert cusp_ring.delta_via_mu(y, 4) == 0


def test_colon_ideal_generators(cusp_ring, xyz):
    # y*m^5 : m as an ideal mod I
    r5 = cusp_ring.delta_one_test(xyz.parse("y"), 5)
    paper_gens = ["y^5", "x*y^3", "y*z^4", "x*y*z^3", "y^3*z^2",
                  "x*y^2*z^2", "y^4*z"]
    target = cusp_ring.local_model(Ideal(xyz, paper_gens) + cusp_ring.I)
    assert equals(cusp_ring.local_model(r5.colon), target)


def test_index(cusp_ring, xyz):
    assert cusp_ring.index(xyz.parse("y")) == 5


@pytest.mark.parametrize("max_n", [0, -1])
def test_index_needs_max_n_at_least_one(cusp_ring, xyz, max_n):
    # max_n = 0 used to raise NotFound "delta(R/m^n) = 0 for all n <= 0"
    with pytest.raises(ValueError, match=f"max_n must be >= 1, got {max_n}"):
        cusp_ring.index(xyz.parse("y"), max_n=max_n)


@pytest.mark.parametrize("bound", [0, -1])
def test_stabilization_bound_must_be_positive(cusp_ring, xyz, bound):
    # a ring built with it used to fail every call
    with pytest.raises(ValueError):
        LocalRing(xyz, cusp_ring.I, stabilization_bound=bound)


def test_ord_rejects_negative_bound(cusp_ring, xyz):
    # a per-call bound -1 used to run an untruncated ds basis and return
    # 1 > bound; the ring's bound is at least 1, and ord never exceeds it
    with pytest.raises(ValueError):
        LocalRing(xyz, cusp_ring.I, stabilization_bound=-1)
    R = LocalRing(xyz, cusp_ring.I, stabilization_bound=1)
    assert R.ord_mod(xyz.parse("y")) == 1
    assert R.ord_mod(xyz.parse("x^2")) == 1  # ord 5, capped at the bound


def _count_ds_runs(monkeypatch):
    calls = []
    original = localring.buchberger

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(localring, "buchberger", counted)
    return calls


def test_delta_test_reuses_models_and_colons(xyz, monkeypatch):
    # a repeated delta test, and the witness's model and socle that every
    # delta test reads, are memo hits: no Buchberger run, no colon walk
    R = LocalRing(xyz, Ideal(xyz, ["x^2 - y^5", "x*y^2 + y*z^3 - z^5"]))
    y = xyz.parse("y")
    calls = _count_ds_runs(monkeypatch)
    first = R.delta_one_test(y, 4)
    assert calls
    socle = R._socle(y)

    def fail(*args, **kwargs):
        raise AssertionError("a memo hit ran a basis or a colon")

    for name in ("buchberger", "artinian_colon"):
        monkeypatch.setattr(groebner, name, fail)
    monkeypatch.setattr(localring, "buchberger", fail)
    assert R.delta_one_test(y, 4) is first
    assert R._socle(y) is socle
    monkeypatch.undo()
    fresh = LocalRing(xyz, R.I).delta_one_test(y, 4)
    assert fresh is not first
    assert fresh.verdict == first.verdict
    assert fresh.colon.groebner().generators == \
        first.colon.groebner().generators


def test_no_memo_outlives_its_ring(monkeypatch):
    calls = _count_ds_runs(monkeypatch)
    counts = []
    for _ in range(2):
        before = len(calls)
        report = cli.run_scenario("main")
        assert all(c.status == cli.PASS for c in report.checks)
        counts.append(len(calls) - before)
    assert counts[0] == counts[1] > 0


def test_weighted_homogeneity():
    R = PolyRing(QQ, ("x", "y", "z"))
    gens = [R.parse("x^2 - y^5"), R.parse("x*y^2 + y*z^3")]
    assert weighted_homogeneity_check(gens, (15, 6, 7))
    assert not weighted_homogeneity_check(gens, (1, 1, 1))
    assert weighted_degrees(gens[0], (15, 6, 7)) == [30]


@pytest.mark.parametrize("witness, error", [
    ("1 + y", ValueError), ("0", NotArtinianLocally),
    ("x^2 - y^5", NotArtinianLocally)], ids=["unit", "zero", "in-I"])
def test_witness_must_lie_in_m_outside_I(cusp_ring, xyz, witness, error):
    x = xyz.parse(witness)
    # twice: a failed delta test leaves no memo entry behind
    for check in 2 * (lambda: cusp_ring.index(x),
                      lambda: cusp_ring.delta_one_test(x, 2),
                      lambda: cusp_ring.delta_via_mu(x, 2),
                      lambda: cusp_ring.loewy_length_mod(x)):
        with pytest.raises(error):
            check()


def test_each_witness_is_checked_once(monkeypatch):
    # _socle checks x before its ladder, and its memo entry stands for the
    # check: the delta tests, index and loewy_length_mod check no further
    calls = []
    check_parameter = LocalRing.check_parameter

    def counted(self, x):
        calls.append(x)
        return check_parameter(self, x)

    monkeypatch.setattr(LocalRing, "check_parameter", counted)
    R = cli.MAIN_RING.local_ring()
    y = R.ring.parse("y")
    assert R.index(y) == 5 and calls == [y]
    assert R.loewy_length_mod(y) == 6 and calls == [y]
    del calls[:]
    assert cli.run_scenario("main").passed()
    assert 1 <= len(calls) <= 2

    # the errors still come before the ladder, and so before any criterion
    def no_ladder(*args):
        raise AssertionError("the ladder ran on an unchecked witness")

    monkeypatch.setattr(LocalRing, "_stabilize", no_ladder)
    for text, error in (("1 + y", ValueError),
                        ("x^2 - y^5", NotArtinianLocally)):
        x = R.ring.parse(text)
        for test in (R.index, lambda x: R.delta_one_test(x, 3),
                     R.loewy_length_mod):
            with pytest.raises(error):
                test(x)


def test_non_gorenstein_ring_is_a_named_error(tmp_path, capsys):
    # R/(x) has type 3 on this curve, and the delta criteria split at n = 4
    # (ii false, iii and iv true): a hypothesis fails, not the library
    pm = parse_map_file("t\nx = t^12 + t^14\ny = t^13\nz = t^30 + t^54\n",
                        QQ)
    J = kernel(pm)
    R = LocalRing(pm.source, J)
    x = pm.source.var(0)
    message = "R is not Gorenstein: R/(x) has type 3"
    for test in 2 * (R.index, lambda x: R.delta_one_test(x, 4),
                     lambda x: R.delta_via_mu(x, 4)):
        with pytest.raises(NotGorenstein, match=re.escape(message)):
            test(x)
    assert not R._socles
    ring_file = tmp_path / "type3.ring"
    ring_file.write_text("field Q\nvars x y z\n" + "".join(
        f"gen {g.to_str()}\n" for g in J.groebner().generators))
    assert cli.main(["index", "--ring", str(ring_file), "--witness", "x"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a12_member_of_the_ex2_series():
    # ex2 is a = 8 of the kernels of t -> (t^a + t^(a+2), t^(a+1),
    # t^(2a+4) + t^(4a+4)); at a = 12 the index is 7 and the witness's
    # Loewy length 8, one above it.  x also vanishes at t = +-i, so the
    # delta tests take local models through the bounded ladder
    pm = parse_map_file("t\nx = t^12 + t^14\ny = t^13\nz = t^28 + t^52\n",
                        QQ)
    R = LocalRing(pm.source, kernel(pm))
    x = pm.source.var(0)
    assert R.index(x) == 7
    assert R.loewy_length_mod(x) == 8
