import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import locring
from locring.cli import (FAIL, MAIN_RING, PASS, SKIPPED_HEAVY, Report,
                         Runner, SplitMix64, gll_search, main,
                         parse_ring_file, run_scenario, sample_element)
from locring.errors import InternalInconsistency, ParseError
from locring.localring import LocalRing

MAIN_RING_TEXT = """\
field Q
vars x y z
gen x^2 - y^5
gen x*y^2 + y*z^3 - z^5
"""


@pytest.fixture
def ring_file(tmp_path):
    p = tmp_path / "main.ring"
    p.write_text(MAIN_RING_TEXT)
    return str(p)


def test_splitmix64_reference_stream():
    # frozen reference values for seed 42 (portability guard)
    rng = SplitMix64(42)
    stream = [rng.next_u64() for _ in range(3)]
    assert stream == [13679457532755275413, 2949826092126892291,
                      5139283748462763858]


def test_splitmix64_randint_range():
    rng = SplitMix64(7)
    draws = [rng.randint(-3, 3) for _ in range(200)]
    assert set(draws) <= set(range(-3, 4))
    assert len(set(draws)) == 7


def test_parse_ring_file():
    desc = parse_ring_file(MAIN_RING_TEXT)
    assert desc.names == ("x", "y", "z")
    assert len(desc.gen_exprs) == 2
    # order and weights lines changed no computation and are not keywords
    for line in ("order lex", "order degrevlex", "weights 2 3"):
        with pytest.raises(ParseError, match="unknown keyword"):
            parse_ring_file(f"field Fp 7\nvars x y\ngen x^2\n{line}\n")


def test_parse_ring_file_errors():
    for bad in ("vars x\ngen x", "field Q\ngen x", "field Q\nvars x\nbogus y",
                "field Zp 7\nvars x", "field Q\nvars x\ngen x + 1"):
        with pytest.raises((ParseError, ValueError)):
            parse_ring_file(bad)


def test_ring_file_errors_name_the_line():
    # lines count from 1, comment and blank lines included
    with pytest.raises(ParseError, match=r"^line 5: unknown keyword 'mod'$"):
        parse_ring_file("# a ring\nfield Q\n\nvars x y\nmod 3\n")
    for bad in ("field Fp abc", "field Fp", "field Fp 7 9"):
        with pytest.raises(ParseError, match=r"^line 2: bad field line"):
            parse_ring_file(f"# a ring\n{bad}\nvars x\n")
    with pytest.raises(ParseError,
                       match=r"^line 2: modulus 8 is not prime$"):
        parse_ring_file("# a ring\nfield Fp 8\nvars x\n")
    # an expression error names the gen line, even before the vars line
    for text, line, message in (
            ("field Q\n\nvars x y\ngen x^2 +\n", 4,
             "unexpected end of input"),
            ("field Q\ngen x^2 - w\nvars x y\n", 2,
             "unknown variable 'w'"),
            ("field Q\n# x twice\nvars x x\ngen x^2\n", 3,
             "duplicate variable names"),
            # a second field or vars line used to replace the first
            ("field Q\nvars x y z\nvars a b\ngen a^2 - b^3\n", 3,
             "a second vars line$"),
            ("field Q\nvars x y\nfield Fp 7\n", 3, "a second field line$"),
            # names the expression parser can never read
            ("field Q\n\nvars x 3y\n", 3, "bad variable name '3y'$"),
            ("field Q\nvars y-z x\n", 2, "bad variable name 'y-z'$"),
            ("field Q\nvars x y\ngen x^2 - y^3\n\ngen y + 1\n", 5,
             "y \\+ 1 has a constant term")):
        with pytest.raises(ParseError, match=f"^line {line}: {message}"):
            parse_ring_file(text)


def test_report_schema_and_key_order():
    desc = parse_ring_file(MAIN_RING_TEXT)
    report, hits = gll_search(desc, 5, (1, 1), samples=2, seed=42)
    assert hits == []
    d = report.to_dict()
    assert list(d.keys()) == ["scenario", "seed", "version", "caveats",
                              "checks"]
    assert d["caveats"] == ["contraction_assumed", "dimension_assumed"]
    for c in d["checks"]:
        assert list(c.keys()) == ["name", "status", "expected", "actual",
                                  "time_ms"]


def test_gll_search_deterministic_modulo_timing():
    desc = parse_ring_file(MAIN_RING_TEXT)
    r1, _ = gll_search(desc, 5, (1, 1), samples=3, seed=42)
    r2, _ = gll_search(desc, 5, (1, 1), samples=3, seed=42)
    d1, d2 = r1.to_dict(), r2.to_dict()
    for d in (d1, d2):
        for c in d["checks"]:
            c["time_ms"] = 0
    assert json.dumps(d1) == json.dumps(d2)


def test_gll_search_forced_witness_hits():
    desc = parse_ring_file(MAIN_RING_TEXT)
    _, hits = gll_search(desc, 6, (1, 1), samples=0, forced=("y",))
    assert hits == ["y"]


def test_gll_search_trivial_hit():
    desc = parse_ring_file("field Q\nvars x\n")
    _, hits = gll_search(desc, 1, (1, 1), samples=0, forced=("x",))
    assert hits == ["x"]


def test_sample_element_degrees():
    desc = parse_ring_file(MAIN_RING_TEXT)
    ring = desc.ring()
    rng = SplitMix64(1)
    f = sample_element(ring, rng, (1, 2), 3)
    assert 1 <= f.order() <= f.total_degree() <= 2


def test_gll_search_over_f3_with_coefficients_up_to_3(tmp_path, capsys):
    # draws of +-3 are 0 in F_3; they used to be stored as zero terms and
    # the search failed with "inverse of 0 in F_3"
    ring = parse_ring_file(MAIN_RING_TEXT.replace("Q", "Fp 3")).ring()
    rng = SplitMix64(1)
    for _ in range(50):
        f = sample_element(ring, rng, (1, 2), 3)
        assert all(f.terms.values())
    p = tmp_path / "f3.ring"
    p.write_text(MAIN_RING_TEXT.replace("Q", "Fp 3"))
    assert main(["gll-search", "--ring", str(p), "--target", "5",
                 "--samples", "5"]) == 0


def test_cli_macaulay_bound(capsys):
    assert main(["macaulay-bound", "5", "2"]) == 0
    assert capsys.readouterr().out.strip() == "7"


@pytest.mark.parametrize("d, n", [("0", "-5"), ("3", "-1"), ("-1", "2")])
def test_cli_macaulay_bound_rejects_out_of_range_input(capsys, d, n):
    # 0 -5 used to print 0 and exit 0 through the d = 0 shortcut
    assert main(["macaulay-bound", d, n]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: need d >= 0 and n >= 1, got d={d}, n={n}\n"


def test_cli_hilbert(ring_file, capsys):
    assert main(["hilbert", "--ring", ring_file, "--max-degree", "8"]) == 0
    rows = [line.split("\t") for line in
            capsys.readouterr().out.strip().splitlines()]
    assert [int(v) for _, v in rows] == [1, 3, 5, 6, 7, 7, 8, 8, 8]


def test_cli_tangent_cone(ring_file, capsys):
    assert main(["tangent-cone", "--ring", ring_file]) == 0
    out = capsys.readouterr().out
    assert "X^2" in out and "Y*Z^6" in out


def test_cli_tangent_cone_of_names_that_differ_in_case(tmp_path, capsys):
    # x and X both uppercase to X; the tangent cone is X^2 in (X, X_)
    p = tmp_path / "case.ring"
    p.write_text("field Q\nvars x X\ngen x^2 - X^3\n")
    assert main(["tangent-cone", "--ring", str(p)]) == 0
    assert capsys.readouterr().out == "X^2\n"


def test_cli_tangent_cone_of_a_variable_named_h(tmp_path, capsys):
    # the homogenizing variable of the Lazard run is not h, but h_
    p = tmp_path / "h.ring"
    p.write_text("field Q\nvars h x\ngen h^2 - x^3\n")
    assert main(["tangent-cone", "--ring", str(p)]) == 0
    assert capsys.readouterr().out == "H^2\n"


@pytest.mark.parametrize("command, name, text, message", [
    ("tangent-cone", "dup.ring", "field Q\n\nvars x x\ngen x^2\n",
     "line 3: duplicate variable names"),
    ("tangent-cone", "unit.ring", "field Q\nvars x y\ngen y + 1\n",
     "line 3: y + 1 has a constant term"),
    ("kernel", "dup.map", "t\nx = t^2\nx = t^3\n",
     "line 3: duplicate variable name 'x'"),
    ("kernel", "unit.map", "t\nx = t^2\n\ny = t + 1\n",
     "line 4: images must have zero constant term")],
    ids=["duplicate-vars", "constant-term", "duplicate-map-variable",
         "constant-image-term"])
def test_cli_file_errors_name_the_line_and_exit_2(tmp_path, capsys, command,
                                                  name, text, message):
    p = tmp_path / name
    p.write_text(text)
    argv = [command, str(p)] if command == "kernel" else \
        [command, "--ring", str(p)]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: {message}")


def test_import_loads_no_parser_dataclasses_or_polytope():
    # argparse, dataclasses (with inspect) and polytope load where they are
    # used, in _build_parser and the newton command: no scenario needs them
    code = ("import sys; before = set(sys.modules); "
            "import locring, locring.cli; "
            "print(*sorted(set(sys.modules) - before))")
    src = str(Path(locring.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "locring.cli" in loaded
    assert not loaded & {"dataclasses", "argparse", "inspect",
                         "locring.polytope"}


def test_cli_newton(tmp_path, capsys):
    rf = tmp_path / "np.ring"
    rf.write_text("field Q\nvars z y\n")
    assert main(["newton", "--ring", str(rf), "--element",
                 "z^10 - 2*z^8*y + z^6*y^2 - y^9"]) == 0
    out = capsys.readouterr().out
    assert "(10,0)" in out and "(6,2)" in out and "(0,9)" in out
    assert "polygon integer-indecomposable: axis-triangle" in out
    assert "monomial factor" not in out


def test_cli_newton_reports_a_monomial_factor(tmp_path, capsys):
    # y^8 - y*z^6 = y*(y^7 - z^6): the polygon is indecomposable, but it
    # misses the axis of y^0, so f has the factor y
    rf = tmp_path / "np.ring"
    rf.write_text("field Q\nvars y z\n")
    assert main(["newton", "--ring", str(rf), "--element",
                 "y^8 - y*z^6"]) == 0
    out = capsys.readouterr().out
    assert "polygon integer-indecomposable: edge-splitting" in out
    assert "monomial factor: y (the polygon misses an axis)" in out


def test_cli_newton_rejects_a_one_point_polygon(tmp_path, capsys):
    # the polygon of z is the point (1,0): a usage error before any output,
    # not a vertices line followed by an error
    rf = tmp_path / "np.ring"
    rf.write_text("field Q\nvars z y\n")
    assert main(["newton", "--ring", str(rf), "--element", "z"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: polygon must contain at least 2 lattice points\n"


def test_cli_case_report(ring_file, capsys):
    # emb 3 and e 8 are read from the ring
    assert main(["case-report", "--ring", ring_file, "--target", "5",
                 "--d-max", "4"]) == 0
    assert capsys.readouterr().out == (
        "d=1 HF(2)=2 max=8 threshold=8 UNRESOLVED\n"
        "d=1 HF(2)=3 max=11 threshold=8 UNRESOLVED\n"
        "d=2 HF(2)=4 max=14 threshold=16 ELIMINATED\n"
        "d=2 HF(2)=5 max=17 threshold=16 UNRESOLVED\n"
        "d=3 HF(2)=6 max=21 threshold=24 ELIMINATED\n"
        "d=4 HF(2)=6 max=21 threshold=32 ELIMINATED\n"
        "all orders d > 4 eliminated: max length 21 < d*e >= 40\n")


@pytest.mark.parametrize("ring, target, d_max, message", [
    (MAIN_RING_TEXT, "0", "4", "N must be >= 1, got 0"),
    (MAIN_RING_TEXT, "5", "-1", "d_max must be >= 0, got -1"),
    # R = k: HF(1) = 0
    ("field Q\nvars x\ngen x\n", "5", "4", "emb must be >= 1, got 0"),
    # k[x,y]/(x, y)^2 is Artinian: HF 1, 2, 0 gives e = 0
    ("field Q\nvars x y\ngen x^2\ngen x*y\ngen y^2\n", "5", "4",
     "e must be >= 1, got 0"),
], ids=["N-zero", "d_max-negative", "emb-zero", "e-zero"])
def test_cli_case_report_rejects_out_of_range_input(tmp_path, capsys, ring,
                                                    target, d_max, message):
    # N = 0 used to end in an IndexError traceback with exit 1, the code of
    # a failed check
    p = tmp_path / "case.ring"
    p.write_text(ring)
    assert main(["case-report", "--ring", str(p), "--target", target,
                 "--d-max", d_max]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {message}\n"


def test_order_case_report_check_reads_the_ring(monkeypatch):
    # with e = 100 every row falls below its threshold d*e, so the pinned
    # rows fail: the check reads e from the ring, not from a literal
    monkeypatch.setattr(LocalRing, "multiplicity", lambda self: 100)
    check = next(c for c in run_scenario("main").checks
                 if c.name == "order-case-report")
    assert check.status == FAIL
    assert check.actual == (
        "([(1, 2, 8, 100, 'ELIMINATED'), (1, 3, 11, 100, 'ELIMINATED'), "
        "(2, 4, 14, 200, 'ELIMINATED'), (2, 5, 17, 200, 'ELIMINATED'), "
        "(3, 6, 21, 300, 'ELIMINATED'), (4, 6, 21, 400, 'ELIMINATED')], "
        "'all orders d > 4 eliminated: max length 21 < d*e >= 500')")


@pytest.mark.parametrize("witness", ["y", "x"])
def test_cli_index_names_a_zero_divisor_witness(tmp_path, capsys, witness):
    # used to exit 2 with "no colength stabilization within n^20"
    p = tmp_path / "ex1.ring"
    p.write_text("field Q\nvars x y z\ngen x^2 - y^5\ngen x*y^2 + y*z^3\n")
    assert main(["index", "--ring", str(p), "--witness", witness]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: R/({witness}) is not Artinian: {witness} is "
                       "not a parameter of R (a zero divisor when dim R = "
                       "1)\n")


def test_cli_superficial_names_a_zero_divisor(tmp_path, capsys):
    # y and x used to exit 2 with "no colength stabilization within n^20";
    # the parameters z and y - z keep their answers
    p = tmp_path / "ex1.ring"
    p.write_text("field Q\nvars x y z\ngen x^2 - y^5\ngen x*y^2 + y*z^3\n")
    for element in ("y", "x"):
        assert main(["superficial", "--ring", str(p),
                     "--element", element]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (f"error: R/({element}) is not Artinian: "
                           f"{element} is not a parameter of R (a zero "
                           "divisor when dim R = 1)\n")
    for element, answer in (("z", "false"), ("y - z", "true")):
        assert main(["superficial", "--ring", str(p),
                     "--element", element]) == 0
        assert capsys.readouterr().out == answer + "\n"


@pytest.mark.parametrize("max_n", ["0", "-2"])
def test_cli_index_rejects_a_max_n_below_one(ring_file, capsys, max_n):
    # --max-n 0 used to report "delta(R/m^n) = 0 for all n <= 0"
    assert main(["index", "--ring", ring_file, "--witness", "y",
                 "--max-n", max_n]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: max_n must be >= 1, got {max_n}")


def test_cli_kernel(tmp_path, capsys):
    mf = tmp_path / "cusp.map"
    mf.write_text("t\nx = t^2\ny = t^3\n")
    assert main(["kernel", str(mf)]) == 0
    assert capsys.readouterr().out.strip() == "x^3 - y^2"


def test_cli_kernel_degree_at_the_packing_bound(tmp_path, capsys):
    # degree 32767 is the largest a packed monomial holds
    mf = tmp_path / "high.map"
    mf.write_text("t\nx = t^32767\ny = t\n")
    assert main(["kernel", str(mf)]) == 0
    assert capsys.readouterr().out.strip() == "y^32767 - x"
    mf.write_text("t\nx = t^40000\ny = t\n")
    assert main(["kernel", str(mf)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: monomial degree 40000 does not fit")


def test_cli_missing_file_exits_2(capsys):
    assert main(["hilbert", "--ring", "/nonexistent.ring"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["loewy", "--element", "x^2-y^5"],    # f in I: not Artinian locally
    ["loewy", "--element", "1/0"],        # division by zero
    ["hilbert", "--max-degree", "-3"],
])
def test_cli_library_errors_exit_2(ring_file, capsys, argv):
    assert main(argv[:1] + ["--ring", ring_file] + argv[1:]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ")


@pytest.mark.parametrize("weights", ["0 -1 2", "2 0 3", "2 x 3", "2 3",
                                     "2 3 5 7", ""],
                         ids=["negative", "zero", "not-integer", "too-few",
                              "too-many", "empty"])
def test_cli_hilbert_bad_weights_exit_2(tmp_path, capsys, weights):
    p = tmp_path / "weighted.ring"
    p.write_text(MAIN_RING_TEXT + f"weights {weights}\n")
    assert main(["hilbert", "--ring", str(p), "--max-degree", "2"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and "weights" in out.err


def test_cli_loewy_of_element_in_defining_ideal(ring_file, capsys):
    argv = ["loewy", "--ring", ring_file, "--element", "x^2-y^5"]
    assert main(argv) == 2
    assert "lies in the defining ideal" in capsys.readouterr().err


@pytest.mark.parametrize("element", ["0", "x^2-y^5"])
def test_cli_superficial_of_element_in_defining_ideal(ring_file, capsys,
                                                      element):
    # 0 used to exit 2 with "error: ord of 0"
    argv = ["superficial", "--ring", ring_file, "--element", element]
    assert main(argv) == 0
    assert capsys.readouterr().out == "false\n"


def test_cli_loewy_beyond_its_bound(tmp_path, capsys):
    # R/(x^25) is Artinian, of Loewy length 25 above the bound 20: the
    # message names the bound as the cause, as every short ladder does (it
    # used to read "no N <= 20 with m^N inside the ideal")
    p = tmp_path / "line.ring"
    p.write_text("field Q\nvars x\n")
    assert main(["loewy", "--ring", str(p), "--element", "x^25"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: no colength stabilization within n^20\n"


def test_runner_records_other_errors_as_fail(capsys):
    report = Report("errors", 0)
    runner = Runner(report)

    def disagree():
        raise InternalInconsistency("delta criteria disagree at n=3")

    assert runner.run("broken", True, disagree) == FAIL
    assert runner.run("next", 1, lambda: 1) == PASS
    broken, nxt = report.checks
    assert broken.actual == ("error: InternalInconsistency: delta criteria "
                             "disagree at n=3")
    assert (broken.expected, nxt.status) == ("True", PASS)
    assert not report.passed()
    assert "InternalInconsistency" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    # used to raise "delta criteria disagree", which reads like a library bug
    (["index", "--witness", "1+y"], "does not lie in the maximal ideal"),
    # these two computed for 0.6 s and then reported no stabilization
    (["index", "--witness", "0"], "lies in the defining ideal"),
    (["index", "--witness", "x^2-y^5"], "lies in the defining ideal"),
    # used to print 1
    (["loewy", "--element", "1+x"], "does not lie in the maximal ideal"),
    # used to report a false hit and exit 1
    (["gll-search", "--target", "6", "--samples", "0", "--witness", "1+y"],
     "does not lie in the maximal ideal"),
    (["gll-search", "--target", "6", "--samples", "0", "--witness",
      "x^2-y^5"], "lies in the defining ideal"),
], ids=["index-unit", "index-zero", "index-in-I", "loewy-unit",
        "gll-unit", "gll-in-I"])
def test_cli_rejects_units_and_elements_of_I(ring_file, capsys, argv,
                                             message):
    assert main(argv[:1] + ["--ring", ring_file] + argv[1:]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and message in out.err


def test_cli_bad_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "--bogus"])
    assert exc.value.code == 2
    # the scenarios draw no random numbers, so verify takes no seed
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--scenario", "main", "--seed", "1"])
    assert exc.value.code == 2


def test_cli_gll_search_hit_exit_1(ring_file, capsys):
    code = main(["gll-search", "--ring", ring_file, "--target", "6",
                 "--orders", "1..1", "--samples", "0", "--witness", "y"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["checks"][0]["status"] == "FAIL"
    assert "y" in report["checks"][0]["actual"]


@pytest.mark.parametrize("flags", [
    ["--target", "-1"],                      # false hits
    ["--target", "0"],
    ["--orders", "0..2"],                    # constants in f: every f a unit
    ["--orders", "3..1"],                    # no monomials: loops forever
    ["--coeff-box", "0"],                    # every draw 0: loops forever
    ["--samples", "-1"],
])
def test_cli_gll_search_bad_arguments_exit_2(ring_file, capsys, flags):
    argv = ["gll-search", "--ring", ring_file, "--target", "5",
            "--samples", "3"] + flags
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: gll-search: ")


def test_cli_gll_search_every_draw_in_i_exit_2(tmp_path, capsys):
    # every monomial of degree 2 lies in I, and so does every draw of
    # order 2: the search used to loop forever.  With orders 1..2 the draws
    # with a linear part are tested, and each is a hit, since m^2 = 0
    p = tmp_path / "square-zero.ring"
    p.write_text("field Fp 2\nvars x y\ngen x^2\ngen x*y\ngen y^2\n")
    argv = ["gll-search", "--ring", str(p), "--target", "2"]
    assert main(argv + ["--orders", "2..2", "--samples", "3"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: gll-search: every monomial of degree 2 lies "
                       "in the defining ideal, so every draw does\n")
    assert main(argv + ["--orders", "1..2", "--coeff-box", "1",
                        "--samples", "20"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["checks"][0]["actual"].startswith("20 hits: ")


@pytest.mark.parametrize("orders", ["1..x", "x", "..3"])
def test_cli_gll_search_orders_not_integers_exit_2(ring_file, capsys,
                                                   orders):
    # used to print "invalid literal for int() with base 10: 'x'"
    argv = ["gll-search", "--ring", ring_file, "--target", "5",
            "--samples", "3", "--orders", orders]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: gll-search: orders must be A..B with "
                       f"integers A and B, got {orders}\n")


_HF = "[1, 3, 5, 6, 7, 7, 8, 8, 8]"
_TC = "('X*Y*Z^3', 'X*Y^2', 'X^2', 'Y*Z^6')"
_AGREEMENT = ("[(1, False, 0), (2, False, 0), (3, False, 0), (4, False, 0), "
              "(5, True, 1), (6, True, 1)]")
_CASE_ROWS = ("([(1, 2, 8, 8, 'UNRESOLVED'), (1, 3, 11, 8, 'UNRESOLVED'), "
              "(2, 4, 14, 16, 'ELIMINATED'), (2, 5, 17, 16, 'UNRESOLVED'), "
              "(3, 6, 21, 24, 'ELIMINATED'), (4, 6, 21, 32, 'ELIMINATED')], "
              "'all orders d > 4 eliminated: max length 21 < d*e >= 40')")


@pytest.mark.parametrize("name, checks", [
    ("main", [
        ("hilbert-function-0-8", _HF),
        ("multiplicity", "8"),
        ("tangent-cone", _TC),
        ("tangent-cone-decomposition",
         "[((0, 0, 3), (0, 2, 0), (2, 0, 0)), ((0, 0, 6), (1, 0, 0)), "
         "((0, 1, 0), (2, 0, 0))]"),
        ("tangent-cone-minimal-primes", "[(0, 1), (0, 2)]"),
        ("delta-one-n5", "True"),
        ("colon-ideal-n5", "True"),
        ("delta-one-n4", "False"),
        ("index", "5"),
        ("loewy-length", "6"),
        ("delta-agreement-1-6", _AGREEMENT),
        ("order-case-report", _CASE_ROWS)]),
    ("ex1", [
        ("weighted-homogeneous-15-6-7", "True"),
        ("hilbert-function-0-8", _HF),
        ("multiplicity", "8"),
        ("tangent-cone", _TC),
        ("delta-one-n5", "True"),
        ("colon-ideal-n5", "True"),
        ("delta-one-n4", "False"),
        ("index", "5"),
        ("loewy-length", "6"),
        ("delta-agreement-1-6", _AGREEMENT)]),
])
def test_main_and_ex1_reports_pin_their_answers(name, checks):
    # every check, in its order, with the value it is held to and the one
    # it got; ex2's are pinned below
    report = run_scenario(name)
    assert report.scenario == name
    assert [(c.name, c.status, c.expected, c.actual)
            for c in report.checks] == [(n, PASS, v, v) for n, v in checks]


def test_ex2_report_pins_its_answers():
    # all seven checks under the default budget, index among them, which
    # the ex2-delta benchmark digest skips
    report = run_scenario("ex2")
    assert report.scenario == "ex2"
    assert [(c.name, c.status, c.expected, c.actual)
            for c in report.checks] == [(n, PASS, v, v) for n, v in (
                ("kernel-mod-n5", "True"),
                ("kernel-substitution", "True"),
                ("multiplicity", "8"),
                ("delta-one-n5", "True"),
                ("delta-one-n4", "False"),
                ("index", "5"),
                ("loewy-length", "6"))]


def test_ex2_without_budget_skips_every_check():
    # the kernel's budget runs out, and every later check is skipped with
    # the expected value it would have been held to
    report = run_scenario("ex2", budget_seconds=0)
    assert [(c.name, c.status, c.expected) for c in report.checks] == [
        ("kernel-mod-n5", SKIPPED_HEAVY, "True"),
        ("kernel-substitution", SKIPPED_HEAVY, "True"),
        ("multiplicity", SKIPPED_HEAVY, "8"),
        ("delta-one-n5", SKIPPED_HEAVY, "True"),
        ("delta-one-n4", SKIPPED_HEAVY, "False"),
        ("index", SKIPPED_HEAVY, "5"),
        ("loewy-length", SKIPPED_HEAVY, "6")]
    assert report.checks[0].actual.startswith("budget exceeded: ")
    assert all(c.actual == "skipped" for c in report.checks[1:])
    assert report.passed()


@pytest.mark.parametrize("budget", ["nan", "-1"])
@pytest.mark.parametrize("command", ["verify", "kernel"])
def test_cli_budget_below_zero_or_nan_exits_2(tmp_path, capsys, command,
                                               budget):
    # NaN bounded nothing, and -1 skipped the seven ex2 checks with exit 0;
    # 0 still skips them (test_ex2_without_budget_skips_every_check)
    mf = tmp_path / "cusp.map"
    mf.write_text("t\nx = t^2\ny = t^3\n")
    argv = (["verify", "--scenario", "ex2"] if command == "verify"
            else ["kernel", str(mf)])
    assert main(argv + ["--budget-seconds", budget]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: budget_seconds must be >= 0, got "
                       f"{float(budget)}\n")


def test_scenarios_and_search_leave_no_cyclic_garbage():
    # every basis keeps its normal-form table; a table that held its basis
    # would make one reference cycle per basis, for the collector to find
    gc.collect()
    gc.disable()
    try:
        for name in ("main", "ex1", "ex2"):
            assert run_scenario(name).passed()
        gll_search(MAIN_RING, 5, (1, 2), 20)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_unknown_scenario():
    with pytest.raises(ValueError):
        run_scenario("nope")
