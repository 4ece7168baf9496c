"""Command-line surface: ring description files, scenario verification
with JSON reports, thin wrappers over the library operations, and a
randomized falsification search for small Loewy lengths.

The built-in scenarios are data (``SCENARIOS``), and one checklist
(``_checklist``) runs every check a scenario expects a value of.
"""

import json
import sys
import time

from . import __version__
from .arith import QQ, PrimeField
from .bounds import macaulay_bound, order_case_report
from .errors import (BudgetExceeded, LocringError, NotArtinianLocally,
                     ParseError)
from .ideal import Ideal, all_monomials, max_ideal_power
from .localring import LocalRing, weighted_homogeneity_check
from .monomial import MonomialIdeal
from .poly import Polynomial, PolyRing
from .subalgebra import kernel, parse_map_file, verify_in_kernel

PASS = "PASS"
FAIL = "FAIL"
SKIPPED_HEAVY = "SKIPPED_HEAVY"

DEFAULT_SEED = 42
CAVEATS = ["contraction_assumed", "dimension_assumed"]


# ---------------------------------------------------------------------------
# deterministic PRNG

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 (Steele-Lea-Flood): 64-bit state, portable and seedable."""

    def __init__(self, seed):
        self.state = seed & _MASK64

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo, hi):
        """Uniform-enough integer in [lo, hi] (modulo bias is irrelevant at
        our range sizes and keeps the stream portable)."""
        return lo + self.next_u64() % (hi - lo + 1)


# ---------------------------------------------------------------------------
# ring description files

class RingDescription:
    def __init__(self, field_spec, names, gen_exprs):
        self.field_spec = field_spec  # QQ or a PrimeField
        self.names = names
        self.gen_exprs = gen_exprs

    def ring(self):
        return PolyRing(self.field_spec, self.names)

    def ideal(self):
        return Ideal(self.ring(), list(self.gen_exprs))

    def local_ring(self):
        return LocalRing(self.ring(), self.ideal())


def parse_ring_file(text):
    """field Q | field Fp <p>; vars ...; gen <expr> per line, with one
    field and one vars line.  A line error names the line, counted from 1
    with comments and blank lines."""
    fld = None
    names = None
    gens = []
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kw = parts[0]
        if (kw == "field" and fld is not None
                or kw == "vars" and names is not None):
            raise ParseError(f"line {n}: a second {kw} line")
        if kw == "field":
            if parts[1:] == ["Q"]:
                fld = QQ
            elif (len(parts) == 3 and parts[1] == "Fp"
                  and parts[2].isdecimal()):
                try:
                    fld = PrimeField(int(parts[2]))
                except ValueError as exc:
                    raise ParseError(f"line {n}: {exc}") from None
            else:
                raise ParseError(f"line {n}: bad field line {line!r}")
        elif kw == "vars":
            if len(parts) < 2:
                raise ParseError(f"line {n}: vars line needs at least one "
                                 "name")
            names = tuple(parts[1:])
            for name in names:
                if not name.isidentifier():
                    raise ParseError(f"line {n}: bad variable name {name!r}")
            if len(set(names)) < len(names):
                raise ParseError(f"line {n}: duplicate variable names in "
                                 f"{names}")
        elif kw == "gen":
            gens.append((n, line[len("gen"):].strip()))
        else:
            raise ParseError(f"line {n}: unknown keyword {kw!r}")
    if fld is None or names is None:
        raise ParseError("ring file needs field and vars lines")
    desc = RingDescription(fld, names, tuple(expr for _, expr in gens))
    ring = desc.ring()
    for n, expr in gens:
        try:
            f = ring.parse(expr)
        except ParseError as exc:
            raise ParseError(f"line {n}: {exc}") from None
        if (0,) * ring.nvars in f.terms:
            raise ParseError(f"line {n}: {f} has a constant term, so it "
                             "does not lie in the ideal of the variables")
    return desc


def load_ring_file(path):
    with open(path) as fh:
        return parse_ring_file(fh.read())


# ---------------------------------------------------------------------------
# reports

class Check:
    def __init__(self, name, status, expected, actual, time_ms):
        self.name = name
        self.status = status
        self.expected = expected
        self.actual = actual
        self.time_ms = time_ms


class Report:
    def __init__(self, scenario, seed):
        self.scenario = scenario
        self.seed = seed
        self.checks = []

    def passed(self):
        return all(c.status in (PASS, SKIPPED_HEAVY) for c in self.checks)

    def to_dict(self):
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "version": __version__,
            "caveats": list(CAVEATS),
            "checks": [
                {"name": c.name, "status": c.status, "expected": c.expected,
                 "actual": c.actual, "time_ms": c.time_ms}
                for c in self.checks
            ],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2) + "\n"


class Runner:
    """Executes checks, timing each.  Budget exhaustion skips a check; any
    other exception fails it, and the report goes on to the next check."""

    def __init__(self, report):
        self.report = report
        self.skipping = False

    def run(self, name, expected, fn):
        expected = str(expected)
        if self.skipping:
            self.report.checks.append(
                Check(name, SKIPPED_HEAVY, expected, "skipped", 0))
            return
        t0 = time.perf_counter()
        try:
            actual = str(fn())
            status = PASS if actual == expected else FAIL
        except BudgetExceeded as exc:
            actual = f"budget exceeded: {exc}"
            status = SKIPPED_HEAVY
        except Exception as exc:
            import traceback  # only on this path: keeps it out of start-up

            traceback.print_exc(file=sys.stderr)
            actual = f"error: {type(exc).__name__}: {exc}"
            status = FAIL
        ms = int((time.perf_counter() - t0) * 1000)
        self.report.checks.append(Check(name, status, expected, actual, ms))
        return status


def _ideal_sig(ideal):
    """Order-independent signature: sorted reduced-basis strings."""
    return tuple(sorted(g.to_str() for g in ideal.groebner().generators))


# ---------------------------------------------------------------------------
# embedded scenarios

MAIN_RING = RingDescription(QQ, ("x", "y", "z"),
                            ("x^2 - y^5", "x*y^2 + y*z^3 - z^5"))
EX1_RING = RingDescription(QQ, ("x", "y", "z"),
                           ("x^2 - y^5", "x*y^2 + y*z^3"))
EX2_MAP_TEXT = "t\nx = t^8 + t^10\ny = t^9\nz = t^20 + t^36\n"

# the paper's claim on each ring: e = 8, index 5 on the witness, and a
# Loewy length 6 of R modulo the Loewy element; main and ex1 also share
# their Hilbert function, tangent cone and delta chain n = 1..6
_PAPER = {"multiplicity": 8, "delta-one-n5": True, "delta-one-n4": False,
          "index": 5, "loewy-length": 6}
_MAIN_EX1 = {
    **_PAPER,
    "hilbert-function-0-8": [1, 3, 5, 6, 7, 7, 8, 8, 8],
    "tangent-cone": ("X*Y*Z^3", "X*Y^2", "X^2", "Y*Z^6"),
    "colon-ideal-n5": True,
    "delta-agreement-1-6": [(n, n >= 5, int(n >= 5)) for n in range(1, 7)],
}

# A scenario is a ring (or the map whose kernel defines it), a witness, a
# Loewy element, the value each check is held to, and the inputs checks
# need: the generators of x*m^5 : m modulo I, and of the kernel mod n^5.
SCENARIOS = {
    "main": {
        "ring": MAIN_RING, "witness": "y", "loewy": "y",
        "colon_n5": ("y^5", "x*y^3", "y*z^4", "x*y*z^3", "y^3*z^2",
                     "x*y^2*z^2", "y^4*z"),
        "expected": {
            **_MAIN_EX1,
            "tangent-cone-decomposition": [
                ((0, 0, 3), (0, 2, 0), (2, 0, 0)), ((0, 0, 6), (1, 0, 0)),
                ((0, 1, 0), (2, 0, 0))],
            "tangent-cone-minimal-primes": [(0, 1), (0, 2)],
            "order-case-report": (
                [(1, 2, 8, 8, "UNRESOLVED"), (1, 3, 11, 8, "UNRESOLVED"),
                 (2, 4, 14, 16, "ELIMINATED"), (2, 5, 17, 16, "UNRESOLVED"),
                 (3, 6, 21, 24, "ELIMINATED"), (4, 6, 21, 32, "ELIMINATED")],
                "all orders d > 4 eliminated: max length 21 < d*e >= 40"),
        }},
    "ex1": {
        "ring": EX1_RING, "witness": "z", "loewy": "y - z",
        "colon_n5": ("x*y^2*z", "z^5", "x*z^4", "y^3*z^2", "y^4*z",
                     "y^2*z^3", "x*y*z^3"),
        "expected": {"weighted-homogeneous-15-6-7": True, **_MAIN_EX1}},
    "ex2": {
        "map": EX2_MAP_TEXT, "witness": "x", "loewy": "x",
        "kernel_n5": ("z^2", "y^4 - x^2*z + 2*y^2*z"),
        "expected": _PAPER},
}


def _case_report(R, N, d_max):
    """``bounds.order_case_report`` on the embedding dimension HF(1) and the
    multiplicity of R."""
    return order_case_report(R.hilbert_function(1)[1], R.multiplicity(), N,
                             d_max)


def _checklist(runner, S, R, scenario):
    """Run, in this order, each check the scenario has an expected value
    for, on R = S/I localized.  Only the checks read R, so a skipping
    runner may pass None."""
    x = S.parse(scenario["witness"])

    def tangent_cone_ideal():
        return MonomialIdeal.from_ideal(R.tangent_cone())

    def colon_n5():
        # the colon of an m-primary local model is its own local model
        target = Ideal(S, list(scenario["colon_n5"])) + R.I
        return (_ideal_sig(R.delta_one_test(x, 5).colon)
                == _ideal_sig(R.local_model(target)))

    checks = (
        ("weighted-homogeneous-15-6-7",
         lambda: weighted_homogeneity_check(R.I.generators, (15, 6, 7))),
        ("hilbert-function-0-8", lambda: R.hilbert_function(8)),
        ("multiplicity", lambda: R.multiplicity()),
        ("tangent-cone", lambda: _ideal_sig(R.tangent_cone())),
        ("tangent-cone-decomposition",
         lambda: sorted(c.generators for c in
                        tangent_cone_ideal().irreducible_decomposition())),
        ("tangent-cone-minimal-primes",
         lambda: sorted(tuple(sorted(p))
                        for p in tangent_cone_ideal().minimal_primes())),
        ("delta-one-n5", lambda: R.delta_one_test(x, 5).verdict),
        ("colon-ideal-n5", colon_n5),
        ("delta-one-n4", lambda: R.delta_one_test(x, 4).verdict),
        ("index", lambda: R.index(x)),
        ("loewy-length",
         lambda: R.loewy_length_mod(S.parse(scenario["loewy"]))),
        # delta_one_test raises if criteria (ii), (iii) and (iv) split
        ("delta-agreement-1-6",
         lambda: [(n, R.delta_one_test(x, n).verdict, R.delta_via_mu(x, n))
                  for n in range(1, 7)]),
        # m^5 in (f), orders up to 4 one by one
        ("order-case-report", lambda: _case_report(R, 5, 4)),
    )
    expected = scenario["expected"]
    for name, fn in checks:
        if name in expected:
            runner.run(name, expected[name], fn)


def _scenario_ex2(runner, budget_seconds):
    """The kernel step, then the checklist on the ring it defines."""
    scenario = SCENARIOS["ex2"]
    pm = parse_map_file(scenario["map"], QQ)
    src = pm.source
    box = {}

    def compute_kernel():
        J = kernel(pm, time_budget=budget_seconds)
        box["R"] = LocalRing(src, J)
        n5 = max_ideal_power(src, 5)
        target = Ideal(src, list(scenario["kernel_n5"])) + n5
        return _ideal_sig(J + n5) == _ideal_sig(target)

    runner.run("kernel-mod-n5", True, compute_kernel)
    # budget ran out before the kernel existed: skip the rest, do not fail
    runner.skipping = "R" not in box
    R = box.get("R")
    runner.run("kernel-substitution", True,
               lambda: all(verify_in_kernel(g, pm) for g in R.I.generators))
    _checklist(runner, src, R, scenario)


def run_scenario(name, budget_seconds=600):
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}")
    report = Report(name, DEFAULT_SEED)
    runner = Runner(report)
    if name == "ex2":
        _scenario_ex2(runner, budget_seconds)
    else:
        R = SCENARIOS[name]["ring"].local_ring()
        _checklist(runner, R.ring, R, SCENARIOS[name])
    return report


# ---------------------------------------------------------------------------
# randomized falsification search

def sample_element(ring, rng, order_range, coeff_box):
    """Random polynomial with monomial degrees in the order range and
    integer coefficients in [-B, B]."""
    lo, hi = order_range
    terms = {}
    for d in range(lo, hi + 1):
        for e in all_monomials(ring, d):
            c = ring.field.from_int(rng.randint(-coeff_box, coeff_box))
            if c:  # over F_p a nonzero draw can still be 0
                terms[e] = c
    return Polynomial(ring, terms)


def gll_search(desc, target_n, order_range, samples, seed=DEFAULT_SEED,
               coeff_box=3, forced=()):
    """Draw random f and test m^N inside (f) in R; every hit is a witness
    that the Loewy length drops to N for some principal reduction.  Each
    nonzero draw costs one ``LocalRing.loewy_length_at_most(f, N)``, a rank
    count on S/(I + n^(N+1)) against one ds basis of I truncated at N + 1,
    which the ring builds once per search; the same call rejects a draw in
    I (``NotArtinianLocally``), which is skipped and not counted.  Forced
    elements go through ``LocalRing.check_parameter`` first.
    Raises ValueError on arguments that would make the search loop forever
    (no nonzero draw possible, or every monomial of the lowest order in I,
    checked once a draw is skipped) or report false hits (N < 1, constants
    in f, a forced element that is a unit or lies in I).
    """
    lo, hi = order_range
    if target_n < 1:
        raise ValueError(f"gll-search: target must be at least 1, "
                         f"got {target_n}")
    if lo < 1 or hi < lo:
        raise ValueError(f"gll-search: orders must be A..B with "
                         f"1 <= A <= B, got {lo}..{hi}")
    if coeff_box < 1:
        raise ValueError(f"gll-search: coeff-box must be at least 1, "
                         f"got {coeff_box}")
    if samples < 0:
        raise ValueError(f"gll-search: samples must be at least 0, "
                         f"got {samples}")
    R = desc.local_ring()
    ring = R.ring
    rng = SplitMix64(seed)
    hits = []
    t0 = time.perf_counter()

    def test(f):
        if R.loewy_length_at_most(f, target_n):
            hits.append(f.to_str())

    for f in forced:
        f = ring.parse(f) if isinstance(f, str) else f
        try:
            R.check_parameter(f)
        except (ValueError, NotArtinianLocally) as exc:
            raise ValueError(f"gll-search: witness {exc}") from exc
        test(f)
    tested, skipped = 0, False
    while tested < samples:
        f = sample_element(ring, rng, order_range, coeff_box)
        if f.is_zero():
            continue
        try:
            test(f)
        except NotArtinianLocally:
            # f lies in I; every draw does iff n^lo lies in I
            if not skipped and R.I.contains(max_ideal_power(ring, lo)):
                raise ValueError(f"gll-search: every monomial of degree "
                                 f"{lo} lies in the defining ideal, so "
                                 f"every draw does") from None
            skipped = True
            continue
        tested += 1
    report = Report("gll-search", seed)
    detail = f"{len(hits)} hits" + (f": {hits}" if hits else "")
    report.checks.append(Check(
        f"no-f-with-m^{target_n}-in-fR", PASS if not hits else FAIL,
        "0 hits", detail, int((time.perf_counter() - t0) * 1000)))
    return report, hits


# ---------------------------------------------------------------------------
# entry point

def _build_parser():
    import argparse  # only here: no scenario run needs it

    p = argparse.ArgumentParser(
        prog="locring",
        description="exact local-ring invariants: Hilbert functions, "
                    "tangent cones, delta tests, Newton polygons")
    sub = p.add_subparsers(dest="command", required=True)

    def ring_flag(sp):
        sp.add_argument("--ring", required=True, metavar="FILE",
                        help="ring description file")

    sp = sub.add_parser("hilbert", help="Hilbert function table")
    ring_flag(sp)
    sp.add_argument("--max-degree", type=int, default=8)

    sp = sub.add_parser("index", help="least n with delta(R/m^n) = 1")
    ring_flag(sp)
    sp.add_argument("--witness", required=True, metavar="EXPR")
    sp.add_argument("--max-n", type=int, default=10)

    sp = sub.add_parser("tangent-cone", help="initial ideal generators")
    ring_flag(sp)

    sp = sub.add_parser("loewy", help="least N with m^N inside (f)")
    ring_flag(sp)
    sp.add_argument("--element", required=True, metavar="EXPR")

    sp = sub.add_parser("superficial",
                        help="test colength(f) = ord(f) * e(R)")
    ring_flag(sp)
    sp.add_argument("--element", required=True, metavar="EXPR")

    sp = sub.add_parser("case-report",
                        help="order-by-order Hilbert feasibility table")
    ring_flag(sp)
    sp.add_argument("--target", type=int, required=True, metavar="N")
    sp.add_argument("--d-max", type=int, required=True, metavar="D")

    sp = sub.add_parser("newton",
                        help="Newton polygon, its decomposability and any "
                             "monomial factor")
    ring_flag(sp)
    sp.add_argument("--element", required=True, metavar="EXPR")

    sp = sub.add_parser("kernel", help="kernel of x_i -> g_i(t)")
    sp.add_argument("map_file", metavar="FILE")
    sp.add_argument("--budget-seconds", type=float, default=600.0)

    sp = sub.add_parser("macaulay-bound", help="maximal HF growth d^<n>")
    sp.add_argument("d", type=int)
    sp.add_argument("n", type=int)

    sp = sub.add_parser("verify", help="run a built-in scenario")
    sp.add_argument("--scenario", required=True,
                    choices=("main", "ex1", "ex2"))
    sp.add_argument("--budget-seconds", type=float, default=600.0)
    sp.add_argument("--out", metavar="FILE")

    sp = sub.add_parser("gll-search",
                        help="random search for f with m^N inside fR")
    ring_flag(sp)
    sp.add_argument("--target", type=int, required=True, metavar="N")
    sp.add_argument("--orders", default="1..2", metavar="A..B")
    sp.add_argument("--samples", type=int, default=500, metavar="K")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--coeff-box", type=int, default=3, metavar="B")
    sp.add_argument("--witness", metavar="EXPR",
                    help="force this element into the sample")
    sp.add_argument("--out", metavar="FILE")
    return p


def _emit_report(report, out_path):
    text = report.to_json()
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0 if report.passed() else 1


def _dispatch(args):
    cmd = args.command
    # 0 skips every step the budget bounds; NaN would bound none of them
    if cmd in ("kernel", "verify") and not args.budget_seconds >= 0:
        raise ValueError(f"budget_seconds must be >= 0, got "
                         f"{args.budget_seconds}")
    if cmd == "hilbert":
        R = load_ring_file(args.ring).local_ring()
        for n, v in enumerate(R.hilbert_function(args.max_degree)):
            print(f"{n}\t{v}")
        return 0
    if cmd == "index":
        desc = load_ring_file(args.ring)
        R = desc.local_ring()
        print(R.index(R.ring.parse(args.witness), max_n=args.max_n))
        return 0
    if cmd == "tangent-cone":
        R = load_ring_file(args.ring).local_ring()
        for g in R.tangent_cone().groebner().generators:
            print(g.to_str())
        return 0
    if cmd == "loewy":
        R = load_ring_file(args.ring).local_ring()
        print(R.loewy_length_mod(R.ring.parse(args.element)))
        return 0
    if cmd == "superficial":
        R = load_ring_file(args.ring).local_ring()
        print("true" if R.is_superficial(R.ring.parse(args.element))
              else "false")
        return 0
    if cmd == "case-report":
        R = load_ring_file(args.ring).local_ring()
        rows, tail = _case_report(R, args.target, args.d_max)
        for d, hf2, max_len, threshold, status in rows:
            print(f"d={d} HF(2)={hf2} max={max_len} threshold={threshold} "
                  f"{status}")
        print(tail)
        return 0
    if cmd == "newton":
        # only here: no scenario run needs polytope
        from .polytope import is_integer_irreducible, newton_polygon

        ring = load_ring_file(args.ring).ring()
        f = ring.parse(args.element)
        P = newton_polygon(f)
        # the verdict is on the polygon: a monomial factor moves the
        # polygon off an axis without changing its shape.  It comes before
        # the first line, so a polygon it rejects prints nothing
        res = is_integer_irreducible(P)
        print("vertices:", " ".join(f"({a},{b})" for a, b in P.vertices))
        print("polygon integer-indecomposable:" if res.irreducible
              else "polygon integer-decomposable:", res.method)
        factor = ring.monomial(map(min, zip(*f.terms)))
        if not factor.is_constant():
            print("monomial factor:", factor.to_str(),
                  "(the polygon misses an axis)")
        return 0
    if cmd == "kernel":
        with open(args.map_file) as fh:
            pm = parse_map_file(fh.read(), QQ)
        J = kernel(pm, time_budget=args.budget_seconds)
        for g in J.groebner().generators:
            print(g.to_str())
        return 0
    if cmd == "macaulay-bound":
        print(macaulay_bound(args.d, args.n))
        return 0
    if cmd == "verify":
        report = run_scenario(args.scenario,
                              budget_seconds=args.budget_seconds)
        return _emit_report(report, args.out)
    if cmd == "gll-search":
        desc = load_ring_file(args.ring)
        a, _, b = args.orders.partition("..")
        try:
            order_range = (int(a), int(b or a))
        except ValueError:
            raise ValueError(f"gll-search: orders must be A..B with "
                             f"integers A and B, got {args.orders}") from None
        forced = (args.witness,) if args.witness else ()
        report, _hits = gll_search(desc, args.target, order_range,
                                   args.samples, seed=args.seed,
                                   coeff_box=args.coeff_box, forced=forced)
        return _emit_report(report, args.out)
    raise AssertionError(f"unhandled command {cmd}")


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except BudgetExceeded as exc:
        print(f"error: computation budget exceeded: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, LocringError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
