"""The benchmark's workloads: set-up, one pass, and the answers to check.

Each workload is one pass of a computation the paper's numbers come from.
Importing this module imports locring.  ``setup`` builds the workload's
rings, ideals and maps; ``run`` is the timed pass;
``answers`` turns a pass's result into the data whose digest is pinned in
``expected.json``.  ``answers`` may compute, but it runs outside the timed
region and outside any trace.  Nothing but locring and the modules it
imports itself is imported at module level, so that set-up times locring.
"""

import json
from dataclasses import dataclass

from locring import Ideal, cli
from locring.arith import QQ, PrimeField
from locring.groebner import is_member
from locring.ideal import all_monomials, max_ideal_power

# gll-fp: the main ring over F_p, searching for f with m^5 inside fR
GLL_PRIME = 32003
GLL_TARGET = 5
GLL_ORDERS = (1, 2)
GLL_SAMPLES = 200
GLL_COEFF_BOX = 3
# the samples whose bases are pinned, drawn from a fixed seed so that the
# pinned digest holds whatever seed the pass ran with
GLL_REFERENCE_SEED = 42
GLL_REFERENCE_SAMPLES = 5


@dataclass
class Outcome:
    attempted: int   # checks, steps or samples in the pass
    failed: int      # of those, the ones with a wrong answer
    answers: object  # JSON-serializable data the digest is taken of


def digest(answers):
    import hashlib  # here, not at the top: locring never imports it

    text = json.dumps(answers, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _report_answers(report):
    """The answer fields of a verify report: everything but the timings and
    the keys that describe the run rather than the result."""
    return {
        "scenario": report.scenario,
        "caveats": list(cli.CAVEATS),
        "checks": [[c.name, c.status, c.expected, c.actual]
                   for c in report.checks],
    }


def _report_outcome(report):
    failed = sum(c.status != cli.PASS for c in report.checks)
    return Outcome(len(report.checks), failed, _report_answers(report))


class VerifyMain:
    """``locring verify --scenario main`` as a library call."""

    name = "verify-main"

    def setup(self):
        return cli.MAIN_RING.local_ring()

    def run(self, state, seed):
        return cli.run_scenario("main")

    def answers(self, state, report):
        return _report_outcome(report)


class _RunnerWithoutIndex(cli.Runner):
    """Runs the ex2 scenario's checks except ``index``, which re-does the
    delta chain n = 1..6 that verify-main already measures."""

    def run(self, name, expected, fn):
        if name == "index":
            return None
        return super().run(name, expected, fn)


class Ex2Delta:
    """The ex2 scenario (kernel of t -> (t^8+t^10, t^9, t^20+t^36), then the
    local invariants of its ring) without its ``index`` check."""

    name = "ex2-delta"

    def setup(self):
        return cli.parse_map_file(cli.EX2_MAP_TEXT, QQ)

    def run(self, state, seed):
        """The report and the kernel the pass computed, taken from the
        scenario's own call of ``kernel`` (None if it made none)."""
        report = cli.Report(self.name, cli.DEFAULT_SEED)
        kernel = cli.kernel
        computed = [None]

        def keep(*args, **kwargs):
            computed[0] = kernel(*args, **kwargs)
            return computed[0]

        cli.kernel = keep
        try:
            cli._scenario_ex2(_RunnerWithoutIndex(report), budget_seconds=600)
        finally:
            cli.kernel = kernel
        return report, computed[0]

    def answers(self, state, result):
        report, kernel = result
        outcome = _report_outcome(report)
        outcome.answers["kernel"] = (None if kernel is None
                                     else list(cli._ideal_sig(kernel)))
        return outcome


class GllFp:
    """``gll_search`` on the main ring over F_32003: random f of order 1..2
    with coefficients in [-3, 3], each tested for m^5 inside I + (f).  The
    paper's generalized Loewy length is 6, so every sample must miss."""

    name = "gll-fp"

    def setup(self):
        main = cli.MAIN_RING
        desc = cli.RingDescription(PrimeField(GLL_PRIME), main.names,
                                   main.gen_exprs)
        desc.local_ring()  # validates the generators, as gll_search does
        return desc

    def run(self, state, seed):
        _report, hits = cli.gll_search(state, GLL_TARGET, GLL_ORDERS,
                                       GLL_SAMPLES, seed=seed,
                                       coeff_box=GLL_COEFF_BOX)
        return hits

    def answers(self, state, hits):
        # gll_search returns only after testing exactly GLL_SAMPLES samples
        return Outcome(GLL_SAMPLES, len(hits),
                       {"hits": hits, "tested": GLL_SAMPLES,
                        "reference": _gll_reference(state)})


def _gll_reference(desc):
    """Redo gll_search's test on the first GLL_REFERENCE_SAMPLES samples of
    GLL_REFERENCE_SEED, keeping what the hit list throws away: the reduced
    basis of I + (f) + m^6 over F_p and, for each monomial of m^5, whether it
    is a member.  A wrong basis or membership test over F_p changes these
    even when it leaves the hit list empty."""
    R = desc.local_ring()
    ring = R.ring
    rng = cli.SplitMix64(GLL_REFERENCE_SEED)
    nN = all_monomials(ring, GLL_TARGET)
    nN1 = max_ideal_power(ring, GLL_TARGET + 1)
    out = []
    while len(out) < GLL_REFERENCE_SAMPLES:
        f = cli.sample_element(ring, rng, GLL_ORDERS, GLL_COEFF_BOX)
        if f.is_zero() or R.I.member(f):
            continue
        J = R.I + Ideal(ring, [f]) + nN1
        gb = J.groebner()
        out.append({
            "f": f.to_str(),
            "basis": list(cli._ideal_sig(J)),
            "members": "".join("1" if is_member(ring.monomial(e), gb)
                               else "0" for e in nN),
        })
    return out


WORKLOADS = {w.name: w for w in (VerifyMain(), Ex2Delta(), GllFp())}
