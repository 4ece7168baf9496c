"""Fast self-check of the benchmark harness on a tiny input.

    python3 perfbench/selfcheck.py

Runs one gll-fp sample and one colon by m untraced and traced, and checks
that the tracer restores every function it replaced, that the traced answers
are the untraced ones, and that the trace saw work in each layer it wraps.
Exit code 0 means every check held.  Takes a few seconds.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracer  # noqa: E402
import workloads  # noqa: E402
from locring import Ideal, LocalRing, PolyRing, QQ, cli  # noqa: E402


def _bound_values():
    """Every binding the tracer touches, as (owner, name) -> object."""
    return {(owner, name): vars(owner)[name]
            for module, attr, _stem, _kind in tracer.TARGETS
            for owner, name in tracer._bindings(module, attr)}


def _tiny_pass():
    """One gll-fp sample plus a colon by m and a delta test on a small ring."""
    _report, hits = cli.gll_search(workloads.WORKLOADS["gll-fp"].setup(),
                                   workloads.GLL_TARGET, workloads.GLL_ORDERS,
                                   1, seed=42,
                                   coeff_box=workloads.GLL_COEFF_BOX)
    S = PolyRing(QQ, ("x", "y"))
    R = LocalRing(S, Ideal(S, ["x^2 - y^3"]))
    J = R.local_model(Ideal(S, ["x^2 - y^3", "y^2"]))
    colon = J.quotient(R.n)
    verdict = R.delta_one_test(S.var(1), 1).verdict
    return {"hits": hits, "colon": list(cli._ideal_sig(colon)),
            "colength": R.colength_local(colon), "delta": verdict}


def main():
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    before = _bound_values()
    check(len(before) > len(tracer.TARGETS),
          "names bound by 'from ... import' are found as well")
    plain = _tiny_pass()

    t = tracer.Tracer()
    with t:
        during = _bound_values()
        check(all(during[k] is not v for k, v in before.items()),
              "every binding is replaced while tracing")
        traced = _tiny_pass()
    check(_bound_values() == before, "every binding is restored afterwards")
    check(all(during[k] is not v for k, v in _bound_values().items()),
          "no wrapper is left in place")

    run = vars(cli.Runner)["run"]
    with tracer.CheckTimer() as timer:
        report = cli.Report("selfcheck", 0)
        cli.Runner(report).run("one", True, lambda: True)
    check(vars(cli.Runner)["run"] is run and "one" in timer.seconds,
          "the check timer times a check and restores Runner.run")

    check(workloads.digest(traced) == workloads.digest(plain),
          "traced and untraced answers have the same digest")
    metrics = t.layer_metrics()
    for name in ("groebner.buchberger.calls", "groebner.nf.calls",
                 "groebner.spairs", "groebner.normal_form.calls",
                 "poly.mono_div.calls", "ideal.quotient.calls",
                 "ideal.intersect.calls", "localring.local_model.calls",
                 "localring.delta_one_test.calls"):
        check(metrics[name] > 0, f"trace counted {name} = {metrics[name]}")
    ids = {span[0] for span in t.spans}
    check(all(parent == 0 or parent in ids for _i, parent, *_ in t.spans),
          "every span's parent is a recorded span or the root")
    check(all(span[5] >= 0 for span in t.spans),
          "no span has negative self time")
    print("selfcheck:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
