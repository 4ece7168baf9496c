"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload verify-main --seed 1 --seconds 30 \
        --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory, never from an installed copy.  With ``--trace 0`` the last line of
standard output carries the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it carries the per-layer metrics, from one untraced and one
traced pass, and the spans of the traced pass are written to
``perfbench/out/``.  Every pass's answers are checked against the digest
pinned in ``expected.json``.  Exit code 0 means every answer was correct.
"""

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import REFERENCE_S, probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up is measured in fresh interpreters, so each repeat imports locring
# from scratch, and scaled to the reference host speed of probe.py by a probe
# just before and just after it.  Half the repeats run before the passes and
# half after, so that one slow spell of a shared host does not set the
# median.
SETUP_REPEATS = 8  # each side of the passes
SETUP_CHILD = """\
import sys, time
sys.path[:0] = sys.argv[1:3]
from probe import REFERENCE_S, probe
before = probe()
start = time.perf_counter()
import workloads
workloads.WORKLOADS[sys.argv[3]].setup()
took = time.perf_counter() - start
print(repr(took * REFERENCE_S / ((before + probe()) / 2)))
"""
CHILD_TIMEOUT_S = 60

# An untraced pass is interrupted every PROBE_EVERY_S by a probe; run_s is
# the pass's own time (probes left out) scaled to the reference host speed
# by the mean probe time.  Over ten runs this cut the quartile spread of
# run_s from 0.10-0.26 of the median to under 0.09.
PROBE_EVERY_S = 0.5


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="time budget for untraced passes; whole passes run "
                        "while the next is expected to fit, at least one")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _setup_seconds(workload):
    """Set-up times of SETUP_REPEATS fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE),
             workload],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            check=True)
        times.append(float(done.stdout))
    return times


def _timed_pass(wl, state, seed):
    start = time.perf_counter()
    raw = wl.run(state, seed)
    return time.perf_counter() - start, raw


def _probed_pass(wl, state, seed):
    """(wall time, time at the reference host speed, result) of one pass."""
    probes = [probe()]  # one before the pass, however short the pass is

    def on_alarm(_signum, _frame):
        probes.append(probe())

    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    try:
        wall_s, raw = _timed_pass(wl, state, seed)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
    own_s = wall_s - sum(probes[1:])
    return wall_s, own_s * REFERENCE_S / statistics.fmean(probes), raw


def _check(wl, state, raw, pinned, digest):
    """(attempted, failed, digest) of one pass; a digest other than the
    pinned one counts as at least one failure."""
    outcome = wl.answers(state, raw)
    got = digest(outcome.answers)
    failed = outcome.failed if got == pinned else max(outcome.failed, 1)
    return outcome.attempted, failed, got


def _untraced(wl, state, args, pinned, digest):
    durations = []
    attempted = failed = 0
    begin = time.perf_counter()
    while True:
        wall_s, run_s, raw = _probed_pass(wl, state, args.seed)
        durations.append(run_s)
        a, f, _ = _check(wl, state, raw, pinned, digest)
        attempted += a
        failed += f
        if time.perf_counter() - begin + wall_s > args.seconds:
            break
    run_s = statistics.median(durations)
    values = {
        "run_s": run_s,
        "samples_per_s": a / run_s,
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return values, attempted, failed


def _traced(wl, state, args, pinned, digest):
    from tracer import CheckTimer, Tracer

    with CheckTimer() as checks:
        run_s, raw = _timed_pass(wl, state, args.seed)
    a1, f1, plain = _check(wl, state, raw, pinned, digest)
    with Tracer() as tracer:
        traced_s, raw = _timed_pass(wl, state, args.seed)
    a2, f2, traced = _check(wl, state, raw, pinned, digest)
    if traced != plain:
        f2 = max(f2, 1)
    values = tracer.layer_metrics()
    values["trace_overhead_ratio"] = traced_s / run_s
    for name, seconds in checks.seconds.items():
        values[f"cli.check.{name}.s"] = seconds
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"{wl.name}-seed{args.seed}.spans.jsonl")
    return values, a1 + a2, f1 + f2


def main(argv=None):
    args = _parse_args(argv)
    bench = ROOT / "BENCHMARK.json"
    if not bench.is_file():
        _fail(f"{bench} not found")
    spec = json.loads(bench.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        _fail(f"unknown workload {args.workload!r}")
    if not (SRC / "locring" / "__init__.py").is_file():
        _fail(f"no locring sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import locring
    if not Path(locring.__file__).resolve().is_relative_to(SRC):
        _fail(f"locring imported from {locring.__file__}, not {SRC}")
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    pinned = json.loads((HERE / "expected.json").read_text())[wl.name]
    state = wl.setup()
    if args.trace:
        values, attempted, failed = _traced(wl, state, args, pinned,
                                            workloads.digest)
    else:
        setup_times = _setup_seconds(wl.name)
        values, attempted, failed = _untraced(wl, state, args, pinned,
                                              workloads.digest)
        setup_times += _setup_seconds(wl.name)
        values["setup_s"] = statistics.median(setup_times)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        # a check the workload does not run took no time
        value = values.get(name, 0.0) if name.startswith("cli.check.") \
            else values[name]
        metrics[name] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
