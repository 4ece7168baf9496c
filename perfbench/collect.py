"""Run the benchmark several times and summarise the runs.

    python3 perfbench/collect.py --out perfbench/out/record.json [--traced]

Runs ``run.py`` once per seed (seeds 1..RUNS) for each workload of
BENCHMARK.json, one run at a time, then optionally one traced run (seed 1)
per workload.  For every
end-to-end metric the record gives the ten values, their median, first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(third minus first quartile, as a share of the median).  A summary table
goes to standard error.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180
RUNS = 10


def _run(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--traced", action="store_true",
                   help="add one traced run per workload")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {"date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "python": platform.python_version(),
              "nproc": os.cpu_count(),
              "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in [w["name"] for w in spec["workloads"]]:
        runs = [_run(name, seed, spec["run_seconds"], 0)
                for seed in range(1, RUNS + 1)]
        if not all(r["correct"] for r in runs):
            raise RuntimeError(f"{name}: a run gave a wrong answer")
        entry = {"runs": RUNS, "end_to_end": {}}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            entry["end_to_end"][m["name"]] = dict(unit=m["unit"],
                                                  **summarise(values))
        if args.traced:
            traced = _run(name, 1, spec["run_seconds"], 1)
            if not traced["correct"]:
                raise RuntimeError(f"{name}: the traced run gave a wrong "
                                   "answer")
            entry["per_layer_seed1"] = {k: v["value"] for k, v
                                        in traced["metrics"].items()}
        record["workloads"][name] = entry
        for metric, s in entry["end_to_end"].items():
            bound = next(m["bound"] for m in spec["end_to_end"]
                         if m["name"] == metric)
            print(f"{name:12s} {metric:14s} median {s['median']:.4g} "
                  f"spread {s['spread']:.3f} (bound {bound})",
                  file=sys.stderr, flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
