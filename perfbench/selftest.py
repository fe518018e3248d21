#!/usr/bin/env python3
"""Sensitivity self-test of the benchmark itself.

Runs every workload with and without an injected load -- a busy-wait of
20 % (--inject) of each Table-2 cell's own time, added inside the
benchmark's wrapper around the ParallelRunner lambdas (run.py
--inject-cell-frac; never a program setting) -- and checks that the
benchmark sees it:

  * table2_classic's sweep_s worsens by more than its bound in
    BENCHMARK.json;
  * the traced run shows it where it was put: harness.cell_s.* rise;
  * every end-to-end metric of the other workloads, which never run that
    wrapper in their timed region, stays within its bound.

Usage, from the repository root (about 13 minutes at the defaults):

    python3 perfbench/selftest.py [--seeds 3] [--seconds 30] [--inject 0.2]

Exits 0 when all three hold.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "table2_classic"
TARGET_METRIC = "sweep_s"
CELL_METRICS = ("harness.cell_s.static", "harness.cell_s.react",
                "harness.cell_s.morphy")


def run(workload, seed, seconds, trace, inject):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--inject-cell-frac", str(inject)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    result = json.loads(out.stdout.rstrip("\n").split("\n")[-1])
    if out.returncode != 0 or not result["correct"]:
        sys.exit("selftest: %s seed %d failed its output checks"
                 % (workload, seed))
    return {k: m["value"] for k, m in result["metrics"].items()}


def worsening(metric, base, injected):
    """Relative change of the medians, positive when worse."""
    b = statistics.median(base)
    i = statistics.median(injected)
    change = (i - b) / b
    return -change if metric["better"] == "higher" else change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--inject", type=float, default=0.2)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        base, injected = [], []
        for seed in range(1, args.seeds + 1):
            # Alternate which side runs first.
            order = [(base, 0.0), (injected, args.inject)]
            if seed % 2 == 0:
                order.reverse()
            for sink, inject in order:
                sink.append(run(workload, seed, args.seconds, 0, inject))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            w = worsening(metric, [r[name] for r in base],
                          [r[name] for r in injected])
            if workload == TARGET and name == TARGET_METRIC:
                verdict = "MOVED" if w > metric["bound"] else "MISSED"
                ok &= w > metric["bound"]
            elif workload == TARGET:
                verdict = "(target workload, not judged)"
            else:
                verdict = "within" if w <= metric["bound"] else "BEYOND"
                ok &= w <= metric["bound"]
            print("%-15s %-12s worse by %+7.3f (bound %.2f) %s"
                  % (workload, name, w, metric["bound"], verdict))

    base = run(TARGET, 1, args.seconds, 1, 0.0)
    injected = run(TARGET, 1, args.seconds, 1, args.inject)
    for name in CELL_METRICS:
        rise = injected[name] / base[name] - 1.0
        # Half of the injected wait must show.
        seen = rise > args.inject / 2
        ok &= seen
        print("%-15s %-22s rose by %+7.3f %s"
              % (TARGET, name, rise, "SEEN" if seen else "MISSED"))
    print("selftest:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
