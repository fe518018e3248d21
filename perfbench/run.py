#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench) on one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload table2_classic --seed 42 \
        --seconds 30 --trace 0

Workloads: table2_classic, static_lanes, reactd_mixed (see
perfbench/LAYERS.md).  The script builds the simulator libraries and the
perfbench program from source into .bench_build/perfbench (Release, LTO),
runs it, and passes its output through: the last stdout line is
one JSON object with `correct`, `attempted`, `failed` and the metrics
named in BENCHMARK.json -- the end-to-end ones with --trace 0, the
per-layer ones with --trace 1.  It exits non-zero, without a result line,
when the sources or the build are missing, and non-zero after the result
line when an output check failed.

Everything it writes stays inside the checkout: the build tree, compiler
temporaries, reactd checkpoints and span logs all live under .bench_build.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("table2_classic", "static_lanes", "reactd_mixed")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH_DIR = os.path.join(ROOT, ".bench_build", "scratch")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(env):
    """Configure once, then build incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under src/ next to perfbench/")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(tool + " not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                     "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                       "perfbench", "-j", jobs],
                      stdout=sys.stderr, env=env).returncode:
        fail("build failed")


def git_head():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-cell-frac", type=float, default=0.0,
                        help="self-test only: busy-wait this fraction of "
                             "each Table-2 cell inside the benchmark's "
                             "runner wrapper")
    args = parser.parse_args()

    # The simulator reads REACT_* knobs (lane engine, fast path,
    # checkpoint dir, thread count); the benchmark pins their defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REACT")}
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(SCRATCH_DIR, exist_ok=True)
    env["TMPDIR"] = tmp
    build(env)

    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", SCRATCH_DIR, "--git-head", git_head(),
           "--inject-cell-frac", repr(args.inject_cell_frac)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("perfbench printed no result line (exit %d)" % proc.returncode)
    expected = expected_metrics(args.trace)
    missing = expected - set(result["metrics"])
    extra = set(result["metrics"]) - expected
    if missing or extra:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(missing), sorted(extra)))
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
