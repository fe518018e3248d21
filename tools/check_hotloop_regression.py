#!/usr/bin/env python3
"""Hot-loop perf-regression gate for CI.

Compares a freshly measured BENCH_hotloop.json against the checked-in
baseline and fails (exit 1) when any steps/sec metric regressed by more
than the tolerance (default 10%).  Improvements never fail; a separate
message suggests refreshing the baseline when a metric improved by more
than the tolerance, so the gate ratchets forward instead of letting the
baseline go stale.

The cache hit rates are checked too: a silent cache regression (a key
that never matches) shows up as a collapsed hit rate long before the
wall-clock noise floor would flag it.

Usage:
  check_hotloop_regression.py <baseline.json> <current.json>
      [--tolerance 0.10] [--min-leak-hit-rate 0.99]
"""

import argparse
import json
import sys


def metrics(doc):
    """Flatten the steps/sec metrics out of a BENCH_hotloop document."""
    out = {}
    for row in doc.get("micro", []):
        out["micro." + row["name"]] = row["steps_per_sec"]
    for row in doc.get("batch", {}).get("kernels", []):
        out["batch." + row["name"]] = row["lane_steps_per_sec"]
    section = doc.get("table2_de")
    # A --quick run leaves the table section empty (0 cells); skip it
    # rather than dividing by zero.
    if section and section.get("cells", 0) > 0:
        out["table2_de"] = section["steps_per_sec"]
    return out


def check_batch_speedup(cur, cur_m, minimum, failures):
    """Gate the batch lane engine's speedup over single-cell stepping.

    The acceptance bar is on the AVX2 kernel (lane_steps_per_sec vs the
    static_10mF micro row, both from the *current* run so machine speed
    cancels out).  On hosts that cannot run AVX2 the gate is skipped
    with an explicit note -- never silently passed.
    """
    batch = cur.get("batch")
    if not batch:
        failures.append("batch: section missing from current run")
        return
    if not batch.get("avx2_available", False):
        print(f"{'batch.avx2 speedup gate':28s} skipped (host lacks AVX2)")
        return
    single = cur_m.get("micro.static_10mF", 0.0)
    avx2 = cur_m.get("batch.avx2")
    if avx2 is None or single <= 0.0:
        failures.append("batch.avx2: AVX2 available but no avx2 row "
                        "(or static_10mF micro row) in current run")
        return
    speedup = avx2 / single
    tag = "ok" if speedup >= minimum else "BELOW GATE"
    print(f"{'batch.avx2 speedup':28s} {speedup:12.2f}x vs "
          f"micro.static_10mF (gate {minimum:.1f}x)  {tag}")
    if speedup < minimum:
        failures.append(
            f"batch.avx2: {speedup:.2f}x over single-cell stepping, "
            f"below the {minimum:.1f}x acceptance gate")


def check_lane_engine(base, cur, target, tolerance, failures):
    """Gate the end-to-end lane-engine speedup (Table-2 DE static column,
    classic per-cell vs one lane-major batch pass).

    The acceptance target is ``target`` (2.5x).  Wall-clock ratios are
    host-dependent -- lane utilization caps the achievable speedup when a
    few long traces pin the batch makespan -- so the gate ratchets: a run
    passes at the absolute target, or by staying within ``tolerance`` of
    the checked-in baseline's achieved speedup.  Either way a divergent
    (non-bit-identical) run always fails, and hosts without a vector
    kernel skip with an explicit note, never a silent pass.
    """
    sec = cur.get("lane_engine")
    if not sec or sec.get("cells", 0) == 0:
        print(f"{'lane_engine speedup gate':28s} skipped (--quick run)")
        return
    if not cur.get("batch", {}).get("avx2_available", False):
        print(f"{'lane_engine speedup gate':28s} skipped (host lacks AVX2)")
        return
    if not sec.get("bit_identical", False):
        failures.append(
            f"lane_engine: batch run diverged from classic stepping on "
            f"{sec.get('divergent_cells', '?')} cell(s)")
        return
    speedup = sec.get("speedup", 0.0)
    base_sec = base.get("lane_engine") or {}
    base_speedup = base_sec.get("speedup", 0.0)
    floor = base_speedup * (1.0 - tolerance)
    if speedup >= target:
        tag = "ok"
    elif base_speedup > 0.0 and speedup >= floor:
        tag = (f"below {target:.1f}x target, within {tolerance * 100:.0f}% "
               f"of baseline {base_speedup:.2f}x")
    else:
        tag = "BELOW GATE"
        failures.append(
            f"lane_engine: {speedup:.2f}x vs classic, below the "
            f"{target:.1f}x target and the baseline ratchet "
            f"({base_speedup:.2f}x - {tolerance * 100:.0f}%)")
    print(f"{'lane_engine speedup':28s} {speedup:12.2f}x vs classic "
          f"on {sec.get('kernel', '?')} (target {target:.1f}x)  {tag}")

    # Per-phase Amdahl split: report every fraction, and fail when the
    # frontend's share of the loop grows by more than `tolerance`
    # absolute over the baseline -- per-step trace/converter work
    # creeping back into the hot loop is exactly the regression the
    # lane-major frontend exists to prevent.
    phases = sec.get("phases") or {}
    base_phases = base_sec.get("phases") or {}
    for name in ("frontend", "physics", "workload", "bookkeeping"):
        frac = phases.get(name + "_frac")
        if frac is None:
            failures.append(f"lane_engine.phases.{name}_frac: missing "
                            f"from current run")
            continue
        base_frac = base_phases.get(name + "_frac")
        tag = "ok"
        if name == "frontend" and base_frac is not None \
                and frac > base_frac + tolerance:
            tag = "REGRESSION"
            failures.append(
                f"lane_engine.phases.frontend_frac: {frac:.3f} vs "
                f"baseline {base_frac:.3f} (+{(frac - base_frac) * 100:.1f} "
                f"points of the loop moved into the frontend)")
        base_str = f"{base_frac:12.3f}" if base_frac is not None \
            else "           -"
        print(f"{'lane_engine.' + name + '_frac':28s} {frac:12.3f} vs "
              f"{base_str}  {tag}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="max allowed fractional regression (default 0.10)")
    ap.add_argument("--min-leak-hit-rate", type=float, default=0.99,
                    help="fail when the leak cache hit rate drops below "
                         "this (default 0.99)")
    ap.add_argument("--min-batch-speedup", type=float, default=2.0,
                    help="min AVX2 batch lane-steps/sec over the "
                         "static_10mF micro row (default 2.0)")
    ap.add_argument("--lane-engine-target", type=float, default=2.5,
                    help="end-to-end lane-engine speedup target; runs "
                         "below it pass only within --tolerance of the "
                         "baseline's achieved speedup (default 2.5)")
    args = ap.parse_args()

    with open(args.baseline) as f:
        base = json.load(f)
    with open(args.current) as f:
        cur = json.load(f)

    base_m = metrics(base)
    cur_m = metrics(cur)

    failures = []
    for name, base_v in sorted(base_m.items()):
        cur_v = cur_m.get(name)
        if cur_v is None:
            # A baseline recorded on a vector-capable host must not fail
            # the gate on one without: the avx2/avx512 batch rows are the
            # only metrics that are legitimately host-dependent.
            if (name == "batch.avx2"
                    and not cur.get("batch", {}).get("avx2_available",
                                                     False)):
                print(f"{name:28s} skipped (host lacks AVX2)")
                continue
            if (name == "batch.avx512"
                    and not cur.get("batch", {}).get("avx512_available",
                                                     False)):
                print(f"{name:28s} skipped (host lacks AVX-512F)")
                continue
            failures.append(f"{name}: missing from current run")
            continue
        ratio = cur_v / base_v if base_v > 0 else float("inf")
        tag = "ok"
        if ratio < 1.0 - args.tolerance:
            tag = "REGRESSION"
            failures.append(
                f"{name}: {cur_v:.3g} steps/s vs baseline "
                f"{base_v:.3g} ({(1.0 - ratio) * 100.0:.1f}% slower)")
        elif ratio > 1.0 + args.tolerance:
            tag = "improved (consider refreshing the baseline)"
        print(f"{name:28s} {cur_v:12.4g} vs {base_v:12.4g}  "
              f"x{ratio:.3f}  {tag}")

    check_batch_speedup(cur, cur_m, args.min_batch_speedup, failures)
    check_lane_engine(base, cur, args.lane_engine_target, args.tolerance,
                      failures)

    cache = cur.get("cache", {})
    leak_rate = cache.get("leak_hit_rate", 0.0)
    total = cache.get("leak_hits", 0) + cache.get("leak_misses", 0)
    if total > 0 and leak_rate < args.min_leak_hit_rate:
        failures.append(
            f"leak cache hit rate collapsed: {leak_rate:.4f} < "
            f"{args.min_leak_hit_rate} (cache key churn?)")
    print(f"{'cache.leak_hit_rate':28s} {leak_rate:12.4f}")

    if failures:
        print("\nFAIL: hot-loop performance regressed:", file=sys.stderr)
        for f_ in failures:
            print(f"  - {f_}", file=sys.stderr)
        return 1
    print("\nOK: no hot-loop regression beyond "
          f"{args.tolerance * 100.0:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
