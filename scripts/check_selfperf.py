#!/usr/bin/env python3
"""Perf-regression gate over bench_selfperf records.

Compares a freshly produced BENCH_selfperf JSON record against the
committed reference. Two gates run:

- Work counters, exactly. ``kernel_counters`` holds each event-queue
  microbench's EventQueue work counters (entries shifted, late-heap
  pushes, re-anchors, sorts, compactions); ``engine_counters`` holds
  the dispatch microbench's Engine work counters (source pages
  folded, fragment pages walked, latch-FIFO scan steps, DRAM-LRU
  victim-walk steps). They are a function of the schedule alone,
  identical on every host, so every committed counter must be
  present in the fresh record with exactly the same value. A change
  that moves one on purpose regenerates the committed record.
- Wall clock, loosely. The gate fails when any events/sec or
  instructions/sec figure dropped below ``min_ratio`` of the
  reference. The margin is
  deliberately generous: the reference numbers come from whatever
  machine produced the committed record, while CI runners differ in
  CPU generation and load, so the gate only catches
  order-of-magnitude regressions (an accidentally quadratic hot path,
  a lost cache), not percent-level noise.

Byte-level correctness is covered separately by the digest diffs.

Every metric's per-metric ratio is printed, improvements included
(ratio >= 2 is flagged "improved"), and a geometric-mean summary
closes the report so a branch's overall trajectory is one number.
Metrics present only in the fresh record are reported as "new" —
adding a microbench must not fail the gate — while metrics missing
from the fresh record still fail it.

Usage:
  check_selfperf.py REFERENCE.json FRESH.json [--min-ratio 0.25]
"""

import argparse
import json
import math
import sys


def metrics(record):
    """Flatten a selfperf record into {metric_name: ops_per_sec}."""
    out = {}
    for name, value in record.get("microbench", {}).items():
        if name.endswith(("events_per_sec", "instructions_per_sec")):
            out[f"microbench.{name}"] = float(value)
    for scenario in record.get("scenarios", []):
        out[f"scenario.{scenario['name']}.events_per_sec"] = float(
            scenario["events_per_sec"]
        )
    return out


def counters(record):
    """Flatten a selfperf record into {micro.counter: count}."""
    out = {}
    for micro, fields in record.get("kernel_counters", {}).items():
        for name, value in fields.items():
            out[f"{micro}.{name}"] = int(value)
    for micro, fields in record.get("engine_counters", {}).items():
        for name, value in fields.items():
            out[f"engine.{micro}.{name}"] = int(value)
    return out


def counter_failures(ref, new):
    """Print every counter's comparison; return the mismatches."""
    failures = []
    for name, ref_val in sorted(ref.items()):
        if name not in new:
            failures.append(f"counter {name}: missing from the fresh "
                            f"record")
            status, shown = "MISSING", "-"
        elif new[name] != ref_val:
            failures.append(f"counter {name}: {new[name]} != committed "
                            f"{ref_val}")
            status, shown = "MISMATCH", str(new[name])
        else:
            status, shown = "exact", str(new[name])
        print(f"counter {name:40s} ref {ref_val:14d}  new {shown:>14s}"
              f"  {status}")
    for name in sorted(set(new) - set(ref)):
        print(f"counter {name:40s} ref {'-':>14s}  new {new[name]:14d}"
              f"  new counter")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("reference")
    parser.add_argument("fresh")
    parser.add_argument("--min-ratio", type=float, default=0.25)
    args = parser.parse_args()

    with open(args.reference) as f:
        ref_record = json.load(f)
    with open(args.fresh) as f:
        new_record = json.load(f)
    ref = metrics(ref_record)
    new = metrics(new_record)

    if not ref:
        print("error: reference record has no events/sec metrics")
        return 2

    # A dropped metric fails the gate no matter its reference value:
    # checking after the ref_val filter would let a metric whose
    # committed figure is 0/absent disappear silently.
    missing = sorted(set(ref) - set(new))
    failures = [
        f"{name}: present in {args.reference} but missing from "
        f"{args.fresh} — a scenario or microbench was dropped"
        for name in missing
    ]
    ratios = []
    for name, ref_val in sorted(ref.items()):
        if name in missing:
            continue
        if ref_val <= 0:
            continue
        ratio = new[name] / ref_val
        ratios.append(ratio)
        if ratio < args.min_ratio:
            status = "REGRESSION"
        elif ratio >= 2.0:
            status = "ok (improved)"
        else:
            status = "ok"
        print(
            f"{name:48s} ref {ref_val:14.0f}  new {new[name]:14.0f}"
            f"  ratio {ratio:6.2f}  {status}"
        )
        if ratio < args.min_ratio:
            failures.append(
                f"{name}: {new[name]:.0f} < {args.min_ratio:.2f} * "
                f"{ref_val:.0f}"
            )
    for name in sorted(set(new) - set(ref)):
        print(
            f"{name:48s} ref {'-':>14s}  new {new[name]:14.0f}"
            f"  ratio {'-':>6s}  new metric"
        )

    if ratios:
        gm = math.exp(sum(math.log(r) for r in ratios if r > 0)
                      / len(ratios))
        print(f"\ngeometric-mean ratio over {len(ratios)} shared "
              f"metrics: {gm:.2f}\n")

    failures += counter_failures(counters(ref_record),
                                 counters(new_record))

    if failures:
        print("\nperf regression gate FAILED:")
        for f_msg in failures:
            print(f"  - {f_msg}")
        return 1
    print(f"perf gate passed (counters exact, min ratio "
          f"{args.min_ratio:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
