#!/usr/bin/env python3
"""Build and run the conduit benchmark driver; print its JSON record.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fleet-open --seed 1 \
        --seconds 20 --trace 0

Builds perfbench/ (which compiles the simulator from src/) into the
directory named by $CARGO_TARGET_DIR, or .bench_build, then runs
the driver. Its human-readable report (every metric of every layer,
N/A where a metric does not apply, plus the correctness checks) is
echoed to stdout; the last line is one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics BENCHMARK.json names (--trace 0) or its
per-layer metrics (--trace 1). Extra flags (--smoke) pass
through to the driver. Exits non-zero
without a record when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configure once, then (re)build; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "conduit_perfbench")


def parse_report(text):
    """Metric table and result line of the driver's report."""
    metrics, result = {}, None
    for line in text.splitlines():
        f = line.split("\t")
        if f[0] == "metric" and len(f) == 4:
            metrics[f[1]] = (f[2], f[3])
        elif f[0] == "result" and len(f) == 7:
            result = {"correct": f[2] == "1", "attempted": int(f[4]),
                      "failed": int(f[6])}
    return metrics, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = ap.parse_known_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out = build_dir()
    os.makedirs(out, exist_ok=True)
    exe = build(out)
    if exe is None:
        return 1

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            out, "trace-%s-seed%d.json" % (args.workload, args.seed))]
    cmd += extra
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        log("perfbench: driver exited with %d" % proc.returncode)
        return proc.returncode

    metrics, result = parse_report(proc.stdout)
    if result is None:
        log("perfbench: driver printed no result line")
        return 1
    record = dict(result)
    record["metrics"] = {}
    for m in wanted:
        value, unit = metrics.get(m["name"], ("missing", None))
        if value in ("missing", "N/A") or unit != m["unit"]:
            log("perfbench: metric %s: got %s %s, want a value in %s" %
                (m["name"], value, unit, m["unit"]))
            return 1
        record["metrics"][m["name"]] = {"value": float(value),
                                        "unit": unit}
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
