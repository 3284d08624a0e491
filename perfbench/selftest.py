#!/usr/bin/env python3
"""Self-test of the benchmark: a smoke pass of every workload.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py [--seed N]

For each workload it runs perfbench/run.py twice at the reduced smoke
size (--smoke --seconds 0), untraced and traced, and checks that

  * every metric named in BENCHMARK.json is printed with a value and
    its unit, and lands in the JSON record of the matching mode;
  * every metric the report prints carries a unit (N/A allowed only
    for metrics that do not apply to the workload);
  * every correctness check passes and no job failed;
  * the simulated digest of the traced run equals the untraced one.

Exits 0 when all checks pass, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet-open", "aged-rw", "paper-batch")


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT)
    return proc.returncode, proc.stdout.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)
            print("FAIL " + what, flush=True)

    for workload in WORKLOADS:
        before = len(failures)
        digests = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            tag = "%s trace=%d" % (workload, trace)
            rc, lines = run(workload, args.seed, trace)
            expect(rc == 0, "%s: run.py exited %d" % (tag, rc))
            if rc != 0:
                continue
            metrics = {}
            for line in lines:
                f = line.split("\t")
                if f[0] == "metric":
                    expect(len(f) == 4 and f[3] != "",
                           "%s: metric line without a unit: %r" %
                           (tag, line))
                    metrics[f[1]] = (f[2], f[3])
                elif f[0] == "check":
                    expect(f[2] == "ok", "%s: check %s" % (tag, f[1]))
                elif f[0] == "digest":
                    digests[trace] = f[1]
            record = json.loads(lines[-1])
            expect(record["correct"] and record["failed"] == 0,
                   "%s: record not correct" % tag)
            for m in spec["end_to_end"] + spec["per_layer"]:
                if m in spec["per_layer"] and trace == 0:
                    continue
                value, unit = metrics.get(m["name"], ("missing", ""))
                expect(value not in ("missing", "N/A") and
                       unit == m["unit"],
                       "%s: %s printed as %s %s, want a value in %s" %
                       (tag, m["name"], value, unit, m["unit"]))
            for m in spec[key]:
                got = record["metrics"].get(m["name"])
                expect(got is not None and got["unit"] == m["unit"],
                       "%s: %s missing from the JSON record" %
                       (tag, m["name"]))
        expect(len(digests) == 2 and digests.get(0) == digests.get(1),
               "%s: traced digest %s != untraced %s" %
               (workload, digests.get(1), digests.get(0)))
        if len(failures) == before:
            print("ok   %s (digest %s)" % (workload, digests.get(0)),
                  flush=True)

    if failures:
        print("%d check(s) failed" % len(failures))
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
