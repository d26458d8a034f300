#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

For each workload this runs the benchmark (through perfbench/run.py, which
builds it first) at --size tiny and checks that:
  * the untraced run prints every end_to_end metric of BENCHMARK.json, and
    the traced run every per_layer metric, each with its declared unit;
  * both runs report correct outputs and no failed experiment;
  * two runs with the same seed print the same stretch_mean, event count
    and fingerprint, and a run with another seed another fingerprint.
Exits non-zero on the first failed check.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--size", "tiny"]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                         timeout=900)
    if out.returncode != 0:
        sys.exit(f"FAIL {workload}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def identity(lines):
    """(fingerprint, events per pass, stretch_mean) from the untraced report
    lines; stretch_mean is printed there but is not a gated metric."""
    fingerprint = events = stretch = None
    for line in lines:
        m = re.match(r"fingerprint (0x[0-9a-f]+), events per pass (\d+)", line)
        if m:
            fingerprint, events = m.group(1), int(m.group(2))
        m = re.match(r"\s+stretch_mean\s+(\S+) ratio", line)
        if m:
            stretch = m.group(1)
    if fingerprint is None or stretch is None:
        sys.exit("FAIL: no fingerprint or stretch_mean line")
    return fingerprint, events, stretch


def expect(cond, message):
    if not cond:
        sys.exit("FAIL " + message)


def check_metrics(workload, result, declared):
    metrics = result["metrics"]
    expect(set(metrics) == {m["name"] for m in declared},
           f"{workload}: metric names {sorted(metrics)}")
    for m in declared:
        expect(metrics[m["name"]]["unit"] == m["unit"],
               f"{workload}: {m['name']} unit {metrics[m['name']]['unit']}")
        expect(isinstance(metrics[m["name"]]["value"], (int, float)),
               f"{workload}: {m['name']} value")
    expect(result["correct"] is True, f"{workload}: outputs not correct")
    expect(result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload}: attempted {result['attempted']} "
           f"failed {result['failed']}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in [w["name"] for w in bench["workloads"]]:
        lines_a, a = run(workload, 7, 0)
        check_metrics(workload, a, bench["end_to_end"])
        lines_b, _ = run(workload, 7, 0)
        lines_c, _ = run(workload, 8, 0)
        expect(identity(lines_a) == identity(lines_b),
               f"{workload}: fingerprint, events or stretch_mean differ "
               "across same-seed runs")
        expect(identity(lines_a)[0] != identity(lines_c)[0],
               f"{workload}: another seed gives the same fingerprint")
        _, traced = run(workload, 7, 1)
        check_metrics(workload, traced, bench["per_layer"])
        print(f"ok {workload}: fingerprint {identity(lines_a)[0]}, "
              f"events {identity(lines_a)[1]}")
    print("selftest passed")


if __name__ == "__main__":
    main()
