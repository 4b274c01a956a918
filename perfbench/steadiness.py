#!/usr/bin/env python3
"""Runs benchmark workloads repeatedly, one seed per run, and prints for each
end-to-end metric its median, quartiles and spread against the bound in
BENCHMARK.json.

    python3 perfbench/steadiness.py --workload serve-stream --runs 5
    python3 perfbench/steadiness.py --all --runs 10 --first-seed 101

The spread is (q3 - q1) / median, with the quartiles of Python's
statistics.quantiles(values, n=4). A metric is steady enough when its spread
stays below a third of its bound (setup_s excepted: its bound limits how far
its median may move). Use it to set the bounds; run it on a quiet machine.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d)"
                           % (workload, seed, done.returncode))
    return json.loads(lines[-1])


def report(spec, workload, results):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print("\n%s: %d runs" % (workload, len(results)))
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print("  correct: %s   failed share: %s" % (
        all(r["correct"] for r in results), shares))
    print("  %-16s %12s %12s %12s %8s %8s  %s" % (
        "metric", "q1", "median", "q3", "spread", "bound", "verdict"))
    for name, spec_m in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = spec_m["bound"]
        if name == "setup_s":
            verdict = "(median gate only)"
        elif spread < bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound, above a third"
        else:
            verdict = "TOO WIDE"
        print("  %-16s %12.6g %12.6g %12.6g %8.4f %8.3f  %s" % (
            name, q1, med, q3, spread, bound, verdict))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", default=[])
    p.add_argument("--all", action="store_true", help="every workload")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]] if args.all \
        else args.workload
    if not workloads:
        p.error("name a --workload or pass --all")
    for workload in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            results.append(run_once(spec, workload, seed))
            print("  %s seed %d done" % (workload, seed), file=sys.stderr)
        report(spec, workload, results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
