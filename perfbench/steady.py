#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of the same build agree?

Runs the benchmark command from BENCHMARK.json, at its run_seconds, on
every workload as two sets, A and B, alternating A, B, A, B, ... with a
fresh seed for every run. For each end-to-end metric of each workload it
prints the median and quartiles of each set, the spread (interquartile
distance over median) of each set, and whether the sets agree within the
metric's bound: both spreads within the bound and the two medians apart by
no more than the bound, in either direction. Then it runs each workload
twice more on one seed and checks that the exact counts (allocs_per_req,
candidates_per_req, truth_cost_ratio) repeat bit for bit.

    python3 perfbench/steady.py [--runs 10]

Run from the repository root. Exits 1 if any metric disagrees, any exact
count differs, or any run fails or reports incorrect output.
"""

import argparse
import json
import statistics
import subprocess
import sys

FIRST_SEED = 1000
EXACT = ("allocs_per_req", "candidates_per_req", "truth_cost_ratio")


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]

    ok = True
    seed = FIRST_SEED
    for workload in workloads:
        sets = {"A": {}, "B": {}}
        shares = {"A": set(), "B": set()}
        for _ in range(opts.runs):
            for name in ("A", "B"):
                result = run_once(bench["command"], workload, seed, seconds)
                seed += 1
                if not result["correct"]:
                    print(f"{workload}: seed {seed - 1} reported incorrect output")
                    ok = False
                shares[name].add(result["failed"] / result["attempted"])
                for key, value in result["metrics"].items():
                    sets[name].setdefault(key, []).append(value["value"])
        print(f"\n{workload}: failed share A {sorted(shares['A'])} B {sorted(shares['B'])}")
        if len(shares["A"] | shares["B"]) != 1:
            ok = False
        print(f"{'metric':<20} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for name, spec in metrics.items():
            bound = spec["bound"]
            a = summary(sets["A"][name])
            b = summary(sets["B"][name])
            apart = abs(b[0] - a[0]) / a[0]
            agree = a[3] <= bound and b[3] <= bound and apart <= bound
            ok &= agree
            for label, s in (("A", a), ("B", b)):
                print(f"{name:<20} {label:>3} {s[0]:>12.6g} {s[1]:>12.6g} {s[2]:>12.6g} "
                      f"{s[3]:>8.4f} {bound:>6}")
            print(f"{'':<20} medians apart by {apart:.4f}: "
                  f"{'agree' if agree else 'DISAGREE'}")

        twice = [run_once(bench["command"], workload, FIRST_SEED, seconds)["metrics"]
                 for _ in range(2)]
        for name in EXACT:
            first, second = (m[name]["value"] for m in twice)
            same = first == second
            ok &= same
            print(f"{workload}: {name} on seed {FIRST_SEED}, two runs: "
                  f"{first!r} {second!r}: {'identical' if same else 'DIFFER'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
