#!/usr/bin/env python3
"""Steadiness check for the benchmark defined in BENCHMARK.json.

Runs each workload on seeds 1..N, then runs the same seeds again, so there
are two sets of N runs of the same code on the same inputs. For every
end-to-end metric it prints the spread of each set (the distance between
the first and third quartile as a share of the median), the change of the
median from the first set to the second, and the metric's bound.

A workload is steady when
  - every spread and every change, either way, is within the metric's bound;
  - the simulated metrics and the share of failed operations of each seed
    are exactly the same in both sets.

    python3 e2ebench/steadiness.py                       # 10 seeds, all workloads
    python3 e2ebench/steadiness.py --runs 5 --workloads serving

Run it from the root of the repository. Exits 1 when a workload is not steady.
"""

import argparse
import json
import statistics
import subprocess
import sys

FIRST_SEED = 1
# Deterministic for a seed: must repeat exactly between the two sets.
SIMULATED = ("hp_slowdown_p50", "hp_slowdown_p99", "be_tput")


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs not correct\n{out.stderr}")
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def repeats(a, b):
    """The names of what differs between two runs of the same seed. How many
    rounds fit in a run depends on the host, so `attempted` may differ; the
    share of failed operations may not."""
    diff = ["failed share"] if a["failed"] / a["attempted"] != b["failed"] / b["attempted"] else []
    return diff + [m for m in SIMULATED
                   if a["metrics"][m]["value"] != b["metrics"][m]["value"]]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", nargs="*")
    args = p.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seeds = range(FIRST_SEED, FIRST_SEED + args.runs)
    steady = True
    for w in workloads:
        sets = [[run_once(bench["command"], w, s, bench["run_seconds"]) for s in seeds]
                for _ in range(2)]
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        print(f"\n{w}: seeds {seeds.start}-{seeds.stop - 1}, failed share per set {shares}")
        for seed, a, b in zip(seeds, *sets):
            diff = repeats(a, b)
            if diff:
                steady = False
                print(f"  seed {seed}: {', '.join(diff)} differ between the sets  NOT STEADY")
        print(f"  {'metric':<18}{'median':>14}{'spreads':>22}{'change':>9}{'bound':>8}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals = [[r["metrics"][name]["value"] for r in s] for s in sets]
            meds = [statistics.median(v) for v in vals]
            spreads = [spread(v) for v in vals]
            sign = 1 if m["better"] == "lower" else -1
            change = sign * (meds[1] - meds[0]) / meds[0]
            ok = abs(change) <= bound and max(spreads) <= bound
            steady &= ok
            flag = "" if ok else "  NOT STEADY"
            if ok and max(spreads) > bound / 3:
                flag = "  (spread above a third of the bound)"
            sp = " ".join(f"{s:.4f}" for s in spreads)
            print(f"  {name:<18}{meds[0]:>14.6g}{sp:>22}{change:>+9.4f}{bound:>8}{flag}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
