#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of the same build, their runs
interleaved, compared metric by metric against the bounds in BENCHMARK.json.

    python3 perfbench/steady.py --workload cmo-offload --runs 10
    python3 perfbench/steady.py --workload all --runs 10 --sets 2

Run i of every set uses seed first_seed + i, and the sets take turns going
first. For each end-to-end metric it prints each set's median and quartiles,
the spread (interquartile range over median) as a share of the metric's
bound, the set's median against the first set's (shift), and the largest
change of one seed's value against the same seed in the first set
(same-seed), which is run-to-run noise without the differences between the
seeds' programs. Each run also records the host's steal ticks over its span,
read from /proc/stat: context for telling a noisy host from a slow program,
not a metric. Exits 1 when a spread or a median shift exceeds its bound, or
the share of failed operations differs between the sets.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def steal_ticks():
    """Host-wide steal ticks so far (the 8th value of /proc/stat's cpu line),
    or None where the file is not readable."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8])
    except (OSError, ValueError, IndexError):
        return None


def one_run(workload, seed, seconds):
    s0, t0 = steal_ticks(), time.perf_counter()
    r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", "0"],
                       cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL)
    wall = time.perf_counter() - t0
    s1 = steal_ticks()
    steal = None if s0 is None or s1 is None else s1 - s0
    lines = r.stdout.decode().strip().splitlines()
    if r.returncode != 0 or not lines:
        print(f"  {workload} seed {seed}: run failed (exit {r.returncode})")
        return None
    res = json.loads(lines[-1])
    res["wall"], res["steal"], res["seed"] = wall, steal, seed
    return res


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def compare(workload, sets, bounds):
    ok = True
    print(f"\n== {workload}: {len(sets)} set(s) of {len(sets[0])} runs")
    print(f"  {'set':>3} {'seed':>4} {'wall s':>6} {'steal':>6} "
          f"{'failed':>9} " + " ".join(f"{n[:12]:>12}" for n in bounds))
    for i, runs in enumerate(sets):
        for r in runs:
            print(f"  {i + 1:>3} {r['seed']:>4} {r['wall']:6.1f} "
                  f"{str(r['steal']):>6} {r['failed']:>4}/{r['attempted']:<4} "
                  + " ".join(f"{r['metrics'][n]['value']:12.5g}"
                             for n in bounds))
    share = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s)
             for s in sets]
    if any(s != share[0] for s in share) or any(r["failed"] for s in sets
                                                for r in s):
        print(f"  failed share differs or is not zero: {share}")
        ok = False
    if not all(r["correct"] for s in sets for r in s):
        print("  a run reported correct=false")
        ok = False
    print(f"  {'metric':<14} {'set':>3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'/bound':>7} {'shift':>8} "
          f"{'same-seed':>9}")
    for name, (bound, better) in bounds.items():
        first = [r["metrics"][name]["value"] for r in sets[0]]
        for i, runs in enumerate(sets):
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, q3 = quartiles(vals)
            spread = (q3 - q1) / med
            shift = ((med - statistics.median(first)) / statistics.median(first)
                     * (1 if better == "lower" else -1))
            same_seed = max(abs(v / f - 1) for v, f in zip(vals, first))
            flag = ""
            if spread > bound:
                flag += " SPREAD"
                ok = False
            if shift > bound:
                flag += " SHIFT"
                ok = False
            print(f"  {name:<14} {i + 1:>3} {med:12.5g} {q1:12.5g} "
                  f"{q3:12.5g} {spread:8.4f} {spread / bound:7.2f} "
                  f"{shift:+8.4f} {same_seed:9.4f}{flag}")
    return ok


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in bench["end_to_end"]}
    ok = True
    for workload in names if args.workload == "all" else [args.workload]:
        sets = [[] for _ in range(args.sets)]
        for i in range(args.runs):
            order = list(range(args.sets))
            if i % 2:
                order.reverse()
            for s in order:
                res = one_run(workload, args.first_seed + i, args.seconds)
                if res is None:
                    return 1
                sets[s].append(res)
        ok &= compare(workload, sets, bounds)
    print("\nsteady: " + ("every spread and shift within its bound" if ok
                          else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
