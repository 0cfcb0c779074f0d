#!/usr/bin/env python3
"""Run benchmark workloads over several seeds and print how steady
every metric is.

    python3 perfbench/steady.py [--workload W]... [--seeds 1-10]
        [--trace 0|1] [--save FILE] [--against FILE]

For each workload and metric it prints the median, the quartiles (as
Python's statistics.quantiles(n=4) gives them), the sample count, the
relative spread (quartile distance / median) and the metric's bound
from BENCHMARK.json. Every run's outputs are checked by the benchmark
itself; failed operations are summed into an error rate per workload.
With --trace 1 it also checks that every count (each metric whose
unit is not a time) is identical across runs with the same seed.
--save keeps the raw values; --against FILE compares medians with a
saved set and labels each metric better, worse, unchanged or
unresolved (spread wider than the bound).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TIME_UNITS = {"s", "ms", "ns"}
# Coalescing seen from outside depends on the two requests of a pair
# overlapping in time, so this share may differ between runs.
TIMING_DEPENDENT = {"server.coalesced_share"}
ROOT = os.path.dirname(HERE)


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values):
    """Quartile distance over median, the benchmark's steadiness measure."""
    if len(values) < 2:
        return float("nan"), values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return ((q3 - q1) / med if med else float("inf")), q1, q3


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.exit(f"steady: {workload} seed {seed} exited {r.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[kind]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    results = {}
    for w in workloads:
        runs = []
        for s in seeds(args.seeds):
            res = run_one(w, s, bench["run_seconds"], args.trace)
            runs.append((s, res))
            print(f"{w} seed {s}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", flush=True)
        results[w] = runs
    baseline = {}
    if args.against:
        with open(args.against) as f:
            baseline = json.load(f)
    saved = {}
    print(f"\n{'workload':<8} {'metric':<34} {'n':>3} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'spread':>7} {'bound':>6}  verdict")
    for w, runs in results.items():
        attempted = sum(r["attempted"] for _, r in runs)
        failed = sum(r["failed"] for _, r in runs)
        print(f"{w:<8} {'error_rate':<34} {len(runs):>3} {failed / attempted:>14.6g}"
              f"  ({failed} failed of {attempted} operations)")
        for name in bounds:
            vals = [r["metrics"][name]["value"] for _, r in runs]
            saved.setdefault(w, {})[name] = vals
            sp, q1, q3 = spread(vals)
            med = statistics.median(vals)
            bound = bounds[name]
            verdict = ""
            if bound is not None and len(vals) > 1:
                verdict = "steady" if sp < bound / 3 else "within bound" if sp <= bound else "TOO NOISY"
            unit = next(m["unit"] for m in bench[kind] if m["name"] == name)
            if args.trace and unit not in TIME_UNITS and name not in TIMING_DEPENDENT:
                by_seed = {}
                for s, r in runs:
                    by_seed.setdefault(s, set()).add(r["metrics"][name]["value"])
                repeats = all(len(v) == 1 for v in by_seed.values())
                verdict = "count repeats" if repeats else "COUNT DIFFERS"
            base = baseline.get(w, {}).get(name)
            if base and bound is not None:
                bmed = statistics.median(base)
                change = (med - bmed) / bmed
                lower = next(m["better"] == "lower" for m in bench[kind] if m["name"] == name)
                worse = change > 0 if lower else change < 0
                if max(sp, spread(base)[0]) > bound:
                    verdict = f"unresolved ({change:+.1%})"
                elif abs(change) <= bound:
                    verdict = f"unchanged ({change:+.1%})"
                else:
                    verdict = f"{'worse' if worse else 'better'} ({change:+.1%})"
            bound_s = f"{bound:>6}" if bound is not None else f"{'-':>6}"
            print(f"{w:<8} {name:<34} {len(vals):>3} {med:>14.6g} {q1:>14.6g} "
                  f"{q3:>14.6g} {sp:>7.3f} {bound_s}  {verdict}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)


if __name__ == "__main__":
    main()
