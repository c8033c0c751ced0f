"""Run two sets of benchmark runs of the same code and report whether they agree.

Usage (from the repo root):

    python3 bench/compare.py [--workloads W ...] [--runs 10]

Each run is `bench/run.py --workload W --seed S --seconds <run_seconds>
--trace 0` with its own seed, counting up from 1; runs of the two sets alternate
so that drift in machine load reaches both.  For every end-to-end metric of
BENCHMARK.json the report gives, per set, the median and the spread (the
distance between the first and third quartile as a share of the median,
from statistics.quantiles(values, n=4)).  The sets agree when

- every spread, except that of setup_s, is within the metric's bound
  (setup_s is about 1 s of interpreter start-up, whose spread over runs
  is large; its bound guards the median against work moved into set-up),
- the two sets' medians differ by at most the bound, in either direction,
  for every metric,
- every run is correct and the share of failed operations is the same.

Raw results go to bench/out/compare.json.  The exit code is 0 when
everything agrees.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py failed on {workload} seed {seed}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(bench, results):
    ok = True
    lines = []
    for workload, per_set in results.items():
        shares = {Fraction(r["failed"], r["attempted"]) for runs in per_set for r in runs}
        correct = all(r["correct"] for runs in per_set for r in runs)
        if len(shares) != 1 or not correct:
            ok = False
        lines.append(f"{workload}: correct={correct} failed shares={sorted(map(str, shares))}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals = [[r["metrics"][name]["value"] for r in runs] for runs in per_set]
            meds = [statistics.median(v) for v in vals]
            spreads = [spread(v) for v in vals]
            drift = (meds[1] - meds[0]) / meds[0]
            row_ok = (name == "setup_s" or all(s <= bound for s in spreads)) \
                and abs(drift) <= bound
            ok = ok and row_ok
            lines.append(f"  {name:16s} median " + " | ".join(f"{x:.5g}" for x in meds)
                         + "  spread " + " | ".join(f"{s:.4f}" for s in spreads)
                         + f"  set 2 differs by {drift:+.4f}"
                         + f"  (bound {bound}, third {bound / 3:.4f})"
                         + ("" if row_ok else "  <-- FAILS"))
    return ok, lines


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("quartiles need at least 4 runs")

    results = {}
    seed = 1
    for workload in args.workloads:
        per_set = [[], []]
        for i in range(args.runs):
            for s in range(2):
                r = run_once(workload, seed, bench["run_seconds"])
                r["seed"] = seed
                seed += 1
                per_set[s].append(r)
                print(f"{workload} set {s + 1} run {i + 1}: "
                      + ", ".join(f"{k}={v['value']:.5g}" for k, v in r["metrics"].items()),
                      flush=True)
        results[workload] = per_set
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "compare.json"), "w") as fh:
        json.dump(results, fh, indent=1)
    ok, lines = compare(bench, results)
    print("\n".join(lines))
    print("AGREE" if ok else "DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
