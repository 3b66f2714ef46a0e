"""Run the benchmark on sets of seeds and report each end-to-end metric's spread.

Usage (from the repository root):

    python3 benchmarks/steadiness.py --sets 0-9 10-19 [--seconds N] [--workload NAME ...]

For every workload it runs ``benchmarks/run.py`` once per seed, one run
at a time, interleaving the sets run by run (first seed of set A, first
seed of set B, second seed of set A, ...), so that a drift of the host's
speed over minutes falls on every set alike.  Per set and metric it
prints the median and the quartile distance as a share of the median
(Python's ``statistics.quantiles(values, n=4)``), and for every set
after the first how much worse its median is than the first set's,
next to the metric's bound from ``BENCHMARK.json``.  It also prints
whether every run was correct and the share of failed operations of
every run, and on standard error each run's metrics as it ends.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", nargs="+", default=["0-9", "10-19"],
                        help="seed sets, e.g. 0-9 10-19")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append",
                        default=None, help="default: every workload")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seed_sets = [parse_seeds(s) for s in args.sets]
    metrics = spec["end_to_end"]

    for workload in workloads:
        runs: list[list[dict]] = [[] for _ in seed_sets]
        for i in range(max(len(s) for s in seed_sets)):
            for seeds, done_runs in zip(seed_sets, runs):
                if i >= len(seeds):
                    continue
                cmd = [*spec["command"], "--workload", workload, "--seed", str(seeds[i]),
                       "--seconds", str(args.seconds), "--trace", "0"]
                done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      check=True)
                done_runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
                values = " ".join(f"{m['name']}={done_runs[-1]['metrics'][m['name']]['value']:.5g}"
                                  for m in metrics)
                print(f"  run {workload} seed {seeds[i]}: {values}", file=sys.stderr, flush=True)
        every = [r for set_runs in runs for r in set_runs]
        shares = sorted({str(Fraction(r["failed"], r["attempted"])) for r in every})
        print(f"{workload}: {len(every)} runs, all correct: "
              f"{all(r['correct'] for r in every)}, failed/attempted: {shares}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            line = f"  {name:12s} bound {bound}"
            for label, set_runs in zip(args.sets, runs):
                values = [r["metrics"][name]["value"] for r in set_runs]
                medians.append(statistics.median(values))
                line += f" | {label}: median {medians[-1]:.6g} spread {spread(values):.4f}"
                if len(medians) > 1:
                    worse = (medians[-1] - medians[0]) / medians[0]
                    if m["better"] == "higher":
                        worse = -worse
                    line += f" worse {worse:+.4f}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
