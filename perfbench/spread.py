"""Repeat the benchmark over several seeds and report each metric's spread.

Usage:
    python3 perfbench/spread.py --runs 10 [--workload NAME ...] [--trace 0|1]
                                [--seconds S] [--first-seed N] [--out FILE]

For every workload it runs ``run.py`` once per seed, one run at a time, and
prints each metric's median, quartiles and spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median, next to the metric's bound from BENCHMARK.json.  With
``--out`` it also writes every run's record and metrics, which is how the
baselines in this directory were made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run


def _spread(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", default=listed, choices=list(run.WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"runs": {}, "spread": {}}
    for name in args.workload:
        rows = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, check=True,
            )
            lines = proc.stdout.splitlines()
            record = json.loads(lines[0])["run"]
            result = json.loads(lines[-1])
            record["result"] = result
            rows.append(record)
            shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{name} seed {seed}: failed {result['failed']}/{result['attempted']} "
                  f"load {record['loadavg_start'][0]:.2f} {shown if not args.trace else ''}",
                  flush=True)
        report["runs"][name] = rows
        stats = {}
        for metric in rows[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][metric]["value"] for r in rows]
            stats[metric] = _spread(values)
            bound = bounds.get(metric)
            if bound is not None:
                stats[metric]["bound"] = bound
                flag = "ok" if stats[metric]["spread"] < bound / 3 else "WIDE"
                print(f"  {metric:<20} median {stats[metric]['median']:.5g}  "
                      f"spread {stats[metric]['spread']:.4f}  bound {bound}  {flag}")
        report["spread"][name] = stats
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
