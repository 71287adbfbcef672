"""Steadiness of the end-to-end metrics: run a workload repeatedly.

    python3 auditbench/steady.py --workload paper-audit --runs 10 --seconds 34

Runs ``run.py`` untraced once per seed 1, 2, ..., ``--runs``, one process
at a time, and prints for every end-to-end metric the median, the first
and third quartiles (``statistics.quantiles(n=4)``) and the spread: the
interquartile distance as a share of the median.  The bounds in
``BENCHMARK.json`` are set so that the medians of two such sets of runs of
the same commit agree within them.  The spread counts the differences
between the seeds' worlds as well as run-to-run noise; a metric whose
spread reaches its bound cannot tell a change of that size from noise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(results: list[dict]) -> dict[str, dict[str, float]]:
    """Median, quartiles and spread of every metric over the runs."""
    summary: dict[str, dict[str, float]] = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"),
        }
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=34.0)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    results = []
    for seed in range(1, args.runs + 1):
        started = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"seed {seed}: run.py exited {completed.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        result["wall_s"] = time.perf_counter() - started
        results.append(result)
        print(f"seed {seed} ({result['wall_s']:.1f} s): " + ", ".join(
            f"{name} {m['value']:.4g}" for name, m in result["metrics"].items()
        ), file=sys.stderr, flush=True)

    summary = summarize(results)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload}: {args.runs} runs, seeds 1.."
          f"{args.runs}, --seconds {args.seconds:g}, "
          f"{max(r['wall_s'] for r in results):.1f} s longest; "
          f"failed share {sorted(shares)}; all correct: "
          f"{all(r['correct'] for r in results)}")
    print(f"{'metric':<34}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}")
    for name, s in summary.items():
        print(f"{name:<34}{s['median']:>12.4f}{s['q1']:>12.4f}{s['q3']:>12.4f}"
              f"{100 * s['spread']:>8.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
