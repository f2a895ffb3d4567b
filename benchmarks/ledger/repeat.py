"""Repeatability self-check: ``python3 -m benchmarks.ledger.repeat``.

Runs every workload several times on the same code — by default twice on
the same seed; ``--vary-seed`` gives each run its own seed, which is how
the driver judges the benchmark — and prints, per (workload, metric),
the values, their relative spread and the metric's bound. With two runs
the spread is their distance over their median; with four or more it is
the interquartile distance over the median
(``statistics.quantiles(values, n=4)``). Exits non-zero when a gated
metric's spread exceeds its bound, or when any run reports a failure.

Each run is a fresh interpreter, one after the other, so ``peak_rss_mb``
and ``setup_s`` are per-run facts and no run disturbs the next.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from benchmarks.ledger import spec
from benchmarks.ledger.traffic import DEFAULT_SEED

#: ``setup_s`` is reported but, as in the driver, its spread is not gated.
UNGATED = {"setup_s"}


def spread(values: list[float]) -> float:
    middle = statistics.median(values)
    if not middle:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / middle
    low, _mid, high = statistics.quantiles(values, n=4)
    return (high - low) / middle


def one_run(workload: str, seed: int, seconds: float) -> dict:
    completed = subprocess.run(
        [
            sys.executable, "-m", "benchmarks.ledger", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.ledger.repeat")
    parser.add_argument("--workload", action="append", choices=list(spec.WORKLOADS))
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--vary-seed", action="store_true")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    failures = 0
    for workload in args.workload or list(spec.WORKLOADS):
        results = [
            one_run(workload, args.seed + (index if args.vary_seed else 0), args.seconds)
            for index in range(args.runs)
        ]
        failed = sum(result["failed"] for result in results)
        print(f"{workload}: {args.runs} runs, failed operations {failed}")
        failures += bool(failed)
        for name, (unit, _better, bound) in spec.END_TO_END.items():
            values = [result["metrics"][name]["value"] for result in results]
            relative = spread(values)
            gated = name not in UNGATED
            verdict = "ok" if relative <= bound or not gated else "OVER"
            failures += verdict == "OVER"
            shown = " ".join(f"{value:.4g}" for value in values)
            print(
                f"  {name:<16} {unit:<10} spread {relative:6.2%}  bound {bound:4.0%}"
                f"  {verdict if gated else 'ungated':<7} [{shown}]"
            )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
