"""``python3 -m benchmarks.ledger --workload <name> --seed <n>``.

Prints every metric by name with its unit, then — as the last line of
standard output — one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import sys

from benchmarks.ledger import spec
from benchmarks.ledger.runner import report, run
from benchmarks.ledger.stack import RESULTS_DIR
from benchmarks.ledger.traffic import DEFAULT_SEED


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.ledger")
    parser.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    document = run(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / (
        f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    path.write_text(json.dumps(document, indent=1) + "\n")
    print(report(document))
    print(json.dumps({
        key: document[key] for key in ("correct", "attempted", "failed", "metrics")
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
