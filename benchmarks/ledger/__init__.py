"""The performance ledger: seeded workloads through the real OBI + controller stack.

Run ``python3 -m benchmarks.ledger --workload <name> --seed <n>`` from the
repository root; see ``README.md`` in this directory for the metric and
workload definitions. ``BENCHMARK.json`` at the repository root is the
machine-readable contract and mirrors :mod:`benchmarks.ledger.spec`.

The package imports ``repro`` from the repository's ``src/`` tree, so the
command works without ``PYTHONPATH``.
"""

import pathlib
import sys

_SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
