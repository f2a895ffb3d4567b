"""Layering: a substrate module loads without the layers above it.

Each import runs in a fresh interpreter, so ``sys.modules`` holds only
what that one import pulled in. A package ``__init__`` that re-exports
from a higher layer (the controller, say) would fail these tests.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def loaded_by(module: str) -> list[str]:
    """The ``repro`` modules that ``import module`` loads."""
    probe = (
        f"import json, sys, {module}; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m == 'repro' or m.startswith('repro.'))))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    return json.loads(out)


@pytest.mark.parametrize("module, layers", [
    ("repro.net.packet", ("repro.net",)),
    ("repro.core.merge", ("repro.core", "repro.net")),
])
def test_import_loads_only_its_own_layers(module, layers):
    outside = [
        name for name in loaded_by(module)
        if name != "repro"
        and not any(name == layer or name.startswith(layer + ".")
                    for layer in layers)
    ]
    assert outside == [], f"import {module} also loads {outside}"
