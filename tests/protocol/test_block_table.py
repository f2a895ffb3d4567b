"""PROTOCOL.md §5's block table lists exactly the built-in block types.

Every ``| Type | Class | Ports | Params | Handles | Mergeable |`` row
names a built-in type of :data:`repro.core.blocks.block_registry`, the
table holds each one once, its stated count is their number, and each
row's columns are the type's spec — the same contract the message
tables have with the dispatch tables. (Custom modules register more
types at runtime; the built-ins are the ones the OBI ships elements
for.)
"""

import pathlib
import re

import pytest

from repro.core.blocks import PORTS_BY_CONFIG, block_registry
from repro.obi.elements import element_registry

PROTOCOL = pathlib.Path(__file__).resolve().parents[2] / "docs" / "PROTOCOL.md"


def section5() -> tuple[int, dict[str, tuple[str, ...]]]:
    """(stated type count, type -> remaining cells) of the §5 table."""
    text = PROTOCOL.read_text(encoding="utf-8")
    body = text.split("## 5. ", 1)[1].split("\n## ", 1)[0]
    count = int(re.search(r"^(\d+) block types", body, re.M).group(1))
    rows: dict[str, tuple[str, ...]] = {}
    for line in body.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        match = re.fullmatch(r"`(\w+)`", cells[0])
        if match is None:
            continue
        assert match.group(1) not in rows, f"{match.group(1)} listed twice"
        rows[match.group(1)] = tuple(cells[1:])
    return count, rows


BUILTIN = sorted(element_registry)


def test_table_names_every_builtin_type():
    count, rows = section5()
    assert set(BUILTIN) <= set(block_registry.names())
    assert sorted(rows) == BUILTIN
    assert count == len(BUILTIN)


@pytest.mark.parametrize("type_name", BUILTIN)
def test_row_matches_spec(type_name):
    spec = block_registry.get(type_name)
    ports = "config" if spec.num_ports == PORTS_BY_CONFIG else str(spec.num_ports)
    handles = ", ".join(
        handle.name + ("*" if handle.writable else "") for handle in spec.handles
    )
    expected = (
        spec.block_class, ports, ", ".join(spec.params) or "—",
        handles or "—", "yes" if spec.mergeable else "",
    )
    assert section5()[1].get(type_name) == expected
