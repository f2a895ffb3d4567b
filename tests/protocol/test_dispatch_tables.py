"""PROTOCOL.md's message tables list exactly what each endpoint serves.

Every ``| Message | Direction | ... |`` (or ``| Type | Direction | ...``)
table row names, first, a message its destination endpoint handles;
the set per endpoint must equal that endpoint's dispatch table — the
same contract the ``_obi`` handle table has with §7.
"""

import pathlib
import re

import pytest

from repro.controller.obc import OpenBoxController
from repro.controller.replication import StandbyController
from repro.obi.instance import OpenBoxInstance

PROTOCOL = pathlib.Path(__file__).resolve().parents[2] / "docs" / "PROTOCOL.md"

#: Direction-column destination -> the endpoint class serving it.
DESTINATIONS = {
    "OBI": OpenBoxInstance,
    "OBIs": OpenBoxInstance,
    "OBC": OpenBoxController,
    "standby": StandbyController,
    "standbys": StandbyController,
}


def documented() -> dict[type, set[str]]:
    served: dict[type, set[str]] = {cls: set() for cls in DESTINATIONS.values()}
    in_table = False
    for line in PROTOCOL.read_text(encoding="utf-8").splitlines():
        if not line.startswith("|"):
            in_table = False
            continue
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if cells[1:2] == ["Direction"]:
            in_table = True
            continue
        if not in_table or set(cells[0]) <= set("-"):
            continue
        message = re.match(r"`(\w+)`", cells[0]).group(1)
        for leg in cells[1].split(","):
            served[DESTINATIONS[leg.split("→")[1].strip()]].add(message)
    return served


@pytest.mark.parametrize(
    "endpoint", [OpenBoxInstance, OpenBoxController, StandbyController],
    ids=lambda cls: cls.__name__,
)
def test_direction_tables_equal_the_dispatch_table(endpoint):
    assert documented()[endpoint] == {cls.TYPE for cls in endpoint.HANDLERS}
