"""Re-homing edge cases: exhausted dial lists and deposed-only fleets.

PROTOCOL.md §12 says an OBI walking its controller endpoint list must
*fail closed*: when nobody qualifies — the list is empty, every address
refuses, or every responder is a deposed leader — the OBI stays
headless and keeps buffering, losing nothing, so a later successful
re-home can still replay the full backlog.
"""

from __future__ import annotations

import pytest

from repro.bootstrap import connect_inproc, rehome_inproc
from repro.controller.apps import AppStatement, FunctionApplication
from repro.controller.obc import OpenBoxController
from repro.net.builder import make_tcp_packet
from repro.obi.instance import ObiConfig, OpenBoxInstance
from tests.conftest import FakeClock, build_firewall_graph

HEADLESS_AFTER = 30.0


def alert_packet():
    # dst_port 22 rides the firewall's alert path -> upstream Alert.
    return make_tcp_packet("44.0.0.1", "192.168.0.9", 1234, 22)


@pytest.fixture
def orphaned_obi():
    """An OBI that served a generation-5 leader, then lost it.

    Driven headless with three alerts in the buffer — the state every
    rehome edge case below starts from.
    """
    clock = FakeClock()
    leader = OpenBoxController(clock=clock)
    leader.adopt_epoch(5)
    obi = OpenBoxInstance(
        ObiConfig(obi_id="obi-edge", segment="corp",
                  headless_after=HEADLESS_AFTER, headless_buffer=64),
        clock=clock,
    )
    pair = connect_inproc(leader, obi)
    leader.register_application(FunctionApplication(
        "fw", lambda: [AppStatement(graph=build_firewall_graph("fw"))],
        priority=1,
    ))

    pair.close()
    clock.advance(HEADLESS_AFTER * 2)
    for _ in range(3):
        obi.process_packet(alert_packet())
    assert obi.is_headless()
    assert len(obi.headless_buffer) == 3
    assert obi.highest_controller_generation == 5
    return obi, clock


class TestExhaustedEndpointList:
    def test_empty_candidate_list_returns_none(self, orphaned_obi):
        obi, _ = orphaned_obi
        assert obi.rehome([]) is None
        assert obi.rehome_attempts == 0
        assert obi.is_headless()
        assert len(obi.headless_buffer) == 3

    def test_all_endpoints_dead_returns_none(self, orphaned_obi):
        obi, _ = orphaned_obi
        result = rehome_inproc(obi, [("c2", None), ("c3", None), ("c4", None)])
        assert result is None
        # Every dead address was dialed, none adopted.
        assert obi.rehome_attempts == 3
        assert obi.rehomes == 0
        assert not obi.rehomed_to
        assert obi.is_headless()
        assert len(obi.headless_buffer) == 3
        assert obi.headless_buffer.dropped_total == 0


class TestAllCandidatesDeposed:
    def test_deposed_only_fleet_is_never_adopted(self, orphaned_obi):
        obi, clock = orphaned_obi
        # Fresh controllers answer Hello ok with generation 1 — each is
        # a deposed leader relative to the generation-5 fence the OBI
        # already obeyed. None may win, however many answer.
        deposed = [
            (f"c{i}", OpenBoxController(clock=clock)) for i in (2, 3, 4)
        ]
        result = rehome_inproc(obi, deposed)
        assert result is None
        assert obi.rehome_attempts == 3
        assert obi.rehome_stale_skipped == 3
        assert obi.rehomes == 0
        # Fail closed: still headless, backlog fully retained.
        assert obi.is_headless()
        assert len(obi.headless_buffer) == 3
        assert obi.headless_buffer.dropped_total == 0
        # The deposed responders never got the buffered alerts either.
        for _, controller in deposed:
            assert not controller.alerts

    def test_mixed_list_adopts_only_the_current_leader(self, orphaned_obi):
        obi, clock = orphaned_obi
        stale = OpenBoxController(clock=clock)
        current = OpenBoxController(clock=clock)
        current.adopt_epoch(9)
        result = rehome_inproc(
            obi, [("dead", None), ("stale", stale), ("current", current)],
        )
        assert result is not None
        endpoint, _pair = result
        assert endpoint == "current"
        assert obi.rehome_stale_skipped == 1
        assert obi.rehomed_to == "current"
        assert obi.highest_controller_generation == 9

    def test_later_successful_rehome_replays_entire_backlog(self, orphaned_obi):
        obi, clock = orphaned_obi
        # First pass: everyone deposed — nothing lost, nothing replayed.
        assert rehome_inproc(
            obi, [("c2", OpenBoxController(clock=clock))]
        ) is None
        assert len(obi.headless_buffer) == 3
        # Second pass: a properly fenced successor shows up. Adoption
        # exits headless and replays the full backlog to *that* leader.
        successor = OpenBoxController(clock=clock)
        successor.adopt_epoch(9)
        result = rehome_inproc(obi, [("c9", successor)])
        assert result is not None
        assert not obi.is_headless()
        assert len(obi.headless_buffer) == 0
        assert obi.headless_buffer.dropped_total == 0
        assert len(successor.alerts) == 3
