"""Keepalive-driven liveness on the virtual-time scheduler (paper §3.1).

"A KeepAlive message is a short message sent from an OBI to the OBC
every interval, as defined by the OBC" — this integration drives those
intervals on the event scheduler and verifies the controller's liveness
view, including the failure of a silent OBI.
"""

import pytest

from repro.bootstrap import connect_inproc
from repro.controller.obc import OpenBoxController
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.protocol.messages import SetExternalServices
from repro.sim.events import EventScheduler


@pytest.fixture
def live_world():
    scheduler = EventScheduler()
    controller = OpenBoxController(clock=lambda: scheduler.now)
    obis = []
    for index in (1, 2):
        obi = OpenBoxInstance(ObiConfig(obi_id=f"obi-{index}", segment="corp"),
                              clock=lambda: scheduler.now)
        connect_inproc(controller, obi)
        obis.append(obi)
    return scheduler, controller, obis


class TestLivenessLoop:
    def test_keepalive_interval_configured_by_controller(self, live_world):
        _scheduler, controller, obis = live_world
        controller.send("obi-1", SetExternalServices(keepalive_interval=3.0))
        assert obis[0].config.keepalive_interval == 3.0

    def test_periodic_keepalives_keep_obi_live(self, live_world):
        scheduler, controller, obis = live_world
        for obi in obis:
            scheduler.schedule_every(obi.config.keepalive_interval,
                                     obi.send_keepalive)
        scheduler.run_until(65.0)
        tracker = controller.stats
        assert set(tracker.live_obis(now=scheduler.now)) == {"obi-1", "obi-2"}
        # Default interval 10 s over 65 s -> 6 beats each.
        assert tracker.view("obi-1").keepalives == 6

    def test_silent_obi_detected_dead(self, live_world):
        scheduler, controller, obis = live_world
        # Only obi-1 beats; obi-2 went silent after connecting.
        scheduler.schedule_every(10.0, obis[0].send_keepalive)
        scheduler.run_until(120.0)
        assert controller.stats.dead_obis(now=scheduler.now) == ["obi-2"]
        assert controller.stats.live_obis(now=scheduler.now) == ["obi-1"]

    def test_periodic_stats_polling(self, live_world):
        scheduler, controller, _obis = live_world
        scheduler.schedule_every(5.0, lambda: controller.poll_stats("obi-1"))
        scheduler.run_until(21.0)
        view = controller.stats.view("obi-1")
        assert len(view.stats_history) == 4
        assert view.last_stats is not None
        # Uptime is measured on the virtual clock.
        assert view.last_stats.uptime == pytest.approx(20.0)


class TestDotExport:
    def test_to_dot_contains_blocks_and_edges(self):
        from tests.conftest import build_firewall_graph
        dot = build_firewall_graph().to_dot()
        assert dot.startswith('digraph "fw"')
        assert '"fw_hc" [shape=diamond' in dot
        assert '"fw_read" -> "fw_hc"' in dot
        assert '[label="2"]' in dot  # port label
        assert "[fw]" in dot         # origin app annotation
