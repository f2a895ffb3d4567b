"""Data-plane chaos: a crashing element must not take the OBI with it.

The acceptance scenario for the armored data plane: an element that
raises on every Nth packet is contained (other traffic keeps flowing),
quarantined once its error rate trips the breaker, reported upstream as
a *batched* alert stream (not one alert per crash), and visible to the
controller through the ``_obi`` handles and the telemetry stream.
"""

import pytest

from repro.bootstrap import connect_inproc
from repro.controller.obc import OpenBoxController
from repro.core.blocks import Block
from repro.core.graph import ProcessingGraph
from repro.net.builder import make_tcp_packet
from repro.obi.engine import Element
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.obi.robustness import FaultPolicy
from repro.protocol.blocks_spec import OBI_PSEUDO_BLOCK
from repro.protocol.messages import ReadRequest, SetProcessingGraphRequest
from tests.conftest import FakeClock

pytestmark = pytest.mark.chaos


class EveryNthFaulty(Element):
    """Pass-through that raises on every Nth packet it processes."""

    def process(self, packet):
        period = int(self.config.get("period", 3))
        if self.count % period == 0:
            raise RuntimeError("periodic element fault")
        return [(0, packet)]


def build_world(period=3, threshold=4):
    clock = FakeClock()
    controller = OpenBoxController(clock=clock)
    obi = OpenBoxInstance(
        ObiConfig(
            obi_id="chaos-obi",
            # Storm suppression on: at most ~1 alert/s with burst 2.
            alert_rate_limit=1.0,
            alert_burst=2.0,
            fault_policy=FaultPolicy(
                error_policy="bypass",
                quarantine_threshold=threshold,
                error_window=1000.0,
                quarantine_cooldown=1000.0,
            ),
        ),
        clock=clock,
    )
    connect_inproc(controller, obi)
    obi.factory.register_custom("HeaderPayloadRewriter", EveryNthFaulty)
    graph = ProcessingGraph("chaos")
    read = Block("FromDevice", name="read", config={"devname": "in"})
    flaky = Block("HeaderPayloadRewriter", name="flaky",
                  config={"period": period}, origin_app="ips")
    out = Block("ToDevice", name="out", config={"devname": "out"})
    graph.add_blocks([read, flaky, out])
    graph.connect(read, flaky)
    graph.connect(flaky, out)
    controller.send("chaos-obi",
                    SetProcessingGraphRequest(graph=graph.to_dict()))
    return controller, obi, clock


def packet():
    return make_tcp_packet("44.0.0.1", "192.168.0.9", 5, 80, payload=b"ok")


class TestDataPlaneChaosScenario:
    def test_periodic_faults_contained_quarantined_and_reported(self):
        controller, obi, clock = build_world(period=3, threshold=4)
        outcomes = []
        for _ in range(60):
            outcomes.append(obi.inject(packet()))
            clock.advance(0.05)

        # 1. The OBI kept forwarding: every packet still made it out
        #    (the faulty element's policy is bypass) and none crashed us.
        assert all(outcome.forwarded for outcome in outcomes)

        # 2. Quarantine tripped at the threshold: exactly 4 packets ever
        #    saw the element raise, then the breaker opened.
        errored = [o for o in outcomes if o.errors]
        assert len(errored) == 4
        assert obi.robustness.quarantined_blocks() == ["flaky"]
        quarantined_after = outcomes.index(errored[-1])
        assert all(
            "flaky" not in outcome.path
            for outcome in outcomes[quarantined_after + 1:]
        )

        # 3. Alert storm suppressed: far fewer Alert messages than faults,
        #    with the tail summarized rather than dropped silently.
        fault_alerts = [a for a in controller.alerts if a.severity == "error"]
        assert 0 < len(fault_alerts) < len(errored)
        obi.flush_alerts()
        summaries = [a for a in controller.alerts if "suppressed" in a.message]
        suppressed = obi.read_obi_handle("alerts_suppressed")
        if suppressed:
            assert summaries and summaries[-1].count == suppressed

        # 4. Exactly one critical quarantine alert, demultiplexed with the
        #    faulty element's identity.
        critical = [a for a in controller.alerts if a.severity == "critical"]
        assert len(critical) == 1
        assert critical[0].block == "flaky"

        # 5. The controller sees the quarantined block: over the `_obi`
        #    handles, and in the folded telemetry stream.
        def read(handle):
            return controller.send("chaos-obi", ReadRequest(
                block=OBI_PSEUDO_BLOCK, handle=handle
            )).value

        assert read("quarantined_blocks") == ["flaky"]
        assert read("errors_total") == 4
        gauges = controller.telemetry_snapshot("chaos-obi").metrics["gauges"]
        assert gauges["obi_quarantined_blocks"] == 1
        assert gauges["obi_errors_total"] == 4

    def test_poison_digests_readable_over_protocol(self):
        controller, obi, clock = build_world(period=2, threshold=3)
        for _ in range(10):
            obi.inject(packet())
            clock.advance(0.05)
        response = controller.send("chaos-obi", ReadRequest(
            block=OBI_PSEUDO_BLOCK, handle="poison_quarantine",
        ))
        digests = response.value
        assert len(digests) == 3
        assert all(entry["block"] == "flaky" for entry in digests)
        assert all("RuntimeError" in entry["error"] for entry in digests)

    def test_probe_after_cooldown_restores_healed_element(self):
        controller, obi, clock = build_world(period=1, threshold=2)  # always fails
        for _ in range(5):
            obi.inject(packet())
            clock.advance(0.05)
        assert obi.robustness.quarantined_blocks() == ["flaky"]
        # Heal the element and wait out the cooldown: one probe closes
        # the breaker and the element serves traffic again.
        obi.engine.element("flaky").config["period"] = 10_000
        clock.advance(2000.0)
        outcome = obi.inject(packet())
        assert outcome.forwarded
        assert obi.robustness.quarantined_blocks() == []
        assert "flaky" in obi.inject(packet()).path
