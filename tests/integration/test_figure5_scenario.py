"""End-to-end reproduction of the paper's Figure 5 walk-through.

Packets from host A to host B must traverse a firewall and an IPS. The
controller merges the two applications' graphs, splits the merged graph
at the header classifier (hardware TCAM OBI), and deploys the software
half onto two replicas multiplexed by the network. The packet path is:

  A --(1)--> hw-OBI classify --(2,3: NSH metadata)--> mux --(4)-->
  sw-OBI replica --(5: metadata stripped)--> B --(6)
"""

import pytest

from repro.bootstrap import connect_inproc
from repro.controller.obc import OpenBoxController
from repro.controller.reconcile import AntiEntropyLoop
from repro.controller.split import deploy_split
from repro.controller.apps import AppStatement, FunctionApplication
from repro.net.builder import make_tcp_packet
from repro.net.nsh import NshHeader
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.sim.network import SimNetwork
from tests.conftest import build_firewall_graph, build_ips_graph


@pytest.fixture
def figure5():
    controller = OpenBoxController()

    # Applications: firewall then IPS, network-wide.
    controller.register_application(FunctionApplication(
        "fw", lambda: [AppStatement(graph=build_firewall_graph("fw"))], priority=1,
    ))
    controller.register_application(FunctionApplication(
        "ips", lambda: [AppStatement(graph=build_ips_graph("ips"))], priority=2,
    ))

    # The merged graph, then the Figure 6 split at the header classifier.
    network = SimNetwork()
    hw_obi = OpenBoxInstance(ObiConfig(obi_id="hw-obi"),
                             clock=lambda: network.clock.now)
    replicas = [
        OpenBoxInstance(ObiConfig(obi_id=f"sw-obi-{index}"),
                        clock=lambda: network.clock.now)
        for index in (1, 2)
    ]
    for obi in [hw_obi, *replicas]:
        connect_inproc(controller, obi)

    deploy_split(controller, "hw-obi", ["sw-obi-1", "sw-obi-2"],
                 spi=5, trunk_device="sfc0")
    # The split is intent: an anti-entropy round keeps it in place.
    assert AntiEntropyLoop(controller).reconcile().pushed == []

    host_b = network.add_host("B")
    network.add_obi("hw-obi", hw_obi)
    for obi in replicas:
        network.add_obi(obi.config.obi_id, obi)
        network.link(obi.config.obi_id, "out", "B")
    network.add_multiplexer("mux", replicas=["sw-obi-1", "sw-obi-2"])
    network.link("hw-obi", "sfc0", "mux")

    return controller, network, hw_obi, replicas, host_b


class TestFigure5:
    def test_clean_packet_reaches_b_without_metadata(self, figure5):
        _controller, network, _hw, _replicas, host_b = figure5
        network.inject("hw-obi", make_tcp_packet("44.4.4.4", "2.2.2.2", 5, 9999))
        network.run()
        assert len(host_b.received) == 1
        wire = host_b.received[0].packet
        # Step 5: metadata (NSH) fully stripped before leaving the chain.
        with pytest.raises(ValueError):
            NshHeader.parse(wire.data)
        assert wire.ipv4 is not None

    def test_firewall_drop_enforced_at_hw_stage(self, figure5):
        _controller, network, hw_obi, _replicas, host_b = figure5
        # fw drops 10.0.0.0/8 -> :23 at the classifier stage already.
        network.inject("hw-obi", make_tcp_packet("10.1.1.1", "2.2.2.2", 5, 23))
        network.run()
        assert host_b.received == []
        assert network.nodes["hw-obi"].dropped == 1

    def test_ips_alert_raised_from_sw_stage(self, figure5):
        controller, network, _hw, _replicas, host_b = figure5
        network.inject(
            "hw-obi",
            make_tcp_packet("44.4.4.4", "2.2.2.2", 5, 80, payload=b"an attack here"),
        )
        network.run()
        assert len(host_b.received) == 1
        ips_alerts = [a for a in controller.alerts if a.origin_app == "ips"]
        assert ips_alerts and ips_alerts[0].obi_id.startswith("sw-obi")

    def test_flows_balance_across_replicas(self, figure5):
        _controller, network, _hw, replicas, host_b = figure5
        for sport in range(80):
            network.inject(
                "hw-obi", make_tcp_packet("44.4.4.4", "2.2.2.2", sport, 9999)
            )
        network.run()
        assert len(host_b.received) == 80
        processed = [r.packets_processed for r in replicas]
        assert all(count > 0 for count in processed)
        assert sum(processed) == 80

    def test_fw_alert_and_ips_drop_compose(self, figure5):
        controller, network, _hw, _replicas, host_b = figure5
        # dst port 22 triggers the firewall alert; payload reaches the IPS
        # which forwards (no TLS DPI for :22).
        network.inject("hw-obi", make_tcp_packet("44.4.4.4", "2.2.2.2", 5, 22))
        network.run()
        fw_alerts = [a for a in controller.alerts if a.origin_app == "fw"]
        assert fw_alerts
        assert len(host_b.received) == 1
