#!/usr/bin/env python3
"""Distributed data plane (paper Figures 5-6): TCAM OBI + software OBIs.

The merged firewall+IPS graph is split at its header classifier. A
"hardware" OBI (simulated TCAM implementation) classifies packets and
ships the result as NSH metadata; two software OBI replicas — load
balanced by flow hash — decapsulate and run the rest of the graph.

Run:  python3 examples/distributed_dataplane.py
"""

from repro.apps.firewall import FirewallApp, parse_firewall_rules
from repro.apps.ips import IpsApp, parse_snort_rules
from repro.bootstrap import connect_inproc
from repro.controller.obc import OpenBoxController
from repro.controller.reconcile import AntiEntropyLoop
from repro.controller.split import deploy_split
from repro.net.builder import make_tcp_packet
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.sim.network import SimNetwork

FIREWALL_RULES = """
deny  tcp 10.0.0.0/8 any any 23
alert tcp any        any any 22
allow any any        any any any
"""

IPS_RULES = 'alert tcp any any -> any 80 (msg:"web attack"; content:"attack"; sid:1;)'


def main() -> None:
    controller = OpenBoxController()
    controller.register_application(FirewallApp(
        "fw", parse_firewall_rules(FIREWALL_RULES), priority=1))
    controller.register_application(IpsApp(
        "ips", parse_snort_rules(IPS_RULES), priority=2))

    network = SimNetwork()
    hw_obi = OpenBoxInstance(ObiConfig(obi_id="hw-obi"),
                             clock=lambda: network.clock.now)
    replicas = [
        OpenBoxInstance(ObiConfig(obi_id=f"sw-obi-{i}"),
                        clock=lambda: network.clock.now)
        for i in (1, 2)
    ]
    for obi in (hw_obi, *replicas):
        connect_inproc(controller, obi)

    # Merge both applications, then split at the header classifier: the
    # first half runs on the TCAM, the second half on software replicas.
    merged = controller.obis["hw-obi"].deployed.graph
    split = deploy_split(controller, "hw-obi",
                         [obi.config.obi_id for obi in replicas],
                         spi=7, trunk_device="sfc0")
    print(f"merged graph: {len(merged.blocks)} blocks; split into "
          f"{len(split.first.blocks)} (classify) + {len(split.second.blocks)} (process)")

    # The split is journaled intent, so an anti-entropy round keeps it.
    report = AntiEntropyLoop(controller).reconcile()
    print(f"anti-entropy round       : {len(report.converged)} converged, "
          f"{len(report.pushed)} pushed")

    # Wire the Figure 5 topology: A -> hw OBI -> mux -> sw OBIs -> B.
    host_b = network.add_host("B")
    network.add_obi("hw-obi", hw_obi)
    for obi in replicas:
        network.add_obi(obi.config.obi_id, obi)
        network.link(obi.config.obi_id, "out", "B", latency=50e-6)
    network.add_multiplexer("mux", replicas=[o.config.obi_id for o in replicas])
    network.link("hw-obi", "sfc0", "mux", latency=50e-6)

    print("\ninjecting 200 flows from host A...")
    for sport in range(200):
        payload = b"an attack payload" if sport % 50 == 0 else b"regular data"
        network.inject("hw-obi",
                       make_tcp_packet("44.4.4.4", "2.2.2.2", sport, 80,
                                       payload=payload))
    network.inject("hw-obi", make_tcp_packet("10.9.9.9", "2.2.2.2", 9, 23))  # drop
    network.run()

    print(f"host B received          : {len(host_b.received)} packets")
    print(f"dropped at hardware stage: {network.nodes['hw-obi'].dropped}")
    for obi in replicas:
        print(f"{obi.config.obi_id} processed      : {obi.packets_processed}")
    ips_alerts = [a for a in controller.alerts if a.origin_app == "ips"]
    print(f"IPS alerts at controller : {len(ips_alerts)} "
          f"(raised on {sorted({a.obi_id for a in ips_alerts})})")
    wire = host_b.received[0].packet
    print(f"first packet at B        : {wire.summary()} (NSH stripped: "
          f"{wire.ipv4 is not None})")


if __name__ == "__main__":
    main()
