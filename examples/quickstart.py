#!/usr/bin/env python3
"""Quickstart: a software-defined firewall in ~40 lines.

Spins up an OpenBox controller and one service instance (OBI), deploys
a firewall NF written as an OpenBox application, pushes a few packets
through the data plane, and reads a counter back through the control
plane — the full northbound/southbound loop of the paper in miniature.

Run:  python3 examples/quickstart.py
"""

from repro.apps.firewall import FirewallApp, parse_firewall_rules
from repro.bootstrap import connect_inproc
from repro.controller.obc import OpenBoxController
from repro.net.builder import make_tcp_packet
from repro.obi.instance import ObiConfig, OpenBoxInstance

RULES = """
# action proto  src           sport  dst   dport
deny     tcp    10.0.0.0/8    any    any   23       # no telnet from inside
alert    tcp    any           any    any   22       # watch ssh
allow    any    any           any    any   any
"""


def main() -> None:
    # 1. Control plane: a logically-centralized controller.
    controller = OpenBoxController()

    # 2. Data plane: one OBI, connected over the in-process channel
    #    (use repro.bootstrap.connect_obi_rest for the REST transport).
    obi = OpenBoxInstance(ObiConfig(obi_id="obi-1", segment="corp"))
    connect_inproc(controller, obi)

    # 3. An NF application: declares its logic as a processing graph;
    #    the controller deploys it to every OBI in the 'corp' segment.
    firewall = FirewallApp("fw", parse_firewall_rules(RULES), segment="corp")
    controller.register_application(firewall)
    deployed = controller.obis["obi-1"].deployed
    print(f"deployed graph: {len(deployed.graph.blocks)} blocks, "
          f"diameter {deployed.graph.diameter()}")

    # 4. Traffic.
    packets = [
        ("telnet from inside", make_tcp_packet("10.1.2.3", "8.8.8.8", 1042, 23)),
        ("ssh from outside", make_tcp_packet("203.0.113.9", "10.0.0.5", 40000, 22)),
        ("plain https", make_tcp_packet("203.0.113.9", "10.0.0.5", 40001, 443)),
    ]
    for label, packet in packets:
        outcome = obi.process_packet(packet)
        verdict = "DROPPED" if outcome.dropped else "forwarded"
        notes = ", ".join(alert.message for alert in outcome.alerts)
        print(f"{label:22s} -> {verdict}" + (f"  [alert: {notes}]" if notes else ""))

    # 5. The event loop: the controller demultiplexed the alert to the app.
    print(f"alerts received by the firewall app: {len(firewall.alerts_received)}")

    # 6. Read a data-plane handle through the controller (paper §3.2).
    #    request_read returns a typed result: per-block values, errors,
    #    and round-trip latency.
    result = firewall.request_read("obi-1", "fw_classify", "match_counts")
    print(f"classifier match counts: {result.value} "
          f"(rtt {result.latency * 1e3:.2f} ms)")


if __name__ == "__main__":
    main()
