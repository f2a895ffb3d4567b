#!/usr/bin/env python3
"""Debugging an OpenBox deployment (paper §6, "Debugging").

Walks the debugging loop: verify an application offline before deploying
it, inspect the merged graph the controller actually deployed (Graphviz
export), and use the packet-history facility to answer "what did my
packet do" after the fact — the OpenBox adaptation of SDN packet-history
troubleshooting.

Run:  python3 examples/debugging_walkthrough.py
"""

from repro.apps.firewall import FirewallApp, parse_firewall_rules
from repro.apps.ips import IpsApp, parse_snort_rules
from repro.bootstrap import connect_inproc
from repro.controller.obc import OpenBoxController
from repro.controller.verification import verify_application
from repro.net.builder import make_tcp_packet
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.protocol.messages import PacketHistoryRequest

SLOPPY_RULES = """
deny  tcp 10.0.0.0/8  any any 23
deny  tcp 10.1.0.0/16 any any 23     # shadowed by the /8 rule above
deny  tcp 10.0.0.0/8  any any 23     # exact duplicate
allow any any any any any
"""

IPS_RULES = 'alert tcp any any -> any 80 (msg:"web attack"; content:"attack"; sid:1;)'


def main() -> None:
    # ---- 1. Offline verification before deployment (VeriCon-style) ----
    firewall = FirewallApp("fw", parse_firewall_rules(SLOPPY_RULES), priority=1)
    report = verify_application(firewall)
    print(f"offline verification: ok={report.ok}, "
          f"{len(report.warnings)} warning(s)")
    for finding in report.findings:
        print(f"  [{finding.severity}] {finding.code}: {finding.message}")

    # ---- 2. Deploy and inspect what actually runs ----
    controller = OpenBoxController()
    obi = OpenBoxInstance(ObiConfig(obi_id="obi-1", history_size=16))
    connect_inproc(controller, obi)
    controller.register_application(firewall)
    controller.register_application(IpsApp("ips", parse_snort_rules(IPS_RULES),
                                           priority=2))
    deployed = controller.obis["obi-1"].deployed.graph
    print(f"\ndeployed merged graph: {len(deployed.blocks)} blocks, "
          f"diameter {deployed.diameter()}")
    dot = deployed.to_dot()
    with open("/tmp/openbox_deployed.dot", "w") as handle:
        handle.write(dot)
    print(f"Graphviz export written to /tmp/openbox_deployed.dot "
          f"({len(dot.splitlines())} lines; render with `dot -Tpng`)")

    # ---- 3. Traffic, then ask what each packet did ----
    obi.process_packet(make_tcp_packet("10.2.3.4", "8.8.8.8", 1042, 23))
    obi.process_packet(make_tcp_packet("44.4.4.4", "8.8.8.8", 1042, 80,
                                       payload=b"an attack payload"))
    obi.process_packet(make_tcp_packet("44.4.4.4", "8.8.8.8", 1042, 443))

    response = controller.send("obi-1", PacketHistoryRequest())
    print("\npacket history (most recent last):")
    for record in response.records:
        verdict = "dropped" if record["dropped"] else \
            f"-> {','.join(record['outputs'])}"
        alerts = f"  alerts={record['alerts']}" if record["alerts"] else ""
        print(f"  {record['packet']}")
        print(f"    path: {' > '.join(record['path'])}  [{verdict}]{alerts}")


if __name__ == "__main__":
    main()
