#!/usr/bin/env python3
"""Multi-tenancy and elastic scaling (paper §3.4.1, §3.3).

Two tenants (engineering, sales) deploy their own firewalls into their
segments; a company-wide IPS applies everywhere. The controller merges
each OBI's applicable NFs, watches load, scales the hot group out to a
new replica, and updates traffic steering.

Run:  python3 examples/multi_tenant_scaling.py
"""

from repro.apps.firewall import FirewallApp, parse_firewall_rules
from repro.apps.ips import IpsApp, parse_snort_rules
from repro.bootstrap import connect_inproc
from repro.controller.obc import OpenBoxController
from repro.controller.scaling import ScalingManager, ScalingPolicy
from repro.controller.steering import ServiceChain, SteeringHop, TrafficSteering
from repro.net.builder import make_tcp_packet
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.protocol.messages import GlobalStatsResponse
from repro.sim.rulesets import SNORT_VARIABLES, generate_snort_web_rules


class Provisioner:
    """Spawns real OBI replicas when the scaling manager asks."""

    def __init__(self, controller):
        self.controller = controller
        self.instances = {}
        self._n = 0

    def provision(self, like_obi_id):
        self._n += 1
        template = self.controller.obis[like_obi_id]
        new_id = f"{like_obi_id}-r{self._n}"
        replica = OpenBoxInstance(ObiConfig(obi_id=new_id, segment=template.segment))
        connect_inproc(self.controller, replica)
        self.instances[new_id] = replica
        print(f"  provisioned {new_id} in segment {template.segment!r} "
              f"(graph deployed automatically)")
        return new_id

    def deprovision(self, obi_id):
        self.controller.disconnect_obi(obi_id)
        self.instances.pop(obi_id, None)
        print(f"  deprovisioned {obi_id}")


def main() -> None:
    controller = OpenBoxController()
    eng_obi = OpenBoxInstance(ObiConfig(obi_id="eng-obi", segment="corp/eng"))
    sales_obi = OpenBoxInstance(ObiConfig(obi_id="sales-obi", segment="corp/sales"))
    connect_inproc(controller, eng_obi)
    connect_inproc(controller, sales_obi)

    # Tenants: each admin only sees their own application.
    controller.register_application(FirewallApp(
        "eng-fw", parse_firewall_rules("deny tcp any any any 3389\n"
                                       "allow any any any any any"),
        segment="corp/eng", priority=10))
    controller.register_application(FirewallApp(
        "sales-fw", parse_firewall_rules("alert tcp any any any 8080\n"
                                         "allow any any any any any"),
        segment="corp/sales", priority=10))
    controller.register_application(IpsApp(
        "corp-ips", parse_snort_rules(generate_snort_web_rules(40), SNORT_VARIABLES),
        segment="corp", priority=1))

    for obi_id, handle in controller.obis.items():
        print(f"{obi_id}: runs {handle.deployed.app_names} "
              f"({len(handle.deployed.graph.blocks)} blocks after merge)")

    # Tenant isolation in action.
    rdp = make_tcp_packet("1.1.1.1", "2.2.2.2", 5, 3389)
    print(f"\nRDP packet on eng-obi  : "
          f"{'dropped' if eng_obi.process_packet(rdp.clone()).dropped else 'forwarded'}")
    print(f"RDP packet on sales-obi: "
          f"{'dropped' if sales_obi.process_packet(rdp.clone()).dropped else 'forwarded'}")

    # Scaling loop: engineering gets hot.
    steering = TrafficSteering()
    steering.register_chain(
        ServiceChain("eng", [SteeringHop("eng-group", ["eng-obi"])]), default=True)
    provisioner = Provisioner(controller)
    manager = ScalingManager(controller.stats, provisioner,
                             ScalingPolicy(cooldown=0.0))
    manager.register_group("eng-group", ["eng-obi"])

    print("\nreporting 95% CPU on eng-obi...")
    for tick in range(5):
        controller.stats.record_stats(
            GlobalStatsResponse(obi_id="eng-obi", cpu_load=0.95), float(tick))
    for action in manager.evaluate(now=100.0):
        print(f"  scaling action: {action.kind} -> {action.obi_id} "
              f"(group load {action.load:.2f})")
    steering.update_replicas("eng-group", manager.group_members("eng-group"))

    flows = {steering.route(make_tcp_packet("9.9.9.9", "2.2.2.2", sport, 80))[0]
             for sport in range(60)}
    print(f"flows now steered across: {sorted(flows)}")


if __name__ == "__main__":
    main()
