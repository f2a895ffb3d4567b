#!/usr/bin/env python3
"""Control-plane failover walkthrough: kill an OBI, keep the traffic.

Two OBI replicas run the merged IPS graph behind flow-hash steering.
Every control channel is wrapped in a seeded :class:`FaultyChannel`
(10% of requests vanish) hardened by a :class:`ResilientChannel`
(timeouts, exponential backoff, idempotent retry). Mid-run, one
replica is killed outright. The orchestration loop:

1. notices its polls failing and its silence exceeding the stats
   tracker's ``liveness_timeout``;
2. declares it dead, cancels its pending requests;
3. imports its last session-state snapshot into the survivor
   (quarantine verdicts included), re-deploys, and re-steers flows.

A quarantined attacker therefore STAYS blocked after the crash, even
though the replica that learned the verdict is gone.

Run:  python3 examples/failover_demo.py
"""

from repro.apps.ips import IpsApp, parse_snort_rules
from repro.bootstrap import connect_inproc
from repro.controller.obc import OpenBoxController
from repro.controller.orchestrator import OrchestrationLoop
from repro.controller.scaling import ScalingManager, ScalingPolicy
from repro.controller.steering import ServiceChain, SteeringHop, TrafficSteering
from repro.net.builder import make_tcp_packet
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.sim.events import EventScheduler
from repro.transport.faults import FaultPlan, FaultyChannel
from repro.transport.retry import ResilientChannel, RetryPolicy

IPS_RULES = 'alert tcp any any -> any 80 (msg:"web attack"; content:"attack"; sid:1;)'


class Provisioner:
    """Failover prefers a live group member; provisioning is a no-op."""

    def provision(self, like_obi_id):
        raise RuntimeError("no spare capacity in this demo")

    def deprovision(self, obi_id):
        pass


def main() -> None:
    scheduler = EventScheduler()
    controller = OpenBoxController(clock=lambda: scheduler.now)

    obis, chaos = {}, {}
    for obi_id in ("obi-1", "obi-2"):
        obi = OpenBoxInstance(ObiConfig(obi_id=obi_id, segment="corp"),
                              clock=lambda: scheduler.now)

        def wrap(channel, i=obi_id):
            # Controller → OBI channel: seeded packet loss + retry armor.
            chaos[i] = FaultyChannel(channel, FaultPlan(seed=11, drop_rate=0.1))
            return ResilientChannel(
                chaos[i],
                RetryPolicy(max_attempts=6, base_delay=0.01, max_delay=0.05),
                sleep=lambda s: None,  # simulated time: record, don't sleep
            )

        connect_inproc(controller, obi, wrap_downstream=wrap)
        obis[obi_id] = obi

    controller.register_application(IpsApp(
        "ips", parse_snort_rules(IPS_RULES), segment="corp", quarantine=True))

    steering = TrafficSteering()
    steering.register_chain(
        ServiceChain("corp", [SteeringHop("ips-group", ["obi-1", "obi-2"])]),
        default=True)
    scaling = ScalingManager(controller.stats, Provisioner(),
                             ScalingPolicy(scale_down_load=0.0))
    scaling.register_group("ips-group", ["obi-1", "obi-2"])
    loop = OrchestrationLoop(controller, scaling, steering)

    def send(src, sport, payload):
        packet = make_tcp_packet(src, "2.2.2.2", sport, 80, payload=payload)
        target = steering.route(packet)[0]
        outcome = obis[target].process_packet(packet)
        verdict = "DROPPED" if outcome.dropped else "forwarded"
        print(f"  {src}:{sport} -> {target}: {verdict}"
              + (f"  [{outcome.alerts[0].message}]" if outcome.alerts else ""))
        return target

    print("== Phase 1: normal operation ==")
    attacker_home = send("9.9.9.9", 7777, b"launch the attack")
    send("7.7.7.7", 5555, b"hello")

    scheduler.now = 1.0
    loop.tick()  # healthy tick: polls stats, snapshots session state
    print(f"\nsnapshotted session state for: {sorted(loop.snapshots)}")

    print(f"\n== Phase 2: {attacker_home} crashes ==")
    chaos[attacker_home].kill()
    timeout = controller.stats.liveness_timeout
    scheduler.schedule_every(timeout / 3, loop.tick)
    scheduler.run_until(1.0 + timeout + timeout / 3 + 0.001)

    for report in loop.reports:
        line = (f"  t={report.at:6.1f}  polled={report.polled}"
                f"  poll_failures={report.poll_failures}")
        if report.failovers:
            line += f"  FAILOVER: {report.failovers}"
        print(line)

    print("\n== Phase 3: traffic after failover ==")
    send("9.9.9.9", 7777, b"innocent looking bytes")   # still quarantined
    send("7.7.7.7", 5555, b"hello again")               # still clean

    survivor = next(iter(controller.obis))
    print(f"\nsurvivor: {survivor}"
          f"  (graph v{obis[survivor].graph_version} deployed,"
          f" {controller.stats.view(survivor).keepalives} keepalives)")
    dropped = chaos["obi-1"].drops + chaos["obi-2"].drops
    print(f"chaos totals: {dropped} requests dropped by the fault plan, "
          f"{controller.failed_deployments} failed deployments recorded")


if __name__ == "__main__":
    main()
