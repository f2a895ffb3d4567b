#!/usr/bin/env python3
"""Overload-control walkthrough: degrade locally, then scale globally.

One OBI runs a chain with an expensive best-effort DPI stage marked
``degradable``. A token-bucket admission gate meters ingress; a
seeded constant-rate burst at 10x the admitted rate drives the
instance through its degradation stages:

1. bucket above the watermark — full service, DPI on the path;
2. pressure band — degraded mode: the DPI stage is bypassed so
   essential forwarding keeps its capacity;
3. bucket empty — packets are shed (deterministically: same seed,
   same arrivals, same shed set).

Shedding evidence travels upstream on the telemetry stream the
controller subscribed to (PROTOCOL.md §13): the ``obi_degraded`` gauge
and the ``obi_packets_shed_total`` counter. The controller pins the
instance's effective load to 1.0 and the ordinary
scaling loop — the one that normally watches CPU — provisions a
replica. Locally graceful, globally elastic (paper §4.2, Fig. 9-10).

Run:  python3 examples/overload_demo.py
"""

from repro.bootstrap import connect_inproc
from repro.controller.apps import AppStatement, OpenBoxApplication
from repro.controller.obc import OpenBoxController
from repro.controller.scaling import ScalingManager, ScalingPolicy
from repro.controller.steering import ServiceChain, SteeringHop, TrafficSteering
from repro.core.blocks import Block
from repro.core.graph import ProcessingGraph
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.obi.robustness import OverloadPolicy
from repro.protocol.blocks_spec import OBI_PSEUDO_BLOCK
from repro.protocol.messages import ReadRequest
from repro.sim.traffic import TraceConfig, TrafficGenerator


class Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class DpiChainApp(OpenBoxApplication):
    """read -> dpi (degradable, best-effort) -> out."""

    def statements(self):
        graph = ProcessingGraph("dpi-chain")
        read = Block("FromDevice", name="read", config={"devname": "in"})
        dpi = Block(
            "HeaderPayloadRewriter", name="dpi", origin_app=self.name,
            config={"degradable": True,
                    "substitutions": [{"match": "attack", "replace": "######"}]})
        out = Block("ToDevice", name="out", config={"devname": "out"})
        graph.add_blocks([read, dpi, out])
        graph.connect(read, dpi)
        graph.connect(dpi, out)
        return [AppStatement(graph=graph)]


class Provisioner:
    """Provisions real replica instances attached to the controller."""

    def __init__(self, controller, clock):
        self.controller = controller
        self.clock = clock
        self.instances = {}

    def provision(self, like_obi_id):
        new_id = f"{like_obi_id}-r{len(self.instances) + 1}"
        template = self.controller.obis[like_obi_id]
        obi = OpenBoxInstance(
            ObiConfig(obi_id=new_id, segment=template.segment), clock=self.clock)
        connect_inproc(self.controller, obi)
        self.instances[new_id] = obi
        return new_id

    def deprovision(self, obi_id):
        self.controller.disconnect_obi(obi_id)
        self.instances.pop(obi_id, None)


def main() -> None:
    clock = Clock()
    controller = OpenBoxController(clock=clock)
    obi = OpenBoxInstance(
        ObiConfig(
            obi_id="dpi-obi", segment="corp",
            overload=OverloadPolicy(
                admission_rate=100.0,   # sustained packets/s admitted
                admission_burst=16.0,   # bucket depth
                overload_watermark=0.5,  # degrade below half a bucket
                shed_seed=7,
            ),
        ),
        clock=clock,
    )
    connect_inproc(controller, obi)
    controller.register_application(DpiChainApp("dpi"))
    # Overload evidence rides the telemetry stream; subscribing is the
    # controller's choice, not the OBI's.
    controller.subscribe_telemetry("dpi-obi")

    steering = TrafficSteering()
    steering.register_chain(
        ServiceChain("corp", [SteeringHop("dpi-group", ["dpi-obi"])]),
        default=True)
    provisioner = Provisioner(controller, clock)
    scaling = ScalingManager(controller.stats, provisioner,
                             ScalingPolicy(cooldown=0.0))
    scaling.register_group("dpi-group", ["dpi-obi"])

    generator = TrafficGenerator(TraceConfig(seed=7))
    # The merge normalizes block names; find the deployed DPI stage.
    dpi_name = next(name for name, element in obi.engine.elements.items()
                    if element.config.get("degradable"))

    print("== Phase 1: offered at half the admitted rate ==")
    for packet in generator.overload_burst(20, rate=50.0, start=clock.now):
        clock.now = packet.timestamp
        outcome = obi.inject(packet)
        assert outcome.forwarded and dpi_name in outcome.path
    print("  20/20 forwarded, DPI inspected every packet\n")

    print("== Phase 2: 10x burst (1000 pps vs 100 pps admitted) ==")
    clock.now += 1.0  # let the bucket refill
    first_bypass = first_shed = None
    for index, packet in enumerate(
            generator.overload_burst(200, rate=1000.0, start=clock.now)):
        clock.now = packet.timestamp
        outcome = obi.inject(packet)
        if outcome.shed and first_shed is None:
            first_shed = index
        elif outcome.forwarded and dpi_name not in outcome.path \
                and first_bypass is None:
            first_bypass = index
    print(f"  packet #{first_bypass}: degraded mode — DPI bypassed, "
          "forwarding continues")
    print(f"  packet #{first_shed}: bucket empty — shedding begins")
    print(f"  totals: {obi.packets_processed - 20} admitted, "
          f"{obi.packets_shed} shed, "
          f"{obi.robustness.degraded_bypasses} DPI bypasses\n")

    print("== Phase 3: the `_obi` pseudo-block, over the protocol ==")
    for handle in ("packets_shed", "degraded"):
        value = controller.send(
            "dpi-obi", ReadRequest(block=OBI_PSEUDO_BLOCK, handle=handle)
        ).value
        print(f"  read {OBI_PSEUDO_BLOCK}.{handle} = {value}")

    print("\n== Phase 4: the telemetry stream drives the scaling loop ==")
    print(f"  before: evaluate() -> {scaling.evaluate(now=clock.now)}")
    obi.publish_telemetry()
    view = controller.stats.view("dpi-obi")
    degraded = controller.telemetry.metric("dpi-obi", "gauges", "obi_degraded")
    print(f"  telemetry: shed={view.packets_shed} degraded={bool(degraded)} "
          f"-> effective_load={view.effective_load()}")
    actions = scaling.evaluate(now=clock.now)
    replica_id = actions[0].obi_id
    print(f"  after:  evaluate() -> {actions[0].kind} {replica_id}")

    replica = provisioner.instances[replica_id]
    steering.update_replicas("dpi-group", scaling.group_members("dpi-group"))
    split = {obi_id: 0 for obi_id in scaling.group_members("dpi-group")}
    clock.now += 1.0
    for packet in generator.overload_burst(200, rate=1000.0, start=clock.now):
        clock.now = packet.timestamp
        target = steering.route(packet)[0]
        (obi if target == "dpi-obi" else replica).inject(packet)
        split[target] += 1
    print(f"  replica deployed graph v{replica.graph_version}; "
          f"burst now splits {split}")


if __name__ == "__main__":
    main()
