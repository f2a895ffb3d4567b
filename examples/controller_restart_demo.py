#!/usr/bin/env python3
"""Controller crash and recovery walkthrough (PROTOCOL.md §10).

A journaled controller runs two OBIs and is killed SIGKILL-style
*mid-deploy*: a second application reaches obi-1 but the controller
dies before pushing it to obi-2. While the controller is gone:

* both OBIs go **headless** — packets keep flowing on their last
  committed graphs (zero loss);
* alerts raised by the traffic land in each OBI's bounded ring buffer,
  oldest evicted and counted when it overflows.

Then a fresh controller process recovers from the journal, bumps its
generation (fencing off the dead one's ghost), and the anti-entropy
loop reconverges the fleet: obi-1's running graph already matches
intent, so it is *adopted* without a push; obi-2 is re-pushed exactly
once. Buffered alerts replay with a loss summary.

Run:  python3 examples/controller_restart_demo.py
"""

from repro.bootstrap import connect_inproc, reconnect_inproc
from repro.controller.apps import AppStatement, FunctionApplication
from repro.controller.journal import StateJournal
from repro.controller.obc import OpenBoxController
from repro.controller.reconcile import AntiEntropyLoop
from repro.core.blocks import Block
from repro.core.graph import ProcessingGraph
from repro.net.builder import make_tcp_packet
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.protocol.errors import ProtocolError

JOURNAL = "/tmp/openbox-restart-demo.journal"


def firewall_graph(name):
    graph = ProcessingGraph(name)
    read = Block("FromDevice", name=f"{name}_read", config={"devname": "in"})
    classify = Block("HeaderClassifier", name=f"{name}_hc", config={
        "rules": [{"dst_port": [22, 22], "port": 0}], "default_port": 1,
    }, origin_app=name)
    alert = Block("Alert", name=f"{name}_alert",
                  config={"message": f"{name}: ssh probe"}, origin_app=name)
    out = Block("ToDevice", name=f"{name}_out", config={"devname": "out"})
    graph.add_blocks([read, classify, alert, out])
    graph.connect(read, classify)
    graph.connect(classify, alert, 0)
    graph.connect(alert, out)
    graph.connect(classify, out, 1)
    graph.validate()
    return graph


def counter_graph(name):
    graph = ProcessingGraph(name)
    read = Block("FromDevice", name=f"{name}_read", config={"devname": "in"})
    out = Block("ToDevice", name=f"{name}_out", config={"devname": "out"})
    graph.add_blocks([read, out])
    graph.connect(read, out)
    graph.validate()
    return graph


def fw_app():
    return FunctionApplication(
        "fw", lambda: [AppStatement(graph=firewall_graph("fw"))], priority=1)


def tap_app():
    return FunctionApplication(
        "tap", lambda: [AppStatement(graph=counter_graph("tap"))], priority=2)


def ssh_probe():
    return make_tcp_packet("44.0.0.1", "192.168.0.9", 1234, 22)


def main() -> None:
    clock = {"now": 0.0}

    import os
    if os.path.exists(JOURNAL):
        os.unlink(JOURNAL)

    controller = OpenBoxController(
        clock=lambda: clock["now"],
        journal=StateJournal(JOURNAL, fsync_every=1),
    )
    obis, pairs = {}, {}
    for obi_id in ("obi-1", "obi-2"):
        obi = OpenBoxInstance(
            ObiConfig(obi_id=obi_id, segment="corp",
                      headless_after=30.0, headless_buffer=4),
            clock=lambda: clock["now"],
        )
        pairs[obi_id] = connect_inproc(controller, obi)
        obis[obi_id] = obi
    controller.register_application(fw_app())

    print("== before the crash ==")
    for obi_id, obi in obis.items():
        print(f"  {obi_id}: graph v{obi.graph_version} "
              f"digest {obi.graph_digest[:20]}…")

    # A second app reaches obi-1; the controller dies before obi-2.
    controller.auto_deploy = False
    controller.register_application(tap_app())
    controller.deploy("obi-1")
    print("\n== SIGKILL mid-deploy (tap app reached obi-1 only) ==")
    print(f"  obi-1: graph v{obis['obi-1'].graph_version}")
    print(f"  obi-2: graph v{obis['obi-2'].graph_version}")

    # 2 minutes of controller silence: the fleet goes headless.
    clock["now"] += 120.0
    for obi_id, obi in obis.items():
        for _ in range(6):  # 6 probes against a ring of 4: 2 evictions
            clock["now"] += 1.0
            outcome = obi.process_packet(ssh_probe())
            assert not outcome.dropped
        print(f"  {obi_id}: headless={obi.is_headless()} "
              f"buffered={len(obi.headless_buffer)} "
              f"dropped={obi.headless_buffer.dropped} "
              f"(packets still flowing)")

    print("\n== recover from the journal ==")
    recovered = OpenBoxController.recover(
        JOURNAL, applications=[fw_app(), tap_app()],
        clock=lambda: clock["now"],
        # Let the anti-entropy loop do the converging below, visibly,
        # instead of reconcile-on-reconnect.
        auto_deploy=False,
    )
    print(f"  generation {controller.generation} -> {recovered.generation}")
    for warning in recovered.recovery_warnings:
        print(f"  warning: {warning}")
    for obi_id, obi in obis.items():
        reconnect_inproc(recovered, obi, pairs[obi_id])

    loop = AntiEntropyLoop(recovered)
    rounds = loop.run_until_converged()
    adopted = sorted(o for r in rounds for o in r.adopted)
    pushed = sorted(o for r in rounds for o in r.pushed)
    print(f"  anti-entropy: adopted={adopted} pushed={pushed} "
          f"converged={loop.converged()}")
    print(f"  obi-1: graph v{obis['obi-1'].graph_version} (no re-push)")
    print(f"  obi-2: graph v{obis['obi-2'].graph_version} (pushed once)")

    replayed = [a for a in recovered.alerts if a.obi_id in obis]
    summaries = [a for a in replayed if "dropped while headless" in a.message]
    print(f"\n== buffered events replayed ==")
    print(f"  alerts delivered: {len(replayed) - len(summaries)}")
    for summary in summaries:
        print(f"  {summary.obi_id}: {summary.message}")

    print("\n== the dead controller's ghost tries to finish its deploy ==")
    try:
        controller.deploy("obi-2")
    except ProtocolError as exc:
        print(f"  fenced: {exc.code}: {exc.detail[:60]}…")
    print(f"  old controller superseded={controller.superseded}")


if __name__ == "__main__":
    main()
