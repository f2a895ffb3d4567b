#!/usr/bin/env python3
"""Resilient flow state walkthrough: SIGKILL an OBI, keep the sessions.

An OBI runs a stateful firewall (the ``Conntrack`` block): only
packets belonging to a properly established TCP connection are
forwarded; strays are invalid and dropped. Per-flow state lives in a
bounded :class:`FlowStateTable` journaled to disk
(``state_checkpoint_path``). The walkthrough:

1. three clients complete handshakes and exchange data;
2. a spoofed SYN flood at 10x the table cap slams the admission path —
   the exhaustion policy evicts only embryonic flood state, never the
   established sessions, and accounts for every eviction;
3. the OBI is killed outright (no shutdown hook runs) and a fresh
   incarnation folds the checkpoint journal: mid-stream data forwards
   with NO new handshake;
4. the controller hands the dead OBI's last checkpoint to a survivor,
   fenced by the checkpoint's state generation — a stale ghost
   checkpoint is rejected, the survivor serves the migrated flows.

Run:  python3 examples/stateful_failover_demo.py
"""

import tempfile
from pathlib import Path

from repro.bootstrap import connect_inproc
from repro.controller.migration import StateMigrator
from repro.controller.obc import OpenBoxController
from repro.net.builder import make_tcp_packet
from repro.net.tcp import TcpFlags
from repro.obi.flowstate import FlowStatePolicy
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.protocol.messages import SetProcessingGraphRequest
from repro.sim.traffic import TrafficGenerator

CLIENT, SERVER = "10.0.0.1", "192.168.0.9"

FIREWALL_GRAPH = {
    "name": "firewall",
    "blocks": [
        {"name": "read", "type": "FromDevice", "config": {"devname": "in"}},
        {"name": "track", "type": "Conntrack", "config": {}},
        {"name": "out", "type": "ToDevice", "config": {"devname": "out"}},
        {"name": "drop", "type": "Discard", "config": {}},
    ],
    "connectors": [
        {"src": "read", "src_port": 0, "dst": "track"},
        {"src": "track", "src_port": 0, "dst": "out"},
        {"src": "track", "src_port": 1, "dst": "drop"},
    ],
}

POLICY = FlowStatePolicy(
    max_entries=64, prefix_bits=16, prefix_share=0.25,
    pressure_watermark=0.5, degradation_watermark=0.75,
    early_ttl=5.0, sweep_limit=16,
)


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_obi(statedir, obi_id, clock):
    return OpenBoxInstance(
        ObiConfig(
            obi_id=obi_id, segment="corp", flow_state=POLICY,
            state_checkpoint_path=str(Path(statedir) / f"{obi_id}.flowstate"),
            state_checkpoint_fsync_every=1,
        ),
        clock=clock,
    )


def deploy(obi, epoch=0):
    # ``epoch``: the generation of the controller the OBI has obeyed, if
    # any — an OBI refuses requests stamped below it.
    obi.handle_message(SetProcessingGraphRequest(graph=FIREWALL_GRAPH, epoch=epoch))


def establish(obi, sport):
    for packet in (
        make_tcp_packet(CLIENT, SERVER, sport, 80, flags=TcpFlags.SYN),
        make_tcp_packet(SERVER, CLIENT, 80, sport,
                        flags=TcpFlags.SYN | TcpFlags.ACK),
        make_tcp_packet(CLIENT, SERVER, sport, 80, flags=TcpFlags.ACK),
    ):
        obi.inject(packet)


def send_data(obi, sport):
    outcome = obi.inject(make_tcp_packet(
        CLIENT, SERVER, sport, 80,
        flags=TcpFlags.ACK | TcpFlags.PSH, payload=b"mid-stream data"))
    verdict = "DROPPED (invalid)" if outcome.dropped else "forwarded"
    print(f"  {CLIENT}:{sport} -> {SERVER}:80 data: {verdict}")
    return not outcome.dropped


def main() -> None:
    clock = Clock()
    statedir = tempfile.mkdtemp(prefix="openbox-flowstate-")

    print("== Phase 1: establish sessions through the stateful firewall ==")
    obi = make_obi(statedir, "obi-1", clock)
    deploy(obi)
    for sport in (1001, 1002, 1003):
        establish(obi, sport)
        send_data(obi, sport)
    stray = obi.inject(make_tcp_packet(CLIENT, SERVER, 9999, 80,
                                       flags=TcpFlags.ACK | TcpFlags.PSH,
                                       payload=b"no handshake"))
    print(f"  stray mid-stream packet (no handshake): "
          f"{'DROPPED' if stray.dropped else 'forwarded?!'}")

    print(f"\n== Phase 2: SYN flood at 10x the {POLICY.max_entries}-entry"
          " cap ==")
    flood = TrafficGenerator().syn_flood(POLICY.max_entries * 10,
                                         dst_ip=SERVER)
    obi.inject_batch(flood)
    table = obi.session.flow_table
    print(f"  table: {len(table)}/{POLICY.max_entries} entries, "
          f"{table.protected_count} protected (established)")
    print(f"  evictions by reason: {dict(table.eviction_reasons)}")
    print(f"  drops by reason: {dict(table.drop_reasons)}")
    print(f"  _obi handles: state_pressure="
          f"{obi.read_obi_handle('state_pressure')} "
          f"degraded={obi.read_obi_handle('degraded')}")
    print("  established sessions after the flood:")
    for sport in (1001, 1002, 1003):
        send_data(obi, sport)

    print("\n== Phase 3: SIGKILL, then restore from the journal ==")
    generation = obi.session.state_generation
    del obi  # no close(), no flush: the fsync'd journal is all that remains
    reborn = make_obi(statedir, "obi-1", clock)
    deploy(reborn)
    print(f"  restored {reborn.state_restored} flows from the journal "
          f"(generation {generation} -> {reborn.session.state_generation})")
    print("  mid-stream data in the NEW incarnation, no new handshake:")
    for sport in (1001, 1002, 1003):
        send_data(reborn, sport)

    print("\n== Phase 4: generation-fenced handoff to a survivor ==")
    controller = OpenBoxController(clock=clock)
    survivor = make_obi(statedir, "obi-2", clock)
    connect_inproc(controller, reborn)
    connect_inproc(controller, survivor)
    deploy(survivor, epoch=controller.generation)
    migrator = StateMigrator(controller)
    checkpoint = migrator.export_checkpoint("obi-1")
    outcome = migrator.handoff("obi-1", "obi-2",
                               checkpoint["generation"],
                               checkpoint["entries"])
    print(f"  handoff generation {checkpoint['generation']}: "
          f"accepted={outcome.accepted}, "
          f"imported {outcome.flows_imported} flows")
    stale_generation = checkpoint["generation"] - 1
    ghost = migrator.handoff("obi-1", "obi-2", stale_generation, [])
    print(f"  ghost checkpoint (generation {stale_generation}): "
          f"stale={ghost.stale}, accepted={ghost.accepted}")
    print("  survivor forwards the migrated sessions:")
    for sport in (1001, 1002, 1003):
        send_data(survivor, sport)


if __name__ == "__main__":
    main()
