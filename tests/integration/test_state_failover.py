"""Resilient flow state, end to end (ISSUE acceptance scenarios).

Three survival properties of the conntrack subsystem:

* **SIGKILL + restore** — an OBI running a stateful firewall dies
  without warning; a fresh incarnation replays the checkpoint journal
  and established connections keep forwarding *without a new
  handshake* (a stray mid-stream packet would otherwise be invalid).
* **SYN flood** — spoofed-source floods at 10x the state-table cap
  never evict an established flow; the degradation shows up in the
  ``_obi`` accounting handles instead of in broken sessions.
* **Ghost fencing** — a failover handoff carries the checkpoint's
  state generation; a partitioned ghost's stale state is rejected by
  the survivor, an idempotent retry is not.
"""

import pytest

from repro.bootstrap import connect_inproc
from repro.controller.obc import OpenBoxController
from repro.net.builder import make_tcp_packet
from repro.net.tcp import TcpFlags
from repro.obi.flowstate import FlowStatePolicy
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.protocol.blocks_spec import OBI_PSEUDO_BLOCK
from repro.protocol.messages import (
    ReadRequest,
    SetProcessingGraphRequest,
    SetProcessingGraphResponse,
    StateHandoffRequest,
    StateHandoffResponse,
)
from repro.sim.traffic import TrafficGenerator
from tests.conftest import FakeClock, build_conntrack_graph

pytestmark = pytest.mark.chaos

CLIENT, SERVER = "10.0.0.1", "192.168.0.9"


def c2s(sport, flags, payload=b""):
    return make_tcp_packet(CLIENT, SERVER, sport, 80,
                           flags=flags, payload=payload)


def s2c(sport, flags, payload=b""):
    return make_tcp_packet(SERVER, CLIENT, 80, sport,
                           flags=flags, payload=payload)


def deploy_conntrack(obi, controller=None):
    """Push the conntrack graph through ``controller`` if the OBI has
    one, else straight to the bare OBI."""
    request = SetProcessingGraphRequest(graph=build_conntrack_graph().to_dict())
    if controller is None:
        response = obi.handle_message(request)
    else:
        response = controller.send(obi.config.obi_id, request)
    assert isinstance(response, SetProcessingGraphResponse) and response.ok


def establish(obi, sport):
    for packet in (
        c2s(sport, TcpFlags.SYN),
        s2c(sport, TcpFlags.SYN | TcpFlags.ACK),
        c2s(sport, TcpFlags.ACK),
    ):
        assert not obi.inject(packet).dropped


def forwards_data(obi, sport) -> bool:
    outcome = obi.inject(c2s(sport, TcpFlags.ACK | TcpFlags.PSH, b"payload"))
    return bool(outcome.outputs) and not outcome.dropped


def make_obi(tmp_path, obi_id="obi-1", clock=None, policy=None):
    return OpenBoxInstance(
        ObiConfig(
            obi_id=obi_id,
            segment="corp",
            flow_state=policy,
            state_checkpoint_path=str(tmp_path / f"{obi_id}.flowstate"),
            state_checkpoint_fsync_every=1,
        ),
        clock=clock or FakeClock(),
    )


def read_obi(obi, handle):
    response = obi.handle_message(
        ReadRequest(block=OBI_PSEUDO_BLOCK, handle=handle)
    )
    return response.value


class TestSigkillRestore:
    def test_established_flows_survive_a_kill(self, tmp_path):
        clock = FakeClock()
        obi = make_obi(tmp_path, clock=clock)
        deploy_conntrack(obi)
        for sport in (1001, 1002, 1003):
            establish(obi, sport)
        assert forwards_data(obi, 1001)
        # -- SIGKILL: no close(), no flush call; the fsync-batched
        # journal (fsync_every=1 here) is all that remains. --
        del obi

        reborn = make_obi(tmp_path, clock=clock)
        assert reborn.state_restored == 3
        deploy_conntrack(reborn)
        # Mid-stream data with no handshake in this incarnation: only
        # restored "established" state lets these packets through.
        for sport in (1001, 1002, 1003):
            assert forwards_data(reborn, sport)
        track = reborn.engine.elements["ct_track"]
        assert track.read_handle("established") == 3
        assert track.read_handle("invalid_dropped") == 0

    def test_teardown_survives_the_kill_too(self, tmp_path):
        clock = FakeClock()
        obi = make_obi(tmp_path, clock=clock)
        deploy_conntrack(obi)
        establish(obi, 1001)
        establish(obi, 1002)
        # Close 1001 fully before the crash (FIN/FIN are durable).
        obi.inject(c2s(1001, TcpFlags.FIN | TcpFlags.ACK))
        obi.inject(s2c(1001, TcpFlags.FIN | TcpFlags.ACK))
        del obi

        reborn = make_obi(tmp_path, clock=clock)
        deploy_conntrack(reborn)
        # The closed connection stays closed: late data is invalid.
        assert reborn.inject(
            c2s(1001, TcpFlags.ACK | TcpFlags.PSH, b"late")
        ).dropped
        assert forwards_data(reborn, 1002)

    def test_generation_advances_across_incarnations(self, tmp_path):
        clock = FakeClock()
        obi = make_obi(tmp_path, clock=clock)
        deploy_conntrack(obi)
        establish(obi, 1001)
        first_generation = obi.session.state_generation
        del obi
        reborn = make_obi(tmp_path, clock=clock)
        assert reborn.session.state_generation > first_generation


class TestSynFloodDefense:
    POLICY = FlowStatePolicy(
        max_entries=64, prefix_bits=16, prefix_share=0.25,
        pressure_watermark=0.5, degradation_watermark=0.75,
        early_ttl=5.0, sweep_limit=16,
    )

    def flooded_world(self, tmp_path):
        clock = FakeClock()
        obi = make_obi(tmp_path, clock=clock, policy=self.POLICY)
        deploy_conntrack(obi)
        established = [2001 + i for i in range(8)]
        for sport in established:
            establish(obi, sport)
        flood = TrafficGenerator().syn_flood(
            self.POLICY.max_entries * 10, dst_ip=SERVER
        )
        obi.inject_batch(flood)
        return obi, established

    def test_flood_at_10x_cap_never_evicts_established(self, tmp_path):
        obi, established = self.flooded_world(tmp_path)
        table = obi.session.flow_table
        assert len(table) <= self.POLICY.max_entries
        assert table.protected_count == len(established)
        # Every established flow still forwards mid-stream data — no
        # re-handshake, no re-classification.
        for sport in established:
            assert forwards_data(obi, sport)
        assert "lru" in table.eviction_reasons or \
            "prefix-budget" in table.eviction_reasons

    def test_degradation_is_accounted_not_silent(self, tmp_path):
        obi, _ = self.flooded_world(tmp_path)
        assert read_obi(obi, "state_pressure") is True
        assert read_obi(obi, "degraded") is True
        assert read_obi(obi, "state_entries") <= self.POLICY.max_entries
        assert read_obi(obi, "state_protected") == 8
        evictions = read_obi(obi, "state_evictions")
        assert evictions > 0
        reasons = read_obi(obi, "state_eviction_reasons")
        assert sum(reasons.values()) == evictions
        # The same numbers ride the telemetry stream's gauges.
        gauges = obi.observability_snapshot().metrics["gauges"]
        assert gauges["obi_state_pressure"] == 1.0
        assert gauges["obi_degraded"] == 1.0
        assert gauges["obi_state_evictions"] == evictions

    def test_flood_does_not_reach_the_journal(self, tmp_path):
        obi, established = self.flooded_world(tmp_path)
        obi.session.checkpoint.flush()
        path = obi.session.checkpoint.path
        with open(path, encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        # Journal traffic is proportional to real sessions (establish +
        # generation bookkeeping), not to the 640-packet flood.
        assert len(lines) < len(established) * 3 + 5


class TestGhostFencing:
    def checkpointed_entries(self, tmp_path, generation=5):
        clock = FakeClock()
        source = make_obi(tmp_path, obi_id="source", clock=clock)
        deploy_conntrack(source)
        establish(source, 3001)
        entries = source.session.export_entries()
        return entries

    def test_stale_handoff_rejected_newer_accepted(self, tmp_path):
        clock = FakeClock()
        survivor = make_obi(tmp_path, obi_id="survivor", clock=clock)
        deploy_conntrack(survivor)
        entries = self.checkpointed_entries(tmp_path)

        fresh = survivor.handle_message(StateHandoffRequest(
            source_obi="obi-dead", state_generation=4, state=entries,
        ))
        assert isinstance(fresh, StateHandoffResponse)
        assert fresh.accepted and fresh.flows_imported == 1

        # A partitioned ghost of the same OBI hands over generation 2:
        # strictly older than what the survivor already imported.
        ghost = survivor.handle_message(StateHandoffRequest(
            source_obi="obi-dead", state_generation=2, state=[],
        ))
        assert ghost.stale and not ghost.accepted
        assert read_obi(survivor, "stale_handoff_rejections") == 1

        # An equal-generation retry is idempotent, not stale.
        retry = survivor.handle_message(StateHandoffRequest(
            source_obi="obi-dead", state_generation=4, state=entries,
        ))
        assert retry.accepted and not retry.stale

    def test_fence_is_per_source_obi(self, tmp_path):
        clock = FakeClock()
        survivor = make_obi(tmp_path, obi_id="survivor", clock=clock)
        deploy_conntrack(survivor)
        survivor.handle_message(StateHandoffRequest(
            source_obi="obi-a", state_generation=9, state=[],
        ))
        other = survivor.handle_message(StateHandoffRequest(
            source_obi="obi-b", state_generation=1, state=[],
        ))
        assert other.accepted and not other.stale


class TestControllerHandoffPath:
    def test_migrator_checkpoint_roundtrip_through_controller(self, tmp_path):
        from repro.controller.migration import StateMigrator

        clock = FakeClock()
        controller = OpenBoxController(clock=clock)
        source = make_obi(tmp_path, obi_id="source", clock=clock)
        target = make_obi(tmp_path, obi_id="target", clock=clock)
        connect_inproc(controller, source)
        connect_inproc(controller, target)
        deploy_conntrack(source, controller=controller)
        deploy_conntrack(target, controller=controller)
        establish(source, 4001)

        migrator = StateMigrator(controller)
        checkpoint = migrator.export_checkpoint("source")
        assert len(checkpoint["entries"]) == 1
        outcome = migrator.handoff(
            "source", "target",
            checkpoint["generation"], checkpoint["entries"],
        )
        assert outcome.accepted and outcome.flows_imported == 1
        # The survivor now forwards the dead OBI's established flow.
        assert forwards_data(target, 4001)

    def test_partial_migration_raises_controller_alert(self, tmp_path):
        from repro.controller.migration import StateMigrator

        clock = FakeClock()
        controller = OpenBoxController(clock=clock)
        source = make_obi(tmp_path, obi_id="source", clock=clock)
        target = OpenBoxInstance(
            ObiConfig(
                obi_id="target", segment="corp",
                flow_state=FlowStatePolicy(
                    max_entries=1, prefix_share=0.0,
                    pressure_watermark=1.0, degradation_watermark=1.0,
                ),
            ),
            clock=clock,
        )
        connect_inproc(controller, source)
        connect_inproc(controller, target)
        deploy_conntrack(source, controller=controller)
        deploy_conntrack(target, controller=controller)
        establish(source, 5001)
        establish(source, 5002)
        # The target's one-entry table is already held by a protected
        # established flow: imports will be refused for capacity.
        establish(target, 6001)

        report = StateMigrator(controller).migrate("source", "target")
        assert report.flows_exported == 2
        assert report.flows_imported < report.flows_exported
        assert report.rejected.get("capacity", 0) > 0
        alert = controller.alerts[-1]
        assert alert.origin_app == controller.CONTROLLER_ORIGIN
        assert "partial" in alert.message and "capacity" in alert.message

    def test_partial_failover_handoff_raises_controller_alert(self, tmp_path):
        """Failover hands off through the same accounted path as
        ``migrate``: a survivor whose cap refuses part of the dead
        member's checkpoint raises the partial-transfer alert."""
        from repro.controller.orchestrator import OrchestrationLoop
        from repro.controller.scaling import ScalingManager, ScalingPolicy
        from repro.transport.faults import FaultPlan, FaultyChannel

        clock = FakeClock()
        controller = OpenBoxController(clock=clock)
        source = make_obi(tmp_path, obi_id="source", clock=clock)
        survivor = make_obi(tmp_path, obi_id="survivor", clock=clock,
                            policy=FlowStatePolicy(
                                max_entries=1, prefix_share=0.0,
                                pressure_watermark=1.0,
                                degradation_watermark=1.0,
                            ))
        channels = []
        connect_inproc(controller, source, wrap_downstream=lambda channel:
                       channels.append(FaultyChannel(channel, FaultPlan()))
                       or channels[-1])
        connect_inproc(controller, survivor)
        deploy_conntrack(source, controller=controller)
        deploy_conntrack(survivor, controller=controller)
        establish(source, 5001)
        establish(source, 5002)
        # The survivor's one-entry table already holds a protected
        # established flow: the handoff is refused for capacity.
        establish(survivor, 6001)
        scaling = ScalingManager(controller.stats, provisioner=None,
                                 policy=ScalingPolicy(scale_down_load=0.0))
        scaling.register_group("ct-group", ["source", "survivor"])
        loop = OrchestrationLoop(controller, scaling)
        clock.advance(1.0)  # a nonzero uptime: idle OBIs report low load
        loop.tick()
        assert len(loop.snapshots["source"]["entries"]) == 2

        channels[-1].kill()
        clock.advance(controller.stats.liveness_timeout + 1.0)
        report = loop.tick()

        assert report.failovers == [("source", "survivor")]
        alert = controller.alerts[-1]
        assert alert.origin_app == controller.CONTROLLER_ORIGIN
        assert "partial" in alert.message and "capacity" in alert.message
        handoff = loop.migrator.reports[-1]
        assert (handoff.source, handoff.target) == ("source", "survivor")
        assert handoff.flows_imported < handoff.flows_exported == 2
