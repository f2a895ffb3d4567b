"""Controller high availability, end to end (ISSUE acceptance scenario).

The leader dies SIGKILL-style *mid-deploy* — or worse, stays alive but
partitioned — while a hot standby tails its journal. The standby takes
over only after the leader's lease expires, mints a fenced epoch, and
the OBIs re-home to it: headless buffers replay to the *new* leader,
anti-entropy converges the half-deployed intent, and the old leader's
ghost gets ``stale_generation`` everywhere it turns. Zero packets are
dropped by headless-buffered OBIs and ``split_brain_accepts == 0``.
"""

import pytest

from repro.bootstrap import connect_inproc, rehome_inproc
from repro.chaos import Scenario, ScenarioRunner, step
from repro.controller.apps import AppStatement, FunctionApplication
from repro.controller.journal import StateJournal
from repro.controller.lease import InProcLeaseStore, LeaseManager
from repro.controller.obc import OpenBoxController
from repro.controller.orchestrator import OrchestrationLoop
from repro.controller.reconcile import AntiEntropyLoop
from repro.controller.replication import ReplicationHub, StandbyController
from repro.controller.scaling import ScalingManager, ScalingPolicy
from repro.net.builder import make_tcp_packet
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.protocol.errors import ErrorCode, ProtocolError
from repro.transport.faults import FaultPlan, FaultyChannel
from repro.transport.inproc import InProcPair
from tests.conftest import build_firewall_graph, build_ips_graph
from tests.obi.test_instance_robustness import FakeClock

pytestmark = pytest.mark.chaos

LEASE_TTL = 30.0


def _fw_app():
    return FunctionApplication(
        "fw", lambda: [AppStatement(graph=build_firewall_graph("fw"))],
        priority=1,
    )


def _ips_app():
    return FunctionApplication(
        "ips", lambda: [AppStatement(graph=build_ips_graph("ips"))],
        priority=2,
    )


def alert_packet():
    return make_tcp_packet("44.0.0.1", "192.168.0.9", 1234, 22)


def pass_packet():
    return make_tcp_packet("44.0.0.1", "192.168.0.9", 9999, 12345)


class HAScenario:
    """Leader + hot standby + two OBIs, a deploy cut short halfway.

    The leader is lease-managed and drives replication through its
    orchestration loop; the standby tails the journal over an
    in-process replication channel. ``wrap_downstream`` interposes a
    chaos proxy on every controller→OBI channel.
    """

    def __init__(self, tmp_path, headless_buffer=256, wrap_downstream=None):
        self.clock = FakeClock()
        self.store = InProcLeaseStore()
        self.leader_lease = LeaseManager(
            "c1", self.store, ttl=LEASE_TTL, clock=self.clock
        )
        self.standby_lease = LeaseManager(
            "c2", self.store, ttl=LEASE_TTL, clock=self.clock
        )
        self.leader = OpenBoxController(
            clock=self.clock,
            journal=StateJournal(str(tmp_path / "leader.journal"),
                                 fsync_every=1),
        )
        self.hub = ReplicationHub(
            self.leader, leader_id="c1", endpoints=["c1", "c2"]
        )
        self.standby = StandbyController(
            "c2", tmp_path / "replica.journal", clock=self.clock
        )
        replica_link = InProcPair("c1", "standby:c2")
        replica_link.right.set_handler(self.standby.handle_message)
        self.hub.attach("c2", replica_link.left)
        self.replica_link = replica_link

        self.obis = {}
        self.pairs = {}
        self.faulty = {}
        for obi_id in ("obi-1", "obi-2"):
            obi = OpenBoxInstance(
                ObiConfig(obi_id=obi_id, segment="corp", headless_after=30.0,
                          headless_buffer=headless_buffer),
                clock=self.clock,
            )
            self.pairs[obi_id] = connect_inproc(
                self.leader, obi, wrap_downstream=wrap_downstream
            )
            if wrap_downstream is not None:
                self.faulty[obi_id] = self.leader.obis[obi_id].channel
            self.obis[obi_id] = obi

        scaling = ScalingManager(self.leader.stats, provisioner=None,
                                 policy=ScalingPolicy())
        self.loop = OrchestrationLoop(
            self.leader, scaling,
            lease=self.leader_lease, replication=self.hub,
        )
        # First tick: acquire the lease (epoch 1 == fresh generation 1),
        # announce, and replicate the bootstrap journal.
        self.loop.tick()

        self.leader.register_application(_fw_app())
        # Mid-deploy crash window: the second application reaches obi-1
        # but the leader dies before deploying it to obi-2. The journal
        # (and thus the standby, after the sync tick) knows the intent.
        self.leader.auto_deploy = False
        self.leader.register_application(_ips_app())
        self.leader.deploy("obi-1")
        # The journal delta (including the partial deploy) reaches the
        # standby, but the leader dies before its next orchestration
        # tick — so no anti-entropy round ever healed the half-deploy.
        self.hub.sync()
        self.versions = {name: obi.graph_version
                         for name, obi in self.obis.items()}

    # ------------------------------------------------------------------
    def kill_leader(self):
        """SIGKILL: no close(), no flush beyond fsync_every=1; every
        channel to the dead process starts refusing."""
        for pair in self.pairs.values():
            pair.close()
        self.replica_link.close()

    def outage(self, seconds=LEASE_TTL * 2):
        self.clock.advance(seconds)

    def fail_over(self):
        """The standby's side of §12: lease, takeover, re-homing."""
        lease = self.standby_lease.tick()
        assert lease is not None, "lease must be acquirable after expiry"
        promoted = self.standby.take_over(
            lease, applications=[_fw_app(), _ips_app()]
        )
        rehomed = {}
        for obi_id, obi in self.obis.items():
            won = rehome_inproc(obi, [("c1", None), ("c2", promoted)])
            assert won is not None
            rehomed[obi_id] = won[0]
        self.promoted = promoted
        return promoted, rehomed


class TestLeaderCrashFailover:
    def test_standby_converges_the_half_deployed_fleet(self, tmp_path):
        scenario = HAScenario(tmp_path)
        scenario.kill_leader()
        scenario.outage()
        promoted, rehomed = scenario.fail_over()
        assert set(rehomed.values()) == {"c2"}  # dead address skipped
        loop = AntiEntropyLoop(promoted)
        assert loop.run_until_converged()[-1].all_converged
        # obi-1 already ran fw+ips (adopted, no duplicate push); obi-2
        # missed the ips deploy and gets exactly one push.
        assert scenario.obis["obi-1"].graph_version == \
            scenario.versions["obi-1"]
        assert scenario.obis["obi-2"].graph_version == \
            scenario.versions["obi-2"] + 1

    def test_promotion_is_epoch_fenced_above_the_dead_leader(self, tmp_path):
        scenario = HAScenario(tmp_path)
        old_generation = scenario.leader.generation
        scenario.kill_leader()
        scenario.outage()
        promoted, _ = scenario.fail_over()
        assert promoted.generation > old_generation
        assert promoted.generation >= scenario.standby_lease.epoch
        for obi in scenario.obis.values():
            assert obi.highest_controller_generation == promoted.generation

    def test_zero_packets_dropped_across_the_failover(self, tmp_path):
        scenario = HAScenario(tmp_path)
        scenario.kill_leader()
        scenario.outage()
        delivered = 0
        for obi in scenario.obis.values():
            assert obi.is_headless()
            for _ in range(50):
                outcome = obi.process_packet(pass_packet())
                assert not outcome.dropped and not outcome.shed
                delivered += bool(outcome.outputs)
        assert delivered == 100
        scenario.fail_over()
        for obi in scenario.obis.values():
            assert not obi.is_headless()

    def test_headless_buffer_replays_to_the_new_leader(self, tmp_path):
        """Satellite: the reconnect target is a *different* controller —
        the buffered events (and the drop-summary alert) must arrive at
        whoever won the lease, not the controller they were born under."""
        scenario = HAScenario(tmp_path, headless_buffer=4)
        scenario.kill_leader()
        scenario.outage()
        obi = scenario.obis["obi-1"]
        assert obi.is_headless()
        for _ in range(10):
            scenario.clock.advance(1.0)
            obi.process_packet(alert_packet())
        assert obi.headless_buffer.dropped == 6
        pre_failover_leader_alerts = len(scenario.leader.alerts)

        promoted, _ = scenario.fail_over()

        assert len(obi.headless_buffer) == 0
        mine = [a for a in promoted.alerts if a.obi_id == "obi-1"]
        survivors = [a for a in mine if "dropped while headless"
                     not in a.message]
        summaries = [a for a in mine if "dropped while headless" in a.message]
        assert len(survivors) == 4
        assert len(summaries) == 1 and summaries[0].count == 6
        # The dead leader heard nothing after its demise.
        assert len(scenario.leader.alerts) == pre_failover_leader_alerts

    def test_failover_survives_a_second_failover(self, tmp_path):
        scenario = HAScenario(tmp_path)
        scenario.kill_leader()
        scenario.outage()
        promoted, _ = scenario.fail_over()
        AntiEntropyLoop(promoted).run_until_converged()
        # The promoted controller now journals; a third controller can
        # recover from *its* journal after it too dies.
        scenario.clock.advance(LEASE_TTL * 2)
        lease = scenario.store.acquire("c3", ttl=LEASE_TTL,
                                       now=scenario.clock())
        third = OpenBoxController.recover(
            scenario.standby.path,
            applications=[_fw_app(), _ips_app()], clock=scenario.clock,
        )
        third.adopt_epoch(lease.epoch)
        assert third.generation > promoted.generation
        for obi in scenario.obis.values():
            assert rehome_inproc(obi, [("c2", None), ("c3", third)])
        assert AntiEntropyLoop(third).run_until_converged()[-1].all_converged


class TestSplitBrain:
    """The leader survives, partitioned: cut off from the lease store
    (and the standby) while its channels to the OBIs still work — the
    asymmetric case where fencing has to do all the work."""

    def _split(self, tmp_path, partition_mode):
        scenario = HAScenario(
            tmp_path,
            wrap_downstream=lambda ch: FaultyChannel(ch, FaultPlan()),
        )
        scenario.store.partition("c1")
        scenario.replica_link.close()  # standby unreachable from leader
        for chaos in scenario.faulty.values():
            chaos.partition(partition_mode)
        return scenario

    @pytest.mark.parametrize("partition_mode", ["rx", "both"])
    def test_zero_split_brain_accepts(self, tmp_path, partition_mode):
        scenario = self._split(tmp_path, partition_mode)

        # Inside its lease the partitioned leader may still act (its
        # grant is valid); past expiry its own tick demotes it and the
        # loop does nothing southbound — no store round trip needed.
        report = scenario.loop.tick()
        assert report.leader
        scenario.outage()  # lease lapses in absentia
        report = scenario.loop.tick()
        assert not report.leader
        assert not report.polled and not report.reconcile_pushed

        promoted, _ = scenario.fail_over()
        AntiEntropyLoop(promoted).run_until_converged()
        versions = {n: o.graph_version for n, o in scenario.obis.items()}

        # The ghost ignores its demotion and pushes anyway, straight
        # through its (rx-partitioned) channels. Under "rx" the OBI
        # *receives* every push — and must fence it.
        split_brain_accepts = 0
        for obi_id in scenario.obis:
            try:
                scenario.leader.deploy(obi_id)
                split_brain_accepts += 1
            except Exception:  # noqa: BLE001 - timeout or stale, both fine
                pass
        assert split_brain_accepts == 0
        assert all(scenario.obis[n].graph_version == versions[n]
                   for n in scenario.obis)
        if partition_mode == "rx":
            # The pushes really arrived (asymmetric cut) and were
            # rejected by the epoch fence, not lost in transit.
            assert sum(o.stale_generation_rejections
                       for o in scenario.obis.values()) >= 2

    def test_healed_ghost_stands_down(self, tmp_path):
        scenario = self._split(tmp_path, "rx")
        scenario.outage()
        scenario.loop.tick()
        promoted, _ = scenario.fail_over()
        AntiEntropyLoop(promoted).run_until_converged()
        # Partition heals: the ghost's next tick reaches the store,
        # finds the standby's live lease, and stays a follower.
        scenario.store.heal("c1")
        for chaos in scenario.faulty.values():
            chaos.heal()
        report = scenario.loop.tick()
        assert not report.leader
        assert not scenario.leader_lease.is_leader(scenario.clock())
        # A direct ghost push is fenced and flips superseded.
        with pytest.raises(ProtocolError) as excinfo:
            scenario.leader.deploy("obi-1")
        assert excinfo.value.code == ErrorCode.STALE_GENERATION
        assert scenario.leader.superseded


class TestAntiEntropyVsRecoverRace:
    """Satellite: a fenced-out ghost's anti-entropy round racing the
    successor must not adopt digests or push graphs."""

    def test_ghost_round_stops_before_adopt(self, tmp_path):
        scenario = HAScenario(tmp_path)
        scenario.kill_leader()
        scenario.outage()
        promoted, _ = scenario.fail_over()
        AntiEntropyLoop(promoted).run_until_converged()

        ghost = scenario.leader
        journal_before = StateJournal.replay(ghost.journal.path).state
        # A late keepalive from the re-homed OBI reaches the ghost: its
        # digest matches the ghost's own intent (same apps), and its
        # epoch betrays the successor. The fence must fire BEFORE the
        # matching digest can be adopted into the ghost's journal.
        from repro.protocol.messages import KeepAlive

        obi = scenario.obis["obi-1"]
        ghost.handle_message(KeepAlive(
            obi_id="obi-1", graph_version=obi.graph_version,
            graph_digest=obi.graph_digest, epoch=obi.highest_controller_generation,
        ))
        assert ghost.obis["obi-1"].reported_digest == obi.graph_digest

        report = AntiEntropyLoop(ghost).reconcile()
        assert report.superseded and ghost.superseded
        assert not report.adopted and not report.pushed
        journal_after = StateJournal.replay(ghost.journal.path).state
        assert journal_after.obis == journal_before.obis

    def test_ghost_keepalive_path_also_fences(self, tmp_path):
        from repro.protocol.messages import KeepAlive

        scenario = HAScenario(tmp_path)
        scenario.kill_leader()
        scenario.outage()
        promoted, _ = scenario.fail_over()
        ghost = scenario.leader
        ghost.handle_message(KeepAlive(
            obi_id="obi-1",
            epoch=promoted.generation,
        ))
        assert ghost.superseded
        report = AntiEntropyLoop(ghost).reconcile()
        assert report.superseded
        assert not report.checked  # round refused outright


class TestSplitBrainScenario:
    """:class:`TestSplitBrain`, migrated onto the declarative chaos
    engine (``repro.chaos``, docs/CHAOS.md).

    The same asymmetric partition — leader alive but cut off from the
    lease store and the standby while its OBI channels still (half)
    work — expressed as a replayable seeded :class:`Scenario`, with
    every system-wide invariant re-checked after **every** step. The
    ``split_brain_accepts`` invariant now *is* the headline assertion:
    a fencing hole fails the scenario at the exact ghost-push step.
    Phase-split runs against one environment preserve every original
    assertion, including the ones the step vocabulary does not carry
    (tick report internals, per-OBI fence counters).
    """

    SEED = 13

    def _run(self, runner, name, steps, root=None, env=None):
        result = runner.run(
            Scenario(name=name, seed=self.SEED, steps=list(steps)),
            root=root, env=env,
        )
        assert result.ok, result.summary()
        return result

    def _split(self, runner, tmp_path, partition_mode):
        result = self._run(runner, "split-brain:setup", [
            step("half_deploy"),
            step("lease_partition", owner="c1"),
            # The replication link dies like a closed TCP peer (the
            # hub tolerates ChannelClosed); the OBI channels get the
            # directional cut under test.
            step("kill", point="transport:standby"),
            step("partition", point="transport:obi-1",
                 mode=partition_mode),
            step("partition", point="transport:obi-2",
                 mode=partition_mode),
        ], root=str(tmp_path))
        return result.env

    @pytest.mark.parametrize("partition_mode", ["rx", "both"])
    def test_zero_split_brain_accepts(self, tmp_path, partition_mode):
        runner = ScenarioRunner()
        env = self._split(runner, tmp_path, partition_mode)

        # Inside its lease the partitioned leader may still act (its
        # grant is valid) ...
        in_lease = self._run(runner, "split-brain:in-lease",
                             [step("tick")], env=env)
        assert in_lease.observations[0]["outcome"]["leader"] is True

        # ... past expiry its own tick demotes it and the loop does
        # nothing southbound — no store round trip needed. (Direct
        # tick: the step outcome does not carry polled/pushed.)
        self._run(runner, "split-brain:lapse",
                  [step("advance", seconds=61.0)], env=env)
        report = env.loop.tick()
        assert not report.leader
        assert not report.polled and not report.reconcile_pushed

        self._run(runner, "split-brain:failover",
                  [step("fail_over"), step("converge")], env=env)
        versions = {name: obi.graph_version
                    for name, obi in env.obis.items()}

        # The ghost ignores its demotion and pushes anyway, straight
        # through its (rx-partitioned) channels. Under "rx" the OBI
        # *receives* every push — and must fence it. An accepted push
        # would fail the split_brain_accepts invariant right here.
        ghost = self._run(runner, "split-brain:ghost",
                          [step("ghost_deploy")], env=env)
        assert ghost.observations[0]["outcome"] == 0
        assert env.split_brain_accepts == 0
        assert all(env.obis[name].graph_version == versions[name]
                   for name in env.obis)
        if partition_mode == "rx":
            # The pushes really arrived (asymmetric cut) and were
            # rejected by the epoch fence, not lost in transit.
            assert sum(obi.stale_generation_rejections
                       for obi in env.obis.values()) >= 2

    def test_healed_ghost_stands_down(self, tmp_path):
        runner = ScenarioRunner()
        env = self._split(runner, tmp_path, "rx")
        self._run(runner, "split-brain:heal", [
            step("advance", seconds=61.0),
            step("tick"),
            step("fail_over"),
            step("converge"),
            step("lease_heal", owner="c1"),
            step("heal", point="transport:obi-1"),
            step("heal", point="transport:obi-2"),
        ], env=env)
        # Partition healed: the ghost's next tick reaches the store,
        # finds the standby's live lease, and stays a follower. (The
        # env tick verb addresses the *active* loop, i.e. the
        # successor's — the deposed loop is driven directly.)
        report = env.loop.tick()
        assert not report.leader
        assert not env.leader_lease.is_leader(env.leader_clock())
        # A direct ghost push is fenced and flips superseded.
        with pytest.raises(ProtocolError) as excinfo:
            env.leader.deploy("obi-1")
        assert excinfo.value.code == ErrorCode.STALE_GENERATION
        assert env.leader.superseded
