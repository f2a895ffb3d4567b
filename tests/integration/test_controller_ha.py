"""Controller high availability, end to end (ISSUE acceptance scenario).

The leader dies SIGKILL-style *mid-deploy* — or worse, stays alive but
partitioned — while a hot standby tails its journal. The standby takes
over only after the leader's lease expires, mints a fenced epoch, and
the OBIs re-home to it: headless buffers replay to the *new* leader,
anti-entropy converges the half-deployed intent, and the old leader's
ghost gets ``stale_generation`` everywhere it turns. Zero packets are
dropped by headless-buffered OBIs and ``split_brain_accepts == 0``.

Every test runs on the standard chaos topology
(:class:`~repro.chaos.env.ChaosEnv`); the crash-and-fail-over drive itself
is ``TestCrashMidDeployScenario`` in ``test_controller_crash.py``.
"""

import pytest

from repro.bootstrap import rehome_inproc
from repro.chaos.env import _APP_FACTORIES, LEASE_TTL, ChaosEnv
from repro.chaos.scenario import Scenario, ScenarioRunner, step
from repro.controller.journal import StateJournal
from repro.controller.obc import OpenBoxController
from repro.controller.reconcile import AntiEntropyLoop
from repro.protocol.errors import ErrorCode, ProtocolError
from repro.protocol.messages import KeepAlive

pytestmark = pytest.mark.chaos


def failed_over(tmp_path):
    """Half-deploy, SIGKILL the leader, let its lease lapse, promote
    the standby."""
    env = ChaosEnv(tmp_path)
    env.half_deploy()
    env.kill_leader()
    env.advance(LEASE_TTL * 2 + 1.0)
    promoted = env.fail_over()
    assert promoted is not None, "lease must be acquirable after expiry"
    return env, promoted


class TestLeaderCrashFailover:
    def test_failover_survives_a_second_failover(self, tmp_path):
        env, promoted = failed_over(tmp_path)
        assert env.converge()
        # The promoted controller now journals; a third controller can
        # recover from *its* journal after it too dies.
        env.advance(LEASE_TTL * 2)
        lease = env.store.acquire("c3", ttl=LEASE_TTL,
                                  now=env.standby_clock())
        third = OpenBoxController.recover(
            env.standby.path,
            applications=[factory() for factory in _APP_FACTORIES.values()],
            clock=env.standby_clock, storage=env.standby_storage,
        )
        third.adopt_epoch(lease.epoch)
        assert third.generation > promoted.generation
        for obi in env.obis.values():
            assert rehome_inproc(obi, [("c2", None), ("c3", third)])
        assert AntiEntropyLoop(third).run_until_converged()[-1].all_converged


class TestAntiEntropyVsRecoverRace:
    """Satellite: a fenced-out ghost's anti-entropy round racing the
    successor must not adopt digests or push graphs."""

    def test_ghost_round_stops_before_adopt(self, tmp_path):
        env, _ = failed_over(tmp_path)
        assert env.converge()

        ghost = env.leader
        journal_before = StateJournal.replay(ghost.journal.path).state
        # A late keepalive from the re-homed OBI reaches the ghost: its
        # digest matches the ghost's own intent (same apps), and its
        # epoch betrays the successor. The fence must fire BEFORE the
        # matching digest can be adopted into the ghost's journal.
        obi = env.obis["obi-1"]
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
        env, promoted = failed_over(tmp_path)
        ghost = env.leader
        ghost.handle_message(KeepAlive(
            obi_id="obi-1",
            epoch=promoted.generation,
        ))
        assert ghost.superseded
        report = AntiEntropyLoop(ghost).reconcile()
        assert report.superseded
        assert not report.checked  # round refused outright


class TestSplitBrainScenario:
    """Split brain: the leader survives, partitioned — cut off from the
    lease store and the standby while its OBI channels still (half)
    work, the asymmetric case where fencing has to do all the work.

    A replayable seeded :class:`Scenario` (``repro.chaos``,
    docs/CHAOS.md) with every system-wide invariant re-checked after
    **every** step. The ``split_brain_accepts`` invariant is the
    headline assertion: a fencing hole fails the scenario at the exact
    ghost-push step. Phase-split runs against one environment also
    check what the step vocabulary does not carry (tick report
    internals, per-OBI fence counters).
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
