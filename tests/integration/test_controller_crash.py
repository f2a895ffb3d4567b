"""Controller crash recovery, end to end (ISSUE acceptance scenario).

A journaled controller dies SIGKILL-style *mid-deploy* — one OBI got
the new intent, the other did not. The data plane rides out the outage
headless (zero packet loss, events buffered with drop accounting), a
fresh controller recovers from the journal, and the anti-entropy loop
converges every OBI back onto the intended graphs: adopting where
reality already matches (no duplicate deploy side effects), re-pushing
where it does not. The stale predecessor is fenced by generation.

Every test runs on the standard chaos topology
(:class:`~repro.chaos.env.ChaosEnv`): recover-in-place restarts the leader
from its own journal at the same address, and the scenario class at the
end drives the standby-failover expression of the same crash.
"""

import pytest

from repro.bootstrap import reconnect_inproc
from repro.chaos.env import _APP_FACTORIES, PACKETS, ChaosEnv
from repro.chaos.scenario import Scenario, ScenarioRunner, step
from repro.controller.obc import OpenBoxController
from repro.controller.reconcile import AntiEntropyLoop
from repro.protocol.errors import ErrorCode, ProtocolError

pytestmark = pytest.mark.chaos


def crashed(tmp_path, headless_buffer=256):
    """SIGKILL the leader mid-deploy and ride out a 120 s outage.

    Returns the environment and each OBI's graph version at the crash.
    """
    env = ChaosEnv(tmp_path, headless_buffer=headless_buffer)
    env.half_deploy()
    versions = {name: obi.graph_version for name, obi in env.obis.items()}
    env.kill_leader()
    env.advance(120.0)
    return env, versions


def recover(env, **kwargs):
    """Restart the leader in place: same journal, same address, and
    every OBI re-Hellos over its reopened pair."""
    recovered = OpenBoxController.recover(
        env.leader.journal.path,
        applications=[factory() for factory in _APP_FACTORIES.values()],
        clock=env.leader_clock, storage=env.leader_storage, **kwargs,
    )
    for name, obi in env.obis.items():
        reconnect_inproc(recovered, obi, env.pairs[name])
    return recovered


class TestCrashMidDeploy:
    def test_anti_entropy_converges_every_obi(self, tmp_path):
        env, _ = crashed(tmp_path)
        recovered = recover(env)
        loop = AntiEntropyLoop(recovered)
        rounds = loop.run_until_converged()
        assert rounds[-1].all_converged
        assert loop.converged()
        for obi_id, obi in env.obis.items():
            handle = recovered.obis[obi_id]
            assert handle.reported_digest == handle.intended_digest
            assert obi.graph_digest == handle.intended_digest

    def test_adopt_vs_push_split(self, tmp_path):
        env, versions = crashed(tmp_path)
        recovered = recover(env)
        # obi-1 already runs fw+ips: adopted during reconnect, never
        # re-pushed — its graph version must not move (the "no duplicate
        # deploy side effects" acceptance clause). obi-2 missed the ips
        # deploy: exactly one push brings it up to date.
        assert env.obis["obi-1"].graph_version == versions["obi-1"]
        assert env.obis["obi-2"].graph_version == versions["obi-2"] + 1
        # Convergence is stable: further rounds do nothing.
        loop = AntiEntropyLoop(recovered)
        report = loop.reconcile()
        assert report.all_converged
        assert not report.pushed and not report.adopted
        assert env.obis["obi-2"].graph_version == versions["obi-2"] + 1

    def test_headless_obis_lose_zero_packets(self, tmp_path):
        env, _ = crashed(tmp_path)
        delivered = 0
        for obi in env.obis.values():
            assert obi.is_headless()
            for _ in range(50):
                outcome = obi.process_packet(PACKETS["pass"]())
                assert not outcome.dropped and not outcome.shed
                delivered += bool(outcome.outputs)
        assert delivered == 100
        recover(env)
        for obi in env.obis.values():
            assert not obi.is_headless()

    def test_buffered_events_replayed_with_drop_accounting(self, tmp_path):
        env, _ = crashed(tmp_path, headless_buffer=4)
        obi = env.obis["obi-1"]
        assert obi.is_headless()
        for _ in range(10):
            env.advance(1.0)
            obi.process_packet(PACKETS["alert"]())
        assert len(obi.headless_buffer) == 4
        assert obi.headless_buffer.dropped == 6

        recovered = recover(env)

        assert len(obi.headless_buffer) == 0
        mine = [a for a in recovered.alerts if a.obi_id == "obi-1"]
        survivors = [a for a in mine if "dropped while headless"
                     not in a.message]
        summaries = [a for a in mine if "dropped while headless" in a.message]
        assert len(survivors) == 4
        assert len(summaries) == 1
        assert summaries[0].count == 6

    def test_generation_fences_the_dead_controllers_ghost(self, tmp_path):
        env, _ = crashed(tmp_path)
        recovered = recover(env)
        assert recovered.generation > env.leader.generation
        # The pre-crash controller object lingers (a partitioned ghost,
        # not a corpse) and tries to finish its interrupted deploy.
        with pytest.raises(ProtocolError) as excinfo:
            env.leader.deploy("obi-2")
        assert excinfo.value.code == ErrorCode.STALE_GENERATION
        assert env.leader.superseded
        # The ghost's rejection never perturbed the converged fleet.
        loop = AntiEntropyLoop(recovered)
        assert loop.reconcile().all_converged

    def test_second_crash_during_reconciliation(self, tmp_path):
        # Crash, recover, converge — then crash *again* and make sure
        # the journal written by the recovered controller is itself a
        # sufficient basis for the next recovery.
        env, versions = crashed(tmp_path)
        first = recover(env)
        AntiEntropyLoop(first).run_until_converged()
        env.advance(60.0)
        second = recover(env)
        assert second.generation == first.generation + 1
        loop = AntiEntropyLoop(second)
        assert loop.run_until_converged()[-1].all_converged
        # Still no pushes needed: both OBIs kept their graphs throughout.
        assert env.obis["obi-1"].graph_version == versions["obi-1"]
        assert env.obis["obi-2"].graph_version == versions["obi-2"] + 1


class TestOrchestratorIntegration:
    def test_tick_runs_anti_entropy_after_recovery(self, tmp_path):
        from repro.controller.orchestrator import OrchestrationLoop
        from repro.controller.scaling import ScalingManager, ScalingPolicy

        env, _ = crashed(tmp_path)
        recovered = recover(env, auto_deploy=False)
        scaling = ScalingManager(recovered.stats, provisioner=None,
                                 policy=ScalingPolicy())
        loop = OrchestrationLoop(recovered, scaling)
        report = loop.tick()
        assert "obi-1" in report.reconcile_adopted
        assert "obi-2" in report.reconcile_pushed
        follow_up = loop.tick()
        assert not follow_up.reconcile_adopted
        assert not follow_up.reconcile_pushed


class TestCrashMidDeployScenario:
    """The SIGKILL-mid-deploy drive as a declarative chaos scenario
    (``repro.chaos``, docs/CHAOS.md): the standby-failover expression
    of the crash the classes above recover in place.

    The fault sequence is a replayable seeded :class:`Scenario` with
    every system-wide invariant (split-brain fencing, telemetry, packet
    conservation, digest agreement, journal replay) re-checked after
    **every** step; the runner's ``env=`` phases let the test observe
    the world mid-schedule (headless, adopted, pushed, fenced).
    """

    SEED = 11

    def _run(self, runner, name, steps, root=None, env=None,
             env_kwargs=None):
        scenario = Scenario(name=name, seed=self.SEED, steps=list(steps),
                            env_kwargs=env_kwargs or {})
        result = runner.run(scenario, root=root, env=env)
        assert result.ok, result.summary()
        return result

    def _crashed_world(self, tmp_path, **env_kwargs):
        """half-deploy, SIGKILL the leader, ride out the lease."""
        runner = ScenarioRunner()
        setup = self._run(runner, "crash:setup", [step("half_deploy")],
                          root=str(tmp_path), env_kwargs=env_kwargs)
        env = setup.env
        versions = {name: obi.graph_version
                    for name, obi in env.obis.items()}
        generation = env.leader.generation
        self._run(runner, "crash:sigkill", [
            step("kill", point="process:leader"),
            step("advance", seconds=61.0),
        ], env=env)
        return runner, env, versions, generation

    def test_headless_outage_loses_zero_packets(self, tmp_path):
        runner, env, _, _ = self._crashed_world(tmp_path)
        for obi in env.obis.values():
            assert obi.is_headless()
        # The conservation invariant re-proves this after every step;
        # the explicit asserts keep the original test's exact claim.
        self._run(runner, "crash:headless-traffic",
                  [step("inject", count=100)], env=env)
        assert env.injected == 100
        assert env.delivered() == 100
        assert sum(env.drop_accounting().values()) == 0
        self._run(runner, "crash:failover",
                  [step("fail_over"), step("tick", n=2), step("converge")],
                  env=env)
        for obi in env.obis.values():
            assert not obi.is_headless()

    def test_anti_entropy_adopts_and_pushes_exactly_where_needed(
        self, tmp_path
    ):
        runner, env, versions, _ = self._crashed_world(tmp_path)
        failover = self._run(
            runner, "crash:failover",
            [step("fail_over"), step("tick", n=2), step("converge")], env=env,
        )
        assert failover.observations[-1]["outcome"] is True  # converged
        # obi-1 already ran fw+ips (adopted, no duplicate push); obi-2
        # missed the ips deploy and gets exactly one push.
        assert env.obis["obi-1"].graph_version == versions["obi-1"]
        assert env.obis["obi-2"].graph_version == versions["obi-2"] + 1
        # A second reconcile round has nothing left to do.
        report = AntiEntropyLoop(env.active).reconcile()
        assert not report.adopted and not report.pushed

    def test_promotion_is_generation_fenced_and_ghost_never_accepted(
        self, tmp_path
    ):
        runner, env, _, generation = self._crashed_world(tmp_path)
        self._run(runner, "crash:failover",
                  [step("fail_over"), step("converge")], env=env)
        promoted = env.promoted
        assert promoted is not None
        assert promoted.generation > generation
        assert promoted.generation >= env.standby_lease.epoch
        for obi in env.obis.values():
            assert obi.highest_controller_generation == promoted.generation
            assert obi.rehomed_to == "c2"  # the dead address is skipped
        after = {name: obi.graph_version
                 for name, obi in env.obis.items()}
        ghost = self._run(runner, "crash:ghost", [step("ghost_deploy")],
                          env=env)
        assert ghost.observations[0]["outcome"] == 0
        assert env.split_brain_accepts == 0
        assert {name: obi.graph_version
                for name, obi in env.obis.items()} == after

    def test_headless_buffer_replays_to_the_new_leader(self, tmp_path):
        runner, env, _, _ = self._crashed_world(tmp_path, headless_buffer=4)
        obi = env.obis["obi-1"]
        assert obi.is_headless()
        drip = []
        for _ in range(10):
            drip += [step("advance", seconds=1.0),
                     step("inject", count=1, kind="alert")]
        self._run(runner, "crash:alert-storm", drip, env=env)
        assert obi.headless_buffer.dropped == 6
        pre_failover_leader_alerts = len(env.leader.alerts)
        self._run(runner, "crash:failover", [step("fail_over")], env=env)
        assert len(obi.headless_buffer) == 0
        mine = [a for a in env.promoted.alerts if a.obi_id == "obi-1"]
        survivors = [a for a in mine
                     if "dropped while headless" not in a.message]
        summaries = [a for a in mine
                     if "dropped while headless" in a.message]
        assert len(survivors) == 4
        assert len(summaries) == 1 and summaries[0].count == 6
        # The dead leader heard nothing after its demise.
        assert len(env.leader.alerts) == pre_failover_leader_alerts
