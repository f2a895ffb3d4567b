"""The unified chaos engine, end to end (DESIGN.md §7, docs/CHAOS.md).

The centerpiece is the ISSUE's acceptance scenario: ENOSPC during an
fsync-batched append storm → journaled-read-only degraded mode (deploys
fenced, ``_controller`` alert, zero uncounted packet loss) → storage
heals → the next orchestration tick rebuilds a fresh fsync'd segment
and lifts the fence automatically — and the new segment replays cleanly
through ``OpenBoxController.recover``.
"""

import pytest

from repro.chaos.scenario import Scenario, ScenarioRunner, step
from repro.chaos.search import acceptance_scenario
from repro.controller.journal import StateJournal
from repro.controller.obc import OpenBoxController

pytestmark = pytest.mark.chaos


@pytest.fixture
def runner():
    return ScenarioRunner()


class TestAcceptanceScenario:
    """step-by-step: enospc-degrade-heal-resume (seed 1337)."""

    @pytest.fixture
    def result(self, runner, tmp_path):
        return runner.run(acceptance_scenario(), str(tmp_path))

    def test_every_invariant_holds_at_every_step(self, result):
        assert result.ok, result.summary()
        assert result.steps_run == len(acceptance_scenario().steps)

    def test_degraded_mode_entered_and_alert_raised(self, result):
        env = result.env
        critical = [a for a in env.leader.alerts
                    if a.severity == "critical"
                    and a.origin_app == OpenBoxController.CONTROLLER_ORIGIN]
        assert len(critical) == 1
        assert "journal storage failed" in critical[0].message
        assert "ENOSPC" in critical[0].message
        # The tick that observed the outage reported it.
        degraded_ticks = [o for o in result.observations
                          if o["op"] == "tick"
                          and isinstance(o["outcome"], dict)
                          and o["outcome"]["degraded"]]
        assert degraded_ticks

    def test_deploys_were_fenced_while_degraded(self, result):
        fenced = [o for o in result.observations
                  if o["op"] == "deploy"
                  and str(o["outcome"]).startswith("raised ProtocolError")]
        assert fenced
        assert "degraded" in fenced[0]["outcome"]

    def test_zero_uncounted_packet_loss_throughout(self, result):
        env = result.env
        assert env.injected == 70
        assert env.delivered() + sum(env.drop_accounting().values()) == 70
        # The fw graph passes this traffic: nothing was even dropped.
        assert env.delivered() == 70

    def test_automatic_resume_with_fresh_fsynced_segment(self, result):
        env = result.env
        assert not env.leader.degraded
        assert env.leader.journal_resumes == 1
        assert env.leader.journal.rebuilds == 1
        assert env.leader.journal.segment == 1
        resumed_ticks = [o for o in result.observations
                         if o["op"] == "tick"
                         and isinstance(o["outcome"], dict)
                         and o["outcome"]["journal_resumed"]]
        assert len(resumed_ticks) == 1
        healed = [a for a in env.leader.alerts if a.severity == "info"
                  and "healed" in a.message]
        assert len(healed) == 1

    def test_new_segment_replays_through_recover(self, result):
        env = result.env
        replayed = StateJournal.replay(env.leader.journal.path)
        assert not replayed.truncated
        assert replayed.state.generation == env.leader.generation
        assert set(replayed.state.apps) == {"fw", "ips"}
        from repro.chaos.env import _APP_FACTORIES
        recovered = OpenBoxController.recover(
            env.leader.journal.path,
            applications=[_APP_FACTORIES[name]() for name in ("fw", "ips")],
        )
        assert recovered.generation == env.leader.generation + 1
        assert (recovered.expected_obis["obi-1"]["digest"]
                == env.leader.obis["obi-1"].intended_digest)

    def test_post_heal_convergence_restores_digest_agreement(self, result):
        env = result.env
        for obi_id, obi in env.obis.items():
            assert (obi.graph_digest
                    == env.leader.obis[obi_id].intended_digest), obi_id


class TestInvariantsCatchRealViolations:
    """Negative controls: a broken system must FAIL the scenario."""

    def test_forged_split_brain_accept_is_flagged(self, runner, tmp_path):
        scenario = Scenario(
            name="negative-split-brain", seed=0,
            steps=[step("inject", count=1), step("advance", seconds=1.0)],
        )
        first = runner.run(
            Scenario(name="setup", steps=[step("inject", count=1)], seed=0),
            str(tmp_path),
        )
        env = first.env
        env.split_brain_accepts = 2  # simulate a fencing hole
        rerun = runner.run(scenario, env=env)
        assert not rerun.ok
        assert any(v.invariant == "split_brain_accepts"
                   for v in rerun.violations)

    def test_silent_packet_loss_is_flagged(self, runner, tmp_path):
        first = runner.run(
            Scenario(name="setup", steps=[step("inject", count=5)], seed=0),
            str(tmp_path),
        )
        env = first.env
        env.injected += 3  # 3 packets vanish without a counted reason
        rerun = runner.run(
            Scenario(name="negative-loss", seed=0,
                     steps=[step("advance", seconds=1.0)]),
            env=env,
        )
        assert not rerun.ok
        assert any(v.invariant == "packet_conservation"
                   for v in rerun.violations)


class TestTransportAndProcessScenarios:
    def test_obi_kill_and_revive_reconverges(self, runner, tmp_path):
        scenario = Scenario(
            name="kill-revive", seed=3,
            steps=[
                step("inject", count=5),
                step("kill", point="process:obi-2"),
                step("tick"),
                step("revive", point="process:obi-2"),
                step("advance", seconds=5.0),
                step("tick", n=2),
                step("converge"),
                step("inject", count=5),
            ],
        )
        result = runner.run(scenario, str(tmp_path))
        assert result.ok, result.summary()
        assert result.env.injected == 10

    def test_partition_heals_into_convergence(self, runner, tmp_path):
        scenario = Scenario(
            name="partition-heal", seed=4,
            steps=[
                step("partition", point="transport:obi-1", mode="both"),
                step("register_app", name="ips"),
                step("tick"),
                step("heal", point="transport:obi-1"),
                step("tick", n=2),
                step("converge"),
                step("inject", count=4),
            ],
        )
        result = runner.run(scenario, str(tmp_path))
        assert result.ok, result.summary()

    def test_clock_chaos_does_not_break_invariants(self, runner, tmp_path):
        scenario = Scenario(
            name="clock-chaos", seed=5,
            steps=[
                step("clock_skew", point="clock:leader", rate=1.8),
                step("clock_jump", point="clock:obi-1", seconds=20.0),
                step("advance", seconds=5.0),
                step("tick", n=2),
                step("clock_reset", point="clock:leader"),
                step("clock_reset", point="clock:obi-1"),
                step("tick"),
                step("converge"),
                step("inject", count=6),
            ],
        )
        result = runner.run(scenario, str(tmp_path))
        assert result.ok, result.summary()
