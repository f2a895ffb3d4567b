"""ScenarioRunner mechanics + the random scenario search.

These tests exercise the *harness* — step dispatch, invariant
provenance, serialization, determinism, shrinking, soak persistence —
with tiny schedules. The system-level scenarios (ENOSPC degrade/heal,
SIGKILL mid-deploy, split brain, long soaks) live in
``tests/integration/``.
"""

import json

import pytest

from repro.chaos.invariants import DEFAULT_INVARIANTS, Invariant
from repro.chaos.scenario import (
    EXPECTED_ERRORS,
    Scenario,
    ScenarioRunner,
    Step,
    step,
)
from repro.chaos.search import random_scenario, run_soak, shrink


def scenario_of(*steps, seed=0, name="t"):
    return Scenario(name=name, steps=list(steps), seed=seed)


class TestScenarioSerialization:
    def test_round_trip(self):
        original = scenario_of(
            step("inject", count=3, kind="drop"),
            step("storage_fail_fsync", point="storage:leader",
                 error="ENOSPC", count=2),
            seed=99, name="rt",
        )
        clone = Scenario.from_dict(json.loads(json.dumps(original.to_dict())))
        assert clone.name == "rt" and clone.seed == 99
        assert clone.steps == original.steps

    def test_step_sugar(self):
        made = step("advance", seconds=2.0)
        assert made == Step(op="advance", args={"seconds": 2.0})
        assert made.to_list() == ["advance", {"seconds": 2.0}]


class TestRunnerMechanics:
    def test_healthy_schedule_passes_default_invariants(self, tmp_path):
        result = ScenarioRunner().run(
            scenario_of(step("inject", count=5), step("tick"),
                        step("converge")),
            str(tmp_path),
        )
        assert result.ok, result.summary()
        assert result.steps_run == 3
        assert result.env.injected == 5
        assert result.env.delivered() == 5
        assert "OK" in result.summary()

    def test_unknown_op_is_a_scenario_error(self, tmp_path):
        result = ScenarioRunner().run(
            scenario_of(step("inject", count=1), step("frobnicate")),
            str(tmp_path),
        )
        assert not result.ok
        assert "frobnicate" in result.error
        assert result.steps_run == 2  # stopped at the bad step
        assert "FAILED" in result.summary()

    def test_expected_errors_recorded_not_fatal(self, tmp_path):
        # Deploy while the journal storage is down raises ProtocolError
        # (DEGRADED) — an *expected* fault response, recorded as the
        # step's outcome, never a scenario failure.
        result = ScenarioRunner().run(
            scenario_of(
                step("storage_fail_fsync", point="storage:leader"),
                step("register_app", name="ips"),
                step("deploy", obi="obi-1"),
                step("storage_heal", point="storage:leader"),
                step("tick"),
            ),
            str(tmp_path),
        )
        assert result.ok, result.summary()
        outcome = result.observations[2]["outcome"]
        assert outcome.startswith("raised ProtocolError")
        assert "degraded" in outcome

    def test_violation_carries_step_provenance(self, tmp_path):
        tripwire = Invariant(
            name="tripwire", description="fires once armed",
            check=lambda env: "boom" if env.injected else None,
        )
        result = ScenarioRunner(invariants=[tripwire]).run(
            scenario_of(step("advance", seconds=1.0),
                        step("inject", count=1), step("tick")),
            str(tmp_path),
        )
        assert not result.ok
        # Without fail_fast every later step re-reports the violation.
        assert len(result.violations) == 2
        first = result.violations[0]
        assert (first.invariant, first.step_index, first.op) == (
            "tripwire", 1, "inject"
        )
        assert "step 1 (inject)" in str(first)

    def test_fail_fast_stops_at_first_violation(self, tmp_path):
        tripwire = Invariant(
            name="tripwire", description="",
            check=lambda env: "boom" if env.injected else None,
        )
        result = ScenarioRunner(invariants=[tripwire], fail_fast=True).run(
            scenario_of(step("inject", count=1), step("advance"),
                        step("advance")),
            str(tmp_path),
        )
        assert not result.ok
        assert result.steps_run == 1

    def test_run_against_existing_env_in_phases(self, tmp_path):
        # Migrated integration tests split one schedule into phases and
        # assert on the environment between them.
        runner = ScenarioRunner()
        first = runner.run(scenario_of(step("inject", count=2)),
                           str(tmp_path))
        env = first.env
        second = runner.run(scenario_of(step("inject", count=3)), env=env)
        assert second.ok
        assert env.injected == 5

    def test_transport_point_follows_a_revived_obi(self, tmp_path):
        # A revive dials a fresh channel: the point must name it, under
        # the OBI's own plan, or later transport faults hit a dead link.
        result = ScenarioRunner().run(scenario_of(
            step("kill", point="process:obi-1"),
            step("revive", point="process:obi-1"),
            step("partition", point="transport:obi-1", mode="both"),
            step("deploy", obi="obi-1"),
        ), str(tmp_path))
        assert result.ok, result.summary()
        assert result.observations[-1]["outcome"] is not True
        env = result.env
        channel = env.point("transport:obi-1")
        assert channel is env.leader.obis["obi-1"].channel
        assert channel.partition_drops == 1
        assert channel.plan.seed == env.seed + 1

    def test_run_needs_root_or_env(self):
        with pytest.raises(ValueError):
            ScenarioRunner().run(scenario_of(step("tick")))

    def test_mutating_op_clears_convergence(self, tmp_path):
        result = ScenarioRunner().run(
            scenario_of(step("converge"), step("register_app", name="ips")),
            str(tmp_path),
        )
        assert result.ok
        assert result.env.converged is False

    def test_default_catalog_covers_the_documented_invariants(self):
        names = {inv.name for inv in DEFAULT_INVARIANTS}
        assert names == {
            "split_brain_accepts", "telemetry_lossless",
            "packet_conservation", "digest_agreement", "journal_replay",
        }

    def test_oserror_is_an_expected_error(self):
        # Storage faults surface as OSError from ops that touch disk
        # directly; the runner records rather than aborts.
        assert OSError in EXPECTED_ERRORS


class TestRandomSearch:
    def test_same_seed_same_schedule(self):
        a, b = random_scenario(7, steps=30), random_scenario(7, steps=30)
        assert a.steps == b.steps
        assert a.seed == 7

    def test_different_seeds_differ(self):
        assert random_scenario(1, steps=30).steps != random_scenario(
            2, steps=30
        ).steps

    def test_every_op_is_in_the_runner_vocabulary(self, tmp_path):
        # The search must never emit an op the runner cannot dispatch —
        # play a few schedules and require zero scenario errors.
        runner = ScenarioRunner(invariants=[])
        for seed in range(3):
            scenario = random_scenario(seed, steps=25)
            root = tmp_path / f"s{seed}"
            root.mkdir()
            result = runner.run(scenario, str(root))
            assert result.error == "", result.summary()

    def test_heal_epilogue_always_closes_the_schedule(self):
        for seed in range(5):
            ops = [s.op for s in random_scenario(seed, steps=20).steps]
            heal_at = ops.index("heal_all")
            tail = ops[heal_at:]
            # After heal_all: only recovery ops, ending converge+inject.
            assert "converge" in tail
            assert ops[-1] == "inject"
            assert not any(op.startswith("storage_fail") for op in tail)

    def test_shrink_minimizes_to_the_culprit(self):
        filler = [step("advance", seconds=1.0) for _ in range(15)]
        scenario = scenario_of(*filler[:8], step("kill", point="process:x"),
                               *filler[8:])

        def still_fails(candidate):
            return any(s.op == "kill" for s in candidate.steps)

        shrunk = shrink(scenario, still_fails)
        assert [s.op for s in shrunk.steps] == ["kill"]

    def test_shrink_respects_attempt_budget(self):
        calls = []

        def predicate(candidate):
            calls.append(1)
            return True

        shrink(scenario_of(*[step("advance") for _ in range(64)],
                           step("kill", point="p")),
               predicate, max_attempts=10)
        assert len(calls) <= 10


class TestSoakPersistence:
    def failing_runner(self):
        always = Invariant(name="always", description="",
                           check=lambda env: "forced failure")
        return ScenarioRunner(invariants=[always], fail_fast=True)

    def test_failing_seed_persisted_with_repro(self, tmp_path):
        results = tmp_path / "results"
        summary = run_soak(
            seeds=[5], steps=3, work_dir=str(tmp_path / "work"),
            results_dir=str(results), runner=self.failing_runner(),
            shrink_failures=False,
        )
        assert summary == {
            "scenarios": 1, "steps_per_scenario": 3, "passed": 0,
            "failed": 1, "failures": summary["failures"],
        }
        persisted = json.loads((results / "CHAOS_seed_5.json").read_text())
        assert persisted["seed"] == 5
        assert persisted["violations"]
        # The persisted schedule replays the failure from the artifact
        # alone — a red nightly ships its own repro.
        replay_root = tmp_path / "replay"
        replay_root.mkdir()
        replayed = self.failing_runner().run(
            Scenario.from_dict(persisted["schedule"]), str(replay_root)
        )
        assert not replayed.ok

    def test_soak_summary_always_written(self, tmp_path):
        results = tmp_path / "results"
        summary = run_soak(
            seeds=[0], steps=3, work_dir=str(tmp_path / "work"),
            results_dir=str(results),
            runner=ScenarioRunner(invariants=[]),
        )
        assert summary["failed"] == 0
        on_disk = json.loads((results / "CHAOS_soak.json").read_text())
        assert on_disk["passed"] == 1
        assert "failures" not in on_disk
        assert not list(results.glob("CHAOS_seed_*.json"))
