"""Seeded random chaos soaks (the nightly job, scaled down for CI).

``run_soak`` plays seeded random fault schedules — drawn from the same
bounded vocabulary as the declarative scenarios — and checks every
system-wide invariant after every step. The long local soak (220+
steps) is the ISSUE's acceptance criterion; the nightly workflow runs a
wider sweep and uploads any failing seed as a self-contained repro.
"""

import itertools

import pytest

from repro.chaos.scenario import ScenarioRunner
from repro.chaos.search import random_scenario, run_soak

pytestmark = pytest.mark.chaos


class TestSeededSoak:
    def test_long_soak_holds_every_invariant(self, tmp_path):
        # The acceptance criterion: all invariants over a 200+-step
        # seeded random schedule.
        summary = run_soak(
            seeds=[1337], steps=220, work_dir=str(tmp_path / "work"),
            results_dir=str(tmp_path / "results"), shrink_failures=False,
        )
        assert summary["failed"] == 0, summary["failures"]
        assert summary["steps_per_scenario"] == 220
        assert not list((tmp_path / "results").glob("CHAOS_seed_*.json"))

    def test_multi_seed_sweep(self, tmp_path):
        summary = run_soak(
            seeds=range(6), steps=35, work_dir=str(tmp_path / "work"),
            results_dir=str(tmp_path / "results"), shrink_failures=False,
        )
        assert summary["failed"] == 0, summary["failures"]
        assert summary["passed"] == 6


class TestHypothesisSearch:
    """Property-based scenario search: any seed must satisfy the
    invariants — hypothesis hunts the seed space and shrinks on its
    own axis (the seed) while ddmin shrinks on ours (the schedule)."""

    counter = itertools.count()

    def test_any_seed_satisfies_all_invariants(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        runner = ScenarioRunner()

        @hypothesis.settings(
            max_examples=8, deadline=None,
            suppress_health_check=list(hypothesis.HealthCheck),
        )
        @hypothesis.given(seed=st.integers(min_value=0, max_value=2**32 - 1))
        def check(seed):
            root = tmp_path / f"hyp-{next(self.counter)}"
            root.mkdir()
            result = runner.run(random_scenario(seed, steps=18), str(root))
            assert result.ok, result.summary()

        check()
