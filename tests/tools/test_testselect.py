"""Unit tests for the impact-based test selector (repro.tools.testselect).

The behavioural safety net — seeded mutations proving selected ⊇
failing — lives in test_testselect_safety.py; these tests pin the graph
construction, widening rules, re-export resolution, fixture edges, the
--explain chain, the --orphans report, and the CLI/plugin surface.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.tools.testselect import (
    ORPHAN_ALLOWLIST,
    REPO_ROOT,
    ImpactGraph,
    Selection,
    affects,
    explain,
    orphans,
    select,
    widening_reason,
)


@pytest.fixture(scope="module")
def graph() -> ImpactGraph:
    return ImpactGraph.scan(REPO_ROOT)


class TestGraphScan:
    def test_source_tests_and_benchmarks_are_mapped(self, graph):
        assert "repro.obi.engine" in graph.nodes
        assert "tests.obi.test_engine" in graph.nodes
        assert "benchmarks.conftest" in graph.nodes
        assert graph.by_path["src/repro/obi/engine.py"] == "repro.obi.engine"

    def test_no_file_fails_to_parse(self, graph):
        assert graph.parse_errors() == {}

    def test_test_file_predicate(self, graph):
        tests = graph.test_files()
        assert "tests/obi/test_fastpath.py" in tests
        assert "tests/conftest.py" not in tests
        assert not any(path.startswith("benchmarks/") for path in tests)

    def test_package_prefix_edges(self, graph):
        # Importing repro.obi.instance executes repro/obi/__init__ too.
        node = graph.nodes["tests.obi.test_instance"]
        resolved = set()
        for dotted in node.imports:
            resolved |= graph.resolve(dotted)
        assert "repro.obi" in resolved

    def test_reexport_binding_resolution(self, graph):
        # "from repro import OpenBoxController" must bind to obc.py,
        # not stop at the package __init__.
        assert "repro.controller.obc" in graph.resolve("repro.OpenBoxController")

    def test_pure_reexport_inits_are_weak(self, graph):
        assert graph.nodes["repro"].pure_reexport
        # The element package registers block classes in its __init__
        # body, so it must keep strong edges.
        assert not graph.nodes["repro.obi.elements"].pure_reexport

    def test_fixture_edges_reach_fixture_bodies(self, graph):
        # tests/conftest.py's sample_packets fixture builds packets via
        # repro.net.builder; a test file requesting the fixture gets the
        # edge even without importing the builder itself.
        conftest = graph.nodes["tests.conftest"]
        assert any(
            ref.startswith("repro.net.builder")
            for ref in conftest.fixture_refs["sample_packets"]
        )
        users = [
            node for node in graph.nodes.values()
            if node.is_test_file and "sample_packets" in node.uses_fixtures
        ]
        assert users, "no test file uses the sample_packets fixture?"
        for node in users:
            assert any(
                dotted.startswith("repro.net.builder") for dotted in node.imports
            )

    def test_markers_collected(self, graph):
        assert "chaos" in graph.nodes["tests.integration.test_chaos"].markers


class TestWidening:
    @pytest.mark.parametrize("path", [
        "src/repro/core/merge.py",
        "src/repro/protocol/messages.py",
        "tests/conftest.py",
        "benchmarks/conftest.py",
        "pyproject.toml",
        "README.md",
        ".github/workflows/ci.yml",
        "src/repro/tools/testselect.py",
        "src/repro/brand_new_subsystem.py",   # unknown python file
    ])
    def test_triggers_full_suite(self, graph, path):
        assert widening_reason(path, graph) is not None
        selection = select([path], graph=graph)
        assert selection.full
        assert selection.tests == graph.test_files()
        assert selection.pytest_args() == ["tests"]

    def test_empty_change_set_is_full(self, graph):
        assert select([], graph=graph).full

    def test_plain_module_does_not_widen(self, graph):
        assert widening_reason("src/repro/apps/firewall.py", graph) is None


class TestSelection:
    def test_changed_test_file_selects_itself(self, graph):
        selection = select(["tests/obi/test_fastpath.py"], graph=graph)
        assert not selection.full
        assert "tests/obi/test_fastpath.py" in selection.tests

    def test_direct_importers_are_selected(self, graph):
        selection = select(["src/repro/obi/fastpath.py"], graph=graph)
        assert not selection.full
        assert "tests/obi/test_fastpath.py" in selection.tests
        assert "tests/obi/test_fastpath_equivalence.py" in selection.tests

    def test_unrelated_tests_are_not_selected(self, graph):
        selection = select(["src/repro/apps/firewall.py"], graph=graph)
        assert "tests/net/test_tcp_udp.py" not in selection.tests
        assert "tests/protocol/test_codec_fuzz.py" not in selection.tests

    def test_apps_change_selects_at_most_half_the_suite(self, graph):
        # Acceptance criterion: a single-module change under
        # src/repro/apps/ selects <= 50% of test files.
        total = len(graph.test_files())
        for app in ("firewall", "ips", "loadbalancer", "ratelimiter", "webcache"):
            selection = select([f"src/repro/apps/{app}.py"], graph=graph)
            assert not selection.full
            assert 0 < len(selection.tests) <= total / 2, (
                f"apps/{app}.py selected {len(selection.tests)}/{total}"
            )

    def test_multiple_changes_union(self, graph):
        lone_a = select(["src/repro/apps/firewall.py"], graph=graph)
        lone_b = select(["src/repro/controller/lease.py"], graph=graph)
        both = select(
            ["src/repro/apps/firewall.py", "src/repro/controller/lease.py"],
            graph=graph,
        )
        assert set(both.tests) >= set(lone_a.tests) | set(lone_b.tests)

    def test_selection_is_a_selection_object(self, graph):
        selection = select(["src/repro/controller/lease.py"], graph=graph)
        assert isinstance(selection, Selection)
        assert selection.pytest_args() == selection.tests


class TestAffects:
    """The CI gate mode: does a diff reach the chaos/bench modules?"""

    def test_path_prefix_hit_and_miss(self, graph):
        verdicts = affects(
            ["src/repro/apps/firewall.py"],
            ["benchmarks", "tests/apps", "tests/protocol"],
            graph=graph,
        )
        assert verdicts["benchmarks"] is True
        assert verdicts["tests/apps"] is True
        assert verdicts["tests/protocol"] is False

    def test_single_file_target(self, graph):
        verdicts = affects(
            ["src/repro/controller/lease.py"],
            ["tests/controller/test_lease.py", "tests/net/test_tcp_udp.py"],
            graph=graph,
        )
        assert verdicts["tests/controller/test_lease.py"] is True
        assert verdicts["tests/net/test_tcp_udp.py"] is False

    def test_marker_target(self, graph):
        # The controller core is exercised by chaos-marked tests; a
        # leaf net test file is not.
        hit = affects(
            ["src/repro/controller/obc.py"], ["marker:chaos"], graph=graph
        )
        miss = affects(
            ["tests/net/test_tcp_udp.py"], ["marker:chaos"], graph=graph
        )
        assert hit["marker:chaos"] is True
        assert miss["marker:chaos"] is False

    def test_widening_change_affects_everything(self, graph):
        verdicts = affects(
            ["pyproject.toml"],
            ["benchmarks", "marker:chaos", "tests/net"],
            graph=graph,
        )
        assert all(verdicts.values())

    def test_trailing_slash_normalised(self, graph):
        verdicts = affects(
            ["src/repro/apps/firewall.py"], ["tests/apps/"], graph=graph
        )
        assert verdicts["tests/apps/"] is True


class TestExplain:
    def test_chain_ends_at_changed_module(self, graph):
        text = explain(
            "tests/obi/test_fastpath.py",
            ["src/repro/obi/fastpath.py"],
            graph=graph,
        )
        assert "repro.obi.fastpath" in text
        assert "(changed)" in text

    def test_unselected_file_is_reported(self, graph):
        text = explain(
            "tests/net/test_tcp_udp.py",
            ["src/repro/apps/firewall.py"],
            graph=graph,
        )
        assert "NOT selected" in text

    def test_widened_selection_reports_reason(self, graph):
        text = explain(
            "tests/net/test_tcp_udp.py", ["pyproject.toml"], graph=graph,
        )
        assert "full suite" in text


class TestOrphans:
    def test_repo_report_equals_the_allowlist(self, graph):
        # The ratchet CI runs as ``testselect --orphans``: nothing new
        # is orphaned, and nothing allowlisted has since been deleted
        # or gained a caller.
        assert set(orphans(graph=graph)) == ORPHAN_ALLOWLIST

    def test_flags_what_only_tests_reference(self, tmp_path):
        (tmp_path / "src" / "repro").mkdir(parents=True)
        (tmp_path / "tests").mkdir()
        (tmp_path / "pyproject.toml").write_text(
            '[project.scripts]\ntool = "repro.m:main"\n'
        )
        (tmp_path / "src" / "repro" / "m.py").write_text(
            "def main(): return used() + Box().held()\n"
            "def used(): return 1\n"
            "def only_tests_call(): return 2\n"
            "class Box:\n"
            "    def __len__(self): return 0\n"
            "    def held(self): return 3\n"
            "    def dropped(self): return 4\n"
        )
        (tmp_path / "tests" / "test_m.py").write_text(
            "from repro.m import only_tests_call\n"
        )
        found = orphans(root=tmp_path)
        assert sorted(found) == ["Box.dropped", "only_tests_call"]
        assert found["Box.dropped"] == "src/repro/m.py:7"


def _subprocess_env() -> dict[str, str]:
    """Child env with src/ importable regardless of the parent's cwd."""
    env = os.environ.copy()
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


class TestCommandLine:
    def _run(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "repro.tools.testselect", *args],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
            env=_subprocess_env(),
        )

    def test_changed_lists_selected_files(self):
        proc = self._run("--changed", "src/repro/apps/firewall.py", "--verbose")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.split()
        assert "tests/apps/test_firewall.py" in lines
        assert "testselect:" in proc.stderr

    def test_widening_emits_tests_directory(self, tmp_path):
        out = tmp_path / "selected.txt"
        proc = self._run("--changed", "pyproject.toml", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["tests"]
        assert out.read_text().split() == ["tests"]

    def test_affects_flag_emits_github_output_lines(self):
        proc = self._run(
            "--changed", "src/repro/apps/firewall.py",
            "--affects", "bench=benchmarks", "proto=tests/protocol",
            "chaos=marker:chaos,tests/integration",
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.split()
        assert "bench=true" in lines
        assert "proto=false" in lines
        assert "chaos=true" in lines

    def test_orphans_flag_is_green(self):
        proc = self._run("--orphans")
        assert proc.returncode == 0, proc.stdout
        assert "[ORPHAN]" not in proc.stdout and "stale" not in proc.stdout

    def test_explain_flag(self):
        proc = self._run(
            "--changed", "src/repro/obi/fastpath.py",
            "--explain", "tests/obi/test_fastpath.py",
        )
        assert proc.returncode == 0, proc.stderr
        assert "repro.obi.fastpath" in proc.stdout


class TestPytestPlugin:
    def test_impact_changed_deselects_unaffected_files(self):
        # Restrict collection to two directories to keep this fast; the
        # selection itself is computed over the whole graph.
        proc = subprocess.run(
            [
                sys.executable, "-m", "pytest", "-q", "--collect-only",
                "--impact-changed", "src/repro/apps/firewall.py",
                "tests/apps", "tests/net",
            ],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
            env=_subprocess_env(),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "test_firewall" in proc.stdout
        assert "test_tcp_udp" not in proc.stdout
        assert "impact selection:" in proc.stdout

    def test_impact_widening_keeps_everything(self):
        proc = subprocess.run(
            [
                sys.executable, "-m", "pytest", "-q", "--collect-only",
                "--impact-changed", "pyproject.toml", "tests/net",
            ],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
            env=_subprocess_env(),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "test_tcp_udp" in proc.stdout
        assert "FULL SUITE" in proc.stdout
