"""Dead-code ratchet: nothing under ``src/`` is defined but unreferenced.

:func:`orphans` lists every top-level function, class and method under
``src/repro`` whose name nothing else under ``src/`` mentions — a method
only tests call counts as an orphan. The repo's report must equal
:data:`ORPHAN_ALLOWLIST`: new unreferenced code fails, and so does an
allowlist entry whose code was deleted or gained a caller, so the list
only shrinks.
"""

from __future__ import annotations

import ast
import pathlib
import re

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Baseline: public API that only tests, examples and benchmarks call —
#: paper-reproduction entry points, protocol-library accessors, stdlib
#: hook methods. A ratchet: an entry leaves when its code is deleted or
#: gains a caller under ``src/`` (a stale entry fails the report too);
#: new code does not get to join.
ORPHAN_ALLOWLIST = frozenset("""
    FirewallApp.block_source RateLimiterApp.set_rate WebCacheApp.add_page
    LoadBalancerApp RateLimiterApp WebCacheApp
    serve_controller_rest connect_obi_rest
    FaultyStorage.healthy FaultyStorage.durable_size acceptance_scenario
    OpenBoxApplication.request_read OpenBoxApplication.request_stats
    LeaseStore.peek InProcLeaseStore.peek LeaseManager.is_leader
    OpenBoxController.unregister_application
    OpenBoxController.request_telemetry_rewind OpenBoxController.attribute_trace
    OptimizationReport.total_changes ReplicationHub.lag
    deploy_split verify_application ScalingManager.register_group
    ObiStatsTracker.live_obis TrafficSteering.register_chain
    TrafficSteering.set_selector TcamMatcher.entry_count
    ProcessingGraph.iter_paths ProcessingGraph.classifiers make_http_get
    MacAddress.broadcast MacAddress.is_broadcast MacAddress.is_multicast
    Ipv4Header.src_text Ipv4Header.dst_text NshHeader.decrement_si
    TcpFlags.to_text PacketOutcome.forwarded PacketOutcome.effects_key
    HeadlessBuffer.buffered_total OpenBoxInstance.publish_telemetry
    OpenBoxInstance.observability_snapshot PacketStorageService.fetch
    PacketStorageService.purge ImportReport.rejected_total Histogram.quantile
    all_specs dynamic_port_types AddCustomModuleRequest.from_binary
    VmMeasurement.mean_path_length SimNetwork.add_multiplexer
    generate_firewall_rules generate_snort_web_rules
    ChainMeasurement.throughput_mbps ChainMeasurement.latency_us
    ChainMeasurement.latency_percentile_us measure_single measure_merged
    throughput_region
    SaturationResult.utilization_of simulate_saturation
    TrafficGenerator.overload_burst TrafficGenerator.syn_flood
    TrafficGenerator.established_flows
    FaultyChannel.partitioned _Handler.log_message _Handler.do_POST
    RetryPolicy.worst_case
""".split())


def orphans(root: pathlib.Path = REPO_ROOT) -> dict[str, str]:
    """Dead-code report: ``qualname -> path:line`` of every top-level
    function, class and method under ``src/`` whose bare name is
    mentioned nowhere else under ``src/`` (as a name, an attribute or an
    import). Dunders and console-script entry points are exempt."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    scripts = set(re.findall(
        r'= "repro[\w.]*:(\w+)"',
        (root / "pyproject.toml").read_text(encoding="utf-8"),
    ))
    mentioned: set[str] = set()
    defined: dict[str, str] = {}
    for path in sorted((root / "src").rglob("*.py")):
        rel_path = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=rel_path)
        for item in ast.walk(tree):
            if isinstance(item, ast.Name):
                mentioned.add(item.id)
            elif isinstance(item, ast.Attribute):
                mentioned.add(item.attr)
            elif isinstance(item, (ast.Import, ast.ImportFrom)):
                mentioned.update(a.name.rpartition(".")[2] for a in item.names)
        for item in tree.body:
            if isinstance(item, functions) and item.name not in scripts:
                defined[item.name] = f"{rel_path}:{item.lineno}"
            elif isinstance(item, ast.ClassDef):
                defined[item.name] = f"{rel_path}:{item.lineno}"
                for sub in item.body:
                    if isinstance(sub, functions):
                        defined[f"{item.name}.{sub.name}"] = (
                            f"{rel_path}:{sub.lineno}"
                        )
    return {
        name: where for name, where in defined.items()
        if (bare := name.rpartition(".")[2]) not in mentioned
        and not bare.startswith("__")
    }


def test_repo_report_equals_the_allowlist():
    found = orphans()
    new = [
        f"{found[name]} {name}"
        for name in sorted(set(found) - ORPHAN_ALLOWLIST, key=found.get)
    ]
    stale = sorted(ORPHAN_ALLOWLIST - set(found))
    assert not new and not stale, "\n".join(
        [f"new orphan: {line}" for line in new]
        + [f"stale allowlist entry (deleted, or now referenced): {name}"
           for name in stale]
    )


def test_flags_what_only_tests_reference(tmp_path):
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
