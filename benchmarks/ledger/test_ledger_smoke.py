"""Smoke test of the ledger: ``pytest benchmarks/ledger -q`` (outside tier-1).

Every workload runs at the tiny internal scale, untraced and traced, and
must emit every named metric with its unit, fail nothing, account for its
traced time, and show the signature it was designed to have.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from benchmarks.ledger import spec, traffic
from benchmarks.ledger.runner import run

ROOT = pathlib.Path(__file__).resolve().parents[2]
SECONDS = 0.4


@pytest.fixture(scope="module", params=list(spec.WORKLOADS))
def documents(request):
    workload = request.param
    return workload, {
        trace: run(workload, seed=7, seconds=SECONDS, trace=trace, scale=spec.TINY)
        for trace in (False, True)
    }


def test_benchmark_json_matches_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()
    assert all(len(why) <= 200 for why in spec.WORKLOADS.values())
    assert all(0 < bound <= 0.25 for _u, _b, bound in spec.END_TO_END.values())
    assert spec.END_TO_END["setup_s"][2] == max(
        bound for _u, _b, bound in spec.END_TO_END.values()
    )


def test_every_metric_is_emitted_with_its_unit(documents):
    _workload, by_trace = documents
    end_to_end = by_trace[False]["metrics"]
    assert list(end_to_end) == list(spec.END_TO_END)
    for name, (unit, _better, _bound) in spec.END_TO_END.items():
        assert end_to_end[name]["unit"] == unit
        assert end_to_end[name]["value"] > 0, name
    per_layer = by_trace[True]["metrics"]
    assert list(per_layer) == list(spec.PER_LAYER)
    for name, (unit, _better) in spec.PER_LAYER.items():
        assert per_layer[name]["unit"] == unit
        assert per_layer[name]["value"] >= 0, name


def test_nothing_fails_and_traced_time_is_accounted_for(documents):
    _workload, by_trace = documents
    for document in by_trace.values():
        assert document["failed"] == 0, document["notes"]
        assert document["correct"] and document["attempted"] >= 1
    layers = by_trace[True]["metrics"]
    assert layers["run.fail_ratio"]["value"] == 0
    assert layers["trace.unattributed_ratio"]["value"] <= 0.05
    assert layers["trace.overhead_ratio"]["value"] > 0


def test_workload_shows_its_signature(documents):
    workload, by_trace = documents
    traced = by_trace[True]
    layers = traced["metrics"]
    packets = traced["layers_self_ms"]["packets"]
    control = traced["layers_self_ms"]["control"]
    if workload == "dp_fw_warm":
        assert layers["obi.fastpath.hit_ratio"]["value"] >= 0.99
        assert layers["core.classify.header_us_per_pkt"]["value"] == 0
    elif workload == "dp_fw_churn":
        assert layers["obi.fastpath.hit_ratio"]["value"] == 0.0
        assert layers["obi.fastpath.installs_per_pkt"]["value"] == 1.0
        assert layers["obi.fastpath.evictions_per_pkt"]["value"] == 1.0
        assert layers["core.classify.header_us_per_pkt"]["value"] > 0
    elif workload == "dp_ips_dpi":
        assert next(iter(packets)) == "obi.elements.payload"
        assert layers["obi.fastpath.uncacheable_ratio"]["value"] > 0.3
    else:
        # Phase (a): span names carrying a deploy; phase (b) has its own.
        deploy = {
            name: ms for name, ms in control.items()
            if name in spec.DEPLOY_LAYERS
        }
        assert max(deploy, key=deploy.get) == "core.merge"
        assert traced["counts"]["merges_in_small_ops"] == 0
        assert layers["core.merge.calls_per_deploy"]["value"] == spec.TINY.fleet_obis
        assert layers["controller.journal.fsyncs_per_deploy"]["value"] >= 1


def test_inputs_are_a_function_of_the_seed():
    def digest(seed):
        rules = [
            traffic.firewall_rules_text(40, 0, seed),
            traffic.snort_rules_text(20, seed),
        ]
        frames = traffic.flow_frames(64, seed) + traffic.campus_frames(2, 32, 16, seed)
        return traffic.inputs_digest(rules, frames)

    assert digest(1) == digest(1)
    assert digest(1) != digest(2)
    assert len(set(traffic.flow_frames(64, 1))) == 64
    assert {len(frame) for frame in traffic.flow_frames(64, 1)} == {54}
