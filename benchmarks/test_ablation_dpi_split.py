"""Ablations — DPI engine choice and the Figure 6 hardware split.

1. **Aho-Corasick vs per-pattern scan**: real wall-clock payload scan
   rates as the pattern count grows. The RegexClassifier's ordered
   per-pattern scan wins at the group sizes the apps build; a single
   multi-pattern automaton (DPI-as-a-service heritage, the paper's [8])
   only pays off past the crossover near 200 literals.
2. **Split processing**: the modelled benefit of offloading the merged
   graph's header classification to a TCAM OBI (Figures 5-6) versus
   running everything in software.
"""

import time

import pytest

from benchmarks.conftest import write_result
from repro.controller.split import split_at_classifier
from repro.core.classify.regex import RegexPattern, RegexRuleSet
from repro.core.merge import merge_graphs
from repro.obi.translation import build_engine
from repro.sim.costmodel import CostModel, VmSpec, measure_engine
from repro.sim.rulesets import _WEB_ATTACK_TOKENS
from tests.core.aho_corasick import AhoCorasick, AutomatonRuleSet


def _patterns(count):
    tokens = list(_WEB_ATTACK_TOKENS)
    return [
        RegexPattern(pattern=f"{tokens[i % len(tokens)]}-{i}", port=1)
        for i in range(count)
    ]


def _rate(scan, payloads, budget=0.25):
    start = time.perf_counter()
    scanned = 0
    while time.perf_counter() - start < budget:
        for payload in payloads:
            scan(payload)
            scanned += len(payload)
    return scanned / (time.perf_counter() - start)


def test_ablation_dpi_engine(benchmark):
    payloads = [
        b"GET /index.html HTTP/1.1\r\nHost: www.example.edu\r\n\r\n" + b"x" * 600,
        b"POST /api HTTP/1.1\r\nHost: api.example.edu\r\n\r\n" + b"y" * 300,
    ]
    lines = [f"{'patterns':>9s} {'aho-corasick MB/s':>18s} {'per-pattern MB/s':>17s} "
             f"{'speedup':>8s}"]
    speedups = {}
    for count in (10, 50, 200, 400):
        specs = _patterns(count)
        ac_rate = _rate(AutomatonRuleSet(specs).first_match_index, payloads)
        scan_rate = _rate(RegexRuleSet(specs).classify, payloads)
        speedups[count] = ac_rate / scan_rate
        lines.append(f"{count:9d} {ac_rate / 1e6:18.1f} {scan_rate / 1e6:17.1f} "
                     f"{ac_rate / scan_rate:8.1f}x")
    write_result("ablation_dpi_engine", "\n".join(lines) + "\n")

    # One AC pass is (nearly) pattern-count independent; the naive scan
    # degrades linearly, so the relative advantage must grow.
    assert speedups[200] > speedups[10]
    assert speedups[200] > 2.0
    # The production scan wins at the group sizes the apps build (the
    # IPS's groups hold a few dozen patterns).
    assert speedups[10] < 1 and speedups[50] < 1

    automaton = AhoCorasick([spec.pattern.encode() for spec in _patterns(200)])
    benchmark(lambda: automaton.find_first(payloads[0]))


def test_ablation_hardware_split(benchmark, paper_workload):
    """Model the Figure 6 split: TCAM classify stage + software rest."""
    graphs = [
        paper_workload["firewall1"].build_graph(),
        paper_workload["ips"].build_graph(),
    ]
    packets = paper_workload["packets"][:300]
    merged = merge_graphs(graphs).graph
    classifier = next(
        block.name for block in merged.blocks.values()
        if block.type == "HeaderClassifier"
    )
    split = split_at_classifier(merged, classifier, spi=1)

    model, vm = CostModel(), VmSpec()

    unsplit_engine = build_engine(merged.copy(rename=True))
    unsplit = measure_engine(unsplit_engine, packets, model).throughput_bps(vm) / 1e6

    # Two-stage pipeline: the TCAM OBI's NSH-encapsulated outputs feed
    # the software OBI, so stage two sees the true path mix.
    from repro.sim.costmodel import GraphCostProfile, VmMeasurement
    first_engine = build_engine(split.first)
    second_engine = build_engine(split.second)
    first_profile = GraphCostProfile(split.first, model)
    second_profile = GraphCostProfile(split.second, model)
    first_measure, second_measure = VmMeasurement(), VmMeasurement()
    for packet in packets:
        clone = packet.clone()
        outcome = first_engine.process(clone)
        first_measure.add(len(packet) * 8,
                          first_profile.path_cost(outcome.path, packet),
                          len(outcome.path))
        for _dev, wire in outcome.outputs:
            wire.metadata.clear()
            stage_two = second_engine.process(wire)
            second_measure.add(len(wire) * 8,
                               second_profile.path_cost(stage_two.path, wire),
                               len(stage_two.path))
    classify_stage = first_measure.throughput_bps(vm) / 1e6
    process_stage = second_measure.throughput_bps(vm) / 1e6
    chained = min(classify_stage, process_stage)

    write_result("ablation_hardware_split", "\n".join([
        f"{'configuration':34s} {'Mbps (1 VM each)':>17s}",
        f"{'software, unsplit merged graph':34s} {unsplit:17.0f}",
        f"{'split: TCAM classify stage':34s} {classify_stage:17.0f}",
        f"{'split: software process stage':34s} {process_stage:17.0f}",
        f"{'split chain (bottleneck)':34s} {chained:17.0f}",
        "",
        "The TCAM stage classifies at constant cost, so the software",
        "stage sheds the per-packet classification work: its throughput",
        f"exceeds the unsplit graph's by "
        f"{(process_stage / unsplit - 1) * 100:.0f}%.",
    ]) + "\n")

    # The software half is faster than the unsplit graph (classification
    # offloaded), and the TCAM stage is never the bottleneck.
    assert process_stage > unsplit * 1.1
    assert classify_stage > process_stage

    engine = build_engine(split.first.copy(rename=True))
    probe = packets[:50]

    def classify_batch():
        for packet in probe:
            engine.process(packet.clone())

    benchmark(classify_batch)
