"""Experiment-runner tests: the Table 2 / Figure 9 shape relations.

These use reduced rule sets and traces so they run quickly; the full
paper-scale runs live in benchmarks/.
"""

import pytest

from repro.apps.firewall import FirewallApp, parse_firewall_rules
from repro.apps.ips import IpsApp, parse_snort_rules
from repro.sim.rulesets import (
    SNORT_VARIABLES,
    generate_firewall_rules,
    generate_snort_web_rules,
)
from repro.sim.runner import (
    measure_chain,
    measure_merged,
    measure_single,
    throughput_region,
)
from repro.sim.traffic import TraceConfig, TrafficGenerator


@pytest.fixture(scope="module")
def workload():
    fw_rules = parse_firewall_rules(generate_firewall_rules(400))
    fw_rules_b = parse_firewall_rules(generate_firewall_rules(400, seed=99))
    snort = parse_snort_rules(generate_snort_web_rules(40), SNORT_VARIABLES)
    packets = TrafficGenerator(TraceConfig(num_packets=250)).packets()
    return {
        "fw1": FirewallApp("fw1", fw_rules, alert_only=True),
        "fw2": FirewallApp("fw2", fw_rules_b, alert_only=True),
        "ips": IpsApp("ips", snort),
        "packets": packets,
    }


class TestSingleNf(object):
    def test_firewall_faster_than_ips(self, workload):
        fw = measure_single(workload["fw1"], workload["packets"])
        ips = measure_single(workload["ips"], workload["packets"])
        assert fw.throughput_mbps > ips.throughput_mbps
        assert fw.latency_us < ips.latency_us

    def test_latency_includes_vm_overhead(self, workload):
        fw = measure_single(workload["fw1"], workload["packets"])
        assert fw.latency_us > 40  # the fixed traversal overhead


class TestPipelined(object):
    def test_chain_throughput_is_bottleneck(self, workload):
        fw = measure_single(workload["fw1"], workload["packets"])
        ips = measure_single(workload["ips"], workload["packets"])
        chain = measure_chain([workload["fw1"], workload["ips"]], workload["packets"])
        assert chain.throughput_mbps == pytest.approx(
            min(fw.throughput_mbps, ips.throughput_mbps), rel=0.05
        )

    def test_chain_latency_is_sum(self, workload):
        fw = measure_single(workload["fw1"], workload["packets"])
        ips = measure_single(workload["ips"], workload["packets"])
        chain = measure_chain([workload["fw1"], workload["ips"]], workload["packets"])
        assert chain.latency_us == pytest.approx(fw.latency_us + ips.latency_us, rel=0.05)

    def test_merged_improves_throughput_and_latency(self, workload):
        chain = measure_chain([workload["fw1"], workload["fw2"]], workload["packets"])
        merged = measure_merged([workload["fw1"], workload["fw2"]],
                                workload["packets"], replicas=2)
        # Table 2 shape: ~2x throughput, ~half latency.
        assert merged.throughput_mbps > 1.6 * chain.throughput_mbps
        assert merged.latency_us < 0.65 * chain.latency_us
        assert not merged.merge_result.used_naive

    def test_merged_fw_ips_shape(self, workload):
        chain = measure_chain([workload["fw1"], workload["ips"]], workload["packets"])
        merged = measure_merged([workload["fw1"], workload["ips"]],
                                workload["packets"], replicas=2)
        assert merged.throughput_mbps > 1.5 * chain.throughput_mbps
        assert merged.latency_us < chain.latency_us

    def test_replica_scaling_linear(self, workload):
        two = measure_merged([workload["fw1"]], workload["packets"], replicas=2)
        four = measure_merged([workload["fw1"]], workload["packets"], replicas=4)
        assert four.throughput_mbps == pytest.approx(2 * two.throughput_mbps, rel=0.01)
        assert four.latency_us == pytest.approx(two.latency_us, rel=0.01)


class TestThroughputRegion(object):
    def test_dynamic_region_dominates_static(self):
        region = throughput_region(800e6, 400e6, replicas=2)
        static_corner = region["static"][1]
        assert static_corner == (800e6, 400e6)
        # The dynamic frontier passes above the static corner:
        # at the static corner's mix, dynamic supports strictly more.
        for rate_a, rate_b in region["dynamic"]:
            utilization = rate_a / 800e6 + rate_b / 400e6
            assert utilization == pytest.approx(2.0, rel=1e-6)

    def test_dynamic_endpoints_double_single_capacity(self):
        region = throughput_region(800e6, 400e6, replicas=2, points=3)
        assert region["dynamic"][0] == (0.0, 800e6)
        assert region["dynamic"][-1] == (1600e6, 0.0)

    def test_static_region_shape(self):
        region = throughput_region(100.0, 50.0)
        assert region["static"] == [(100.0, 0.0), (100.0, 50.0), (0.0, 50.0)]


class TestRunnerPercentiles:
    def test_latency_percentiles_ordered(self):
        app = FirewallApp("fw", parse_firewall_rules("allow any any any any any"))
        packets = TrafficGenerator(TraceConfig(num_packets=200)).packets()
        result = measure_single(app, packets)
        p50 = result.latency_percentile_us(50)
        p99 = result.latency_percentile_us(99)
        assert p50 <= result.latency_us * 1.2
        assert p50 <= p99
        assert p99 >= result.latency_us  # the tail is above the mean
