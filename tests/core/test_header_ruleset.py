"""HeaderRuleSet: first-match classification and cross-product merging."""

import gc
import json
import weakref

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classify.header import HeaderRuleSet
from repro.core.classify.rules import HeaderRule
from repro.core.compress import (
    CompressionStats,
    PortAllocator,
    merge_classifier_rulesets_on_branch,
)
from repro.net.builder import make_tcp_packet


def _ruleset(*rules, default=0):
    return HeaderRuleSet([HeaderRule.from_dict(rule) for rule in rules],
                         default_port=default)


class TestClassify:
    def test_first_match_wins(self):
        ruleset = _ruleset(
            {"src_ip": "10.0.0.0/8", "port": 1},
            {"dst_port": 80, "port": 2},
            default=0,
        )
        overlap = make_tcp_packet("10.1.1.1", "2.2.2.2", 1, 80)
        assert ruleset.classify(overlap) == 1  # earlier rule wins

    def test_default_when_no_match(self):
        ruleset = _ruleset({"dst_port": 80, "port": 1}, default=9)
        assert ruleset.classify(make_tcp_packet("1.1.1.1", "2.2.2.2", 1, 81)) == 9

    def test_config_roundtrip(self):
        """Export -> import -> export is the identity, on the shapes the
        wire form normalises: an int port becomes ``[p, p]``, a /0 prefix
        is the wildcard and is left out, and a 0 is a value, not a
        wildcard (``None``)."""
        wire = [
            {"src_ip": "10.0.0.0/8", "port": 1},
            {"dst_port": 80, "port": 2},
            {"src_ip": "0.0.0.0/0", "dst_ip": "8.8.8.8/32", "port": 3},
            {"proto": 0, "vlan": 0, "dscp": 0, "port": 4},
            {"proto": None, "vlan": None, "dscp": None, "port": 5},
        ]
        ruleset = HeaderRuleSet.parse(wire, default_port=2)
        exported = ruleset.wire
        again = HeaderRuleSet.parse(json.loads(json.dumps(exported)), 2)
        assert again == ruleset
        assert again.wire == exported
        assert exported == [
            {"port": 1, "src_ip": "10.0.0.0/8"},
            {"port": 2, "dst_port": [80, 80]},
            {"port": 3, "dst_ip": "8.8.8.8/32"},
            {"port": 4, "proto": 0, "vlan": 0, "dscp": 0},
            {"port": 5},
        ]
        assert ruleset.wire is exported  # serialised once per value
        assert HeaderRuleSet.parse(ruleset, 2) is ruleset

    def test_used_ports_and_num_ports(self):
        ruleset = _ruleset({"dst_port": 80, "port": 3}, default=1)
        assert ruleset.used_ports == {1, 3}
        assert ruleset.num_ports == 4


class TestPruning:
    def test_prune_exact_duplicates(self):
        ruleset = _ruleset(
            {"dst_port": 80, "port": 1},
            {"dst_port": 80, "port": 2},  # identical match, can never fire
        )
        assert len(ruleset.prune_shadowed()) == 1

    def test_prune_covered_rules(self):
        ruleset = _ruleset(
            {"src_ip": "10.0.0.0/8", "port": 1},
            {"src_ip": "10.1.0.0/16", "port": 2},  # fully shadowed
        )
        assert len(ruleset.prune_shadowed()) == 1

    def test_non_covered_rules_kept(self):
        ruleset = _ruleset(
            {"src_ip": "10.1.0.0/16", "port": 1},
            {"src_ip": "10.0.0.0/8", "port": 2},  # wider, later: reachable
        )
        assert len(ruleset.prune_shadowed()) == 2

    def test_prune_default_tail(self):
        ruleset = _ruleset(
            {"dst_port": 80, "port": 1},
            {"dst_port": 81, "port": 0},
            {"dst_port": 82, "port": 0},
            default=0,
        )
        assert len(ruleset.prune_default_tail()) == 1

    def test_prune_default_tail_keeps_interior(self):
        ruleset = _ruleset(
            {"dst_port": 81, "port": 0},  # interior default rule shields rule 2
            {"src_ip": "10.0.0.0/8", "port": 2},
            default=0,
        )
        assert len(ruleset.prune_default_tail()) == 2

    def test_large_ruleset_is_fully_pruned(self):
        # 3300 rules, no two identical; every TCP-only rule is covered by
        # the any-protocol rule on its port that precedes it.
        wide = [{"dst_port": port, "port": 1} for port in range(2200)]
        tcp = [{"dst_port": port, "proto": 6, "port": 2}
               for port in range(0, 2200, 2)]
        pruned = _ruleset(*wide, *tcp).prune_shadowed()
        assert len(pruned) == 2200
        assert all(rule.proto is None for rule in pruned)

    def test_pruned_is_computed_once_and_is_its_own_pruned_form(self):
        ruleset = _ruleset(
            {"dst_port": 80, "port": 1},
            {"dst_port": 80, "port": 2},  # shadowed
            {"dst_port": 443, "port": 0},  # default tail
        )
        pruned = ruleset.pruned
        assert [rule.port for rule in pruned] == [1]
        assert ruleset.pruned is pruned
        assert pruned.pruned is pruned
        assert pruned.default_port == ruleset.default_port
        kept = _ruleset({"dst_port": 80, "port": 1})
        assert kept.pruned == kept

    def test_values_are_freed_without_the_cycle_collector(self):
        gc.disable()
        try:
            ruleset = _ruleset({"dst_port": 80, "port": 1}, {"dst_port": 80, "port": 2})
            pruned = ruleset.pruned
            refs = [weakref.ref(ruleset), weakref.ref(pruned.pruned)]
            del ruleset, pruned
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


# ----------------------------------------------------------------------
# Cross-product merge: the classifier mergeWith of paper §2.2.1
# ----------------------------------------------------------------------

def rule_dicts():
    return st.fixed_dictionaries(
        {},
        optional={
            "src_ip": st.sampled_from(["10.0.0.0/8", "10.1.0.0/16", "44.0.0.0/8"]),
            "dst_ip": st.sampled_from(["192.168.0.0/16", "192.168.1.0/24"]),
            "dst_port": st.sampled_from([22, 80, 443, [80, 90]]),
            "proto": st.sampled_from([6, 17]),
        },
    )


def rulesets(max_rules=4, max_port=3):
    return st.builds(
        lambda rules, ports, default: HeaderRuleSet(
            [
                HeaderRule.from_dict({**rule, "port": port})
                for rule, port in zip(rules, ports)
            ],
            default_port=default,
        ),
        st.lists(rule_dicts(), max_size=max_rules),
        st.lists(st.integers(0, max_port), min_size=max_rules, max_size=max_rules),
        st.integers(0, max_port),
    )


def trace_packets():
    return st.builds(
        make_tcp_packet,
        st.sampled_from(["10.0.0.1", "10.1.2.3", "44.1.1.1", "99.9.9.9"]),
        st.sampled_from(["192.168.0.1", "192.168.1.7", "8.8.8.8"]),
        st.integers(1, 65535),
        st.sampled_from([22, 80, 85, 443, 9999]),
    )


def merge_on_branch(outer, branch_port, inner):
    allocate = PortAllocator()
    stats = CompressionStats()
    merged = merge_classifier_rulesets_on_branch(
        outer, branch_port, inner, allocate, stats
    )
    return merged, allocate.assignments(), stats


class TestMergeRulesets:
    @settings(max_examples=200, deadline=None)
    @given(rulesets(), st.integers(0, 3), rulesets(),
           st.lists(trace_packets(), min_size=1, max_size=8))
    def test_merged_equals_cascade(self, outer, branch_port, inner, packets):
        """The merge classifies like ``outer``, then ``inner`` on its branch."""
        merged, ports, _stats = merge_on_branch(outer, branch_port, inner)
        for packet in packets:
            first = outer.classify(packet)
            if first == branch_port:
                expected = ports[("branch", inner.classify(packet))]
            else:
                expected = ports[("outer", first)]
            assert merged.classify(packet) == expected

    def test_empty_rulesets_merge_to_default(self):
        merged, ports, _stats = merge_on_branch(
            HeaderRuleSet([], 1), 1, HeaderRuleSet([], 2)
        )
        assert merged.default_port == ports[("branch", 2)]
        assert len(merged) == 0

    def test_disjoint_protocols_prune_cross_terms(self):
        tcp_only = _ruleset({"proto": 6, "dst_port": 80, "port": 1}, default=0)
        udp_only = _ruleset({"proto": 17, "port": 1}, default=0)
        merged, ports, stats = merge_on_branch(tcp_only, 1, udp_only)
        # tcp:80 ∩ udp is empty and never tried: only tcp:80 ∩ the inner
        # catch-all is intersected.
        assert stats.rule_pairs_intersected == 1
        packet_tcp = make_tcp_packet("1.1.1.1", "2.2.2.2", 1, 80)
        assert merged.classify(packet_tcp) == ports[("branch", 0)]
