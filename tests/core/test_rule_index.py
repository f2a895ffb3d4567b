"""RuleIndex and the two merge stages built on it, against nested loops.

The references below are the loops the index replaced: the cross product
that intersects every (branch rule, inner rule) pair, and the quadratic
``covers`` scan with no size limit. Rule sets are drawn from the field
boundaries a first-match classifier is decided by: ports 0/1/65534/65535
and ranges sharing an endpoint, /0 /1 /31 /32 and nested prefixes,
wildcard against set values, and duplicated matches.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.firewall import FirewallApp, parse_firewall_rules
from repro.core.classify.header import HeaderRuleSet
from repro.core.classify.index import RuleIndex
from repro.core.classify.rules import HeaderRule, PortRange, Prefix
from repro.core.compress import (
    CompressionStats,
    PortAllocator,
    merge_classifier_rulesets_on_branch,
)
from repro.core.merge import merge_graphs
from repro.sim.rulesets import generate_firewall_rules

# ----------------------------------------------------------------------
# References: the nested loop and the unlimited quadratic scan
# ----------------------------------------------------------------------


def reference_prune(ruleset):
    kept = []
    for rule in ruleset.rules:
        if not any(earlier.covers(rule) for earlier in kept):
            kept.append(rule)
    return HeaderRuleSet(kept, ruleset.default_port)


def reference_merge(outer, branch_port, inner, allocate):
    """Returns the merged set and the number of non-empty pairs."""
    inner_rules = list(inner.rules) + [HeaderRule(port=inner.default_port)]
    outer_rules = list(outer.rules) + [HeaderRule(port=outer.default_port)]
    merged = []
    nonempty = 0
    for position, rule_a in enumerate(outer_rules):
        if rule_a.port != branch_port:
            target = allocate.outer_port(rule_a.port)
            if position != len(outer_rules) - 1:
                merged.append(dataclasses.replace(rule_a, port=target))
            continue
        for rule_b in inner_rules:
            combined = rule_a.intersect(rule_b, allocate.branch_port(rule_b.port))
            if combined is not None:
                merged.append(combined)
                nonempty += 1
    if outer.default_port != branch_port:
        default = allocate.outer_port(outer.default_port)
    else:
        default = allocate.branch_port(inner.default_port)
    pruned = reference_prune(HeaderRuleSet(merged, default)).prune_default_tail()
    return pruned, nonempty


def assert_merge_matches_reference(outer, branch_port, inner):
    expected_ports, actual_ports = PortAllocator(), PortAllocator()
    expected, nonempty = reference_merge(outer, branch_port, inner, expected_ports)
    stats = CompressionStats()
    actual = merge_classifier_rulesets_on_branch(
        outer, branch_port, inner, actual_ports, stats
    )
    assert actual.rules == expected.rules
    assert actual.default_port == expected.default_port
    assert actual_ports.assignments() == expected_ports.assignments()
    assert stats.rule_pairs_intersected == nonempty
    return actual, actual_ports


def bits_of(positions):
    return sum(1 << position for position in positions)


# ----------------------------------------------------------------------
# Boundary-heavy rule sets
# ----------------------------------------------------------------------

ADDRESSES = (
    0x00000000, 0x00000001, 0x0A000000, 0x0A000001, 0x0A000002,
    0x0A000003, 0x0A010000, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF,
)
PREFIX_LENGTHS = (0, 1, 2, 8, 16, 30, 31, 32)
PORT_EDGES = (0, 1, 2, 80, 443, 65534, 65535)


def _prefix(address, length):
    mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
    return Prefix(address & mask, mask)


def prefixes():
    return st.builds(
        _prefix, st.sampled_from(ADDRESSES), st.sampled_from(PREFIX_LENGTHS)
    )


def port_ranges():
    return st.tuples(
        st.sampled_from(PORT_EDGES), st.sampled_from(PORT_EDGES)
    ).map(lambda ends: PortRange(min(ends), max(ends)))


def optional(*values):
    return st.sampled_from((None, None) + values)


def rules():
    return st.builds(
        HeaderRule,
        src=prefixes(), dst=prefixes(),
        src_port=port_ranges(), dst_port=port_ranges(),
        proto=optional(6, 17), vlan=optional(0, 7), dscp=optional(0, 46),
        port=st.integers(0, 3),
    )


def rule_lists(max_pool=10, max_size=20):
    """Rules drawn from a small pool: duplicate matches, any port."""
    def from_pool(pool):
        if not pool:
            return st.just([])
        entry = st.tuples(st.sampled_from(pool), st.integers(0, 3)).map(
            lambda pair: dataclasses.replace(pair[0], port=pair[1])
        )
        return st.lists(entry, max_size=max_size)
    return st.lists(rules(), max_size=max_pool).flatmap(from_pool)


def rulesets():
    return st.builds(HeaderRuleSet, rule_lists(), st.integers(0, 3))


# ----------------------------------------------------------------------
# The index queries
# ----------------------------------------------------------------------


class TestRuleIndex:
    @settings(max_examples=150, deadline=None)
    @given(rule_lists(), rules())
    def test_overlapping_is_every_nonempty_intersection(self, indexed, query):
        index = RuleIndex(indexed)
        for probe in [query, *indexed]:
            expected = bits_of(
                position for position, rule in enumerate(indexed)
                if rule.intersect(probe, 0) is not None
            )
            assert index.overlapping(probe) == expected

    @settings(max_examples=150, deadline=None)
    @given(rule_lists(), rules(), st.integers(0, (1 << 20) - 1))
    def test_covering_is_every_covering_rule_in_among(self, indexed, query, among):
        index = RuleIndex(indexed)
        for probe in [query, *indexed]:
            expected = bits_of(
                position for position, rule in enumerate(indexed)
                if among >> position & 1 and rule.covers(probe)
            )
            assert index.covering(probe, among) == expected

    def test_empty_index_answers_nothing(self):
        index = RuleIndex([])
        assert index.overlapping(HeaderRule()) == 0
        assert index.covering(HeaderRule(), -1) == 0


# ----------------------------------------------------------------------
# The two merge stages
# ----------------------------------------------------------------------


class TestPruneDifferential:
    @settings(max_examples=200, deadline=None)
    @given(rulesets())
    def test_prune_keeps_what_the_quadratic_scan_keeps(self, ruleset):
        pruned = ruleset.prune_shadowed()
        expected = reference_prune(ruleset)
        assert pruned.rules == expected.rules
        assert pruned.default_port == expected.default_port


def firewall_graph(name, text):
    return FirewallApp(name, parse_firewall_rules(text), alert_only=True).build_graph()


def firewall_ruleset(text):
    graph = firewall_graph("fw", text)
    return graph.blocks["fw_classify"].config["rules"]


class TestBranchMergeDifferential:
    @settings(max_examples=150, deadline=None)
    @given(rulesets(), st.integers(0, 3), rulesets())
    def test_cross_product_is_the_nested_loop(self, outer, branch_port, inner):
        assert_merge_matches_reference(outer, branch_port, inner)

    def test_seeded_firewall_pair(self):
        """FW+FW as the compressor runs it: both branches, then chained."""
        first = firewall_ruleset(generate_firewall_rules(300, seed=26))
        second = firewall_ruleset(generate_firewall_rules(300, seed=2600))
        merged, ports = assert_merge_matches_reference(
            first, FirewallApp.PORT_ALERT, second
        )
        assert_merge_matches_reference(
            merged, ports.assignments()[("outer", FirewallApp.PORT_ALLOW)], second
        )
        assert_merge_matches_reference(first, FirewallApp.PORT_ALLOW, second)


def test_merge_intersects_only_nonempty_pairs():
    """A seeded 200-rule FW+FW merge tries exactly the non-empty pairs.

    Trying every pair is 200 x 201 = 40 200 intersections (each of the
    first firewall's rules against the second's rules plus its default).
    """
    first_text = generate_firewall_rules(200, seed=1)
    second_text = generate_firewall_rules(200, seed=101)
    result = merge_graphs([
        firewall_graph("fw1", first_text), firewall_graph("fw2", second_text),
    ])
    first = firewall_ruleset(first_text)
    second = firewall_ruleset(second_text)
    inner = second.rules + (HeaderRule(port=second.default_port),)
    nonempty = sum(
        rule_a.intersect(rule_b, 0) is not None
        for rule_a in first.rules for rule_b in inner
    )
    assert result.compression.rule_pairs_intersected == nonempty == 650
