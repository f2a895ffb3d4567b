"""Classifier implementations (linear, trie, TCAM) agree on all packets.

The OpenBox protocol lets one abstract block have several
implementations (paper §2.1); their observable behaviour must be
identical — only cost differs.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.firewall import FirewallApp, parse_firewall_rules
from repro.core.classify.header import HeaderRuleSet, LinearMatcher
from repro.core.classify.rules import HeaderRule
from repro.core.classify.tcam import TcamMatcher, range_to_prefix_masks
from repro.core.classify.trie import TrieMatcher
from repro.core.merge import merge_graphs
from repro.net.builder import DEFAULT_DST_MAC, DEFAULT_SRC_MAC
from repro.net.ethernet import EtherType, EthernetHeader, VlanTag
from repro.net.ip import IpProto, Ipv4Header, int_to_ip, ip_to_int
from repro.net.packet import Packet
from repro.net.tcp import TcpHeader
from repro.net.udp import UdpHeader
from repro.sim.rulesets import generate_firewall_rules


# Field edges: /0 /1 /31 /32 prefixes with addresses on both sides of
# them, ranges sharing an endpoint, ports 0 and 65535, and the shapes a
# frame without an L4 header or a tag must not be mistaken for: ranges
# holding port 0 and rules on vlan 0.
def rule_dicts():
    return st.fixed_dictionaries(
        {"port": st.integers(0, 4)},
        optional={
            "src_ip": st.sampled_from([
                "0.0.0.0/0", "0.0.0.0/1", "10.0.0.0/8", "10.128.0.0/9",
                "44.3.0.0/16", "10.1.1.0/31", "10.1.1.1/32",
            ]),
            "dst_ip": st.sampled_from([
                "128.0.0.0/1", "192.168.0.0/16", "192.168.128.0/17",
                "192.168.5.4/31", "8.8.8.8/32",
            ]),
            "src_port": st.sampled_from(
                [0, 1000, [0, 1023], [1000, 2000], [2000, 65535], 65535]
            ),
            "dst_port": st.sampled_from(
                [0, 22, 80, [0, 1023], [440, 450], [450, 460], [80, 65535]]
            ),
            "proto": st.sampled_from([1, 6, 17]),
            "vlan": st.sampled_from([0, 5, 7]),
            "dscp": st.sampled_from([0, 46]),
        },
    )


def frame(kind, src, dst, src_port, dst_port, vlans, dscp):
    """One frame; ``vlans`` lists the 802.1Q stack outermost first.

    ``short-tcp`` is a TCP header cut to 10 bytes and ``icmp`` carries no
    ports, so neither parses an L4 header; ``arp`` is not IPv4.
    """
    eth = EthernetHeader(
        DEFAULT_DST_MAC, DEFAULT_SRC_MAC, EtherType.IPV4,
        [VlanTag(vid=vid) for vid in vlans],
    )
    if kind == "arp":
        eth.ethertype = EtherType.ARP
        return Packet(data=eth.serialize() + bytes(28))
    src, dst = ip_to_int(src), ip_to_int(dst)
    if kind == "udp":
        proto = IpProto.UDP
        l4 = UdpHeader(src_port, dst_port).serialize(src_ip=src, dst_ip=dst)
    elif kind == "icmp":
        proto, l4 = IpProto.ICMP, bytes(8)
    else:
        proto = IpProto.TCP
        l4 = TcpHeader(src_port, dst_port).serialize(src_ip=src, dst_ip=dst)
        l4 = l4[:10] if kind == "short-tcp" else l4
    ipv4 = Ipv4Header(src=src, dst=dst, proto=proto, dscp=dscp)
    return Packet(data=eth.serialize() + ipv4.serialize(payload_len=len(l4)) + l4)


def packets():
    return st.builds(
        frame,
        st.sampled_from(["tcp", "udp", "icmp", "short-tcp", "arp"]),
        st.sampled_from([
            "10.1.1.0", "10.1.1.1", "10.1.1.2", "10.200.0.1", "44.3.9.9",
            "1.2.3.4", "200.0.0.1",
        ]),
        st.sampled_from([
            "192.168.5.4", "192.168.5.5", "192.168.5.6", "192.168.200.1",
            "8.8.8.8", "8.8.8.9", "9.9.9.9",
        ]),
        st.sampled_from([0, 999, 1000, 1500, 2000, 2001, 65535]),
        st.sampled_from([0, 22, 80, 440, 445, 450, 460, 9999, 65535]),
        st.sampled_from([(), (5,), (6,), (5, 7), (7, 5)]),
        st.sampled_from([0, 10, 46]),
    )


class TestImplementationAgreement:
    @settings(max_examples=150, deadline=None)
    @example(  # no L4 header: a port range holding 0 must not match it
        [{"dst_port": [0, 1023], "port": 1}], 0,
        [
            frame("icmp", "1.2.3.4", "9.9.9.9", 0, 0, (), 0),
            frame("short-tcp", "1.2.3.4", "9.9.9.9", 0, 0, (), 0),
        ],
    )
    @example(  # untagged: a rule on vlan 0 must not match it
        [{"vlan": 0, "port": 2}], 0,
        [frame("udp", "1.2.3.4", "9.9.9.9", 1000, 80, (), 0)],
    )
    @example(  # QinQ: a rule's vlan is matched against the outer tag only
        [{"vlan": 5, "port": 1}], 0,
        [
            frame("tcp", "1.2.3.4", "9.9.9.9", 1000, 80, vlans, 0)
            for vlans in ((7, 5), (5, 7))
        ],
    )
    @given(
        st.lists(rule_dicts(), max_size=8),
        st.integers(0, 4),
        st.lists(packets(), min_size=1, max_size=6),
    )
    def test_all_matchers_agree(self, rules, default, trace):
        ruleset = HeaderRuleSet(
            [HeaderRule.from_dict(rule) for rule in rules], default_port=default
        )
        matchers = [LinearMatcher(ruleset), TrieMatcher(ruleset), TcamMatcher(ruleset)]
        for packet in trace:
            results = {matcher.match(packet) for matcher in matchers}
            assert len(results) == 1, (
                f"implementations disagree on {packet.summary()}: "
                f"{[type(m).__name__ for m in matchers]} -> {results}"
            )

    def test_seeded_firewall_merge_agrees(self):
        """A 300-rule FW+FW merge (the pair ``test_rule_index.py`` merges)
        against the linear reference over 2 000 generated flows."""
        graphs = [
            FirewallApp(
                name, parse_firewall_rules(generate_firewall_rules(300, seed=seed)),
                alert_only=True,
            ).build_graph()
            for name, seed in (("fw1", 26), ("fw2", 2600))
        ]
        merged = merge_graphs(graphs).graph
        ruleset = next(
            block.config["rules"]
            for block in merged.blocks.values() if block.type == "HeaderClassifier"
        )
        rnd = random.Random(28)

        def inside(prefix):
            return int_to_ip(prefix.value | rnd.getrandbits(32) & ~prefix.mask & 0xFFFFFFFF)

        trace = []
        for _ in range(2000):  # each flow aimed inside one merged rule
            rule = rnd.choice(ruleset.rules)
            trace.append(frame(
                "udp" if rule.proto == IpProto.UDP else "tcp",
                inside(rule.src), inside(rule.dst),
                rnd.randint(rule.src_port.lo, rule.src_port.hi),
                rnd.randint(rule.dst_port.lo, rule.dst_port.hi), (), 0,
            ))
        expected = [LinearMatcher(ruleset).match(packet) for packet in trace]
        trie = TrieMatcher(ruleset)
        assert [trie.match(packet) for packet in trace] == expected
        assert len(set(expected)) > 2  # the flows reach several branches

    def test_non_ip_packet_handled_by_all(self):
        ruleset = HeaderRuleSet(
            [HeaderRule.from_dict({"port": 1})], default_port=0
        )
        junk = Packet(data=b"\x00" * 20)
        assert LinearMatcher(ruleset).match(junk) == 1  # catch-all matches
        assert TrieMatcher(ruleset).match(junk) == 1
        assert TcamMatcher(ruleset).match(junk) == 1


class TestTcamExpansion:
    def test_range_expansion_covers_exactly(self):
        for lo, hi in [(0, 65535), (80, 80), (1, 6), (1024, 65535), (443, 445)]:
            pairs = range_to_prefix_masks(lo, hi)
            covered = set()
            for value, mask in pairs:
                width_free = (~mask) & 0xFFFF
                # enumerate small blocks only
                block = [value | bits for bits in range(width_free + 1)
                         if (bits & mask) == 0] if width_free < 4096 else None
                if block is None:
                    continue
                covered.update(block)
            if all(((~m) & 0xFFFF) < 4096 for _v, m in pairs):
                assert covered == set(range(lo, hi + 1))

    def test_exact_port_is_single_entry(self):
        assert len(range_to_prefix_masks(80, 80)) == 1

    def test_full_range_is_single_wildcard(self):
        pairs = range_to_prefix_masks(0, 65535)
        assert pairs == [(0, 0)]

    def test_entry_count_reported(self):
        ruleset = HeaderRuleSet(
            [HeaderRule.from_dict({"dst_port": [1, 6], "port": 1})], default_port=0
        )
        matcher = TcamMatcher(ruleset)
        assert matcher.entry_count >= 2  # range expansion

    def test_capacity_enforced(self):
        import pytest
        ruleset = HeaderRuleSet(
            [HeaderRule.from_dict({"dst_port": [1, 30000], "port": 1})],
            default_port=0,
        )
        with pytest.raises(ValueError):
            TcamMatcher(ruleset, capacity=1)

    def test_priority_order_respected(self):
        ruleset = HeaderRuleSet(
            [
                HeaderRule.from_dict({"src_ip": "10.0.0.0/8", "port": 1}),
                HeaderRule.from_dict({"src_ip": "10.1.0.0/16", "port": 2}),
            ],
            default_port=0,
        )
        packet = frame("tcp", "10.1.2.3", "2.2.2.2", 1, 2, (), 0)
        assert TcamMatcher(ruleset).match(packet) == 1
