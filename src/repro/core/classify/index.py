"""Rule index: which rules of a set overlap or cover a rule, or match a packet.

The classifier merge asks two questions about a rule set over and over:
the cross product (``compress.merge_classifier_rulesets_on_branch``)
needs every rule whose intersection with a given rule is non-empty, and
shadow pruning (:meth:`HeaderRuleSet.prune_shadowed`) needs to know
whether any earlier kept rule covers a given rule. Asked by trying every
rule, both are quadratic in the rule count. The data plane asks a third:
which rules match this packet (:class:`~repro.core.classify.trie.TrieMatcher`).
A packet is a rule whose every field is one point, so that is a coverage
query too, and the first match is the lowest set bit of the answer — the
bit-vector scheme of Lakshman & Stiliadis (SIGCOMM '98).

:class:`RuleIndex` answers all three exactly, as Python-int bitsets over
rule positions (bit ``i`` is ``rules[i]``). Every match field has its own
exact sub-index, and a query ANDs the per-field answers:

* exact fields (proto, vlan, dscp): the wildcard rules, plus a dict from
  value to the rules that name it;
* port ranges: the distinct ``lo`` values sorted, each with the OR of all
  rules whose ``lo`` is at most it, and the distinct ``hi`` values sorted,
  each with the OR of all rules whose ``hi`` is at least it — two bisects
  per query;
* prefixes: an anchor table ``mask → value → rules`` answers "which rules
  contain this prefix (or address)" with one dict probe per distinct mask,
  and the distinct values sorted answer "which rules lie inside it" with
  two bisects and an OR over the slice. Prefixes are contiguous masks over
  canonical values, which is what :meth:`Prefix.parse` builds.

Reading the bits of an answer in ascending order visits rules in set
order, so a loop over the answer sees the same rules, in the same order,
as a loop over the whole set that skips the ones that do not qualify.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, Sequence

from repro.core.classify.rules import HeaderRule, PortRange, Prefix
from repro.net.packet import Packet

_HOST_BITS = 0xFFFFFFFF


def iter_bits(bits: int) -> Iterator[int]:
    """Positions of the set bits of ``bits``, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class _ExactIndex:
    """An optional exact-match field; ``None`` is the wildcard."""

    __slots__ = ("wildcard", "by_value")

    def __init__(self, values: Sequence[int | None]) -> None:
        self.wildcard = 0
        self.by_value: dict[int, int] = {}
        for position, value in enumerate(values):
            bit = 1 << position
            if value is None:
                self.wildcard |= bit
            else:
                self.by_value[value] = self.by_value.get(value, 0) | bit

    def overlapping(self, value: int | None, everything: int) -> int:
        return everything if value is None else self.covering(value)

    def covering(self, value: int | None) -> int:
        if value is None:
            return self.wildcard
        return self.wildcard | self.by_value.get(value, 0)


class _RangeIndex:
    """An inclusive port range: rules by ``lo <= x`` and by ``hi >= x``."""

    __slots__ = ("los", "lo_at_most", "his", "hi_at_least")

    def __init__(self, ranges: Sequence[PortRange]) -> None:
        by_lo: dict[int, int] = {}
        by_hi: dict[int, int] = {}
        for position, port_range in enumerate(ranges):
            bit = 1 << position
            by_lo[port_range.lo] = by_lo.get(port_range.lo, 0) | bit
            by_hi[port_range.hi] = by_hi.get(port_range.hi, 0) | bit
        self.los = sorted(by_lo)
        self.lo_at_most: list[int] = []
        acc = 0
        for lo in self.los:
            acc |= by_lo[lo]
            self.lo_at_most.append(acc)
        self.his = sorted(by_hi)
        self.hi_at_least = [0] * len(self.his)
        acc = 0
        for slot in range(len(self.his) - 1, -1, -1):
            acc |= by_hi[self.his[slot]]
            self.hi_at_least[slot] = acc

    def _lo_at_most(self, port: int) -> int:
        slot = bisect_right(self.los, port)
        return self.lo_at_most[slot - 1] if slot else 0

    def _hi_at_least(self, port: int) -> int:
        slot = bisect_left(self.his, port)
        return self.hi_at_least[slot] if slot < len(self.his) else 0

    def overlapping(self, port_range: PortRange) -> int:
        return self._lo_at_most(port_range.hi) & self._hi_at_least(port_range.lo)

    def covering(self, port_range: PortRange) -> int:
        return self._lo_at_most(port_range.lo) & self._hi_at_least(port_range.hi)

    def containing(self, port: int) -> int:
        return self._lo_at_most(port) & self._hi_at_least(port)


class _PrefixIndex:
    """An IPv4 prefix: rules containing it, and rules inside it."""

    __slots__ = ("anchors", "values", "by_value")

    def __init__(self, prefixes: Sequence[Prefix]) -> None:
        anchors: dict[int, dict[int, int]] = {}
        by_value: dict[int, int] = {}
        for position, prefix in enumerate(prefixes):
            bit = 1 << position
            at_mask = anchors.setdefault(prefix.mask, {})
            at_mask[prefix.value] = at_mask.get(prefix.value, 0) | bit
            by_value[prefix.value] = by_value.get(prefix.value, 0) | bit
        # Shortest mask first: numeric order is length order for
        # contiguous masks.
        self.anchors = {mask: anchors[mask] for mask in sorted(anchors)}
        self.values = sorted(by_value)
        self.by_value = [by_value[value] for value in self.values]

    def covering(self, prefix: Prefix) -> int:
        bits = 0
        for mask, at_mask in self.anchors.items():
            if mask > prefix.mask:
                break
            bits |= at_mask.get(prefix.value & mask, 0)
        return bits

    def containing(self, address: int) -> int:
        """The rules whose prefix holds ``address`` (a /32 ``covering``)."""
        bits = 0
        for mask, at_mask in self.anchors.items():
            bits |= at_mask.get(address & mask, 0)
        return bits

    def overlapping(self, prefix: Prefix, everything: int) -> int:
        if prefix.mask == 0:
            return everything
        # A rule whose value lies in the prefix's range is inside it or
        # (same value, shorter mask) contains it: either way it overlaps.
        bits = self.covering(prefix)
        start = bisect_left(self.values, prefix.value)
        stop = bisect_right(self.values, prefix.value | (~prefix.mask & _HOST_BITS))
        for slot in range(start, stop):
            bits |= self.by_value[slot]
        return bits


class RuleIndex:
    """Exact overlap, coverage and packet queries over a fixed rule sequence."""

    __slots__ = (
        "everything", "proto", "vlan", "dscp", "src_port", "dst_port", "src", "dst",
        "any_ports", "catch_all",
    )

    def __init__(self, rules: Sequence[HeaderRule]) -> None:
        self.everything = (1 << len(rules)) - 1
        self.proto = _ExactIndex([rule.proto for rule in rules])
        self.vlan = _ExactIndex([rule.vlan for rule in rules])
        self.dscp = _ExactIndex([rule.dscp for rule in rules])
        self.src_port = _RangeIndex([rule.src_port for rule in rules])
        self.dst_port = _RangeIndex([rule.dst_port for rule in rules])
        self.src = _PrefixIndex([rule.src for rule in rules])
        self.dst = _PrefixIndex([rule.dst for rule in rules])
        # The rules a packet without an L4 header can match, and the
        # rules a non-IPv4 frame can match (``HeaderRule.is_catch_all``).
        self.any_ports = (
            self.src_port.covering(PortRange.ANY) & self.dst_port.covering(PortRange.ANY)
        )
        self.catch_all = self.covering(HeaderRule(), self.everything)

    def matching(self, packet: Packet) -> int:
        """Every indexed rule that :meth:`HeaderRule.matches` ``packet``."""
        ipv4 = packet.ipv4
        if ipv4 is None:
            return self.catch_all
        bits = self.dst.containing(ipv4.dst) & self.src.containing(ipv4.src)
        bits &= self.proto.covering(ipv4.proto) & self.dscp.covering(ipv4.dscp)
        eth = packet.eth
        tag = eth.vlan if eth is not None else None
        bits &= self.vlan.covering(tag.vid if tag is not None else None)
        l4 = packet.l4
        if l4 is None:
            return bits & self.any_ports
        bits &= self.src_port.containing(l4.src_port)
        return bits & self.dst_port.containing(l4.dst_port)

    def overlapping(self, rule: HeaderRule) -> int:
        """Every indexed rule whose intersection with ``rule`` is non-empty."""
        everything = self.everything
        bits = self.proto.overlapping(rule.proto, everything)
        if bits:
            bits &= self.dst_port.overlapping(rule.dst_port)
        if bits:
            bits &= self.dst.overlapping(rule.dst, everything)
        if bits:
            bits &= self.src.overlapping(rule.src, everything)
        if bits:
            bits &= self.src_port.overlapping(rule.src_port)
        if bits:
            bits &= self.vlan.overlapping(rule.vlan, everything)
        if bits:
            bits &= self.dscp.overlapping(rule.dscp, everything)
        return bits

    def covering(self, rule: HeaderRule, among: int) -> int:
        """Every indexed rule in ``among`` that covers ``rule``."""
        bits = among & self.proto.covering(rule.proto)
        if bits:
            bits &= self.dst_port.covering(rule.dst_port)
        if bits:
            bits &= self.dst.covering(rule.dst)
        if bits:
            bits &= self.src.covering(rule.src)
        if bits:
            bits &= self.src_port.covering(rule.src_port)
        if bits:
            bits &= self.vlan.covering(rule.vlan)
        if bits:
            bits &= self.dscp.covering(rule.dscp)
        return bits
