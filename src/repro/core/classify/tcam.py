"""Simulated TCAM header classifier.

Models a ternary CAM: every rule is expanded into parallel (mask, value)
entries over a fixed key layout, and a lookup conceptually compares all
entries at once, returning the highest-priority hit. In software we scan
the entries, but the *modelled* lookup latency is constant — the cost
model (``repro.sim.costmodel``) charges one TCAM cycle per packet
regardless of rule count, which is what makes the hardware-assisted OBI
split of Figures 5-6 worthwhile.

Range fields (L4 ports) are expanded into the minimal set of
prefix-masks covering the range, as real TCAM compilers do; the
``entry_count`` property exposes the resulting table occupancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from repro.core.classify.header import HeaderRuleSet
from repro.core.classify.rules import HeaderRule, PortRange
from repro.net.packet import Packet


def range_to_prefix_masks(lo: int, hi: int, width: int = 16) -> list[tuple[int, int]]:
    """Decompose [lo, hi] into minimal (value, mask) prefix pairs.

    Standard TCAM range expansion: at most ``2*width - 2`` entries.
    """
    if lo > hi:
        raise ValueError("empty range")
    pairs: list[tuple[int, int]] = []
    full = (1 << width) - 1
    while lo <= hi:
        # Largest aligned block starting at lo that fits within [lo, hi].
        size = lo & -lo if lo else 1 << width
        while size > hi - lo + 1:
            size >>= 1
        mask = full & ~(size - 1)
        pairs.append((lo, mask))
        lo += size
    return pairs


@dataclass(frozen=True, slots=True)
class TcamEntry:
    """One ternary entry: key & mask == value means hit."""

    value: int
    mask: int
    port: int


# Key layout: src_ip(32) | dst_ip(32) | l4(1) | src_port(16) |
#             dst_port(16) | proto(8) | tagged(1) | vlan(16) | dscp(8)
# — 130 bits. ``l4`` and ``tagged`` are the valid bits a real TCAM key
# builder carries: a frame without an L4 header (or without an 802.1Q
# tag) keys them 0, so no port (or vid) entry can hit it as 0.
def _pack_key(src_ip: int, dst_ip: int, l4: int, src_port: int, dst_port: int,
              proto: int, tagged: int, vlan: int, dscp: int) -> int:
    key = src_ip
    key = (key << 32) | dst_ip
    key = (key << 1) | l4
    key = (key << 16) | src_port
    key = (key << 16) | dst_port
    key = (key << 8) | proto
    key = (key << 1) | tagged
    key = (key << 16) | vlan
    key = (key << 8) | dscp
    return key


def _exact_field(value: int | None, width: int) -> tuple[int, int]:
    return (0, 0) if value is None else (value, (1 << width) - 1)


class TcamMatcher:
    """TCAM-style matcher over expanded ternary entries."""

    implementation = "tcam"

    def __init__(self, ruleset: HeaderRuleSet, capacity: int | None = None) -> None:
        self.ruleset = ruleset
        #: In rule order, so the first hit is the highest-priority one.
        self.entries: list[TcamEntry] = []
        for rule in ruleset.rules:
            self._expand(rule)
        if capacity is not None and len(self.entries) > capacity:
            raise ValueError(
                f"ruleset needs {len(self.entries)} TCAM entries, "
                f"capacity is {capacity}"
            )

    @property
    def entry_count(self) -> int:
        return len(self.entries)

    def _expand(self, rule: HeaderRule) -> None:
        l4 = int(rule.src_port != PortRange.ANY or rule.dst_port != PortRange.ANY)
        tagged = int(rule.vlan is not None)
        pr_v, pr_m = _exact_field(rule.proto, 8)
        vl_v, vl_m = _exact_field(rule.vlan, 16)
        ds_v, ds_m = _exact_field(rule.dscp, 8)
        for (sp_v, sp_m), (dp_v, dp_m) in product(
            range_to_prefix_masks(rule.src_port.lo, rule.src_port.hi),
            range_to_prefix_masks(rule.dst_port.lo, rule.dst_port.hi),
        ):
            self.entries.append(TcamEntry(
                value=_pack_key(rule.src.value, rule.dst.value, l4, sp_v, dp_v,
                                pr_v, tagged, vl_v, ds_v),
                mask=_pack_key(rule.src.mask, rule.dst.mask, l4, sp_m, dp_m,
                               pr_m, tagged, vl_m, ds_m),
                port=rule.port,
            ))

    def _key_of(self, packet: Packet) -> int | None:
        ipv4 = packet.ipv4
        if ipv4 is None:
            return None
        l4 = packet.l4
        eth = packet.eth
        vlan_tag = eth.vlan if eth is not None else None
        return _pack_key(
            ipv4.src,
            ipv4.dst,
            int(l4 is not None),
            l4.src_port if l4 is not None else 0,
            l4.dst_port if l4 is not None else 0,
            ipv4.proto,
            int(vlan_tag is not None),
            vlan_tag.vid if vlan_tag is not None else 0,
            ipv4.dscp,
        )

    def match(self, packet: Packet) -> int:
        key = self._key_of(packet)
        if key is None:
            return self.ruleset.catch_all_port  # a non-IPv4 frame keys nothing
        for entry in self.entries:
            if key & entry.mask == entry.value:
                return entry.port
        return self.ruleset.default_port
