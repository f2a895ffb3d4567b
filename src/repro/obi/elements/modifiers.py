"""Modifier elements: header rewriting, VLAN handling, TTL, NAT."""

from __future__ import annotations

from typing import Any

from repro.net.ethernet import EtherType, MacAddress, VlanTag
from repro.net.ip import ip_to_int
from repro.net.packet import Packet
from repro.obi.engine import Element

#: Header fields NetworkHeaderFieldRewriter can set, with coercers from
#: the JSON config representation to internal values.
_FIELD_SETTERS = {
    "ipv4_src": ("ipv4", "src", lambda v: ip_to_int(v) if isinstance(v, str) else int(v)),
    "ipv4_dst": ("ipv4", "dst", lambda v: ip_to_int(v) if isinstance(v, str) else int(v)),
    "ipv4_ttl": ("ipv4", "ttl", int),
    "ipv4_dscp": ("ipv4", "dscp", int),
    "tcp_src": ("l4", "src_port", int),
    "tcp_dst": ("l4", "dst_port", int),
    "udp_src": ("l4", "src_port", int),
    "udp_dst": ("l4", "dst_port", int),
    "eth_src": ("eth", "src", MacAddress.parse),
    "eth_dst": ("eth", "dst", MacAddress.parse),
}


class NetworkHeaderFieldRewriterElement(Element):
    """Sets header fields to constants; config ``fields`` maps name->value.

    Example: ``{"fields": {"ipv4_dst": "10.0.0.9", "tcp_dst": 8080}}``.
    """

    def __init__(self, name: str, config: dict[str, Any], origin_app: str | None = None) -> None:
        super().__init__(name, config, origin_app)
        self._setters: list[tuple[str, str, Any]] = []
        self._compile(config.get("fields", {}))

    def _compile(self, fields: dict[str, Any]) -> None:
        self._setters = []
        for field_name, raw_value in fields.items():
            spec = _FIELD_SETTERS.get(field_name)
            if spec is None:
                raise ValueError(f"unknown rewritable field: {field_name!r}")
            layer, attr, coerce = spec
            self._setters.append((layer, attr, coerce(raw_value)))

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        touched = False
        for layer, attr, value in self._setters:
            header = getattr(packet, layer)
            if header is None:
                continue
            setattr(header, attr, value)
            touched = True
        if touched:
            packet.mark_dirty()
            packet.rebuild()
        return [(0, packet)]

    def read_handle(self, name: str) -> Any:
        if name == "fields":
            return dict(self.config.get("fields", {}))
        return super().read_handle(name)

    def write_handle(self, name: str, value: Any) -> None:
        if name == "fields":
            self._compile(value)
            self.config["fields"] = dict(value)
            return
        super().write_handle(name, value)


class Ipv4AddressTranslatorElement(Element):
    """Static NAT: rewrites addresses per a mapping table.

    ``mappings`` is a list of ``{"match": "a.b.c.d", "src"/"dst": "new"}``
    entries; the first entry whose ``match`` equals the packet's source
    (for ``src`` rewrites) or destination (for ``dst``) applies.
    """

    def __init__(self, name: str, config: dict[str, Any], origin_app: str | None = None) -> None:
        super().__init__(name, config, origin_app)
        self._src_map: dict[int, int] = {}
        self._dst_map: dict[int, int] = {}
        for entry in config.get("mappings", ()):
            match = ip_to_int(entry["match"])
            if "src" in entry:
                self._src_map[match] = ip_to_int(entry["src"])
            if "dst" in entry:
                self._dst_map[match] = ip_to_int(entry["dst"])

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        ipv4 = packet.ipv4
        if ipv4 is None:
            return [(0, packet)]
        touched = False
        if ipv4.src in self._src_map:
            ipv4.src = self._src_map[ipv4.src]
            touched = True
        if ipv4.dst in self._dst_map:
            ipv4.dst = self._dst_map[ipv4.dst]
            touched = True
        if touched:
            packet.mark_dirty()
            packet.rebuild()
        return [(0, packet)]


class TcpPortTranslatorElement(Element):
    """Rewrites L4 destination ports per ``{"mappings": {"80": 8080}}``."""

    def __init__(self, name: str, config: dict[str, Any], origin_app: str | None = None) -> None:
        super().__init__(name, config, origin_app)
        self._mappings = {
            int(match): int(target)
            for match, target in (config.get("mappings") or {}).items()
        }

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        l4 = packet.l4
        if l4 is not None and l4.dst_port in self._mappings:
            l4.dst_port = self._mappings[l4.dst_port]
            packet.mark_dirty()
            packet.rebuild()
        return [(0, packet)]


class DecTtlElement(Element):
    """Decrements the IPv4 TTL; expired packets are absorbed (dropped)."""

    def __init__(self, name: str, config: dict[str, Any], origin_app: str | None = None) -> None:
        super().__init__(name, config, origin_app)
        self.expired = 0

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        ipv4 = packet.ipv4
        if ipv4 is None:
            return [(0, packet)]
        if ipv4.ttl <= 1:
            self.expired += 1
            outcome = self.context.current if self.context is not None else None
            if outcome is not None:
                outcome.dropped = True
            return []
        ipv4.ttl -= 1
        packet.mark_dirty()
        packet.rebuild()
        return [(0, packet)]

    def read_handle(self, name: str) -> Any:
        if name == "expired":
            return self.expired
        return super().read_handle(name)


class VlanEncapsulateElement(Element):
    """Pushes an 802.1Q tag (config ``vid``, optional ``pcp``)."""

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        eth = packet.eth
        if eth is not None:
            eth.push_vlan(VlanTag(
                vid=int(self.config["vid"]), pcp=int(self.config.get("pcp", 0))
            ))
            packet.mark_dirty()
            packet.rebuild()
        return [(0, packet)]


class VlanDecapsulateElement(Element):
    """Pops the outermost 802.1Q tag (no-op on untagged frames)."""

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        eth = packet.eth
        if eth is not None and eth.vlan_tags:
            eth.pop_vlan()
            packet.mark_dirty()
            packet.rebuild()
        return [(0, packet)]


class StripEthernetElement(Element):
    """Removes the Ethernet framing, leaving a bare IPv4 packet."""

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        eth = packet.eth
        if eth is not None and eth.ethertype == EtherType.IPV4:
            packet.data = packet.data[eth.header_len:]
            packet.invalidate()
        return [(0, packet)]


class DefragmenterElement(Element):
    """Reassembles IPv4 fragments into whole packets.

    DPI on fragmented traffic is the oldest IPS evasion; real NFs
    normalize by reassembling before classification. Fragments are
    keyed by (src, dst, id, proto); a datagram is emitted once all its
    bytes (up to the final fragment's end) are present. Incomplete
    groups expire after ``timeout`` seconds of engine-clock time.
    """

    def __init__(self, name: str, config: dict[str, Any], origin_app: str | None = None) -> None:
        super().__init__(name, config, origin_app)
        self.timeout = float(config.get("timeout", 30.0))
        self.max_pending = int(config.get("max_pending", 1024))
        self.reassembled = 0
        self.expired = 0
        #: Fragment groups rejected because the claimed datagram would
        #: exceed the IPv4 maximum (ping-of-death style frames).
        self.oversized = 0
        # key -> (first_seen, {offset: bytes}, total_len | None, template pkt)
        self._pending: dict[tuple, list] = {}

    def _purge(self, now: float) -> None:
        stale = [key for key, entry in self._pending.items()
                 if now - entry[0] > self.timeout]
        for key in stale:
            del self._pending[key]
            self.expired += 1

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        ipv4 = packet.ipv4
        now = self.context.now if self.context is not None else 0.0
        self._purge(now)
        if ipv4 is None or (ipv4.frag_offset == 0 and not ipv4.more_fragments):
            return [(0, packet)]

        key = (ipv4.src, ipv4.dst, ipv4.identification, ipv4.proto)
        entry = self._pending.get(key)
        if entry is None:
            if len(self._pending) >= self.max_pending:
                # Table full: pass the fragment through unreassembled
                # rather than dropping it (fail-open normalization).
                return [(0, packet)]
            entry = [now, {}, None, packet]
            self._pending[key] = entry
        _first_seen, chunks, total_len, _template = entry

        eth = packet.eth
        header_len = (eth.header_len if eth is not None else 0) + ipv4.header_len
        body = packet.data[header_len:]
        chunks[ipv4.frag_offset * 8] = body
        if not ipv4.more_fragments:
            entry[2] = ipv4.frag_offset * 8 + len(body)
        total_len = entry[2]

        if total_len is None:
            return []
        if total_len + ipv4.header_len > 0xFFFF:
            # The final fragment claims a datagram larger than an IPv4
            # packet can be (ping-of-death). Drop the whole group — a
            # frame this hostile must not reach serialization.
            del self._pending[key]
            self.oversized += 1
            outcome = self.context.current if self.context is not None else None
            if outcome is not None:
                outcome.dropped = True
            return []
        covered = 0
        payload = bytearray(total_len)
        for offset in sorted(chunks):
            chunk = chunks[offset]
            payload[offset : offset + len(chunk)] = chunk
            covered += len(chunk)
        if covered < total_len:
            return []

        # Complete: synthesize the whole datagram from the template.
        del self._pending[key]
        self.reassembled += 1
        template = entry[3].clone()
        template_ip = template.ipv4
        template_ip.frag_offset = 0
        template_ip.flags &= ~0b001  # clear MF
        template_eth = template.eth
        prefix_len = (template_eth.header_len if template_eth is not None else 0)
        template.data = (
            template.data[:prefix_len]
            + template_ip.serialize(payload_len=total_len)
            + bytes(payload)
        )
        template.invalidate()
        return [(0, template)]

    def read_handle(self, name: str) -> Any:
        if name == "reassembled":
            return self.reassembled
        if name == "pending":
            return len(self._pending)
        if name == "expired":
            return self.expired
        if name == "oversized":
            return self.oversized
        return super().read_handle(name)


class FragmenterElement(Element):
    """Fragments IPv4 packets larger than ``mtu`` (simplified: splits
    the L4 payload across IP fragments with correct offsets/flags)."""

    def __init__(self, name: str, config: dict[str, Any], origin_app: str | None = None) -> None:
        super().__init__(name, config, origin_app)
        self.mtu = int(config.get("mtu", 1500))
        self.fragmented = 0

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        eth = packet.eth
        ipv4 = packet.ipv4
        if eth is None or ipv4 is None or len(packet.data) <= self.mtu + eth.header_len:
            return [(0, packet)]
        if ipv4.dont_fragment:
            outcome = self.context.current if self.context is not None else None
            if outcome is not None:
                outcome.dropped = True
            return []
        self.fragmented += 1
        header_len = eth.header_len + ipv4.header_len
        body = packet.data[header_len:]
        # Fragment payload sizes must be multiples of 8 bytes; clamp to
        # one 8-byte unit so an MTU smaller than the IP header can never
        # produce a zero-advance (infinite) fragmentation loop.
        chunk = max(8, (self.mtu - ipv4.header_len) // 8 * 8)
        fragments: list[tuple[int, Packet]] = []
        offset = 0
        while offset < len(body):
            piece = body[offset : offset + chunk]
            last = offset + chunk >= len(body)
            fragment = packet.clone()
            frag_ip = fragment.ipv4
            frag_ip.frag_offset = offset // 8
            frag_ip.flags = frag_ip.flags & ~0b001 if last else frag_ip.flags | 0b001
            fragment.data = (
                fragment.data[: eth.header_len]
                + frag_ip.serialize(payload_len=len(piece))
                + piece
            )
            fragment.invalidate()
            fragments.append((0, fragment))
            offset += chunk
        return fragments

    def read_handle(self, name: str) -> Any:
        if name == "fragmented":
            return self.fragmented
        return super().read_handle(name)
