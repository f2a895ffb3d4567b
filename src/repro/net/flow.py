"""5-tuple flow keys and flow records.

OpenBox's *session storage* (paper §3.4.2) is keyed by flow: a stateful NF
application stores per-flow data (tags, gzip windows, DPI search state)
that must live in the data plane. :class:`FiveTuple` is the key and
:class:`Flow` the record; the table that owns their lifecycle — creation
on first packet, idle timeout, TCP FIN/RST teardown, bounded admission —
is :class:`repro.obi.flowstate.FlowStateTable`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.net.ip import IpProto, int_to_ip
from repro.net.packet import Packet
from repro.net.tcp import TcpFlags


@dataclass(frozen=True, slots=True)
class FiveTuple:
    """The canonical 5-tuple flow key."""

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    proto: int

    @classmethod
    def of(cls, packet: Packet) -> "FiveTuple | None":
        """Extract the 5-tuple from ``packet``, or None for non-IP frames."""
        ipv4 = packet.ipv4
        if ipv4 is None:
            return None
        l4 = packet.l4
        src_port = l4.src_port if l4 is not None else 0
        dst_port = l4.dst_port if l4 is not None else 0
        return cls(ipv4.src, ipv4.dst, src_port, dst_port, ipv4.proto)

    def reversed(self) -> "FiveTuple":
        """The 5-tuple of the reverse direction."""
        return FiveTuple(self.dst_ip, self.src_ip, self.dst_port, self.src_port, self.proto)

    def bidirectional_key(self) -> "FiveTuple":
        """A direction-independent key (the lexicographically smaller side)."""
        forward = (self.src_ip, self.src_port)
        backward = (self.dst_ip, self.dst_port)
        return self if forward <= backward else self.reversed()

    def to_dict(self) -> dict[str, int]:
        """JSON-safe form (used by state export/migration)."""
        return {
            "src_ip": self.src_ip, "dst_ip": self.dst_ip,
            "src_port": self.src_port, "dst_port": self.dst_port,
            "proto": self.proto,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FiveTuple":
        return cls(
            src_ip=int(data["src_ip"]), dst_ip=int(data["dst_ip"]),
            src_port=int(data["src_port"]), dst_port=int(data["dst_port"]),
            proto=int(data["proto"]),
        )

    def __str__(self) -> str:
        proto = {IpProto.TCP: "tcp", IpProto.UDP: "udp"}.get(self.proto, str(self.proto))
        return (
            f"{proto} {int_to_ip(self.src_ip)}:{self.src_port} -> "
            f"{int_to_ip(self.dst_ip)}:{self.dst_port}"
        )


@dataclass
class Flow:
    """Mutable per-flow state held by :class:`repro.obi.flowstate.FlowStateTable`."""

    key: FiveTuple
    created_at: float
    last_seen: float
    packets: int = 0
    bytes: int = 0
    fin_seen: bool = False
    rst_seen: bool = False
    session: dict[str, Any] = field(default_factory=dict)
    #: Bumped on every session write / state transition; cached flow
    #: decisions record the version they read so a transition can
    #: invalidate exactly the affected flow's cache entry.
    version: int = 0
    #: Protected entries (established connections) are never evicted by
    #: state-pressure policies — a SYN flood may only displace other
    #: embryonic entries, not live sessions.
    protected: bool = False

    @property
    def closed(self) -> bool:
        return self.rst_seen or self.fin_seen

    def touch(self, packet: Packet, now: float) -> None:
        self.last_seen = now
        self.packets += 1
        self.bytes += len(packet)
        tcp = packet.tcp
        if tcp is not None:
            if tcp.has_flag(TcpFlags.FIN):
                self.fin_seen = True
            if tcp.has_flag(TcpFlags.RST):
                self.rst_seen = True
