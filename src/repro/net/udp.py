"""UDP header parsing and serialization."""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.net.checksum import internet_checksum, pseudo_header_sum
from repro.net.ip import IpProto

_HEADER = struct.Struct("!HHHH")


@dataclass(slots=True)
class UdpHeader:
    """A UDP header."""

    src_port: int
    dst_port: int
    length: int = 0
    checksum: int = 0

    HEADER_LEN = 8

    @classmethod
    def parse(cls, data: bytes | memoryview, offset: int = 0) -> "UdpHeader":
        if len(data) - offset < 8:  # HEADER_LEN (per-packet path)
            raise ValueError("truncated UDP header")
        src_port, dst_port, length, checksum = _HEADER.unpack_from(data, offset)
        if length < 8:
            raise ValueError(f"invalid UDP length: {length}")
        return cls(src_port, dst_port, length, checksum)

    def serialize(
        self,
        payload: bytes = b"",
        src_ip: int | None = None,
        dst_ip: int | None = None,
    ) -> bytes:
        """Serialize the datagram; checksum computed if IPs are supplied.

        Per RFC 768, a computed checksum of zero is transmitted as 0xFFFF.
        """
        self.length = self.HEADER_LEN + len(payload)
        header = _HEADER.pack(self.src_port, self.dst_port, self.length, 0)
        if src_ip is not None and dst_ip is not None:
            initial = pseudo_header_sum(src_ip, dst_ip, IpProto.UDP, self.length)
            checksum = internet_checksum(header + payload, initial)
            self.checksum = checksum if checksum != 0 else 0xFFFF
        return header[:6] + struct.pack("!H", self.checksum) + payload
