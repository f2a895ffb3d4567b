"""Internet checksum (RFC 1071) helpers used by the IPv4/TCP/UDP codecs."""

from __future__ import annotations

import struct


def internet_checksum(data: bytes | bytearray | memoryview, initial: int = 0) -> int:
    """Compute the 16-bit one's-complement Internet checksum of ``data``.

    ``initial`` allows chaining partial sums (e.g. a pseudo-header sum
    followed by the segment body). The returned value is the final,
    complemented checksum ready to be written into a header field.
    """
    total = initial
    buf = bytes(data)
    if len(buf) % 2:
        buf += b"\x00"
    for (word,) in struct.iter_unpack("!H", buf):
        total += word
    # Fold carries until the sum fits in 16 bits.
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def ones_complement_sum(data: bytes | bytearray | memoryview, initial: int = 0) -> int:
    """Return the *uncomplemented* running one's-complement sum of ``data``.

    Useful for building pseudo-header sums that are then passed as the
    ``initial`` argument of :func:`internet_checksum`.
    """
    total = initial
    buf = bytes(data)
    if len(buf) % 2:
        buf += b"\x00"
    for (word,) in struct.iter_unpack("!H", buf):
        total += word
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def pseudo_header_sum(src_ip: int, dst_ip: int, proto: int, length: int) -> int:
    """One's-complement sum of the IPv4 pseudo-header for TCP/UDP checksums."""
    data = struct.pack("!IIBBH", src_ip, dst_ip, 0, proto, length)
    return ones_complement_sum(data)
