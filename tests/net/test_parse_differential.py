"""Differential test of the lean header parsers against a reference.

The ``*.parse`` classmethods were rewritten for the warm packet path
(precompiled structs, positional construction, no re-wrap of ``bytes``,
no options slice without options). The reference below is the previous,
keyword-argument implementation, kept here verbatim in behaviour: for any
input the rewritten parser must return the same fields or raise the same
``ValueError``.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.builder import DEFAULT_DST_MAC, DEFAULT_SRC_MAC
from repro.net.ethernet import EtherType, EthernetHeader, MacAddress, VlanTag
from repro.net.ip import IpProto, Ipv4Header, int_to_ip
from repro.net.packet import Packet
from repro.net.tcp import TcpHeader
from repro.net.udp import UdpHeader
from repro.obi.fastpath import flow_key


# ----------------------------------------------------------------------
# Reference parsers (the pre-rewrite implementations)
# ----------------------------------------------------------------------
def ref_ethernet(data, offset=0):
    buf = bytes(data)
    if len(buf) - offset < 14:
        raise ValueError("truncated Ethernet header")
    dst = MacAddress(buf[offset:offset + 6])
    src = MacAddress(buf[offset + 6:offset + 12])
    pos = offset + 12
    tags = []
    (ethertype,) = struct.unpack_from("!H", buf, pos)
    pos += 2
    while ethertype == EtherType.VLAN:
        if len(buf) - pos < 4:
            raise ValueError("truncated 802.1Q tag")
        (tci, ethertype) = struct.unpack_from("!HH", buf, pos)
        tags.append(VlanTag.from_tci(tci))
        pos += 4
    return EthernetHeader(dst=dst, src=src, ethertype=ethertype, vlan_tags=tags)


def ref_ipv4(data, offset=0):
    buf = bytes(data)
    if len(buf) - offset < 20:
        raise ValueError("truncated IPv4 header")
    (ver_ihl, tos, total_length, identification, flags_frag, ttl, proto,
     checksum, src, dst) = struct.unpack_from("!BBHHHBBHII", buf, offset)
    version = ver_ihl >> 4
    if version != 4:
        raise ValueError(f"not an IPv4 packet (version={version})")
    ihl = ver_ihl & 0x0F
    if ihl < 5:
        raise ValueError(f"invalid IHL: {ihl}")
    header_len = ihl * 4
    if len(buf) - offset < header_len:
        raise ValueError("truncated IPv4 options")
    return Ipv4Header(
        src=src, dst=dst, proto=proto, total_length=total_length, ttl=ttl,
        identification=identification, dscp=tos >> 2, ecn=tos & 0x3,
        flags=(flags_frag >> 13) & 0x7, frag_offset=flags_frag & 0x1FFF,
        checksum=checksum, options=buf[offset + 20:offset + header_len],
    )


def ref_tcp(data, offset=0):
    buf = bytes(data)
    if len(buf) - offset < 20:
        raise ValueError("truncated TCP header")
    (src_port, dst_port, seq, ack, off_flags, window, checksum,
     urgent) = struct.unpack_from("!HHIIHHHH", buf, offset)
    data_offset = (off_flags >> 12) & 0xF
    if data_offset < 5:
        raise ValueError(f"invalid TCP data offset: {data_offset}")
    header_len = data_offset * 4
    if len(buf) - offset < header_len:
        raise ValueError("truncated TCP options")
    return TcpHeader(
        src_port=src_port, dst_port=dst_port, seq=seq, ack=ack,
        flags=off_flags & 0x1FF, window=window, checksum=checksum,
        urgent=urgent, options=buf[offset + 20:offset + header_len],
    )


def ref_udp(data, offset=0):
    buf = bytes(data)
    if len(buf) - offset < 8:
        raise ValueError("truncated UDP header")
    src_port, dst_port, length, checksum = struct.unpack_from("!HHHH", buf, offset)
    if length < 8:
        raise ValueError(f"invalid UDP length: {length}")
    return UdpHeader(
        src_port=src_port, dst_port=dst_port, length=length, checksum=checksum
    )


PARSERS = [
    (EthernetHeader.parse, ref_ethernet),
    (Ipv4Header.parse, ref_ipv4),
    (TcpHeader.parse, ref_tcp),
    (UdpHeader.parse, ref_udp),
]


def same_result(parse, reference, data, offset):
    """Both return equal headers (dataclass ``==`` is field-for-field,
    and the field types must match too) or raise the same ValueError."""
    try:
        wanted = reference(data, offset)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            parse(data, offset)
        assert str(caught.value) == str(exc)
        return
    got = parse(data, offset)
    assert got == wanted
    for name in type(wanted).__dataclass_fields__:
        assert type(getattr(got, name)) is type(getattr(wanted, name)), name


# ----------------------------------------------------------------------
# Frames: stacked VLAN tags, IP/TCP options, truncation, odd ethertypes
# ----------------------------------------------------------------------
words = st.integers(0, 10).map(lambda n: bytes(range(1, 4 * n + 1)))


@st.composite
def frames(draw):
    """A frame assembled from the ``repro.net`` serializers, then
    possibly truncated anywhere at or after the first L3 byte."""
    eth = EthernetHeader(
        dst=DEFAULT_DST_MAC, src=DEFAULT_SRC_MAC,
        ethertype=draw(st.sampled_from(
            [EtherType.IPV4] * 6 + [EtherType.ARP, EtherType.IPV6, 0x88B5]
        )),
    )
    for vid in draw(st.lists(st.integers(0, 4095), max_size=3)):
        eth.push_vlan(VlanTag(vid=vid, pcp=vid % 8, dei=bool(vid & 1)))
    payload = draw(st.binary(max_size=24))
    src, dst = draw(st.integers(0, 0xFFFFFFFF)), draw(st.integers(0, 0xFFFFFFFF))
    proto = draw(st.sampled_from([IpProto.TCP, IpProto.UDP, IpProto.ICMP, 47]))
    sport, dport = draw(st.integers(0, 65535)), draw(st.integers(0, 65535))
    if proto == IpProto.TCP:
        l4 = TcpHeader(
            src_port=sport, dst_port=dport, seq=draw(st.integers(0, 2**32 - 1)),
            flags=draw(st.integers(0, 0x1FF)), options=draw(words),
        ).serialize(payload, src_ip=src, dst_ip=dst)
    elif proto == IpProto.UDP:
        l4 = UdpHeader(src_port=sport, dst_port=dport).serialize(
            payload, src_ip=src, dst_ip=dst
        )
    else:
        l4 = payload
    ipv4 = Ipv4Header(
        src=src, dst=dst, proto=proto, ttl=draw(st.integers(0, 255)),
        dscp=draw(st.integers(0, 63)), ecn=draw(st.integers(0, 3)),
        flags=draw(st.integers(0, 7)), frag_offset=draw(st.integers(0, 0x1FFF)),
        options=draw(words),
    ).serialize(payload_len=len(l4))
    frame = eth.serialize() + ipv4 + l4
    keep = draw(st.integers(eth.header_len, len(frame)))
    return frame[:keep]


inputs = st.one_of(st.binary(max_size=96), frames())


class TestParsersMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(inputs, st.integers(0, 40), st.booleans())
    def test_each_parser_at_any_offset(self, data, offset, as_view):
        offset = min(offset, len(data))
        view = memoryview(data) if as_view else data
        for parse, reference in PARSERS:
            same_result(parse, reference, view, offset)

    @given(st.integers(0, 0xFFFFFFFF))
    def test_int_to_ip(self, value):
        assert int_to_ip(value) == ".".join(
            str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0)
        )

    @pytest.mark.parametrize("value", [-1, 0x1_0000_0000])
    def test_int_to_ip_range_enforced(self, value):
        with pytest.raises(ValueError):
            int_to_ip(value)


def ref_views(data):
    """What ``Packet._parse`` must leave in ``eth/ipv4/l4``."""
    try:
        eth = ref_ethernet(data)
    except ValueError:
        return None, None, None
    if eth.ethertype != EtherType.IPV4:
        return eth, None, None
    try:
        ipv4 = ref_ipv4(data, eth.header_len)
    except ValueError:
        return eth, None, None
    l4 = None
    reference = {IpProto.TCP: ref_tcp, IpProto.UDP: ref_udp}.get(ipv4.proto)
    if reference is not None:
        try:
            l4 = reference(data, eth.header_len + ipv4.header_len)
        except ValueError:
            l4 = None
    return eth, ipv4, l4


def ref_flow_key(packet, scope=()):
    """The key rebuilt from the public properties (the previous body)."""
    ipv4 = packet.ipv4
    if ipv4 is None:
        return None
    l4, eth = packet.l4, packet.eth
    tag = eth.vlan if eth is not None else None
    key = (
        ipv4.src, ipv4.dst, ipv4.proto, ipv4.dscp,
        l4.src_port if l4 is not None else -1,
        l4.dst_port if l4 is not None else -1,
        tag.vid if tag is not None else -1,
    )
    return key + tuple(repr(packet.metadata.get(name)) for name in scope)


class TestPacketViews:
    @settings(max_examples=300, deadline=None)
    @given(inputs, st.booleans())
    def test_views_and_flow_key(self, data, as_view):
        packet = Packet(data=memoryview(data) if as_view else data)
        packet.metadata["class"] = 7
        # flow_key first: it must trigger the one parse itself.
        key = flow_key(packet, ("class", "absent"))
        assert (packet.eth, packet.ipv4, packet.l4) == ref_views(data)
        assert key == ref_flow_key(packet, ("class", "absent"))
        assert flow_key(packet) == ref_flow_key(packet)

    @settings(max_examples=100, deadline=None)
    @given(frames())
    def test_summary_is_format_of_fields(self, data):
        packet = Packet(data=data)
        ipv4, l4 = packet.ipv4, packet.l4
        if ipv4 is None:
            wanted = f"pkt#{packet.packet_id} len={len(data)} non-ip"
        else:
            proto = {6: "tcp", 17: "udp"}.get(ipv4.proto, str(ipv4.proto))
            ports = f" {l4.src_port}->{l4.dst_port}" if l4 is not None else ""
            wanted = (
                f"pkt#{packet.packet_id} len={len(data)} {proto} "
                f"{ipv4.src_text}->{ipv4.dst_text}{ports}"
            )
        assert packet.summary() == wanted


class TestReparse:
    """``invalidate()`` / ``mark_dirty()`` / ``rebuild()`` still re-parse."""

    def frame(self, src_port):
        from repro.net.builder import make_tcp_packet
        return make_tcp_packet("10.0.0.1", "10.0.0.2", src_port, 80, b"x").data

    def test_invalidate_reparses_new_bytes(self):
        packet = Packet(data=self.frame(1111))
        assert flow_key(packet)[4] == 1111
        packet.data = self.frame(2222)
        assert packet.l4.src_port == 1111  # cached views until invalidated
        packet.invalidate()
        assert packet.l4.src_port == 2222
        assert flow_key(packet)[4] == 2222

    def test_mark_dirty_parses_then_rebuild_reserializes(self):
        packet = Packet(data=self.frame(1111))
        packet.mark_dirty()  # parses first: there must be views to edit
        packet._l4.src_port = 3333
        packet._ipv4.src = 0x0A000063
        packet.rebuild()
        fresh = Packet(data=packet.data)
        assert fresh.l4.src_port == 3333
        assert fresh.ipv4.src_text == "10.0.0.99"
        assert flow_key(fresh) == flow_key(packet)
        # Checksums were recomputed: the reference parser agrees.
        assert (fresh.eth, fresh.ipv4, fresh.l4) == ref_views(packet.data)
