"""Packet buffer: lazy parsing, mutation, rebuild, clone semantics."""

from repro.net.builder import make_http_get, make_tcp_packet, make_udp_packet
from repro.net.checksum import internet_checksum, pseudo_header_sum
from repro.net.ip import IpProto, ip_to_int
from repro.net.packet import Packet
from repro.net.tcp import TcpHeader
from repro.net.udp import UdpHeader


class TestParsing:
    def test_lazy_views(self):
        packet = make_tcp_packet("1.2.3.4", "5.6.7.8", 10, 20, payload=b"pp")
        assert packet.eth is not None
        assert packet.ipv4.src_text == "1.2.3.4"
        assert isinstance(packet.tcp, TcpHeader)
        assert packet.udp is None
        assert packet.payload == b"pp"

    def test_udp_view(self):
        packet = make_udp_packet("1.2.3.4", "5.6.7.8", 53, 53, payload=b"q")
        assert isinstance(packet.l4, UdpHeader)
        assert packet.tcp is None
        assert packet.payload == b"q"

    def test_malformed_frame_gives_none_views(self):
        packet = Packet(data=b"\x00\x01")
        assert packet.eth is None
        assert packet.ipv4 is None
        assert packet.l4 is None

    def test_non_ip_frame(self):
        packet = make_tcp_packet("1.2.3.4", "5.6.7.8", 1, 2)
        raw = bytearray(packet.data)
        raw[12:14] = b"\x08\x06"  # ARP ethertype
        arp = Packet(data=bytes(raw))
        assert arp.eth is not None
        assert arp.ipv4 is None

    def test_summary_formats(self):
        packet = make_tcp_packet("1.2.3.4", "5.6.7.8", 10, 20)
        assert "1.2.3.4->5.6.7.8" in packet.summary()
        assert "10->20" in packet.summary()
        assert "non-ip" in Packet(data=b"xx").summary()


class TestMutation:
    def test_rewrite_and_rebuild_updates_bytes_and_checksums(self):
        packet = make_tcp_packet("1.2.3.4", "5.6.7.8", 10, 20, payload=b"data")
        packet.ipv4.dst = ip_to_int("9.9.9.9")
        packet.tcp.dst_port = 8080
        packet.mark_dirty()
        packet.rebuild()
        fresh = Packet(data=packet.data)
        assert fresh.ipv4.dst_text == "9.9.9.9"
        assert fresh.tcp.dst_port == 8080
        ip_start = fresh.eth.header_len
        assert internet_checksum(fresh.data[ip_start : ip_start + 20]) == 0
        segment = fresh.data[ip_start + fresh.ipv4.header_len :]
        initial = pseudo_header_sum(fresh.ipv4.src, fresh.ipv4.dst, IpProto.TCP, len(segment))
        assert internet_checksum(segment, initial) == 0

    def test_rebuild_without_dirty_is_noop(self):
        packet = make_tcp_packet("1.2.3.4", "5.6.7.8", 10, 20)
        before = packet.data
        packet.rebuild()
        assert packet.data == before

    def test_set_payload_updates_lengths(self):
        packet = make_tcp_packet("1.2.3.4", "5.6.7.8", 10, 20, payload=b"old")
        packet.set_payload(b"new payload bytes")
        fresh = Packet(data=packet.data)
        assert fresh.payload == b"new payload bytes"
        assert fresh.ipv4.total_length == len(fresh.data) - fresh.eth.header_len

    def test_invalidate_reparses(self):
        packet = make_tcp_packet("1.2.3.4", "5.6.7.8", 10, 20)
        first = packet.ipv4
        packet.invalidate()
        assert packet.ipv4 is not first


class TestClone:
    def test_clone_is_independent(self):
        packet = make_tcp_packet("1.2.3.4", "5.6.7.8", 10, 20, payload=b"x")
        packet.metadata["k"] = 1
        copy = packet.clone()
        assert copy.data == packet.data
        assert copy.metadata == {"k": 1}
        assert copy.packet_id != packet.packet_id
        copy.metadata["k"] = 2
        copy.ipv4.ttl = 1
        copy.mark_dirty()
        copy.rebuild()
        assert packet.metadata["k"] == 1
        assert packet.ipv4.ttl != 1

    def test_clone_flushes_pending_mutation(self):
        packet = make_tcp_packet("1.2.3.4", "5.6.7.8", 10, 20)
        packet.ipv4.ttl = 3
        packet.mark_dirty()
        copy = packet.clone()
        assert Packet(data=copy.data).ipv4.ttl == 3


class TestHttpPayload:
    def test_http_get_builder_payload_parses(self):
        packet = make_http_get("1.1.1.1", "2.2.2.2", "host.example", "/u",
                               extra_headers={"X-T": "1"})
        assert b"GET /u HTTP/1.1" in packet.payload
        assert b"X-T: 1" in packet.payload
