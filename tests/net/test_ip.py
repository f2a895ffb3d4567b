"""IPv4 header codec tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.checksum import internet_checksum
from repro.net.ip import IpProto, Ipv4Header, int_to_ip, ip_to_int, parse_cidr


class TestAddressConversion:
    def test_ip_to_int(self):
        assert ip_to_int("10.0.0.1") == 0x0A000001
        assert ip_to_int("255.255.255.255") == 0xFFFFFFFF

    def test_int_to_ip(self):
        assert int_to_ip(0x0A000001) == "10.0.0.1"
        assert int_to_ip(0) == "0.0.0.0"

    @given(st.integers(0, 0xFFFFFFFF))
    def test_roundtrip_property(self, value):
        assert ip_to_int(int_to_ip(value)) == value

    def test_rejects_bad_addresses(self):
        for bad in ("10.0.0", "10.0.0.0.1", "10.0.0.256", "a.b.c.d"):
            with pytest.raises(ValueError):
                ip_to_int(bad)

    def test_int_to_ip_range_check(self):
        with pytest.raises(ValueError):
            int_to_ip(1 << 32)


class TestParseCidr:
    def test_plain_address_is_slash_32(self):
        assert parse_cidr("10.0.0.1") == (0x0A000001, 0xFFFFFFFF)

    def test_prefix_masks_host_bits(self):
        network, mask = parse_cidr("10.1.2.3/8")
        assert network == 0x0A000000
        assert mask == 0xFF000000

    def test_zero_prefix(self):
        assert parse_cidr("0.0.0.0/0") == (0, 0)

    def test_invalid_prefix_length(self):
        with pytest.raises(ValueError):
            parse_cidr("10.0.0.0/33")


class TestIpv4Header:
    def _header(self, **overrides):
        params = dict(src=ip_to_int("10.0.0.1"), dst=ip_to_int("10.0.0.2"),
                      proto=IpProto.TCP)
        params.update(overrides)
        return Ipv4Header(**params)

    def test_serialize_parse_roundtrip(self):
        header = self._header(ttl=17, dscp=10, ecn=1, identification=0xBEEF)
        parsed = Ipv4Header.parse(header.serialize(payload_len=100))
        assert parsed.src == header.src
        assert parsed.dst == header.dst
        assert parsed.ttl == 17
        assert parsed.dscp == 10
        assert parsed.ecn == 1
        assert parsed.identification == 0xBEEF
        assert parsed.total_length == 120

    def test_checksum_is_valid(self):
        data = self._header().serialize(payload_len=0)
        assert internet_checksum(data) == 0

    def test_checksum_corruption_detected(self):
        data = bytearray(self._header().serialize(payload_len=0))
        data[8] ^= 0x42  # TTL byte
        assert internet_checksum(bytes(data)) != 0

    def test_flags_and_fragments(self):
        header = self._header(flags=Ipv4Header.FLAG_DF)
        assert header.dont_fragment and not header.more_fragments
        parsed = Ipv4Header.parse(header.serialize(payload_len=0))
        assert parsed.dont_fragment

    def test_fragment_offset_roundtrip(self):
        header = self._header(flags=Ipv4Header.FLAG_MF, frag_offset=185)
        parsed = Ipv4Header.parse(header.serialize(payload_len=8))
        assert parsed.more_fragments
        assert parsed.frag_offset == 185

    def test_options_roundtrip(self):
        header = self._header(options=b"\x01\x01\x01\x01")
        parsed = Ipv4Header.parse(header.serialize(payload_len=0))
        assert parsed.options == b"\x01\x01\x01\x01"
        assert parsed.header_len == 24

    def test_unpadded_options_rejected(self):
        header = self._header(options=b"\x01")
        with pytest.raises(ValueError):
            header.serialize()

    def test_parse_rejects_non_ipv4(self):
        data = bytearray(self._header().serialize(payload_len=0))
        data[0] = (6 << 4) | 5
        with pytest.raises(ValueError):
            Ipv4Header.parse(bytes(data))

    def test_parse_rejects_bad_ihl(self):
        data = bytearray(self._header().serialize(payload_len=0))
        data[0] = (4 << 4) | 3
        with pytest.raises(ValueError):
            Ipv4Header.parse(bytes(data))

    def test_parse_rejects_truncated(self):
        with pytest.raises(ValueError):
            Ipv4Header.parse(b"\x45" + b"\x00" * 10)

    def test_text_properties(self):
        header = self._header()
        assert header.src_text == "10.0.0.1"
        assert header.dst_text == "10.0.0.2"

    @given(
        st.integers(0, 0xFFFFFFFF), st.integers(0, 0xFFFFFFFF),
        st.integers(0, 255), st.integers(1, 255), st.integers(0, 63),
    )
    def test_roundtrip_property(self, src, dst, proto, ttl, dscp):
        header = Ipv4Header(src=src, dst=dst, proto=proto, ttl=ttl, dscp=dscp)
        parsed = Ipv4Header.parse(header.serialize(payload_len=42))
        assert (parsed.src, parsed.dst, parsed.proto, parsed.ttl, parsed.dscp) == (
            src, dst, proto, ttl, dscp
        )
        assert internet_checksum(header.serialize(payload_len=42)) == 0
