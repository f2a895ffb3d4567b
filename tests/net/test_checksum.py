"""Internet checksum (RFC 1071) unit and property tests."""

import struct

from hypothesis import given
from hypothesis import strategies as st

from repro.net.checksum import (
    internet_checksum,
    ones_complement_sum,
    pseudo_header_sum,
)


class TestInternetChecksum:
    def test_rfc1071_example(self):
        # Classic worked example: 00 01 f2 03 f4 f5 f6 f7 -> checksum 0x220d.
        data = bytes.fromhex("0001f203f4f5f6f7")
        assert internet_checksum(data) == 0x220D

    def test_empty_data(self):
        assert internet_checksum(b"") == 0xFFFF

    def test_all_zeros(self):
        assert internet_checksum(b"\x00" * 20) == 0xFFFF

    def test_odd_length_pads_with_zero(self):
        assert internet_checksum(b"\xab") == internet_checksum(b"\xab\x00")

    def test_initial_chains_partial_sums(self):
        whole = internet_checksum(b"\x12\x34\x56\x78")
        partial = ones_complement_sum(b"\x12\x34")
        chained = internet_checksum(b"\x56\x78", initial=partial)
        assert whole == chained

    @given(st.binary(min_size=0, max_size=256))
    def test_data_with_embedded_checksum_verifies(self, data):
        """Inserting the computed checksum makes the whole sum to zero."""
        checksum = internet_checksum(data)
        full = data + struct.pack("!H", checksum)
        # Even-length alignment matters for verification semantics.
        if len(data) % 2 == 0:
            assert internet_checksum(full) == 0

    @given(st.binary(min_size=2, max_size=64))
    def test_corruption_detected_in_aligned_word(self, data):
        if len(data) % 2:
            data += b"\x00"
        checksum = internet_checksum(data)
        full = bytearray(data + struct.pack("!H", checksum))
        # Flip bits in the first byte; one's complement detects any
        # single-word change unless it produces an equivalent -0/+0 form.
        original = full[0]
        full[0] ^= 0xFF
        if full[0] != original:
            changed = internet_checksum(bytes(full)) == 0
            # 0x00 <-> 0xFF flips can alias in one's complement; any
            # other flip must be caught.
            if not (original in (0x00, 0xFF) and full[0] in (0x00, 0xFF)):
                assert not changed


class TestPseudoHeader:
    def test_pseudo_header_sum_structure(self):
        total = pseudo_header_sum(0x0A000001, 0x0A000002, 6, 20)
        manual = ones_complement_sum(
            struct.pack("!IIBBH", 0x0A000001, 0x0A000002, 0, 6, 20)
        )
        assert total == manual

    def test_pseudo_header_affects_checksum(self):
        body = b"\x00" * 8
        plain = internet_checksum(body)
        with_pseudo = internet_checksum(
            body, pseudo_header_sum(0x0A000001, 0x0A000002, 17, 8)
        )
        assert plain != with_pseudo
