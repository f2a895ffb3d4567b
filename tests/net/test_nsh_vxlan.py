"""NSH encapsulation tests (the OpenBox metadata channel)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.nsh import (
    OPENBOX_MD_CLASS,
    NshContextHeader,
    NshHeader,
)


class TestNshHeader:
    def test_basic_roundtrip(self):
        header = NshHeader(spi=42, si=7, ttl=33)
        parsed = NshHeader.parse(header.serialize())
        assert parsed.spi == 42
        assert parsed.si == 7
        assert parsed.ttl == 33

    def test_metadata_roundtrip(self):
        header = NshHeader(spi=1)
        header.add_metadata(b'{"path": 3}')
        parsed = NshHeader.parse(header.serialize())
        assert parsed.openbox_metadata() == b'{"path": 3}'

    def test_metadata_none_when_absent(self):
        header = NshHeader(spi=1)
        assert NshHeader.parse(header.serialize()).openbox_metadata() is None

    def test_foreign_context_headers_preserved(self):
        header = NshHeader(spi=1)
        header.context.append(NshContextHeader(0x1234, 0x9, b"abc"))
        header.add_metadata(b"ours")
        parsed = NshHeader.parse(header.serialize())
        assert parsed.openbox_metadata() == b"ours"
        assert parsed.context[0].md_class == 0x1234
        assert parsed.context[0].value == b"abc"

    def test_value_padding_to_32_bits(self):
        ctx = NshContextHeader(OPENBOX_MD_CLASS, 1, b"12345")
        assert len(ctx.serialize()) == 12  # 4 TLV + 5 value + 3 pad

    def test_si_decrement_and_underflow(self):
        header = NshHeader(spi=1, si=1)
        header.decrement_si()
        assert header.si == 0
        with pytest.raises(ValueError):
            header.decrement_si()

    def test_spi_range_enforced(self):
        with pytest.raises(ValueError):
            NshHeader(spi=1 << 24)
        with pytest.raises(ValueError):
            NshHeader(spi=1, si=256)

    def test_truncated_rejected(self):
        header = NshHeader(spi=9)
        header.add_metadata(b"payload")
        data = header.serialize()
        with pytest.raises(ValueError):
            NshHeader.parse(data[:-2])

    def test_oversized_value_rejected(self):
        header = NshHeader(spi=1)
        with pytest.raises(ValueError):
            header.add_metadata(b"x" * 256)
            header.serialize()

    def test_header_len_matches_serialized(self):
        header = NshHeader(spi=1)
        header.add_metadata(b"abcdef")
        assert header.header_len == len(header.serialize())

    @given(st.integers(0, (1 << 24) - 1), st.integers(0, 255), st.binary(max_size=100))
    def test_roundtrip_property(self, spi, si, blob):
        header = NshHeader(spi=spi, si=si)
        if blob:
            header.add_metadata(blob)
        parsed = NshHeader.parse(header.serialize() + b"inner-frame")
        assert parsed.spi == spi and parsed.si == si
        assert parsed.openbox_metadata() == (blob if blob else None)
