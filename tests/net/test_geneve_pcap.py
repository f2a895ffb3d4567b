"""pcap codec tests."""

import io

import pytest

from repro.net.builder import make_tcp_packet
from repro.net.pcap import (
    LINKTYPE_ETHERNET,
    PcapError,
    PcapReader,
    PcapWriter,
    read_pcap,
    write_pcap,
)


class TestPcap:
    def test_write_read_roundtrip(self, tmp_path):
        packets = [
            make_tcp_packet("1.1.1.1", "2.2.2.2", 5, 80, payload=b"a", timestamp=1.5),
            make_tcp_packet("3.3.3.3", "4.4.4.4", 6, 443, payload=b"bb", timestamp=2.25),
        ]
        path = str(tmp_path / "trace.pcap")
        assert write_pcap(path, packets) == 2
        loaded = read_pcap(path)
        assert [p.data for p in loaded] == [p.data for p in packets]
        assert loaded[0].timestamp == pytest.approx(1.5)
        assert loaded[1].timestamp == pytest.approx(2.25)
        assert loaded[0].ipv4.src_text == "1.1.1.1"

    def test_reader_metadata(self, tmp_path):
        path = str(tmp_path / "t.pcap")
        write_pcap(path, [make_tcp_packet("1.1.1.1", "2.2.2.2", 1, 2)])
        with open(path, "rb") as stream:
            reader = PcapReader(stream)
            assert reader.linktype == LINKTYPE_ETHERNET
            assert reader.snaplen == 65535

    def test_little_endian_files_accepted(self):
        import struct
        buffer = io.BytesIO()
        buffer.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1))
        buffer.write(struct.pack("<IIII", 10, 500000, 3, 3))
        buffer.write(b"\x01\x02\x03")
        buffer.seek(0)
        records = list(PcapReader(buffer))
        assert records[0].data == b"\x01\x02\x03"
        assert records[0].timestamp == pytest.approx(10.5)

    def test_snaplen_truncation_recorded(self):
        buffer = io.BytesIO()
        writer = PcapWriter(buffer, snaplen=10)
        writer.write(make_tcp_packet("1.1.1.1", "2.2.2.2", 1, 2, payload=b"x" * 100))
        buffer.seek(0)
        record = next(iter(PcapReader(buffer)))
        assert len(record.data) == 10
        assert record.truncated

    def test_bad_magic_rejected(self):
        with pytest.raises(PcapError):
            PcapReader(io.BytesIO(b"\x00" * 24))

    def test_truncated_record_rejected(self):
        buffer = io.BytesIO()
        writer = PcapWriter(buffer)
        writer.write(make_tcp_packet("1.1.1.1", "2.2.2.2", 1, 2))
        data = buffer.getvalue()[:-5]
        with pytest.raises(PcapError):
            list(PcapReader(io.BytesIO(data)))

    def test_generator_trace_persists(self, tmp_path):
        from repro.sim.traffic import TraceConfig, TrafficGenerator
        packets = TrafficGenerator(TraceConfig(num_packets=50)).packets()
        path = str(tmp_path / "campus.pcap")
        write_pcap(path, packets)
        loaded = read_pcap(path)
        assert len(loaded) == 50
        assert all(p.ipv4 is not None for p in loaded)
