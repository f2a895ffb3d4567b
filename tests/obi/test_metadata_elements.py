"""NSH metadata transfer elements and MetadataCodec tests."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.blocks import Block
from repro.core.graph import ProcessingGraph
from repro.net.builder import make_tcp_packet
from repro.net.nsh import NshHeader
from repro.obi.storage import MetadataCodec
from repro.obi.translation import build_engine


def _pipeline(*blocks):
    graph = ProcessingGraph("meta")
    read = Block("FromDevice", name="r", config={"devname": "i"})
    out = Block("ToDevice", name="o", config={"devname": "o"})
    graph.add_blocks([read, *blocks, out])
    chain = [read, *blocks, out]
    for src, dst in zip(chain, chain[1:]):
        graph.connect(src, dst, 0)
    return build_engine(graph)


class TestMetadataCodec:
    def test_roundtrip(self):
        blob = MetadataCodec.encode({"path": 3, "app": "fw"})
        assert MetadataCodec.decode(blob) == {"path": 3, "app": "fw"}

    def test_key_filtering(self):
        blob = MetadataCodec.encode({"a": 1, "b": 2}, keys=["a", "missing"])
        assert MetadataCodec.decode(blob) == {"a": 1}

    def test_compact_encoding(self):
        # "we estimate the metadata to be a few bytes" (paper §3.1)
        assert len(MetadataCodec.encode({"p": 3})) < 16

    def test_non_object_rejected(self):
        import pytest
        with pytest.raises(ValueError):
            MetadataCodec.decode(b"[1,2]")

    @given(st.dictionaries(st.text(max_size=8), st.integers(-100, 100), max_size=5))
    def test_roundtrip_property(self, metadata):
        assert MetadataCodec.decode(MetadataCodec.encode(metadata)) == metadata


class TestNshElements:
    def test_encap_attaches_metadata(self):
        engine = _pipeline(
            Block("SetMetadata", name="m", config={"values": {"path": 2}}),
            Block("NshEncapsulate", name="e", config={"spi": 7}),
        )
        outcome = engine.process(make_tcp_packet("1.1.1.1", "2.2.2.2", 5, 80))
        wire = outcome.outputs[0][1].data
        nsh = NshHeader.parse(wire)
        assert nsh.spi == 7
        assert MetadataCodec.decode(nsh.openbox_metadata()) == {"path": 2}

    def test_encap_decap_roundtrip(self):
        encap_engine = _pipeline(
            Block("SetMetadata", name="m", config={"values": {"path": 1, "x": "y"}}),
            Block("NshEncapsulate", name="e", config={"spi": 3}),
        )
        packet = make_tcp_packet("1.1.1.1", "2.2.2.2", 5, 80, payload=b"pp")
        original = packet.data
        encapsulated = encap_engine.process(packet).outputs[0][1]

        decap_engine = _pipeline(Block("NshDecapsulate", name="d"))
        fresh = encapsulated.clone()
        fresh.metadata.clear()
        result = decap_engine.process(fresh).outputs[0][1]
        assert result.data == original
        assert result.metadata == {"path": 1, "x": "y"}

    def test_metadata_keys_filter(self):
        engine = _pipeline(
            Block("SetMetadata", name="m", config={"values": {"keep": 1, "drop": 2}}),
            Block("NshEncapsulate", name="e",
                  config={"spi": 1, "metadata_keys": ["keep"]}),
        )
        wire = engine.process(make_tcp_packet("1.1.1.1", "2.2.2.2", 5, 80)).outputs[0][1]
        nsh = NshHeader.parse(wire.data)
        assert MetadataCodec.decode(nsh.openbox_metadata()) == {"keep": 1}

    def test_decap_of_plain_packet_counts_error(self):
        engine = _pipeline(Block("NshDecapsulate", name="d"))
        outcome = engine.process(make_tcp_packet("1.1.1.1", "2.2.2.2", 5, 80))
        assert outcome.forwarded  # passes through unchanged
        assert engine.read_handle("d", "decap_errors") == 1


class TestMetadataClassifier:
    def test_routes_by_metadata(self):
        graph = ProcessingGraph("mc")
        read = Block("FromDevice", name="r", config={"devname": "i"})
        router = Block("MetadataClassifier", name="m", config={
            "key": "path", "rules": {"0": 0, "1": 1}, "default_port": 0,
        })
        out_a = Block("ToDevice", name="a", config={"devname": "a"})
        out_b = Block("ToDevice", name="b", config={"devname": "b"})
        graph.add_blocks([read, router, out_a, out_b])
        graph.connect(read, router)
        graph.connect(router, out_a, 0)
        graph.connect(router, out_b, 1)
        engine = build_engine(graph)

        packet = make_tcp_packet("1.1.1.1", "2.2.2.2", 5, 80)
        packet.metadata["path"] = 1
        assert engine.process(packet).outputs[0][0] == "b"

        plain = make_tcp_packet("1.1.1.1", "2.2.2.2", 5, 80)
        assert engine.process(plain).outputs[0][0] == "a"
