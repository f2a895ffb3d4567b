"""Protocol message and codec tests (wire round-trips, errors, versions)."""

import json
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.classify.header import HeaderRuleSet
from repro.core.graph import ProcessingGraph
from repro.protocol.codec import (
    PROTOCOL_VERSION,
    CodecError,
    decode_message,
    encode_message,
)
from repro.protocol.errors import ErrorCode
from repro.protocol.messages import (
    AddCustomModuleRequest,
    AddCustomModuleResponse,
    Alert,
    BarrierRequest,
    BarrierResponse,
    ErrorMessage,
    GlobalStatsRequest,
    GlobalStatsResponse,
    Hello,
    HelloResponse,
    JournalStream,
    KeepAlive,
    LeaseAnnounce,
    ListCapabilitiesRequest,
    ListCapabilitiesResponse,
    LogMessage,
    ObservabilitySnapshotResponse,
    PacketHistoryRequest,
    PacketHistoryResponse,
    ReadRequest,
    ReadResponse,
    ReplicaAck,
    SetExternalServices,
    SetProcessingGraphRequest,
    SetProcessingGraphResponse,
    StateCheckpointRequest,
    StateCheckpointResponse,
    StateHandoffRequest,
    StateHandoffResponse,
    TelemetryAck,
    TelemetryStream,
    TelemetrySubscribe,
    WriteRequest,
    WriteResponse,
    message_class,
    next_xid,
)
from tests.conftest import build_firewall_graph

ALL_MESSAGES = [
    Hello(obi_id="o1", version=PROTOCOL_VERSION, segment="corp",
          capabilities={"HeaderClassifier": ["trie", "tcam"]},
          supports_custom_modules=True, capacity_hint=2.0,
          callback_url="http://127.0.0.1:9/openbox/message",
          graph_version=2, graph_digest="sha256:ab", epoch=3),
    HelloResponse(ok=True, detail="hello ack", epoch=3,
                  keepalive_interval=5.0),
    KeepAlive(obi_id="o1", graph_version=2, graph_digest="sha256:ab",
              epoch=3),
    ListCapabilitiesRequest(),
    ListCapabilitiesResponse(capabilities={"Discard": ["default"]}),
    GlobalStatsRequest(),
    GlobalStatsResponse(obi_id="o1", cpu_load=0.5, memory_used=100,
                        memory_total=200, packets_processed=7,
                        bytes_processed=700, uptime=1.5),
    SetProcessingGraphRequest(graph={"name": "g", "blocks": [], "connectors": []}),
    SetProcessingGraphResponse(ok=True, detail="v1"),
    ReadRequest(block="b", handle="count"),
    ReadResponse(block="b", handle="count", value=42),
    WriteRequest(block="b", handle="rules", value={"rules": []}),
    WriteResponse(block="b", handle="rules", ok=True),
    AddCustomModuleRequest.from_binary("m", b"\x00\x01binary", [{"name": "X", "class": "static"}]),
    AddCustomModuleResponse(module_name="m", ok=True, detail="loaded"),
    Alert(obi_id="o1", block="a", origin_app="fw", message="hit",
          severity="warning", packet_summary="pkt#1", count=3),
    LogMessage(obi_id="o1", block="l", origin_app="fw", message="seen"),
    SetExternalServices(log_server="http://log", storage_server="http://st",
                        keepalive_interval=5.0),
    PacketHistoryRequest(limit=5),
    PacketHistoryResponse(records=[{"packet": "pkt#1", "path": ["a", "b"],
                                    "dropped": False, "outputs": ["out"],
                                    "alerts": [], "at": 1.0}]),
    StateCheckpointRequest(),
    StateCheckpointResponse(
        obi_id="o1", state_generation=4,
        state=[{"key": {"src_ip": 1, "dst_ip": 2, "src_port": 3,
                        "dst_port": 4, "proto": 6},
                "session": {"ct_state": "established"}}]),
    StateHandoffRequest(source_obi="o2", state_generation=4,
                        state=[{"key": {"src_ip": 1, "dst_ip": 2,
                                        "src_port": 3, "dst_port": 4,
                                        "proto": 6},
                                "session": {"ct_state": "established"}}]),
    StateHandoffResponse(accepted=True, stale=False, flows_imported=1,
                         rejected={}),
    ObservabilitySnapshotResponse(
        obi_id="o1", graph_version=3,
        metrics={"counters": {"engine_packets_total": 9}, "gauges": {},
                 "histograms": {}},
        traces=[{"seq": 1, "packet_summary": "pkt#1", "fastpath": False,
                 "dropped": False, "punted": False, "spans": []}],
        packets_seen=100, packets_sampled=1, sample_rate=0.01),
    LeaseAnnounce(leader_id="c1", epoch=2, lease_remaining=7.5,
                  endpoints=["c1:6633", "c2:6633"]),
    JournalStream(leader_id="c1", epoch=2, snapshot=True, segment=1, offset=3,
                  records=[{"rec": "generation", "generation": 2}]),
    ReplicaAck(replica_id="c2", epoch=2, segment=1, offset=3),
    TelemetrySubscribe(subscriber="controller", topics=["metrics", "alerts"],
                       cursor=-1, window=32, drain=False,
                       epoch=3),
    TelemetryStream(obi_id="o1", subscriber="controller",
                    records=[{"seq": 5, "kind": "metrics",
                              "counters": {"engine_packets_total": 9},
                              "gauges": {}, "histograms": {},
                              "meta": {"graph_version": 3}}],
                    lost=2, pending=1, through_seq=6, epoch=3),
    TelemetryAck(subscriber="controller", ok=True, cursor=6, window=32),
    BarrierRequest(),
    BarrierResponse(),
    ErrorMessage(code=ErrorCode.UNKNOWN_BLOCK, detail="nope"),
]


class TestRoundTrips:
    @pytest.mark.parametrize("message", ALL_MESSAGES, ids=lambda m: m.TYPE)
    def test_encode_decode_roundtrip(self, message):
        decoded = decode_message(encode_message(message))
        assert type(decoded) is type(message)
        assert decoded.to_dict() == message.to_dict()

    def test_graph_export_import_export_is_byte_identical(self):
        """Rules leave as dicts and come back as values; exporting the
        imported graph again gives the same bytes."""
        request = SetProcessingGraphRequest(graph=build_firewall_graph("fw").to_dict())
        wire = encode_message(request)
        decoded = decode_message(wire)
        imported = ProcessingGraph.from_dict(decoded.graph)
        assert isinstance(imported.blocks["fw_hc"].config["rules"], HeaderRuleSet)
        assert encode_message(replace(decoded, graph=imported.to_dict())) == wire

    def test_every_registered_type_covered(self):
        covered = {type(message).TYPE for message in ALL_MESSAGES}
        from repro.protocol.messages import _MESSAGE_TYPES
        assert covered == set(_MESSAGE_TYPES)

    def test_xids_unique_and_increasing(self):
        first, second = next_xid(), next_xid()
        assert second > first
        assert KeepAlive().xid != KeepAlive().xid

    def test_custom_module_binary_roundtrip(self):
        request = AddCustomModuleRequest.from_binary(
            "mod", b"\x00\xffraw-bytes", [], translation={"a": 1}
        )
        decoded = decode_message(encode_message(request))
        assert decoded.binary() == b"\x00\xffraw-bytes"
        assert decoded.translation == {"a": 1}

    @given(st.binary(max_size=200))
    def test_module_binary_property(self, blob):
        request = AddCustomModuleRequest.from_binary("m", blob, [])
        assert decode_message(encode_message(request)).binary() == blob


class TestCodecErrors:
    def test_invalid_json(self):
        with pytest.raises(CodecError) as info:
            decode_message(b"{not json")
        assert info.value.code == ErrorCode.MALFORMED_MESSAGE

    def test_non_object_payload(self):
        with pytest.raises(CodecError):
            decode_message(b"[1,2,3]")

    def test_missing_message_body(self):
        payload = json.dumps({"version": PROTOCOL_VERSION}).encode()
        with pytest.raises(CodecError) as info:
            decode_message(payload)
        assert info.value.code == ErrorCode.MALFORMED_MESSAGE

    # Retired types (the §9 pull request, the health beacon, the
    # unfenced state pair) are now just more unknown types.
    @pytest.mark.parametrize("type_name", [
        "Nope", "ObservabilitySnapshotRequest", "HealthReport",
        "ExportStateRequest", "ImportStateRequest",
    ])
    def test_unknown_type(self, type_name):
        payload = json.dumps(
            {"version": PROTOCOL_VERSION, "message": {"type": type_name}}
        ).encode()
        with pytest.raises(CodecError) as info:
            decode_message(payload)
        assert info.value.code == ErrorCode.UNKNOWN_MESSAGE

    def test_wrong_major_version_rejected(self):
        payload = json.dumps(
            {"version": "1.2.0", "message": {"type": "KeepAlive"}}
        ).encode()
        with pytest.raises(CodecError) as info:
            decode_message(payload)
        assert info.value.code == ErrorCode.UNSUPPORTED_VERSION

    def test_same_major_minor_drift_accepted(self):
        payload = json.dumps(
            {"version": "2.9.7", "message": {"type": "KeepAlive", "obi_id": "x"}}
        ).encode()
        decoded = decode_message(payload)
        assert isinstance(decoded, KeepAlive)

    def test_unknown_fields_ignored(self):
        payload = json.dumps({
            "version": PROTOCOL_VERSION,
            "message": {"type": "KeepAlive", "obi_id": "x", "future_field": 1},
        }).encode()
        assert decode_message(payload).obi_id == "x"

    def test_message_class_lookup(self):
        assert message_class("Hello") is Hello
        assert message_class("Nothing") is None
