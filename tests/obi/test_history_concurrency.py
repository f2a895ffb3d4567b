"""Packet-history debugging and OBI thread-safety tests."""

import threading

import pytest

from repro.net.builder import make_tcp_packet
from repro.net.packet import Packet
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.protocol.messages import (
    PacketHistoryRequest,
    PacketHistoryResponse,
    SetProcessingGraphRequest,
)
from tests.conftest import build_firewall_graph


@pytest.fixture
def obi():
    instance = OpenBoxInstance(ObiConfig(obi_id="o", history_size=4))
    response = instance.handle_message(
        SetProcessingGraphRequest(graph=build_firewall_graph().to_dict())
    )
    assert response.ok
    return instance


class TestPacketHistory:
    def test_records_path_and_verdict(self, obi):
        obi.process_packet(make_tcp_packet("10.0.0.1", "2.2.2.2", 5, 23))
        obi.process_packet(make_tcp_packet("44.0.0.1", "2.2.2.2", 5, 22))
        response = obi.handle_message(PacketHistoryRequest())
        assert isinstance(response, PacketHistoryResponse)
        assert len(response.records) == 2
        dropped, alerted = response.records
        assert dropped["dropped"] is True
        assert dropped["path"][-1] == "fw_drop"
        assert alerted["alerts"] == ["fw alert"]
        assert alerted["outputs"] == ["out"]

    def test_ring_buffer_bounded(self, obi):
        for sport in range(10):
            obi.process_packet(make_tcp_packet("44.0.0.1", "2.2.2.2", sport, 443))
        response = obi.handle_message(PacketHistoryRequest())
        assert len(response.records) == 4  # history_size

    def test_limit_parameter(self, obi):
        for sport in range(4):
            obi.process_packet(make_tcp_packet("44.0.0.1", "2.2.2.2", sport, 443))
        response = obi.handle_message(PacketHistoryRequest(limit=2))
        assert len(response.records) == 2

    def test_history_disabled(self):
        instance = OpenBoxInstance(ObiConfig(obi_id="o", history_size=0))
        instance.handle_message(
            SetProcessingGraphRequest(graph=build_firewall_graph().to_dict())
        )
        instance.process_packet(make_tcp_packet("44.0.0.1", "2.2.2.2", 5, 443))
        response = instance.handle_message(PacketHistoryRequest())
        assert response.records == []

    def test_history_survives_wire_roundtrip(self, obi):
        from repro.protocol.codec import decode_message, encode_message
        obi.process_packet(make_tcp_packet("44.0.0.1", "2.2.2.2", 5, 443))
        response = obi.handle_message(PacketHistoryRequest())
        again = decode_message(encode_message(response))
        assert again.records == response.records


class HostilePacket(Packet):
    """A frame whose parse blows up with something other than ValueError."""

    def _parse(self) -> None:
        raise RuntimeError("hostile frame")


def reference_record(packet, outcome, at):
    """The history dict exactly as it was built before records became
    capture-now / render-on-read tuples."""
    try:
        summary = packet.summary()
    except Exception:  # noqa: BLE001
        summary = f"unparseable frame len={len(packet.data)}"
    if outcome.shed:
        return {
            "packet": summary, "path": [], "dropped": True,
            "shed": "exhausted", "outputs": [], "alerts": [], "at": at,
        }
    return {
        "packet": summary,
        "path": list(outcome.path),
        "dropped": outcome.dropped,
        "outputs": [device for device, _pkt in outcome.outputs],
        "alerts": [event.message for event in outcome.alerts],
        "at": at,
    }


class TestHistoryRendering:
    def test_records_byte_identical_to_reference(self):
        """A seeded trace — forwarded, dropped, alerting, shed and one
        unparseable frame, through ``inject`` and ``inject_batch`` —
        renders to the bytes the eager dict builder produced."""
        import random

        from repro.obi.robustness import OverloadPolicy
        from repro.protocol.codec import encode_message
        from tests.conftest import FakeClock

        rng = random.Random(20160822)
        clock = FakeClock()
        obi = OpenBoxInstance(
            ObiConfig(
                obi_id="o", history_size=64,
                overload=OverloadPolicy(admission_rate=2.0, admission_burst=4.0),
            ),
            clock=clock,
        )
        obi.handle_message(
            SetProcessingGraphRequest(graph=build_firewall_graph().to_dict())
        )

        def packet():
            if rng.random() < 0.1:
                return HostilePacket(data=bytes(rng.randrange(256) for _ in range(9)))
            return make_tcp_packet(
                rng.choice(["10.0.0.1", "44.0.0.1"]), "2.2.2.2",
                rng.randrange(1024, 1030), rng.choice([22, 23, 443]),
            )

        expected = []
        for _round in range(12):
            vector = [packet() for _ in range(rng.randrange(1, 6))]
            if rng.random() < 0.5:
                outcomes = obi.inject_batch(vector)
            else:
                outcomes = [obi.inject(one) for one in vector]
            expected += [
                reference_record(one, outcome, clock.t)
                for one, outcome in zip(vector, outcomes)
            ]
            clock.advance(rng.choice([0.0, 0.5, 3.0]))
        assert any("shed" in record for record in expected)
        assert any(r["packet"].startswith("unparseable") for r in expected)
        assert any(r["alerts"] for r in expected)

        response = obi.handle_message(PacketHistoryRequest(xid=7))
        assert response.records == expected
        assert encode_message(response) == encode_message(
            PacketHistoryResponse(xid=7, records=expected)
        )
        limited = obi.handle_message(PacketHistoryRequest(xid=8, limit=5))
        assert limited.records == expected[-5:]


class TestConcurrency:
    def test_reconfigure_under_traffic(self, obi):
        """Concurrent SetProcessingGraph + packet processing must never
        crash or observe a half-installed engine."""
        errors = []
        stop = threading.Event()

        def traffic():
            while not stop.is_set():
                try:
                    obi.process_packet(
                        make_tcp_packet("44.0.0.1", "2.2.2.2", 5, 443)
                    )
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)
                    return

        def reconfigure():
            for index in range(30):
                graph = build_firewall_graph(f"gen{index}")
                response = obi.handle_message(
                    SetProcessingGraphRequest(graph=graph.to_dict())
                )
                if not getattr(response, "ok", False):
                    errors.append(response)
                    return

        workers = [threading.Thread(target=traffic) for _ in range(4)]
        reconfigurer = threading.Thread(target=reconfigure)
        for worker in workers:
            worker.start()
        reconfigurer.start()
        reconfigurer.join()
        stop.set()
        for worker in workers:
            worker.join()
        assert not errors
        assert obi.graph_version == 31  # initial + 30 reconfigurations

    def test_concurrent_handle_reads(self, obi):
        for sport in range(20):
            obi.process_packet(make_tcp_packet("44.0.0.1", "2.2.2.2", sport, 443))
        from repro.protocol.messages import ReadRequest, ReadResponse
        values = []

        def reader():
            response = obi.handle_message(
                ReadRequest(block="fw_hc", handle="count")
            )
            assert isinstance(response, ReadResponse)
            values.append(response.value)

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert values == [20] * 8
