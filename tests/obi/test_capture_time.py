"""Summaries are captured when a block runs and formatted when read.

``AlertElement`` / ``LogElement`` keep ``Packet.summary_fields()`` — a
tuple of ints — instead of formatting text per packet; the text is only
produced for whoever reads ``packet_summary``. That is sound only if the
tuple is taken *at the block*: a NAT / port / VLAN rewrite further down
the graph must not change what the Alert or Log block reported.
"""

import pytest

from repro.bootstrap import connect_inproc
from repro.controller.obc import OpenBoxController
from repro.core.blocks import Block
from repro.core.graph import ProcessingGraph
from repro.net.builder import make_tcp_packet
from repro.obi.engine import AlertEvent, LogEvent, PacketOutcome
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.protocol.messages import SetProcessingGraphRequest


def rewriting_graph() -> ProcessingGraph:
    """FromDevice → Alert → Log → NAT → port translation → VLAN → ToDevice."""
    graph = ProcessingGraph("nat")
    chain = [
        Block("FromDevice", name="in", config={"devname": "in"}),
        Block("Alert", name="alert", config={"message": "seen"}, origin_app="nat"),
        Block("Log", name="log", config={"message": "logged"}, origin_app="nat"),
        Block("Ipv4AddressTranslator", name="nat", config={
            "mappings": [{"match": "10.0.0.1", "src": "198.51.100.7"}],
        }),
        Block("TcpPortTranslator", name="pat", config={"mappings": {"80": 8080}}),
        Block("VlanEncapsulate", name="vlan", config={"vid": 42}),
        Block("ToDevice", name="out", config={"devname": "out"}),
    ]
    graph.add_blocks(chain)
    for src, dst in zip(chain, chain[1:]):
        graph.connect(src, dst)
    graph.validate()
    return graph


class TestCaptureTime:
    def test_alert_and_log_report_the_packet_as_they_saw_it(self):
        controller = OpenBoxController()
        obi = OpenBoxInstance(ObiConfig(obi_id="o"))
        connect_inproc(controller, obi)
        response = controller.send("o", SetProcessingGraphRequest(
            graph=rewriting_graph().to_dict()
        ))
        assert response.ok

        packet = make_tcp_packet("10.0.0.1", "192.168.0.9", 5555, 80, b"hello")
        # Nothing upstream of the Alert block rewrites the packet, so this
        # is what the Alert (and Log) block is handed.
        seen = packet.summary()
        outcome = obi.inject(packet)

        # Every downstream rewrite happened (and would show in a summary
        # taken now: new source, new port, four more bytes of 802.1Q).
        (device, emitted), = outcome.outputs
        assert emitted is packet and device == "out"
        rewritten = packet.summary()
        assert "198.51.100.7" in rewritten and "->8080" in rewritten
        assert f"len={len(packet.data)}" in rewritten and rewritten != seen

        assert [a.packet_summary for a in outcome.alerts] == [seen]
        assert [l.packet_summary for l in outcome.logs] == [seen]
        assert controller.alerts[-1].packet_summary == seen
        assert controller.alerts[-1].message == "seen"
        assert [r.packet_summary for r in obi.log_service.records] == [seen]

        # The history ring describes the packet as the graph left it (its
        # record is taken when the traversal ends, as it always was) and a
        # later change to the packet object cannot reach into the ring.
        record, = obi.packet_history()
        assert record["packet"] == rewritten
        assert record["alerts"] == ["seen"] and record["outputs"] == ["out"]
        packet.set_payload(b"changed after the fact")
        assert obi.packet_history() == [record]
        assert outcome.alerts[0].packet_summary == seen


class TestHandWrittenRecords:
    """``AlertEvent`` / ``LogEvent`` / ``PacketOutcome`` lost their
    dataclass decorators (slots + plain ``__init__``); ``==`` and
    ``repr`` must keep their dataclass meaning for equivalence suites."""

    def test_event_equality_is_field_for_field_on_the_text(self):
        packet = make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2)
        lazy = AlertEvent("b", "app", "m", "info", packet.summary_fields())
        eager = AlertEvent(
            block="b", origin_app="app", message="m", severity="info",
            packet_summary=packet.summary(),
        )
        assert lazy == eager and not lazy != eager
        assert lazy.packet_summary == packet.summary()
        for field, value in [
            ("block", "x"), ("origin_app", None), ("message", "x"),
            ("severity", "error"), ("packet_summary", "other"),
        ]:
            kwargs = dict(block="b", origin_app="app", message="m",
                          severity="info", packet_summary=packet.summary())
            kwargs[field] = value
            assert AlertEvent(**kwargs) != eager, field
        log = LogEvent("b", "app", "m", packet.summary_fields())
        assert log == LogEvent("b", "app", "m", packet.summary())
        assert log != eager and eager != log  # different record types
        assert eager != ("b", "app", "m", "info", packet.summary())

    def test_event_repr_and_hash_follow_dataclass_conventions(self):
        event = AlertEvent("b", None, "m", "info", "pkt#1 len=60 non-ip")
        assert repr(event) == (
            "AlertEvent(block='b', origin_app=None, message='m', "
            "severity='info', packet_summary='pkt#1 len=60 non-ip')"
        )
        assert repr(LogEvent("b", "a", "m", (1, 60))) == (
            "LogEvent(block='b', origin_app='a', message='m', "
            "packet_summary='pkt#1 len=60 non-ip')"
        )
        with pytest.raises(TypeError):
            hash(event)  # eq without hash, as @dataclass(eq=True) had it

    def test_outcome_equality_and_repr(self):
        one, other = PacketOutcome(), PacketOutcome()
        assert one == other
        assert repr(one) == (
            "PacketOutcome(outputs=[], dropped=False, punted=False, "
            "shed=False, alerts=[], logs=[], errors=[], path=[])"
        )
        other.path.append("fw_read")
        assert one != other
        one.path.append("fw_read")
        one.alerts.append(AlertEvent("b", None, "m", "info", (1, 60)))
        other.alerts.append(AlertEvent("b", None, "m", "info", "pkt#1 len=60 non-ip"))
        assert one == other
        assert PacketOutcome(dropped=True, shed=True) != PacketOutcome(dropped=True)
        with pytest.raises(AttributeError):
            one.verdict = "typo"  # slots: no stray attributes
