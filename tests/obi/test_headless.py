"""Headless data plane: OBI behavior during controller absence.

When controller silence exceeds ``headless_after`` the OBI keeps
serving packets on its last committed graph, buffers upstream events in
a bounded drop-accounted ring, and replays them (oldest first, loss
reported) once contact returns. The split-brain generation guard rides
the same machinery.
"""

import pytest

from repro.net.builder import make_tcp_packet
from repro.obi.headless import HeadlessBuffer
from repro.observability.metrics import default_registry
from repro.protocol.blocks_spec import OBI_PSEUDO_BLOCK
from repro.protocol.errors import ErrorCode
from repro.protocol.messages import (
    Alert,
    ErrorMessage,
    ReadRequest,
    SetProcessingGraphRequest,
)
from repro.transport.base import ChannelClosed
from tests.conftest import FakeClock, build_firewall_graph, connected


def alert_packet(sport=1234):
    return make_tcp_packet("44.0.0.1", "192.168.0.9", sport, 22)


def pass_packet():
    return make_tcp_packet("44.0.0.1", "192.168.0.9", 9999, 12345)


def alerts_total():
    """The monotonic count: ``controller.alerts`` is a bounded ring."""
    return default_registry().counter("controller_alerts_received_total").value


class TestHeadlessBuffer:
    def test_fifo_with_eviction_accounting(self):
        buffer = HeadlessBuffer(capacity=2)
        assert buffer.push("a")
        assert buffer.push("b")
        assert not buffer.push("c")  # evicts "a"
        assert buffer.dropped == 1
        entries, dropped = buffer.drain()
        assert entries == ["b", "c"]
        assert dropped == 1
        assert buffer.dropped == 0  # episode counter reset
        assert buffer.dropped_total == 1  # lifetime counter retained
        assert buffer.buffered_total == 3

    def test_requeue_front_preserves_order_and_evicts_newest(self):
        buffer = HeadlessBuffer(capacity=3)
        buffer.push("d")
        buffer.requeue_front(["a", "b", "c"])
        # Over capacity: the *newest* entry goes, the requeued history
        # (the oldest events, already promised by the drop count) stays.
        assert buffer.dropped == 1
        entries, _ = buffer.drain()
        assert entries == ["a", "b", "c"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            HeadlessBuffer(capacity=0)


class TestHeadlessTransition:
    def test_silence_past_threshold_goes_headless(self):
        clock = FakeClock()
        _, obi = connected(clock, headless_after=30.0)
        assert not obi.is_headless()
        clock.advance(31.0)
        assert obi.is_headless()
        assert obi.headless_episodes == 1
        # The transition is edge-counted once, not per check.
        assert obi.is_headless()
        assert obi.headless_episodes == 1

    def test_zero_threshold_disables_headless(self):
        clock = FakeClock()
        _, obi = connected(clock, headless_after=0.0)
        clock.advance(10_000.0)
        assert not obi.is_headless()

    def test_downstream_traffic_is_liveness_evidence(self):
        clock = FakeClock()
        controller, obi = connected(clock, headless_after=30.0)
        clock.advance(29.0)
        controller.send("o1", ReadRequest(
            block=OBI_PSEUDO_BLOCK, handle="degraded"
        ))
        clock.advance(29.0)
        assert not obi.is_headless()

    def test_packets_keep_flowing_headless(self):
        clock = FakeClock()
        _, obi = connected(clock, headless_after=30.0)
        clock.advance(31.0)
        assert obi.is_headless()
        outcome = obi.process_packet(pass_packet())
        assert not outcome.dropped
        assert outcome.outputs


class TestBufferingAndReplay:
    def test_alerts_buffered_while_headless(self):
        clock = FakeClock()
        controller, obi = connected(clock, headless_after=30.0)
        before = alerts_total()
        clock.advance(31.0)
        obi.process_packet(alert_packet())
        assert alerts_total() == before
        assert len(obi.headless_buffer) == 1

    def test_health_reports_buffered_while_headless(self):
        """Health evidence rides the telemetry stream: a headless OBI
        holds it back (its ring keeps collecting) and buffers only
        alerts."""
        clock = FakeClock()
        controller, obi = connected(clock, headless_after=30.0)
        controller.subscribe_telemetry("o1")
        seq = controller.telemetry.last_seq("o1")
        clock.advance(31.0)
        obi.process_packet(alert_packet())
        assert obi.publish_telemetry() is None
        assert controller.telemetry.last_seq("o1") == seq
        assert [type(m) for m in obi.headless_buffer.clear()] == [Alert]

    def test_replay_on_reconnect_in_order(self):
        clock = FakeClock()
        controller, obi = connected(clock, headless_after=30.0)
        controller.subscribe_telemetry("o1")
        seq = controller.telemetry.last_seq("o1")
        before_alerts = alerts_total()
        clock.advance(31.0)
        obi.process_packet(alert_packet(1234))
        clock.advance(5.0)
        obi.process_packet(alert_packet(1235))
        sent_before = obi.alerts_sent

        obi.reconnect()

        assert not obi.is_headless()
        assert len(obi.headless_buffer) == 0
        assert alerts_total() == before_alerts + 2
        first, second = list(controller.alerts)[-2:]
        assert "1234" in first.packet_summary
        assert "1235" in second.packet_summary
        # Replayed alerts count toward the sent counter.
        assert obi.alerts_sent == sent_before + 2
        # The held-back telemetry flows again once connected.
        assert obi.publish_telemetry() is not None
        assert controller.telemetry.last_seq("o1") > seq

    def test_drop_accounting_reported_after_replay(self):
        clock = FakeClock()
        controller, obi = connected(clock, headless_after=30.0,
                                    headless_buffer=2)
        before = alerts_total()
        clock.advance(31.0)
        assert obi.is_headless()
        for _ in range(5):
            clock.advance(1.0)
            obi.process_packet(alert_packet())
        assert len(obi.headless_buffer) == 2
        assert obi.headless_buffer.dropped == 3

        obi.reconnect()

        # Two surviving alerts delivered, plus one summary alert telling
        # the controller exactly what was lost.
        assert alerts_total() == before + 3
        delivered = list(controller.alerts)[-3:]
        summaries = [a for a in delivered if "dropped while headless"
                     in a.message]
        assert len(summaries) == 1
        assert summaries[0].count == 3
        assert obi.headless_buffer.dropped_total == 3

    def test_failed_replay_requeues_and_stays_headless(self):
        clock = FakeClock()
        controller, obi = connected(clock, headless_after=30.0)
        before = alerts_total()
        clock.advance(31.0)
        for _ in range(3):
            clock.advance(1.0)
            obi.process_packet(alert_packet())

        class DeadChannel:
            def notify(self, message):
                raise ChannelClosed("still down")

            def request(self, message, timeout=None):
                raise ChannelClosed("still down")

            def set_handler(self, handler):
                pass

        live = obi._channel
        obi._channel = DeadChannel()
        obi.note_controller_heard()  # tries to replay, channel dies again
        assert obi.is_headless()
        assert len(obi.headless_buffer) == 3  # nothing lost

        obi._channel = live
        obi.note_controller_heard()
        assert not obi.is_headless()
        assert alerts_total() == before + 3

    def test_headless_read_handles(self):
        clock = FakeClock()
        controller, obi = connected(clock, headless_after=30.0, headless_buffer=1)
        clock.advance(31.0)
        obi.process_packet(alert_packet())
        clock.advance(1.0)
        obi.process_packet(alert_packet())

        def read(handle):
            response = controller.send("o1", ReadRequest(
                block=OBI_PSEUDO_BLOCK, handle=handle
            ))
            assert not isinstance(response, ErrorMessage), handle
            return response.value

        # Reading through the downstream channel is itself liveness
        # evidence, so the first read reports the headless state and
        # replays the buffer as a side effect.
        assert read("headless_dropped") == 1
        assert read("headless_episodes") == 1
        assert read("headless") is False  # the read ended the episode
        assert read("headless_entries") == 0


class TestGenerationGuard:
    def test_stale_generation_rejected_and_uncached(self):
        clock = FakeClock()
        _, obi = connected(clock)
        graph = build_firewall_graph().to_dict()
        accepted = obi.handle_message(
            SetProcessingGraphRequest(graph=graph, epoch=5)
        )
        assert not isinstance(accepted, ErrorMessage)
        assert obi.highest_controller_generation == 5

        stale = SetProcessingGraphRequest(graph=graph, epoch=3)
        response = obi.handle_message(stale)
        assert isinstance(response, ErrorMessage)
        assert response.code == ErrorCode.STALE_GENERATION
        assert obi.stale_generation_rejections == 1

        # The rejection was not cached: the same xid from a legitimate
        # controller is processed fresh, not answered with the stale
        # controller's error.
        retry = SetProcessingGraphRequest(
            xid=stale.xid, graph=graph, epoch=5
        )
        assert not isinstance(obi.handle_message(retry), ErrorMessage)

    def test_unstamped_request_is_fenced_like_a_stale_one(self):
        # There are no legacy senders: epoch 0 is simply below any
        # generation a controller holds, so it bounces like a deposed one.
        clock = FakeClock()
        _, obi = connected(clock)
        version = obi.graph_version
        response = obi.handle_message(SetProcessingGraphRequest(
            graph=build_firewall_graph().to_dict()
        ))
        assert isinstance(response, ErrorMessage)
        assert response.code == ErrorCode.STALE_GENERATION
        assert obi.stale_generation_rejections == 1
        assert obi.graph_version == version

    def test_keepalive_and_hello_carry_recovery_fields(self):
        clock = FakeClock()
        controller, obi = connected(clock)
        obi.send_keepalive()
        handle = controller.obis["o1"]
        assert handle.reported_digest == obi.graph_digest
        assert handle.reported_graph_version == obi.graph_version
        hello = obi.hello_message()
        assert hello.graph_digest == obi.graph_digest
        assert hello.epoch == obi.highest_controller_generation


class TestGraphDigest:
    def test_commit_records_digest_of_received_graph(self):
        from repro.core.graph import canonical_graph_digest

        clock = FakeClock()
        _, obi = connected(clock)
        assert obi.graph_digest == canonical_graph_digest(
            build_firewall_graph().to_dict()
        )

    def test_wire_corruption_detected_by_digest_cross_check(self):
        clock = FakeClock()
        controller, obi = connected(clock)
        version = obi.graph_version
        response = controller.send("o1", SetProcessingGraphRequest(
            graph=build_firewall_graph().to_dict(),
            graph_digest="sha256:" + "0" * 64,
        ))
        assert isinstance(response, ErrorMessage)
        assert response.code == ErrorCode.INVALID_GRAPH
        assert "digest mismatch" in response.detail
        assert obi.graph_version == version  # two-phase apply rolled back


class TestScalingFreeze:
    def test_headless_obi_does_not_feed_liveness_loop(self):
        # A headless OBI's silence makes it *look* dead to the
        # controller's liveness sweep — which is the point: no stale
        # half-connected instance feeds scaling or failover decisions
        # until it reconnects and replays.
        clock = FakeClock()
        controller, obi = connected(clock, headless_after=30.0)
        assert controller.stats.is_live("o1", now=clock())
        clock.advance(120.0)
        assert obi.is_headless()
        assert not controller.stats.is_live("o1", now=clock())
        obi.reconnect()
        obi.send_keepalive()
        assert controller.stats.is_live("o1", now=clock())
