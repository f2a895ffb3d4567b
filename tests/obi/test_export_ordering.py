"""Export/flush ordering under concurrent snapshots and graph swaps.

``Engine.export_metrics`` is an unguarded read-inc-write watermark: a
snapshot racing a graph swap (both export) could double-apply the same
delta and inflate the shared registry. Every exporting path now runs
inside the engine lock with the snapshot taken in the same critical
section, and a swap flushes the flow cache's post-invalidate gauges
immediately — so a telemetry subscriber attaching mid-swap never
observes a non-monotonic counter or a stale gauge mirror.
"""

import threading

from repro.net.builder import make_tcp_packet
from repro.protocol.messages import ErrorMessage, SetProcessingGraphRequest
from tests.conftest import build_firewall_graph, connected


def pass_packet():
    return make_tcp_packet("44.0.0.1", "192.168.0.9", 9999, 12345)


def deploy(controller):
    response = controller.send("o1", SetProcessingGraphRequest(
        graph=build_firewall_graph().to_dict()
    ))
    assert not isinstance(response, ErrorMessage)


class TestConcurrentExportExactness:
    def test_snapshots_racing_swaps_never_inflate_counters(self):
        controller, obi = connected()
        packets = 50
        for _ in range(packets):
            obi.process_packet(pass_packet())

        barrier = threading.Barrier(3)
        errors = []

        def snapshotter():
            try:
                barrier.wait()
                for _ in range(40):
                    obi.observability_snapshot(include_traces=False)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        def swapper():
            try:
                barrier.wait()
                for _ in range(12):
                    deploy(controller)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=snapshotter),
                   threading.Thread(target=snapshotter),
                   threading.Thread(target=swapper)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

        # The watermark flush is delta-exact: every packet counted once,
        # no double-applied export, nothing lost across 12 engine swaps.
        final = obi.observability_snapshot(include_traces=False)
        assert final.metrics["counters"]["engine_packets_total"] == packets

    def test_swap_flushes_outgoing_engine_before_dropping_it(self):
        controller, obi = connected()
        for _ in range(7):
            obi.process_packet(pass_packet())
        # No snapshot/export between processing and the swap: the commit
        # itself must flush the outgoing engine's unexported delta.
        deploy(controller)
        snapshot = obi.observability_snapshot(include_traces=False)
        assert snapshot.metrics["counters"]["engine_packets_total"] == 7


class TestSwapFlushesGaugeMirrors:
    def test_flow_cache_gauges_fresh_right_after_swap(self):
        controller, obi = connected()
        for _ in range(5):
            obi.process_packet(pass_packet())
        obi.observability_snapshot(include_traces=False)
        assert obi.metrics.gauge("fastpath_entries").value >= 1

        deploy(controller)  # invalidates the flow cache

        # Without any snapshot in between, the registry mirrors already
        # reflect the post-invalidate cache — what a subscriber folding
        # a mid-swap baseline would read.
        assert obi.metrics.gauge("fastpath_entries").value == 0
        assert obi.metrics.gauge("fastpath_invalidations").value >= 1


class TestFoldMonotonicity:
    def test_folded_counters_monotonic_across_graph_swap(self):
        controller, obi = connected()
        controller.subscribe_telemetry("o1")
        controller._ack_telemetry("o1")

        observed = []

        def sample():
            state = controller.telemetry.state("o1")
            observed.append(
                state["metrics"]["counters"].get("engine_packets_total", 0)
            )

        for _ in range(3):
            obi.process_packet(pass_packet())
        assert obi.publish_telemetry().ok
        sample()

        deploy(controller)  # swap mid-stream
        assert obi.publish_telemetry() is not None
        sample()

        for _ in range(2):
            obi.process_packet(pass_packet())
        assert obi.publish_telemetry().ok
        sample()

        assert observed == sorted(observed), observed
        assert observed[-1] == 5
