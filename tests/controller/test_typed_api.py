"""The typed synchronous northbound API (callback shim removed)."""

import pytest

from repro.bootstrap import connect_inproc
from repro.controller.apps import AppStatement, FunctionApplication
from repro.controller.results import (
    AppStatsView,
    HandleReadResult,
    HandleWriteResult,
)
from repro.net.builder import make_tcp_packet
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.protocol.errors import ErrorCode, ProtocolError
from tests.conftest import build_firewall_graph, build_ips_graph


def _fw_app(name="fw", priority=10):
    return FunctionApplication(
        name, lambda: [AppStatement(graph=build_firewall_graph(name),
                                    segment="corp")],
        priority=priority,
    )


def _connect(controller, obi_id="obi-1"):
    obi = OpenBoxInstance(ObiConfig(obi_id=obi_id, segment="corp"))
    connect_inproc(controller, obi)
    return obi


class TestTypedRead:
    def test_read_returns_typed_result(self, controller):
        obi = _connect(controller)
        fw = _fw_app()
        controller.register_application(fw)
        obi.process_packet(make_tcp_packet("10.0.0.1", "2.2.2.2", 5, 23))
        result = fw.request_read("obi-1", "fw_drop", "count")
        assert isinstance(result, HandleReadResult)
        assert result.ok
        assert result.value == 1
        # values are keyed by *deployed* block name (merge may rename).
        assert list(result.values.values()) == [1]
        assert result.errors == []
        assert result.latency >= 0.0
        assert (result.app_name, result.obi_id) == ("fw", "obi-1")

    def test_read_aggregates_cloned_blocks(self, controller):
        """Merging clones the fw alert block per classifier branch; the
        typed result exposes each clone, and .value sums numerics."""
        obi = _connect(controller)
        fw = _fw_app("fw", priority=1)
        controller.register_application(fw)
        controller.register_application(FunctionApplication(
            "ips", lambda: [AppStatement(graph=build_ips_graph("ips"),
                                         segment="corp")],
            priority=2,
        ))
        obi.process_packet(make_tcp_packet("44.0.0.1", "2.2.2.2", 5, 22))
        result = fw.request_read("obi-1", "fw_alert", "count")
        assert result.ok
        assert sum(result.values.values()) == result.value == 1

    def test_read_unknown_block_raises(self, controller):
        _connect(controller)
        fw = _fw_app()
        controller.register_application(fw)
        with pytest.raises(ProtocolError) as info:
            fw.request_read("obi-1", "not_my_block", "count")
        assert info.value.code == ErrorCode.UNKNOWN_BLOCK

    def test_read_bad_handle_collected_as_error(self, controller):
        _connect(controller)
        fw = _fw_app()
        controller.register_application(fw)
        result = fw.request_read("obi-1", "fw_drop", "no_such_handle")
        assert not result.ok
        assert result.errors
        assert result.errors[0].block


class TestTypedWrite:
    def test_write_returns_typed_result(self, controller):
        _connect(controller)
        fw = _fw_app()
        controller.register_application(fw)
        result = fw.request_write("obi-1", "fw_drop", "reset_counts", None)
        assert isinstance(result, HandleWriteResult)
        assert result.ok
        assert len(result.written) == 1  # deployed name of fw_drop
        assert result.errors == []

    def test_unwritable_handle_collected_as_error(self, controller):
        _connect(controller)
        fw = _fw_app()
        controller.register_application(fw)
        result = fw.request_write("obi-1", "fw_drop", "count", 99)
        assert not result.ok
        assert result.errors
        assert result.written == []


class TestTypedStats:
    def test_stats_view(self, controller):
        obi = _connect(controller)
        fw = _fw_app()
        controller.register_application(fw)
        obi.process_packet(make_tcp_packet("1.2.3.4", "2.2.2.2", 5, 443))
        view = fw.request_stats("obi-1")
        assert isinstance(view, AppStatsView)
        assert view.ok
        assert view.stats.packets_processed == 1
        # The on_stats event hook still fires for typed calls.
        assert controller.stats.view("obi-1").last_stats is not None


class TestCallbackShimRemoved:
    """The deprecated callback argument is gone, not silently ignored."""

    def test_read_callback_argument_rejected(self, controller):
        _connect(controller)
        fw = _fw_app()
        controller.register_application(fw)
        with pytest.raises(TypeError):
            fw.request_read("obi-1", "fw_drop", "count", lambda v: None)

    def test_write_callback_argument_rejected(self, controller):
        _connect(controller)
        fw = _fw_app()
        controller.register_application(fw)
        with pytest.raises(TypeError):
            fw.request_write("obi-1", "fw_drop", "reset_counts", None,
                             lambda ok: None)

    def test_stats_callback_argument_rejected(self, controller):
        _connect(controller)
        fw = _fw_app()
        controller.register_application(fw)
        with pytest.raises(TypeError):
            fw.request_stats("obi-1", lambda s: None)


class TestStatementValidation:
    def test_segment_and_obi_id_conflict_rejected(self):
        with pytest.raises(ValueError, match="exactly one"):
            AppStatement(graph=build_firewall_graph("x"),
                         segment="corp", obi_id="obi-1")

    def test_single_scope_accepted(self):
        AppStatement(graph=build_firewall_graph("x"), segment="corp")
        AppStatement(graph=build_firewall_graph("y"), obi_id="obi-1")
        AppStatement(graph=build_firewall_graph("z"))  # network-wide

    def test_unknown_segment_rejected_at_registration(self, controller):
        controller.segments.add("corp/eng")
        app = FunctionApplication(
            "lost", lambda: [AppStatement(graph=build_firewall_graph("lost"),
                                          segment="warehouse")],
        )
        with pytest.raises(ValueError, match="warehouse"):
            controller.register_application(app)
        assert "lost" not in [a.name for a in controller.applications]

    def test_segment_prefix_scopes_accepted(self, controller):
        controller.segments.add("corp/eng")
        # Ancestor of a known segment and descendant of one: both valid.
        for scope in ("corp", "corp/eng/lab3"):
            controller.register_application(FunctionApplication(
                f"app-{scope.replace('/', '-')}",
                lambda scope=scope: [AppStatement(
                    graph=build_firewall_graph("g"), segment=scope
                )],
            ))
