"""Controller core tests: OBI lifecycle, deployment, events, app requests."""

import pytest

from repro.bootstrap import connect_inproc
from repro.controller.apps import ALERT_LOG_SIZE, AppStatement, FunctionApplication
from repro.controller.obc import OpenBoxController
from repro.net.builder import make_tcp_packet
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.protocol.codec import PROTOCOL_VERSION
from repro.protocol.errors import ErrorCode, ProtocolError
from repro.observability.metrics import default_registry
from repro.protocol.messages import (
    Alert,
    ErrorMessage,
    Hello,
    KeepAlive,
    LogMessage,
)
from tests.conftest import build_firewall_graph, build_ips_graph


def _fw_app(name="fw", segment="", priority=10):
    return FunctionApplication(
        name, lambda: [AppStatement(graph=build_firewall_graph(name), segment=segment)],
        priority=priority,
    )


def _connect(controller, obi_id="obi-1", segment="corp"):
    obi = OpenBoxInstance(ObiConfig(obi_id=obi_id, segment=segment))
    connect_inproc(controller, obi)
    return obi


class TestLifecycle:
    def test_hello_registers_obi(self, controller):
        _connect(controller)
        assert "obi-1" in controller.obis
        handle = controller.obis["obi-1"]
        assert handle.segment == "corp"
        assert "HeaderClassifier" in handle.capabilities
        assert controller.segments.exists("corp")

    def test_version_mismatch_rejected(self, controller):
        # A 1.x peer predates the envelope epoch: refused at Hello rather
        # than having every request it sends fenced.
        for version in ("9.0.0", "1.2.0"):
            response = controller.handle_message(Hello(obi_id="x", version=version))
            assert isinstance(response, ErrorMessage)
            assert response.code == ErrorCode.UNSUPPORTED_VERSION

    def test_keepalive_tracked(self, controller):
        _connect(controller)
        controller.handle_message(KeepAlive(obi_id="obi-1"))
        view = controller.stats.view("obi-1")
        assert view.keepalives == 1

    def test_disconnect(self, controller):
        _connect(controller)
        controller.disconnect_obi("obi-1")
        assert "obi-1" not in controller.obis

    def test_obi_keepalive_helper(self, controller):
        obi = _connect(controller)
        obi.send_keepalive()
        assert controller.stats.view("obi-1").keepalives == 1


class TestDeployment:
    def test_app_registered_before_obi_connects(self, controller):
        controller.register_application(_fw_app(segment="corp"))
        obi = _connect(controller)
        assert obi.engine is not None
        assert controller.obis["obi-1"].deployed is not None

    def test_app_registered_after_obi_connects(self, controller):
        obi = _connect(controller)
        controller.register_application(_fw_app(segment="corp"))
        assert obi.engine is not None

    def test_out_of_scope_app_not_deployed(self, controller):
        obi = _connect(controller, segment="sales")
        controller.segments.add("corp")
        controller.register_application(_fw_app(segment="corp"))
        assert obi.engine is None

    def test_unknown_segment_rejected_at_registration(self, controller):
        _connect(controller, segment="sales")
        with pytest.raises(ValueError, match="corp"):
            controller.register_application(_fw_app(segment="corp"))

    def test_two_apps_merge_on_deploy(self, controller):
        obi = _connect(controller)
        controller.register_application(_fw_app("fw", segment="corp", priority=1))
        ips = FunctionApplication(
            "ips", lambda: [AppStatement(graph=build_ips_graph("ips"), segment="corp")],
            priority=2,
        )
        controller.register_application(ips)
        deployed = controller.obis["obi-1"].deployed
        assert deployed.app_names == ["fw", "ips"]
        hc = [b for b in deployed.graph.blocks.values() if b.type == "HeaderClassifier"]
        assert len(hc) == 1
        assert obi.graph_version == 2  # deployed once per registration

    def test_unregister_redeployes(self, controller):
        obi = _connect(controller)
        controller.register_application(_fw_app("fw", segment="corp"))
        controller.register_application(_fw_app("fw2", segment="corp"))
        controller.unregister_application("fw2")
        deployed = controller.obis["obi-1"].deployed
        assert deployed.app_names == ["fw"]

    def test_duplicate_app_name_rejected(self, controller):
        controller.register_application(_fw_app("fw"))
        with pytest.raises(ValueError):
            controller.register_application(_fw_app("fw"))

    def test_generation_counter(self, controller):
        _connect(controller)
        controller.register_application(_fw_app("fw", segment="corp"))
        assert controller.obis["obi-1"].generation == 1
        controller.register_application(_fw_app("fw2", segment="corp"))
        assert controller.obis["obi-1"].generation == 2

    def test_deploy_unknown_obi_raises(self, controller):
        with pytest.raises(ProtocolError):
            controller.deploy("ghost")


class TestEvents:
    def test_alert_demultiplexed_to_origin_app(self, controller):
        obi = _connect(controller)
        fw = _fw_app("fw", segment="corp")
        controller.register_application(fw)
        obi.process_packet(make_tcp_packet("44.0.0.1", "2.2.2.2", 5, 22))
        assert len(controller.alerts) == 1
        assert fw.alerts_received[0].origin_app == "fw"
        assert fw.alerts_received[0].obi_id == "obi-1"

    def test_alert_for_unknown_app_kept_by_controller(self, controller):
        controller.handle_message(Alert(obi_id="x", origin_app="ghost", message="m"))
        assert len(controller.alerts) == 1

    def test_logs_are_a_bounded_ring_with_a_monotonic_count(self, controller):
        counter = default_registry().counter("controller_logs_received_total")
        before = counter.value
        for index in range(ALERT_LOG_SIZE + 5):
            controller.handle_message(LogMessage(obi_id="x", message=str(index)))
        assert len(controller.logs) == ALERT_LOG_SIZE
        assert controller.logs[-1].message == str(ALERT_LOG_SIZE + 4)
        assert counter.value - before == ALERT_LOG_SIZE + 5

    def test_on_obi_connected_hook(self, controller):
        seen = []

        class HookApp(FunctionApplication):
            def on_obi_connected(self, obi_id):
                seen.append(obi_id)

        controller.register_application(
            HookApp("h", lambda: [AppStatement(graph=build_firewall_graph("h"))])
        )
        _connect(controller)
        assert seen == ["obi-1"]


class TestAppRequests:
    def test_app_read(self, controller):
        obi = _connect(controller)
        fw = _fw_app("fw", segment="corp")
        controller.register_application(fw)
        obi.process_packet(make_tcp_packet("10.0.0.1", "2.2.2.2", 5, 23))
        result = fw.request_read("obi-1", "fw_drop", "count")
        assert result.ok
        assert result.value == 1

    def test_app_write(self, controller):
        obi = _connect(controller)
        fw = _fw_app("fw", segment="corp")
        controller.register_application(fw)
        result = fw.request_write("obi-1", "fw_drop", "reset_counts", None)
        assert result.ok
        assert result.written

    def test_app_stats_recorded(self, controller):
        _connect(controller)
        fw = _fw_app("fw", segment="corp")
        controller.register_application(fw)
        view = fw.request_stats("obi-1")
        assert view.ok
        assert view.obi_id == "obi-1"
        assert controller.stats.view("obi-1").last_stats is not None

    def test_unregistered_app_cannot_request(self):
        app = _fw_app("lonely")
        with pytest.raises(RuntimeError):
            app.request_read("obi-1", "b", "h")

    def test_update_logic_redeploys(self, controller):
        obi = _connect(controller)
        graphs = [build_firewall_graph("v1")]
        app = FunctionApplication(
            "dyn", lambda: [AppStatement(graph=graphs[0], segment="corp")]
        )
        controller.register_application(app)
        assert obi.graph_version == 1
        graphs[0] = build_firewall_graph("v2")
        app.update_logic()
        assert obi.graph_version == 2

    def test_poll_stats(self, controller):
        obi = _connect(controller)
        controller.register_application(_fw_app("fw", segment="corp"))
        obi.process_packet(make_tcp_packet("1.2.3.4", "2.2.2.2", 5, 443))
        stats = controller.poll_stats("obi-1")
        assert stats.packets_processed == 1


class TestObiDisconnectedHook:
    def test_hook_fires(self):
        seen = []

        class HookApp(FunctionApplication):
            def on_obi_disconnected(self, obi_id):
                seen.append(obi_id)

        controller = OpenBoxController()
        obi = OpenBoxInstance(ObiConfig(obi_id="o"))
        connect_inproc(controller, obi)
        controller.register_application(
            HookApp("h", lambda: [AppStatement(graph=build_firewall_graph())])
        )
        controller.disconnect_obi("o")
        assert seen == ["o"]
        # Double-disconnect is a no-op.
        controller.disconnect_obi("o")
        assert seen == ["o"]
