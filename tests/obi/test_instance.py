"""OBI protocol endpoint tests: graph deployment, handles, stats, errors."""

import pytest

from repro.core.blocks import Block
from repro.core.graph import ProcessingGraph
from repro.net.builder import make_tcp_packet
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.obi.services import LogService
from repro.protocol.codec import PROTOCOL_VERSION
from repro.protocol.errors import ErrorCode, ProtocolError
from repro.protocol.messages import (
    BarrierRequest,
    BarrierResponse,
    ErrorMessage,
    GlobalStatsRequest,
    GlobalStatsResponse,
    ListCapabilitiesRequest,
    ListCapabilitiesResponse,
    ReadRequest,
    ReadResponse,
    SetExternalServices,
    SetProcessingGraphRequest,
    SetProcessingGraphResponse,
    WriteRequest,
    WriteResponse,
)
from tests.conftest import build_firewall_graph


@pytest.fixture
def obi():
    return OpenBoxInstance(ObiConfig(obi_id="obi-1", segment="corp"))


def deploy(obi, graph: ProcessingGraph):
    response = obi.handle_message(SetProcessingGraphRequest(graph=graph.to_dict()))
    assert isinstance(response, SetProcessingGraphResponse) and response.ok
    return response


class TestHello:
    def test_hello_advertises_capabilities(self, obi):
        hello = obi.hello_message(callback_url="http://x")
        assert hello.obi_id == "obi-1"
        assert hello.segment == "corp"
        assert hello.version == PROTOCOL_VERSION
        assert "HeaderClassifier" in hello.capabilities
        assert set(hello.capabilities["HeaderClassifier"]) == {"linear", "trie", "tcam"}
        assert hello.callback_url == "http://x"

    def test_capabilities_response(self, obi):
        response = obi.handle_message(ListCapabilitiesRequest())
        assert isinstance(response, ListCapabilitiesResponse)
        assert "Discard" in response.capabilities


class TestGraphDeployment:
    def test_deploy_and_process(self, obi, firewall_graph):
        deploy(obi, firewall_graph)
        outcome = obi.process_packet(make_tcp_packet("10.0.0.1", "2.2.2.2", 5, 23))
        assert outcome.dropped
        assert obi.packets_processed == 1

    def test_redeploy_bumps_version(self, obi, firewall_graph):
        deploy(obi, firewall_graph)
        deploy(obi, build_firewall_graph("fw2"))
        assert obi.graph_version == 2

    def test_invalid_graph_rejected(self, obi):
        broken = {"name": "g", "blocks": [{"type": "Discard", "name": "d"}],
                  "connectors": [{"src": "d", "src_port": 0, "dst": "ghost"}]}
        response = obi.handle_message(SetProcessingGraphRequest(graph=broken))
        assert isinstance(response, ErrorMessage)
        assert response.code == ErrorCode.INVALID_GRAPH
        assert obi.engine is None  # old state untouched

    # The retired tunnel encapsulations are unknown types like any other:
    # NSH is the one inter-OBI metadata channel.
    @pytest.mark.parametrize(
        "block_type", ["NoSuchBlock", "VxlanEncapsulate", "GeneveDecapsulate"]
    )
    def test_unknown_block_type_rejected(self, obi, firewall_graph, block_type):
        deploy(obi, firewall_graph)
        broken = {
            "name": "g",
            "blocks": [
                {"type": "FromDevice", "name": "r", "config": {"devname": "i"}},
                {"type": block_type, "name": "x", "config": {"vni": 7}},
                {"type": "ToDevice", "name": "o", "config": {"devname": "o"}},
            ],
            "connectors": [
                {"src": "r", "src_port": 0, "dst": "x"},
                {"src": "x", "src_port": 0, "dst": "o"},
            ],
        }
        response = obi.handle_message(SetProcessingGraphRequest(graph=broken))
        assert isinstance(response, ErrorMessage)
        assert response.code == ErrorCode.INVALID_GRAPH
        assert block_type in response.detail
        # The previous graph keeps serving.
        assert obi.graph_version == 1
        assert obi.process_packet(
            make_tcp_packet("10.0.0.1", "2.2.2.2", 5, 23)
        ).dropped

    def test_failed_redeploy_keeps_old_graph(self, obi, firewall_graph):
        deploy(obi, firewall_graph)
        obi.handle_message(SetProcessingGraphRequest(graph={"name": "bad",
                                                            "blocks": [], "connectors": []}))
        # Old engine still works.
        assert obi.process_packet(
            make_tcp_packet("10.0.0.1", "2.2.2.2", 5, 23)
        ).dropped

    def test_process_without_graph_raises(self, obi):
        with pytest.raises(ProtocolError):
            obi.process_packet(make_tcp_packet("1.1.1.1", "2.2.2.2", 5, 80))


class TestHandles:
    def test_read_write_roundtrip(self, obi, firewall_graph):
        deploy(obi, firewall_graph)
        obi.process_packet(make_tcp_packet("10.0.0.1", "2.2.2.2", 5, 23))
        read = obi.handle_message(ReadRequest(block="fw_drop", handle="count"))
        assert isinstance(read, ReadResponse) and read.value == 1
        write = obi.handle_message(
            WriteRequest(block="fw_drop", handle="reset_counts", value=None)
        )
        assert isinstance(write, WriteResponse) and write.ok
        read2 = obi.handle_message(ReadRequest(block="fw_drop", handle="count"))
        assert read2.value == 0

    def test_unknown_block_error_code(self, obi, firewall_graph):
        deploy(obi, firewall_graph)
        response = obi.handle_message(ReadRequest(block="nope", handle="count"))
        assert isinstance(response, ErrorMessage)
        assert response.code == ErrorCode.UNKNOWN_BLOCK

    def test_unknown_handle_error_code(self, obi, firewall_graph):
        deploy(obi, firewall_graph)
        response = obi.handle_message(ReadRequest(block="fw_drop", handle="zzz"))
        assert isinstance(response, ErrorMessage)
        assert response.code == ErrorCode.UNKNOWN_HANDLE

    def test_handles_without_graph(self, obi):
        response = obi.handle_message(ReadRequest(block="x", handle="count"))
        assert isinstance(response, ErrorMessage)
        assert response.code == ErrorCode.INVALID_GRAPH


class TestStats:
    def test_global_stats(self, obi, firewall_graph):
        deploy(obi, firewall_graph)
        for _ in range(5):
            obi.process_packet(make_tcp_packet("1.1.1.1", "2.2.2.2", 5, 443))
        response = obi.handle_message(GlobalStatsRequest())
        assert isinstance(response, GlobalStatsResponse)
        assert response.packets_processed == 5
        assert response.bytes_processed > 0
        assert 0.0 <= response.cpu_load <= 1.0
        assert response.memory_used > 0
        assert response.obi_id == "obi-1"

    def test_memory_grows_with_graph(self, obi, firewall_graph):
        baseline = obi.estimate_memory_used()
        deploy(obi, firewall_graph)
        assert obi.estimate_memory_used() > baseline


class TestMisc:
    def test_barrier(self, obi):
        response = obi.handle_message(BarrierRequest())
        assert isinstance(response, BarrierResponse)

    def test_external_services_config(self, obi):
        obi.handle_message(SetExternalServices(keepalive_interval=3.5))
        assert obi.config.keepalive_interval == 3.5

    def test_unknown_message_rejected(self, obi):
        response = obi.handle_message(GlobalStatsResponse())
        assert isinstance(response, ErrorMessage)
        assert response.code == ErrorCode.UNKNOWN_MESSAGE

    def test_xid_echoed_in_responses(self, obi, firewall_graph):
        request = SetProcessingGraphRequest(graph=firewall_graph.to_dict())
        response = obi.handle_message(request)
        assert response.xid == request.xid

    def test_passed_in_empty_log_service_is_the_one_used(self):
        """An empty ``LogService`` is falsy (``__len__`` is 0); it must
        still be the service the first Log block writes to."""
        service = LogService()
        obi = OpenBoxInstance(ObiConfig(obi_id="o"), log_service=service)
        assert obi.log_service is service
        graph = ProcessingGraph("g")
        read = Block("FromDevice", name="r", config={"devname": "in"})
        log = Block("Log", name="l", config={"message": "seen"}, origin_app="app")
        out = Block("ToDevice", name="o", config={"devname": "out"})
        graph.add_blocks([read, log, out])
        graph.connect(read, log)
        graph.connect(log, out)
        deploy(obi, graph)
        obi.process_packet(make_tcp_packet("1.1.1.1", "2.2.2.2", 1, 2))
        assert [record.message for record in service.records] == ["seen"]

    def test_reconfigure_poll_delay_applied(self, firewall_graph):
        import time
        slow = OpenBoxInstance(
            ObiConfig(obi_id="slow", reconfigure_poll_delay=0.05)
        )
        start = time.monotonic()
        deploy(slow, firewall_graph)
        assert time.monotonic() - start >= 0.05


class TestHandleErrorContainment:
    """Regression: handle dispatch must answer with a protocol error for
    *any* failure — a garbage write value used to unwind handle_message
    with a raw ValueError, killing the transport's dispatch thread."""

    def test_unparseable_write_value_is_malformed_message(self, obi, firewall_graph):
        deploy(obi, firewall_graph)
        response = obi.handle_message(WriteRequest(
            block="fw_hc", handle="rules",
            value={"rules": [{"src_ip": "not-an-ip"}]},
        ))
        assert isinstance(response, ErrorMessage)
        assert response.code == ErrorCode.MALFORMED_MESSAGE
        assert "not-an-ip" in response.detail
        # The old ruleset is still live: packets keep flowing.
        outcome = obi.process_packet(make_tcp_packet("10.0.0.1", "2.2.2.2", 5, 23))
        assert outcome.dropped

    def test_wrong_shape_write_value_never_unwinds(self, obi, firewall_graph):
        deploy(obi, firewall_graph)
        response = obi.handle_message(
            WriteRequest(block="fw_hc", handle="rules", value=42)
        )
        assert isinstance(response, ErrorMessage)
        assert response.code == ErrorCode.INTERNAL_ERROR
        assert "AttributeError" in response.detail

    def test_exploding_custom_handle_is_internal_error(self, obi, firewall_graph):
        from repro.obi.engine import Element

        class ExplodingHandles(Element):
            def process(self, packet):
                return [(0, packet)]

            def read_handle(self, name):
                raise RuntimeError("boom")

        obi.factory.register_custom("ToDevice", ExplodingHandles)
        deploy(obi, firewall_graph)
        response = obi.handle_message(ReadRequest(block="fw_out", handle="count"))
        assert isinstance(response, ErrorMessage)
        assert response.code == ErrorCode.INTERNAL_ERROR
        assert "RuntimeError: boom" in response.detail

    def test_error_response_echoes_xid(self, obi, firewall_graph):
        deploy(obi, firewall_graph)
        request = WriteRequest(block="fw_hc", handle="rules", value=42)
        response = obi.handle_message(request)
        assert response.xid == request.xid
