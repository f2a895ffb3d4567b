"""The OBI's split-brain fence covers every request it serves (PROTOCOL.md §10).

A deposed controller may still hold a channel to an OBI and keep
talking. Whatever it sends — stamped with its old generation, or not
stamped at all — must bounce ``stale_generation``, be counted, stay out
of the dedup cache and leave the OBI exactly as it was. The cases are
keyed by the OBI's own dispatch table, so a new request type cannot
join it without joining this test.
"""

import pytest

from repro.bootstrap import connect_inproc
from repro.controller.obc import OpenBoxController
from repro.net.builder import make_tcp_packet
from repro.obi.instance import OBI_HANDLES, ObiConfig, OpenBoxInstance
from repro.protocol.blocks_spec import OBI_PSEUDO_BLOCK
from repro.protocol.errors import ErrorCode
from repro.protocol.messages import (
    AddCustomModuleRequest,
    BarrierRequest,
    ErrorMessage,
    GlobalStatsRequest,
    LeaseAnnounce,
    ListCapabilitiesRequest,
    PacketHistoryRequest,
    ReadRequest,
    SetExternalServices,
    SetProcessingGraphRequest,
    StateCheckpointRequest,
    StateHandoffRequest,
    TelemetryAck,
    TelemetrySubscribe,
    WriteRequest,
)
from tests.conftest import FakeClock, build_firewall_graph, build_ips_graph

GENERATION = 3

PROBE_MODULE = b'''
class FenceProbe(Element):
    def process(self, packet):
        return [(0, packet)]

ELEMENTS = {"FenceProbe": FenceProbe}
'''

FLOW = {
    "key": {"src_ip": 1, "dst_ip": 2, "src_port": 3, "dst_port": 4, "proto": 6},
    "session": {"tag": "ghost"},
}


def _alert_block(obi):
    return next(n for n, b in obi.graph.blocks.items() if b.type == "Alert")


#: One request per class the OBI serves; the ones whose legitimate
#: delivery changes OBI state are checked to do so, which proves the
#: fingerprint below can see what a fenced delivery must not do.
REQUESTS = {
    SetProcessingGraphRequest: lambda obi: SetProcessingGraphRequest(
        graph=build_ips_graph().to_dict()
    ),
    GlobalStatsRequest: lambda obi: GlobalStatsRequest(),
    ReadRequest: lambda obi: ReadRequest(block=OBI_PSEUDO_BLOCK, handle="degraded"),
    WriteRequest: lambda obi: WriteRequest(
        block=_alert_block(obi), handle="reset_counts"
    ),
    AddCustomModuleRequest: lambda obi: AddCustomModuleRequest.from_binary(
        "fence-probe", PROBE_MODULE,
        [{"name": "FenceProbe", "class": "static", "num_ports": 1}],
    ),
    ListCapabilitiesRequest: lambda obi: ListCapabilitiesRequest(),
    SetExternalServices: lambda obi: SetExternalServices(keepalive_interval=1.0),
    LeaseAnnounce: lambda obi: LeaseAnnounce(
        leader_id="ghost", endpoints=["ghost:6633"]
    ),
    BarrierRequest: lambda obi: BarrierRequest(),
    PacketHistoryRequest: lambda obi: PacketHistoryRequest(),
    StateCheckpointRequest: lambda obi: StateCheckpointRequest(),
    StateHandoffRequest: lambda obi: StateHandoffRequest(
        source_obi="peer", state_generation=7, state=[FLOW]
    ),
    TelemetrySubscribe: lambda obi: TelemetrySubscribe(subscriber="ghost"),
    TelemetryAck: lambda obi: TelemetryAck(
        ok=False, cursor=0, error=ErrorCode.STALE_GENERATION
    ),
}

MUTATING = {
    SetProcessingGraphRequest, WriteRequest, AddCustomModuleRequest,
    SetExternalServices, LeaseAnnounce, StateHandoffRequest, TelemetrySubscribe, TelemetryAck,
}


def fenced_obi():
    """An OBI that obeys a generation-3 controller, with something in
    every piece of state a request could touch."""
    clock = FakeClock()
    controller = OpenBoxController(clock=clock)
    controller.adopt_epoch(GENERATION)
    obi = OpenBoxInstance(ObiConfig(obi_id="o1", segment="corp"), clock=clock)
    connect_inproc(controller, obi)
    controller.send("o1", SetProcessingGraphRequest(
        graph=build_firewall_graph().to_dict()
    ))
    obi.inject(make_tcp_packet("44.0.0.1", "192.168.0.9", 1234, 22))
    controller.subscribe_telemetry("o1")
    assert obi.highest_controller_generation == GENERATION
    return obi


def fingerprint(obi):
    handles = {
        name: obi.read_obi_handle(name) for name in OBI_HANDLES
        if name != "stale_generation_rejections"
    }
    subscription = obi.telemetry.subscription
    return {
        "handles": handles,
        "graph_version": obi.graph_version,
        "flows": obi.session.export_entries(now=obi.clock()),
        "handoff_fence": dict(obi._handoff_fence),
        "keepalive_interval": obi.config.keepalive_interval,
        "block_types": obi.factory.supported_types(),
        "subscription": dict(subscription) if subscription else None,
        "element_counts": {
            name: element.count for name, element in obi.engine.elements.items()
        },
        "duplicates": obi.duplicate_requests,
    }


def test_every_served_class_has_a_case():
    assert set(REQUESTS) == set(OpenBoxInstance.HANDLERS)


@pytest.mark.parametrize("epoch", [0, GENERATION - 1], ids=["unstamped", "deposed"])
@pytest.mark.parametrize(
    "cls", sorted(OpenBoxInstance.HANDLERS, key=lambda c: c.TYPE),
    ids=lambda c: c.TYPE,
)
def test_request_below_the_high_water_mark_is_refused(cls, epoch):
    obi = fenced_obi()
    before = fingerprint(obi)
    request = REQUESTS[cls](obi)
    request.epoch = epoch

    response = obi.handle_message(request)

    assert isinstance(response, ErrorMessage)
    assert response.code == ErrorCode.STALE_GENERATION
    assert obi.stale_generation_rejections == 1
    assert fingerprint(obi) == before
    # Not cached: the same xid from the live controller is served fresh.
    request.epoch = GENERATION
    served = obi.handle_message(request)
    assert not isinstance(served, ErrorMessage), served
    assert obi.duplicate_requests == 0
    if cls in MUTATING:
        assert fingerprint(obi) != before
