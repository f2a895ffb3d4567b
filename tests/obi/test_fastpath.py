"""Flow-decision cache: keys, recording, invalidation, batched ingress.

The equivalence *property* lives in test_fastpath_equivalence; this file
pins the mechanics — what keys look like, when entries are installed or
poisoned, and every event that must flush the cache (graph swap, handle
writes) — plus the ``_obi`` observability handles and ``inject_batch``.
"""

import pytest

from repro.bootstrap import connect_inproc
from repro.controller.obc import OpenBoxController
from repro.core.blocks import Block, block_registry
from repro.core.graph import ProcessingGraph
from repro.net.builder import make_tcp_packet, make_udp_packet
from repro.net.packet import Packet
from repro.obi.elements import element_registry
from repro.obi.engine import Element
from repro.obi.fastpath import DecisionRecorder, FlowDecisionCache, flow_key
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.obi.robustness import OverloadPolicy
from repro.obi.translation import build_engine
from repro.protocol.blocks_spec import OBI_PSEUDO_BLOCK
from repro.protocol.errors import ErrorCode, ProtocolError
from repro.protocol.messages import (
    ReadRequest,
    ReadResponse,
    SetProcessingGraphRequest,
    SetProcessingGraphResponse,
    WriteRequest,
    WriteResponse,
)
from tests.conftest import FakeClock, build_firewall_graph


def fw_packet(src="44.0.0.1", sport=9999, dport=12345):
    return make_tcp_packet(src, "192.168.0.9", sport, dport)


def deploy(obi, graph=None, controller=None):
    """Push ``graph`` through ``controller`` if the OBI has one, else
    straight to the bare OBI."""
    request = SetProcessingGraphRequest(
        graph=(graph or build_firewall_graph()).to_dict()
    )
    if controller is None:
        response = obi.handle_message(request)
    else:
        response = controller.send(obi.config.obi_id, request)
    assert isinstance(response, SetProcessingGraphResponse) and response.ok


class TestFlowKey:
    def test_same_flow_same_key(self):
        assert flow_key(fw_packet()) == flow_key(fw_packet())

    def test_distinct_flows_distinct_keys(self):
        assert flow_key(fw_packet(sport=1)) != flow_key(fw_packet(sport=2))
        assert flow_key(fw_packet(src="1.2.3.4")) != flow_key(fw_packet())

    def test_non_ip_frame_is_unkeyable(self):
        assert flow_key(Packet(data=b"\x00" * 20)) is None
        assert flow_key(Packet(data=b"")) is None

    def test_vlan_tag_is_part_of_the_key(self):
        plain = make_tcp_packet("1.1.1.1", "2.2.2.2", 5, 80)
        tagged = make_tcp_packet("1.1.1.1", "2.2.2.2", 5, 80, vlan=10)
        assert flow_key(plain) != flow_key(tagged)

    def test_metadata_scope_extends_the_key(self):
        first = fw_packet()
        second = fw_packet()
        second.metadata["tenant"] = "b"
        assert flow_key(first) == flow_key(second)
        assert flow_key(first, ("tenant",)) != flow_key(second, ("tenant",))


class TestDecisionRecorder:
    def test_records_and_finishes_positive(self):
        recorder = DecisionRecorder(("k",))
        recorder.record("hc", 2)
        decision = recorder.finish()
        assert not decision.uncacheable
        assert decision.decisions == {"hc": 2}

    def test_consistent_revisit_is_fine(self):
        recorder = DecisionRecorder(("k",))
        recorder.record("hc", 1)
        recorder.record("hc", 1)
        assert not recorder.finish().uncacheable

    def test_conflicting_revisit_poisons(self):
        recorder = DecisionRecorder(("k",))
        recorder.record("hc", 1)
        recorder.record("hc", 2)
        assert recorder.finish().uncacheable

    def test_poison_wins_over_recording(self):
        recorder = DecisionRecorder(("k",))
        recorder.poison()
        recorder.record("hc", 1)
        decision = recorder.finish()
        assert decision.uncacheable and decision.decisions == {}


class TestFlowDecisionCache:
    def test_fifo_eviction_is_bounded(self):
        cache = FlowDecisionCache(max_entries=2)
        for i in range(4):
            cache.install((i,), DecisionRecorder((i,)).finish())
        assert len(cache) == 2
        assert cache.evictions == 2
        assert cache.lookup((0,)) is None and cache.lookup((3,)) is not None

    def test_reinstall_does_not_evict(self):
        cache = FlowDecisionCache(max_entries=1)
        cache.install(("a",), DecisionRecorder(("a",)).finish())
        cache.install(("a",), DecisionRecorder(("a",)).finish())
        assert cache.evictions == 0

    def test_invalidate_all_counts_and_logs(self):
        cache = FlowDecisionCache()
        cache.install(("a",), DecisionRecorder(("a",)).finish())
        dropped = cache.invalidate_all("graph-swap")
        assert dropped == 1 and len(cache) == 0
        assert cache.invalidations == 1
        assert list(cache.flush_log) == [("graph-swap", 1)]

    def test_hit_rate(self):
        cache = FlowDecisionCache()
        assert cache.hit_rate == 0.0
        cache.hits, cache.misses, cache.uncacheable_hits = 6, 2, 2
        assert cache.hit_rate == 0.6
        assert cache.stats()["hit_rate"] == 0.6


class TestEngineInvalidation:
    def test_write_handle_flushes(self):
        engine = build_engine(build_firewall_graph())
        engine.process(fw_packet())
        engine.process(fw_packet())
        assert engine.flow_cache.hits == 1 and len(engine.flow_cache) == 1
        engine.write_handle("fw_hc", "rules", {
            "rules": [{"dst_port": [12345, 12345], "port": 0}], "default_port": 2,
        })
        assert len(engine.flow_cache) == 0
        assert list(engine.flow_cache.flush_log) == [("write-handle", 1)]
        # The new ruleset governs the flow that was cached a moment ago.
        assert engine.process(fw_packet()).dropped


class TestInstanceInvalidation:
    def test_graph_swap_flushes(self):
        obi = OpenBoxInstance(ObiConfig(obi_id="obi-1"))
        deploy(obi)
        obi.inject(fw_packet())
        obi.inject(fw_packet())
        assert obi.flow_cache.hits == 1
        deploy(obi, build_firewall_graph("fw2"))
        assert len(obi.flow_cache) == 0
        assert obi.flow_cache.flush_log[-1][0] == "graph-swap"
        # Counters survive the redeploy: the cache outlives the engine.
        assert obi.flow_cache.hits == 1 and obi.flow_cache.misses == 1

    def test_protocol_write_flushes(self):
        obi = OpenBoxInstance(ObiConfig(obi_id="obi-1"))
        deploy(obi)
        obi.inject(fw_packet())
        response = obi.handle_message(WriteRequest(
            block="fw_hc", handle="rules",
            value={"rules": [], "default_port": 0},
        ))
        assert isinstance(response, WriteResponse)
        assert obi.flow_cache.flush_log[-1][0] == "write-handle"

    def test_obi_fastpath_handles(self):
        obi = OpenBoxInstance(ObiConfig(obi_id="obi-1"))
        deploy(obi)
        for _ in range(4):
            obi.inject(fw_packet())

        def read(handle):
            response = obi.handle_message(
                ReadRequest(block=OBI_PSEUDO_BLOCK, handle=handle)
            )
            assert isinstance(response, ReadResponse)
            return response.value

        assert read("fastpath_hits") == 3
        assert read("fastpath_misses") == 1
        assert read("fastpath_uncacheable") == 0
        assert read("fastpath_entries") == 1
        assert read("fastpath_hit_rate") == 0.75
        deploy(obi, build_firewall_graph("fw2"))
        # Every deploy flushes, including the initial one.
        assert read("fastpath_invalidations") == 2
        assert read("fastpath_entries") == 0

    def test_cache_disabled_by_config(self):
        obi = OpenBoxInstance(ObiConfig(obi_id="obi-1", flow_cache_size=0))
        assert obi.flow_cache is None
        deploy(obi)
        obi.inject(fw_packet())
        obi.inject(fw_packet())
        response = obi.handle_message(
            ReadRequest(block=OBI_PSEUDO_BLOCK, handle="fastpath_hits")
        )
        assert response.value == 0

    def test_health_report_carries_hit_rate(self):
        """The hit rate reaches the controller on the telemetry stream."""
        controller = OpenBoxController()
        obi = OpenBoxInstance(ObiConfig(obi_id="obi-1"))
        connect_inproc(controller, obi)
        deploy(obi, controller=controller)
        for _ in range(4):
            obi.inject(fw_packet())
        snapshot = controller.telemetry_snapshot("obi-1")
        assert snapshot.metrics["gauges"]["fastpath_hit_rate"] == 0.75

    def test_load_estimate_discounts_hits(self):
        clock_warm, clock_cold = FakeClock(), FakeClock()
        warm = OpenBoxInstance(ObiConfig(obi_id="warm"), clock=clock_warm)
        cold = OpenBoxInstance(
            ObiConfig(obi_id="cold", flow_cache_size=0), clock=clock_cold
        )
        deploy(warm)
        deploy(cold)
        for _ in range(5000):
            warm.inject(fw_packet())
            cold.inject(fw_packet())
        clock_warm.advance(0.1)
        clock_cold.advance(0.1)
        assert warm.estimate_cpu_load() < cold.estimate_cpu_load()


class TestInjectBatch:
    def test_batch_equals_per_packet(self):
        single = OpenBoxInstance(ObiConfig(obi_id="single"))
        batched = OpenBoxInstance(ObiConfig(obi_id="batched"))
        deploy(single)
        deploy(batched)
        frames = [
            fw_packet().data,
            make_tcp_packet("10.0.0.1", "192.168.0.9", 5, 23).data,
            make_tcp_packet("44.0.0.1", "192.168.0.9", 5, 22).data,
            fw_packet().data,
            make_udp_packet("44.0.0.1", "192.168.0.9", 53, 53).data,
        ]
        wanted = [single.inject(Packet(data=frame)) for frame in frames]
        got = batched.inject_batch([Packet(data=frame) for frame in frames])
        assert [o.effects_key() for o in got] == [o.effects_key() for o in wanted]
        assert batched.packets_processed == single.packets_processed
        assert batched.flow_cache.stats() == single.flow_cache.stats()
        # History records match on everything but the per-process packet
        # ids and wall-clock timestamps.
        stable = lambda record: {  # noqa: E731
            k: v for k, v in record.items() if k not in ("packet", "at")
        }
        assert ([stable(r) for r in batched.packet_history()]
                == [stable(r) for r in single.packet_history()])

    def test_counts_exact_when_engine_raises_mid_batch(self):
        """The ingress counters are added once per batch in a ``finally``:
        a vector whose k-th packet unwinds ``engine.process`` must leave
        exactly k offered and k-1 processed — nothing lost, nothing
        invented (telemetry accounting and the `_obi` handles read these)."""
        obi = OpenBoxInstance(ObiConfig(obi_id="o"))
        deploy(obi)
        obi.engine.context.robustness = None  # fail fast: no containment

        def exploding(packet):
            if packet.l4.dst_port == 6666:
                raise RuntimeError("element exploded")
            return [(0, packet)]

        obi.engine.elements["fw_hc"].process = exploding
        k = 4
        frames = [fw_packet(sport=port).data for port in (1, 2, 3)]
        frames += [fw_packet(dport=6666).data]
        frames += [fw_packet(sport=port).data for port in (5, 6)]
        with pytest.raises(RuntimeError):
            obi.inject_batch([Packet(data=frame) for frame in frames])
        assert obi.packets_offered == k
        assert obi.packets_processed == k - 1 == obi.engine.packets_processed
        assert obi.bytes_processed == sum(len(f) for f in frames[:k - 1])
        assert obi.metrics.counter("obi_packets_offered_total").value == k
        assert len(obi.packet_history()) == k - 1
        # The next vector counts on from there.
        obi.inject_batch([Packet(data=frame) for frame in frames[:2]])
        assert obi.packets_offered == k + 2
        assert obi.packets_processed == k + 1
        assert obi.metrics.counter("obi_packets_offered_total").value == k + 2

    def test_batch_sheds_exactly_like_per_packet(self):
        overload = OverloadPolicy(admission_rate=1.0, admission_burst=3.0)
        single = OpenBoxInstance(
            ObiConfig(obi_id="single", overload=overload), clock=FakeClock()
        )
        batched = OpenBoxInstance(
            ObiConfig(obi_id="batched", overload=overload), clock=FakeClock()
        )
        deploy(single)
        deploy(batched)
        frames = [fw_packet().data] * 8
        wanted = [single.inject(Packet(data=frame)).shed for frame in frames]
        got = [o.shed for o in batched.inject_batch(
            [Packet(data=frame) for frame in frames]
        )]
        assert got == wanted and any(got)
        assert batched.packets_shed == single.packets_shed

    def test_batch_without_graph_raises(self):
        obi = OpenBoxInstance(ObiConfig(obi_id="obi-1"))
        with pytest.raises(ProtocolError) as err:
            obi.inject_batch([fw_packet()])
        assert err.value.code == ErrorCode.INVALID_GRAPH

    def test_batch_coalesces_alerts_across_packets(self):
        """Per-packet ingress sends one Alert per alerting packet; the
        batched path hands the batcher all events at once, so identical
        alerts collapse into one wire message with a count."""
        controller = OpenBoxController()
        single = OpenBoxInstance(ObiConfig(obi_id="single"))
        batched = OpenBoxInstance(ObiConfig(obi_id="batched"))
        connect_inproc(controller, single)
        connect_inproc(controller, batched)
        deploy(single, controller=controller)
        deploy(batched, controller=controller)
        alerting = make_tcp_packet("44.0.0.1", "192.168.0.9", 5, 22).data
        for _ in range(3):
            single.inject(Packet(data=alerting))
        outcomes = batched.inject_batch([Packet(data=alerting) for _ in range(3)])
        assert single.alerts_sent == 3
        assert batched.alerts_sent == 1
        assert batched._alert_batcher.coalesced_total == 2
        # Per-packet outcomes are unchanged by the batching.
        assert all(len(outcome.alerts) == 1 for outcome in outcomes)


class TestPerFlowInvalidation:
    """Surgical invalidation: one flow's transition, one flow's entries."""

    def _decision(self, refs):
        recorder = DecisionRecorder(("k",))
        recorder.record("hc", 0)
        for ref, version in refs:
            recorder.note_flow_state(ref, version)
        return recorder.finish()

    def test_invalidate_flow_drops_only_that_flows_entries(self):
        cache = FlowDecisionCache()
        cache.install(("a",), self._decision([("flow-a", 1)]))
        cache.install(("b",), self._decision([("flow-b", 1)]))
        assert cache.invalidate_flow("flow-a", "ct:est") == 1
        assert cache.entries == 1
        assert cache.lookup(("b",)) is not None
        assert cache.flow_invalidations == 1
        assert cache.invalidations == 0  # no whole-cache flush
        assert cache.flush_log[-1] == ("flow:ct:est", 1)

    def test_unknown_ref_is_free_noop(self):
        cache = FlowDecisionCache()
        cache.install(("a",), self._decision([("flow-a", 1)]))
        log_before = list(cache.flush_log)
        assert cache.invalidate_flow("never-seen") == 0
        assert cache.flow_invalidations == 0
        assert list(cache.flush_log) == log_before

    def test_multi_ref_entry_cleans_cross_references(self):
        cache = FlowDecisionCache()
        cache.install(("ab",), self._decision([("flow-a", 1), ("flow-b", 2)]))
        assert cache.invalidate_flow("flow-a") == 1
        # The other ref's index entry must not point at the dead key.
        assert cache.invalidate_flow("flow-b") == 0

    def test_eviction_and_reinstall_unindex(self):
        cache = FlowDecisionCache(max_entries=1)
        cache.install(("a",), self._decision([("flow-a", 1)]))
        cache.install(("b",), self._decision([("flow-b", 1)]))  # evicts a
        assert cache.invalidate_flow("flow-a") == 0
        cache.install(("b",), self._decision([("flow-c", 1)]))  # replaces
        assert cache.invalidate_flow("flow-b") == 0
        assert cache.invalidate_flow("flow-c") == 1

    def test_invalidate_all_clears_flow_index(self):
        cache = FlowDecisionCache()
        cache.install(("a",), self._decision([("flow-a", 1)]))
        cache.invalidate_all("swap")
        assert cache.invalidate_flow("flow-a") == 0

    def test_abandoned_recorder_installs_nothing(self):
        recorder = DecisionRecorder(("k",))
        recorder.record("hc", 0)
        recorder.abandon()
        assert recorder.abandoned
        # finish() still works, but engines must skip install entirely —
        # covered end-to-end in test_conntrack; here we pin the flag.

    def test_stats_include_flow_invalidations(self):
        cache = FlowDecisionCache()
        assert "flow_invalidations" in cache.stats()


class TestRoutingNeutralHandles:
    def test_reset_counts_does_not_flush(self):
        engine = build_engine(build_firewall_graph(), clock=lambda: 0.0)
        packet = fw_packet()
        engine.process(packet)
        engine.process(packet)
        assert engine.flow_cache.entries == 1
        engine.write_handle("fw_hc", "reset_counts", True)
        assert engine.flow_cache.entries == 1
        assert engine.flow_cache.invalidations == 0

    def test_routing_handles_still_flush(self):
        engine = build_engine(build_firewall_graph(), clock=lambda: 0.0)
        engine.process(fw_packet())
        engine.write_handle("fw_hc", "rules", {
            "rules": [{"src_ip": "10.0.0.0/8", "dst_port": [23, 23], "port": 0}],
            "default_port": 2,
        })
        assert engine.flow_cache.invalidations == 1


#: The smallest config each built-in type with required params accepts.
MINIMAL_CONFIGS = {
    "FromDevice": {"devname": "i"},
    "ToDevice": {"devname": "o"},
    "FromDump": {"filename": "in.pcap"},
    "ToDump": {"filename": "out.pcap"},
    "HeaderClassifier": {"rules": []},
    "VlanClassifier": {"rules": []},
    "RegexClassifier": {"patterns": []},
    "HeaderPayloadClassifier": {"rules": []},
    "ProtocolAnalyzer": {"protocols": {}},
    "MetadataClassifier": {"key": "k"},
    "NetworkHeaderFieldRewriter": {"fields": {}},
    "Ipv4AddressTranslator": {"mappings": {}},
    "VlanEncapsulate": {"vid": 5},
    "NshEncapsulate": {"spi": 1},
    "SetMetadata": {"values": {}},
    "HttpCacheResponder": {"cache": {}},
    "BpsShaper": {"bps": 1000},
    "PpsShaper": {"pps": 1000},
    "SessionTag": {"key": "k", "value": "v"},
}


@pytest.mark.parametrize("type_name", sorted(element_registry))
def test_cacheability_is_declared_once_on_the_spec(type_name):
    """A built-in type says whether it is cacheable on its spec only;
    the element class inherits ``Element.cacheable`` untouched."""
    for klass in element_registry[type_name].__mro__:
        if klass is Element:
            break
        assert "cacheable" not in vars(klass), klass.__name__
    graph = ProcessingGraph(type_name)
    block = graph.add_block(
        Block(type_name, name="x", config=MINIMAL_CONFIGS.get(type_name, {}))
    )
    if type_name not in ("FromDevice", "FromDump"):
        source = graph.add_block(Block("FromDevice", name="src", config={"devname": "i"}))
        graph.connect(source, block, 0)
    engine = build_engine(graph)
    assert engine.elements["x"].cacheable is block_registry.get(type_name).cacheable
