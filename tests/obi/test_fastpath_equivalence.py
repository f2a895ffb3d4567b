"""Property suite: the flow-decision fast path is behaviour-preserving.

The oracle is a second engine built from the *same* graph with the flow
cache disabled (``flow_cache=None``): every packet sequence must produce
byte-identical :meth:`PacketOutcome.effects_key` results, identical
block paths, and identical element counters whether or not cached
decisions are replayed. Traffic is flow-mixed so the cache genuinely
warms (repeat packets of the same flow replay recorded decisions), and
adversarial cases — same 5-tuple with different payloads, hostile random
frames — exercise the poisoning rules that keep the cache sound.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import Block
from repro.core.graph import ProcessingGraph
from repro.core.merge import merge_graphs
from repro.net.builder import make_tcp_packet, make_udp_packet
from repro.net.packet import Packet
from repro.obi.translation import build_engine

from tests.conftest import build_firewall_graph, build_ips_graph


def _merged_graph() -> ProcessingGraph:
    return merge_graphs([build_firewall_graph("fw"), build_ips_graph("ips")]).graph


def _vlan_metadata_graph() -> ProcessingGraph:
    """VLAN classification feeding a metadata-routed downstream stage.

    Exercises the two other decision-cached classifiers: the cached
    MetadataClassifier decision depends on what SetMetadata wrote, which
    itself depends on the cached VlanClassifier decision — all a pure
    function of the flow key.
    """
    graph = ProcessingGraph("tenants")
    read = Block("FromDevice", name="read", config={"devname": "in"})
    vlan = Block(
        "VlanClassifier", name="vlan",
        config={"rules": [{"vlan": 10, "port": 0}, {"vlan": 20, "port": 1}],
                "default_port": 2},
        origin_app="tenants",
    )
    tag_a = Block("SetMetadata", name="tag_a", config={"values": {"tenant": "a"}})
    tag_b = Block("SetMetadata", name="tag_b", config={"values": {"tenant": "b"}})
    meta = Block(
        "MetadataClassifier", name="meta",
        config={"key": "tenant", "rules": {"a": 0, "b": 1}, "default_port": 2},
        origin_app="tenants",
    )
    alert = Block("Alert", name="alert", config={"message": "tenant b"},
                  origin_app="tenants")
    drop = Block("Discard", name="drop")
    out = Block("ToDevice", name="out", config={"devname": "out"})
    graph.add_blocks([read, vlan, tag_a, tag_b, meta, alert, drop, out])
    graph.connect(read, vlan)
    graph.connect(vlan, tag_a, 0)
    graph.connect(vlan, tag_b, 1)
    graph.connect(vlan, drop, 2)
    graph.connect(tag_a, meta)
    graph.connect(tag_b, meta)
    graph.connect(meta, out, 0)
    graph.connect(meta, alert, 1)
    graph.connect(meta, drop, 2)
    graph.connect(alert, out)
    graph.validate()
    return graph


def _engine_pair(graph: ProcessingGraph):
    """(cached, reference) engines from one graph, deterministic clocks."""
    fast = build_engine(graph, clock=lambda: 0.0)
    slow = build_engine(graph, clock=lambda: 0.0, flow_cache=None)
    assert fast.flow_cache is not None
    return fast, slow


def _assert_equivalent(fast, slow, frames: list[bytes]) -> None:
    for frame in frames:
        got = fast.process(Packet(data=frame))
        want = slow.process(Packet(data=frame))
        assert got.effects_key() == want.effects_key()
        assert got.path == want.path
        assert len(got.errors) == len(want.errors)
    # The fast path must also keep every per-element counter (and the
    # classifier match_counts read handle) indistinguishable.
    for name, element in fast.elements.items():
        reference = slow.elements[name]
        assert element.count == reference.count, name
        assert element.byte_count == reference.byte_count, name
        if hasattr(element, "match_counts"):
            assert element.match_counts == reference.match_counts, name


# A compact flow universe: repeats are likely, several entries share a
# 5-tuple but differ in payload (the regex branches must stay correct),
# and VLAN tags vary for the tenant graph.
_FLOW_POOL: list[bytes] = [
    make_tcp_packet("10.1.2.3", "192.168.0.9", 1234, 23).data,
    make_tcp_packet("44.0.0.1", "192.168.0.9", 1234, 22).data,
    make_tcp_packet("44.0.0.1", "192.168.0.9", 5, 80, payload=b"GET / HTTP/1.1").data,
    make_tcp_packet("44.0.0.1", "192.168.0.9", 5, 80, payload=b"launch the attack").data,
    make_tcp_packet("44.0.0.1", "192.168.0.9", 5, 80, payload=b"UNION SELECT 1").data,
    make_tcp_packet("44.0.0.1", "192.168.0.9", 5, 443, payload=b"heartbleed").data,
    make_tcp_packet("44.0.0.1", "192.168.0.9", 5, 443, payload=b"hello tls").data,
    make_udp_packet("44.0.0.1", "192.168.0.9", 53, 53).data,
    make_tcp_packet("44.0.0.1", "192.168.0.9", 9999, 12345).data,
    make_tcp_packet("10.9.9.9", "192.168.0.9", 40000, 8080).data,
    make_tcp_packet("44.0.0.1", "192.168.0.9", 7, 80, vlan=10).data,
    make_tcp_packet("44.0.0.1", "192.168.0.9", 7, 80, vlan=20).data,
    make_udp_packet("44.0.0.2", "192.168.0.9", 68, 67, vlan=30).data,
]


class TestFastPathEquivalence:
    @given(st.lists(st.sampled_from(_FLOW_POOL), min_size=1, max_size=60))
    @settings(max_examples=120, deadline=None)
    def test_flow_mixed_traffic_on_merged_graph(self, frames):
        fast, slow = _engine_pair(_merged_graph())
        _assert_equivalent(fast, slow, frames)

    @given(st.lists(st.sampled_from(_FLOW_POOL), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_flow_mixed_traffic_on_vlan_metadata_graph(self, frames):
        fast, slow = _engine_pair(_vlan_metadata_graph())
        _assert_equivalent(fast, slow, frames)

    @given(st.lists(st.binary(max_size=200), min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_hostile_blobs_twice_each(self, blobs):
        # Each blob injected twice so any (mistakenly) installed entry
        # for a hostile frame would be replayed and caught.
        fast, slow = _engine_pair(_merged_graph())
        _assert_equivalent(fast, slow, [blob for blob in blobs for _ in range(2)])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_mutated_real_frames(self, seed):
        rng = random.Random(seed)
        base = bytearray(make_tcp_packet(
            "10.1.2.3", "192.168.0.9", 1234,
            rng.choice([22, 23, 80, 443, 9999]),
            payload=b"GET /attack HTTP/1.1\r\nHost: x\r\n\r\n",
        ).data)
        for _ in range(rng.randrange(1, 12)):
            base[rng.randrange(len(base))] = rng.randrange(256)
        frame = bytes(base[: rng.randrange(1, len(base) + 1)])
        fast, slow = _engine_pair(_merged_graph())
        _assert_equivalent(fast, slow, [frame, frame, frame])

    def test_cache_actually_warms_on_repeats(self):
        """Soundness alone is not enough: repeats of a clean flow must hit."""
        fast, slow = _engine_pair(_merged_graph())
        frame = make_tcp_packet("44.0.0.1", "192.168.0.9", 9999, 12345).data
        _assert_equivalent(fast, slow, [frame] * 10)
        assert fast.flow_cache.misses == 1
        assert fast.flow_cache.hits == 9

    def test_payload_dependent_flow_stays_uncached(self):
        """A flow that traverses a RegexClassifier installs only a
        negative entry — later packets of the flow run the slow path."""
        fast, slow = _engine_pair(_merged_graph())
        clean = make_tcp_packet("44.0.0.1", "192.168.0.9", 5, 80,
                                payload=b"GET / HTTP/1.1").data
        bad = make_tcp_packet("44.0.0.1", "192.168.0.9", 5, 80,
                              payload=b"launch the attack").data
        _assert_equivalent(fast, slow, [clean, bad, clean, bad])
        assert fast.flow_cache.hits == 0
        assert fast.flow_cache.uncacheable_hits == 3

    def test_block_config_cannot_make_a_dpi_block_cacheable(self):
        """``"cacheable": true`` in a RegexClassifier's config is not an
        override: replaying its verdict would miss the attack payload."""
        graph = _merged_graph()
        regexes = [b for b in graph.blocks.values() if b.type == "RegexClassifier"]
        assert regexes
        for block in regexes:
            block.config["cacheable"] = True
        fast, slow = _engine_pair(graph)
        clean = make_tcp_packet("44.0.0.1", "192.168.0.9", 5, 80,
                                payload=b"GET / HTTP/1.1").data
        bad = make_tcp_packet("44.0.0.1", "192.168.0.9", 5, 80,
                              payload=b"launch the attack").data
        _assert_equivalent(fast, slow, [clean, bad, clean, bad])
        assert fast.flow_cache.hits == 0
        assert fast.flow_cache.uncacheable_hits == 3

    def test_non_ip_frames_bypass_the_cache(self):
        fast, slow = _engine_pair(_merged_graph())
        _assert_equivalent(fast, slow, [b"\x00" * 14] * 3)
        assert fast.flow_cache.bypassed == 3
        assert len(fast.flow_cache) == 0


# ----------------------------------------------------------------------
# Stateful (conntrack) equivalence: cached decisions must stay
# byte-identical to the slow path across state transitions.
# ----------------------------------------------------------------------
from repro.net.tcp import TcpFlags  # noqa: E402

from tests.conftest import build_conntrack_graph  # noqa: E402


def _ct(src, dst, sport, dport, flags, payload=b""):
    return make_tcp_packet(src, dst, sport, dport,
                           flags=flags, payload=payload).data


def _ct_flow_frames(sport: int) -> list[bytes]:
    c, s = "10.0.0.1", "192.168.0.9"
    return [
        _ct(c, s, sport, 80, TcpFlags.SYN),
        _ct(s, c, 80, sport, TcpFlags.SYN | TcpFlags.ACK),
        _ct(c, s, sport, 80, TcpFlags.ACK),
        _ct(c, s, sport, 80, TcpFlags.ACK | TcpFlags.PSH, b"data-up"),
        _ct(s, c, 80, sport, TcpFlags.ACK | TcpFlags.PSH, b"data-down"),
        _ct(c, s, sport, 80, TcpFlags.FIN | TcpFlags.ACK),
        _ct(s, c, 80, sport, TcpFlags.FIN | TcpFlags.ACK),
        _ct(c, s, sport, 80, TcpFlags.RST),
    ]


#: Three interleavable connections plus UDP and stray/invalid frames:
#: random subsequences exercise every state-machine edge, including
#: packets that arrive "too early" or after teardown.
_CT_POOL: list[bytes] = (
    _ct_flow_frames(4001) + _ct_flow_frames(4002) + _ct_flow_frames(4003)
    + [
        make_udp_packet("10.0.0.1", "192.168.0.9", 5353, 53).data,
        make_udp_packet("192.168.0.9", "10.0.0.1", 53, 5353).data,
        _ct("10.9.9.9", "192.168.0.9", 777, 80, TcpFlags.ACK | TcpFlags.PSH),
        _ct("10.0.0.1", "192.168.0.9", 4001, 80, TcpFlags.SYN | TcpFlags.FIN),
    ]
)


class TestConntrackEquivalence:
    """The stateful-firewall fast path is behaviour-preserving.

    The oracle engine runs the same Conntrack graph with the cache
    disabled on its own private state table; any divergence — a stale
    verdict replayed after a FIN, a missed transition on the fast path,
    a count that drifted — fails the property.
    """

    @given(st.lists(st.sampled_from(_CT_POOL), min_size=1, max_size=80))
    @settings(max_examples=120, deadline=None)
    def test_stateful_traffic_equivalence(self, frames):
        fast, slow = _engine_pair(build_conntrack_graph())
        _assert_equivalent(fast, slow, frames)
        tracked, oracle = fast.elements["ct_track"], slow.elements["ct_track"]
        assert tracked.state_counts == oracle.state_counts
        assert tracked.transitions == oracle.transitions
        assert tracked.invalid_dropped == oracle.invalid_dropped
        assert tracked.state_drops == oracle.state_drops

    def test_transition_invalidates_before_any_replay(self):
        """A FIN after a cached steady-state verdict must not replay the
        old PASS on the closing sequence's successors."""
        fast, slow = _engine_pair(build_conntrack_graph())
        frames = _ct_flow_frames(5001)
        # establish + one data packet (installs the cached verdict),
        # replay once, then tear down and send late data.
        sequence = frames[:4] + [frames[3], frames[5], frames[6], frames[3]]
        _assert_equivalent(fast, slow, sequence)
        assert fast.flow_cache.hits >= 1
        assert fast.flow_cache.flow_invalidations >= 1
