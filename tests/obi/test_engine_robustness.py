"""Fault containment, quarantine, and degradation in the engine.

A crashing element must never unwind the traversal: the packet is
handled per the configured policy, the error lands on the outcome, and
an element that keeps failing is quarantined (circuit breaker) with its
offending packets retained as bounded poison digests.
"""

import pytest

from repro.core.blocks import Block
from repro.core.graph import ProcessingGraph
from repro.net.builder import make_tcp_packet
from repro.obi.engine import Element, Engine, EngineContext
from repro.obi.robustness import CircuitBreaker, EngineRobustness, FaultPolicy
from repro.obi.storage import SessionStorage
from repro.obi.translation import ElementFactory, build_engine
from tests.conftest import FakeClock


class FaultyElement(Element):
    """Pass-through that raises while ``config['fail']`` is truthy."""

    def process(self, packet):
        if self.config.get("fail"):
            raise RuntimeError("element exploded")
        return [(0, packet)]


def build_faulty_engine(policy: FaultPolicy, clock: FakeClock, fail: bool = True,
                        degradable: bool = False):
    graph = ProcessingGraph("faulty")
    read = Block("FromDevice", name="read", config={"devname": "in"})
    boom = Block("HeaderPayloadRewriter", name="boom",
                 config={"fail": fail, "degradable": degradable},
                 origin_app="app")
    out = Block("ToDevice", name="out", config={"devname": "out"})
    graph.add_blocks([read, boom, out])
    graph.connect(read, boom)
    graph.connect(boom, out)
    factory = ElementFactory()
    factory.register_custom("HeaderPayloadRewriter", FaultyElement)
    robustness = EngineRobustness(policy, clock=clock)
    engine = build_engine(graph, factory=factory, clock=clock,
                          robustness=robustness)
    return engine, robustness


def packet():
    return make_tcp_packet("44.0.0.1", "192.168.0.9", 5, 80, payload=b"x")


class TestContainmentPolicies:
    def test_drop_policy_contains_and_drops(self):
        clock = FakeClock()
        engine, guard = build_faulty_engine(FaultPolicy(error_policy="drop"), clock)
        outcome = engine.process(packet())
        assert outcome.dropped and not outcome.outputs
        assert [event.block for event in outcome.errors] == ["boom"]
        assert outcome.errors[0].policy == "drop"
        assert outcome.errors[0].origin_app == "app"
        assert "RuntimeError" in outcome.errors[0].error
        assert guard.errors_total == 1
        # The element ran (and crashed), so it counted and is on the path.
        assert outcome.path == ["read", "boom"]

    def test_bypass_policy_passes_through_port_zero(self):
        clock = FakeClock()
        engine, _guard = build_faulty_engine(FaultPolicy(error_policy="bypass"), clock)
        outcome = engine.process(packet())
        assert not outcome.dropped
        assert [dev for dev, _p in outcome.outputs] == ["out"]
        assert outcome.errors[0].policy == "bypass"

    def test_punt_policy_marks_punted(self):
        clock = FakeClock()
        engine, _guard = build_faulty_engine(FaultPolicy(error_policy="punt"), clock)
        outcome = engine.process(packet())
        assert outcome.punted and not outcome.outputs

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            FaultPolicy(error_policy="explode")

    def test_no_guard_restores_fail_fast(self):
        clock = FakeClock()
        graph = ProcessingGraph("faulty")
        read = Block("FromDevice", name="read", config={"devname": "in"})
        boom = Block("HeaderPayloadRewriter", name="boom", config={"fail": True})
        graph.add_blocks([read, boom])
        graph.connect(read, boom)
        factory = ElementFactory()
        factory.register_custom("HeaderPayloadRewriter", FaultyElement)
        engine = build_engine(graph, factory=factory, clock=clock, robustness=None)
        with pytest.raises(RuntimeError):
            engine.process(packet())

    def test_effects_key_unchanged_by_errors(self):
        """Errors are diagnostics: the effects key only reflects the
        observable consequence (here: dropped), keeping merge-equivalence
        comparisons valid."""
        clock = FakeClock()
        engine, _guard = build_faulty_engine(FaultPolicy(error_policy="drop"), clock)
        outcome = engine.process(packet())
        assert outcome.effects_key() == ((), True, False, (), ())


class TestQuarantine:
    def test_breaker_opens_at_threshold(self):
        clock = FakeClock()
        policy = FaultPolicy(quarantine_threshold=3, quarantine_cooldown=30.0)
        engine, guard = build_faulty_engine(policy, clock)
        for _ in range(3):
            engine.process(packet())
            clock.advance(1.0)
        assert guard.quarantined_blocks() == ["boom"]
        assert guard.drain_newly_quarantined() == ["boom"]
        assert guard.drain_newly_quarantined() == []

    def test_quarantined_element_is_skipped(self):
        clock = FakeClock()
        policy = FaultPolicy(quarantine_threshold=2, quarantine_cooldown=30.0)
        engine, guard = build_faulty_engine(policy, clock)
        for _ in range(2):
            engine.process(packet())
            clock.advance(1.0)
        ran_before = engine.element("boom").count
        outcome = engine.process(packet())
        # Contained without running: not on the path, count unchanged.
        assert engine.element("boom").count == ran_before
        assert "boom" not in outcome.path
        assert outcome.dropped
        assert not outcome.errors  # no new error: the element never ran
        assert guard.quarantine_hits == 1

    def test_half_open_probe_heals(self):
        clock = FakeClock()
        policy = FaultPolicy(quarantine_threshold=2, quarantine_cooldown=10.0)
        engine, guard = build_faulty_engine(policy, clock)
        for _ in range(2):
            engine.process(packet())
            clock.advance(1.0)
        assert guard.quarantined_blocks() == ["boom"]
        engine.element("boom").config["fail"] = False
        clock.advance(10.0)
        outcome = engine.process(packet())  # the probe
        assert [dev for dev, _p in outcome.outputs] == ["out"]
        assert guard.quarantined_blocks() == []

    def test_failed_probe_restarts_cooldown(self):
        clock = FakeClock()
        policy = FaultPolicy(quarantine_threshold=2, quarantine_cooldown=10.0)
        engine, guard = build_faulty_engine(policy, clock)
        for _ in range(2):
            engine.process(packet())
            clock.advance(1.0)
        clock.advance(10.0)
        engine.process(packet())  # probe fails
        assert guard.quarantined_blocks() == ["boom"]
        clock.advance(5.0)  # half the restarted cooldown: still blocked
        before = engine.element("boom").count
        engine.process(packet())
        assert engine.element("boom").count == before

    def test_poison_quarantine_is_bounded(self):
        clock = FakeClock()
        policy = FaultPolicy(quarantine_threshold=100, poison_quarantine_size=2)
        engine, guard = build_faulty_engine(policy, clock)
        for _ in range(5):
            engine.process(packet())
        digests = guard.poison_digests()
        assert len(digests) == 2
        assert all(entry["block"] == "boom" for entry in digests)
        assert all("RuntimeError" in entry["error"] for entry in digests)

    def test_breaker_window_expires_old_errors(self):
        breaker = CircuitBreaker(threshold=3, window=10.0, cooldown=5.0)
        assert not breaker.record_error(0.0)
        assert not breaker.record_error(1.0)
        # The first two errors age out of the window before the third.
        assert not breaker.record_error(20.0)
        assert breaker.state == "closed"


class TestDegradedBypass:
    def test_degradable_block_bypassed_when_degraded(self):
        clock = FakeClock()
        engine, guard = build_faulty_engine(
            FaultPolicy(), clock, fail=True, degradable=True
        )
        guard.degraded = True
        outcome = engine.process(packet())
        # Bypassed entirely: never ran (so never crashed), pass-through.
        assert [dev for dev, _p in outcome.outputs] == ["out"]
        assert not outcome.errors
        assert engine.element("boom").count == 0
        assert guard.degraded_bypasses == 1

    def test_non_degradable_block_still_runs(self):
        clock = FakeClock()
        engine, guard = build_faulty_engine(
            FaultPolicy(), clock, fail=True, degradable=False
        )
        guard.degraded = True
        outcome = engine.process(packet())
        assert outcome.errors  # ran and was contained


class TestEntryResolution:
    def test_engine_rejects_missing_entry_without_counting(self):
        """Regression: a graph whose entry point has no element must fail
        fast in process() *without* inflating the packet counters."""
        graph = ProcessingGraph("broken")
        read = Block("FromDevice", name="read", config={"devname": "in"})
        out = Block("ToDevice", name="out", config={"devname": "out"})
        graph.add_blocks([read, out])
        graph.connect(read, out)
        reference = build_engine(graph)
        elements = dict(reference.elements)
        del elements["read"]
        engine = Engine(
            graph=graph,
            elements=elements,
            context=EngineContext(clock=FakeClock(), session=SessionStorage()),
        )
        assert not engine.entry_resolved
        with pytest.raises(KeyError):
            engine.process(packet())
        assert engine.packets_processed == 0
        assert engine.bytes_processed == 0


class TestFastPathQuarantineInvalidation:
    """Breaker transitions and the flow-decision cache (see fastpath.py):
    every open / first-half-open-probe / close flushes the cache, and the
    fast path is disabled outright while any breaker is non-closed — a
    stale entry must never route a packet around an opened breaker."""

    def _open_breaker(self, engine, guard, clock, errors=2):
        engine.element("boom").config["fail"] = True
        for _ in range(errors):
            engine.process(packet())
            clock.advance(1.0)
        assert guard.quarantined_blocks() == ["boom"]

    def test_breaker_open_flushes_and_blocks_fastpath(self):
        clock = FakeClock()
        policy = FaultPolicy(quarantine_threshold=2, quarantine_cooldown=10.0)
        engine, guard = build_faulty_engine(policy, clock, fail=False)
        cache = engine.flow_cache
        engine.process(packet())
        engine.process(packet())
        assert cache.hits == 1 and len(cache) == 1
        assert not guard.fastpath_blocked
        self._open_breaker(engine, guard, clock)
        assert guard.fastpath_blocked
        assert len(cache) == 0
        assert ("quarantine-open", 1) in cache.flush_log
        # While open, packets skip the cache entirely.
        hits_before, bypassed_before = cache.hits, cache.bypassed
        engine.process(packet())
        assert cache.hits == hits_before
        assert cache.bypassed == bypassed_before + 1

    def test_stale_entry_never_bypasses_open_breaker(self):
        from repro.obi.fastpath import FlowDecision, flow_key

        clock = FakeClock()
        policy = FaultPolicy(quarantine_threshold=2, quarantine_cooldown=10.0)
        engine, guard = build_faulty_engine(policy, clock, fail=False)
        engine.process(packet())  # warm a (positive) entry
        self._open_breaker(engine, guard, clock)
        # Simulate a missed flush: hand-install a stale decision that
        # would route the packet straight through the quarantined block.
        engine.flow_cache.install(flow_key(packet()), FlowDecision({}))
        before = engine.element("boom").count
        hits_before = engine.flow_cache.hits
        outcome = engine.process(packet())
        assert engine.element("boom").count == before  # never ran
        assert outcome.dropped and not outcome.outputs  # contained
        assert engine.flow_cache.hits == hits_before  # stale entry unused

    def test_half_open_probe_flushes_once_per_cooldown(self):
        clock = FakeClock()
        policy = FaultPolicy(quarantine_threshold=2, quarantine_cooldown=10.0)
        engine, guard = build_faulty_engine(policy, clock, fail=False)
        self._open_breaker(engine, guard, clock)
        cache = engine.flow_cache
        clock.advance(10.0)
        engine.process(packet())  # failed probe: cooldown restarts
        reasons = [reason for reason, _n in cache.flush_log]
        assert reasons.count("quarantine-half-open") == 1
        clock.advance(10.0)
        engine.process(packet())  # second probe, second flush
        reasons = [reason for reason, _n in cache.flush_log]
        assert reasons.count("quarantine-half-open") == 2

    def test_breaker_close_flushes_and_reenables_fastpath(self):
        clock = FakeClock()
        policy = FaultPolicy(quarantine_threshold=2, quarantine_cooldown=10.0)
        engine, guard = build_faulty_engine(policy, clock, fail=False)
        cache = engine.flow_cache
        self._open_breaker(engine, guard, clock)
        engine.element("boom").config["fail"] = False
        clock.advance(10.0)
        outcome = engine.process(packet())  # successful probe heals
        assert [dev for dev, _p in outcome.outputs] == ["out"]
        assert guard.quarantined_blocks() == []
        assert not guard.fastpath_blocked
        assert [reason for reason, _n in cache.flush_log][-1] == "quarantine-close"
        # Healed: the flow caches and replays again.
        hits_before = cache.hits
        engine.process(packet())
        engine.process(packet())
        assert cache.hits == hits_before + 1

    def test_degraded_mode_blocks_fastpath(self):
        clock = FakeClock()
        engine, guard = build_faulty_engine(FaultPolicy(), clock, fail=False,
                                            degradable=True)
        cache = engine.flow_cache
        engine.process(packet())
        engine.process(packet())
        assert cache.hits == 1
        guard.degraded = True
        assert guard.fastpath_blocked
        engine.process(packet())
        # Degraded traversals bypass degradable blocks, so neither replay
        # nor recording is sound while the flag is up.
        assert cache.hits == 1
        assert cache.bypassed == 1
        guard.degraded = False
        engine.process(packet())
        assert cache.hits == 2
