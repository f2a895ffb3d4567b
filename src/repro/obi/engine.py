"""The OBI execution engine — a push-based element engine (Click analog).

The paper's OBI wraps the Click modular router; this module is the
Python equivalent. A :class:`ProcessingGraph` is translated into a wired
set of :class:`Element` instances (one per block) and packets are pushed
through the wiring. The OpenBox protocol deliberately hides Click's
push/pull distinction (paper §2.1), so everything here is push.

For every injected packet the engine records a :class:`PacketOutcome`:
which output devices received which packets, whether it was dropped, the
side effects raised (alerts/logs), and the block path traversed — the
path is what the simulator's cost model consumes to compute latency and
throughput, since "the number of blocks in the graph has no effect on
OBI performance. The significant parameter is the length of paths".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.graph import ProcessingGraph
from repro.net.packet import Packet, format_summary, safe_summary
from repro.obi.fastpath import DecisionRecorder, flow_key
from repro.obi.storage import SessionStorage
from repro.observability.metrics import SIZE_BUCKETS


class _Record:
    """Dataclass-style ``==`` and ``repr`` over ``_fields``, for the
    records made per packet and per alert (slots and a plain ``__init__``
    instead of dataclass machinery)."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"


class LogEvent(_Record):
    """A Log block fired while processing a packet.

    ``packet_summary`` is given as text or as the tuple
    ``Packet.summary_fields()`` captured when the block ran, formatted on
    read: an event nobody reads (an alert coalesced away) never pays for
    text, and a downstream rewrite cannot change what the block saw.
    """

    __slots__ = ("block", "origin_app", "message", "_summary")
    _fields = ("block", "origin_app", "message", "packet_summary")

    def __init__(
        self, block: str, origin_app: str | None, message: str,
        packet_summary: str | tuple[int, ...],
    ) -> None:
        self.block = block
        self.origin_app = origin_app
        self.message = message
        self._summary = packet_summary

    @property
    def packet_summary(self) -> str:
        return format_summary(self._summary)


class AlertEvent(LogEvent):
    """An Alert block fired while processing a packet: what a log event
    carries, plus a severity."""

    __slots__ = ("severity",)
    _fields = ("block", "origin_app", "message", "severity", "packet_summary")

    def __init__(
        self, block: str, origin_app: str | None, message: str, severity: str,
        packet_summary: str | tuple[int, ...],
    ) -> None:
        self.block = block
        self.origin_app = origin_app
        self.message = message
        self.severity = severity
        self._summary = packet_summary


@dataclass
class ErrorEvent:
    """An element raised while processing a packet (contained fault)."""

    block: str
    origin_app: str | None
    error: str
    #: Containment applied: ``drop`` | ``bypass`` | ``punt``.
    policy: str
    packet_summary: str


class PacketOutcome(_Record):
    """Everything that happened to one injected packet.

    ``shed``: refused by the OBI's admission gate before reaching the
    graph. ``errors``: contained element faults (diagnostics; the
    externally observable consequence — drop/bypass/punt — is reflected
    in the other fields).
    """

    __slots__ = _fields = (
        "outputs", "dropped", "punted", "shed", "alerts", "logs", "errors", "path",
    )

    def __init__(
        self, dropped: bool = False, punted: bool = False, shed: bool = False
    ) -> None:
        self.outputs: list[tuple[str, Packet]] = []
        self.dropped = dropped
        self.punted = punted
        self.shed = shed
        self.alerts: list[AlertEvent] = []
        self.logs: list[LogEvent] = []
        self.errors: list[ErrorEvent] = []
        self.path: list[str] = []

    @property
    def forwarded(self) -> bool:
        return bool(self.outputs)

    def effects_key(self) -> tuple:
        """Canonical view of externally observable behaviour.

        Used by equivalence tests: two graph executions are equivalent iff
        their effects keys match (outputs with bytes, drop/punt status,
        and the multiset of alerts/logs with origins).
        """
        outputs = sorted((dev, bytes(pkt.data)) for dev, pkt in self.outputs)
        alerts = sorted(
            (event.origin_app or "", event.message, event.severity)
            for event in self.alerts
        )
        logs = sorted((event.origin_app or "", event.message) for event in self.logs)
        return (tuple(outputs), self.dropped, self.punted, tuple(alerts), tuple(logs))


@dataclass
class EngineContext:
    """Shared services available to elements while processing.

    ``now`` is the engine clock (simulated time may be injected by the
    network simulator); ``session`` is the OBI-wide session storage;
    the sinks collect side effects into the current PacketOutcome.
    """

    clock: Callable[[], float]
    session: SessionStorage
    log_service: Any = None
    storage_service: Any = None
    current: PacketOutcome | None = None
    #: Fault-containment layer (:class:`repro.obi.robustness.EngineRobustness`);
    #: None disables containment and restores fail-fast traversal.
    robustness: Any = None
    #: Fast-path state for the packet in flight (set by Engine.process):
    #: the cached element-name -> port map being replayed, or the
    #: :class:`~repro.obi.fastpath.DecisionRecorder` building one.
    decisions: dict[str, int] | None = None
    recorder: Any = None
    #: Active :class:`~repro.observability.tracing.PacketTrace` for the
    #: packet in flight; None (the overwhelmingly common case) means the
    #: traversal pays one None-check per element visit and nothing else.
    trace: Any = None

    @property
    def now(self) -> float:
        return self.clock()


class Element:
    """Base class for engine elements (one per processing block).

    Subclasses implement :meth:`process`, returning a list of
    ``(output_port, packet)`` pairs; the engine pushes each pair to the
    wired successor. Returning an empty list absorbs the packet.
    """

    #: May a visit to this element be part of a cached flow decision?
    #: False poisons the flow (no positive cache entry is installed).
    #: Built-in types declare it once, on their block-type spec; a
    #: custom element class may also set False. Resolved per instance
    #: by the translation layer (class AND block-type spec).
    cacheable: bool = True
    #: True for classifiers whose routing decision is a pure function
    #: of the flow key: the fast path records their decision once and
    #: replays it (via :meth:`replay_decision`) for later packets of
    #: the flow, skipping the match computation.
    caches_decision: bool = False
    #: Fixed by :meth:`attach`: ``caches_decision and cacheable``, and
    #: that minus ``records_own_decision`` (single emissions recorded).
    replayable: bool = False
    auto_record: bool = False
    #: Set by MetadataClassifier elements to the metadata key they
    #: route on; the engine folds these into the flow key (the
    #: "metadata scope" of the deployed graph).
    metadata_key: str | None = None
    #: True for stateful classifiers (conntrack) that decide for
    #: themselves when a decision is safe to record — the engine's
    #: automatic single-emission recording is skipped, and the element
    #: calls ``context.recorder.record(...)`` in the states where its
    #: verdict really is a pure function of flow key + flow state (and
    #: declares that state via ``recorder.note_flow_state``).
    records_own_decision: bool = False
    #: Write handles that cannot change routing decisions: a write to
    #: one skips the whole-cache invalidation in Engine.write_handle.
    #: Subclasses extend this only for handles that are provably
    #: routing-neutral (counter resets, flushes whose state changes
    #: already invalidate per flow).
    ROUTING_NEUTRAL_HANDLES: frozenset[str] = frozenset({"reset_counts"})

    def __init__(self, name: str, config: dict[str, Any], origin_app: str | None = None) -> None:
        self.name = name
        self.config = config
        self.origin_app = origin_app
        self.count = 0
        self.byte_count = 0
        self._outputs: dict[int, "Element"] = {}
        self.context: EngineContext | None = None

    def wire(self, port: int, successor: "Element") -> None:
        if port in self._outputs:
            raise ValueError(f"element {self.name} port {port} already wired")
        self._outputs[port] = successor

    def attach(self, context: EngineContext) -> None:
        """Bind the engine's context. ``cacheable`` is final by now (the
        translation layer resolves it first), so replay eligibility is
        fixed here, not re-derived per hop."""
        self.context = context
        self.replayable = self.caches_decision and self.cacheable
        self.auto_record = self.replayable and not self.records_own_decision

    def push(self, packet: Packet) -> None:
        """Run ``packet`` through this element and everything downstream.

        Traversal is an explicit depth-first stack (not recursion), so
        arbitrarily deep processing graphs execute safely; the visiting
        order matches Click's immediate push semantics. The context all
        wired elements share is read once per push, not once per hop.
        """
        context = self.context
        outcome = decisions = recorder = guard = trace = path = breakers = None
        degraded = False
        if context is not None:
            outcome, decisions = context.current, context.decisions
            recorder, trace = context.recorder, context.trace
            guard = context.robustness
            if outcome is not None:
                path = outcome.path
            if guard is not None:
                # Degraded mode changes at ingress only; breakers appear
                # mid-traversal (contain() creates them), so the dict is
                # held and its emptiness re-tested on every hop.
                degraded, breakers = guard.degraded, guard.breakers
        stack: list[tuple["Element", Packet, int]] = [(self, packet, -1)]
        while stack:
            element, current, parent = stack.pop()
            # Fast path: a decision-cached classifier replays the port
            # recorded for the flow instead of matching. Every other
            # element runs normally, so data-dependent effects — and
            # handle-visible state: count, byte_count, path, the
            # classifier's tallies via replay_decision — match a slow run.
            port = None
            if decisions is not None and element.replayable:
                port = decisions.get(element.name)
            # Quarantine or overload-degraded bypass; with no breaker
            # and no degradation intercept() has nothing to decide.
            contained = span = None
            if port is None and (degraded or breakers):
                contained = guard.intercept(element, current, outcome)
            if trace is not None:
                span = trace.enter(
                    element.name, element.origin_app, parent, context.now
                )
            if contained is not None:
                # The element did not process anything: it neither
                # counts the packet nor appears on the path. The detour
                # is transient state, not a property of the flow, so no
                # decision recorded around one is ever installed.
                emissions = contained
                if recorder is not None:
                    recorder.poison()
                if span is not None:
                    span.event = (
                        "degraded-bypass"
                        if degraded and element.config.get("degradable")
                        else "quarantine-bypass"
                    )
            else:
                element.count += 1
                element.byte_count += len(current.data)
                if path is not None:
                    path.append(element.name)
                if port is not None:
                    element.replay_decision(port, current)
                    emissions = ((port, current),)
                    if span is not None:
                        span.replayed = trace.fastpath = True
                elif guard is None:
                    emissions = element.process(current)
                else:
                    try:
                        emissions = element.process(current)
                    except Exception as exc:  # noqa: BLE001 — containment boundary
                        if recorder is not None:
                            recorder.poison()
                        emissions = guard.contain(element, current, exc, outcome)
                        if span is not None:
                            span.event = f"fault:{guard.policy.error_policy}"
                    else:
                        if breakers:  # only a breaker can need healing
                            guard.on_success(element)
                if span is not None:
                    span.exit = context.now
                if recorder is not None:
                    if not element.cacheable:
                        recorder.poison()
                    elif element.auto_record and len(emissions) == 1:
                        recorder.record(element.name, emissions[0][0])
            if span is not None:
                span.ports.extend(port for port, _ in emissions)
                parent = span.index
            # Reversed so the first emission is processed first (DFS).
            # An unwired port absorbs the packet — matching a processing
            # graph with a dangling classifier outcome.
            for port, out_packet in reversed(emissions):
                successor = element._outputs.get(port)
                if successor is not None:
                    stack.append((successor, out_packet, parent))

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        """Transform/route ``packet``; default is pass-through on port 0."""
        return [(0, packet)]

    def replay_decision(self, port: int, packet: Packet) -> None:
        """Restore per-decision bookkeeping when the fast path skips
        :meth:`process` (e.g. a classifier's match_counts); count,
        byte_count, and the outcome path are handled by the engine."""

    # ------------------------------------------------------------------
    # Handles (paper §3.2)
    # ------------------------------------------------------------------
    def read_handle(self, name: str) -> Any:
        if name == "count":
            return self.count
        if name == "byte_count":
            return self.byte_count
        raise KeyError(f"element {self.name} has no read handle {name!r}")

    def write_handle(self, name: str, value: Any) -> None:
        if name == "reset_counts":
            self.count = 0
            self.byte_count = 0
            return
        raise KeyError(f"element {self.name} has no write handle {name!r}")


#: Registry counter -> the Engine attribute it mirrors at export time.
_MIRRORED = (
    ("engine_packets_total", "packets_processed"),
    ("engine_dropped_total", "dropped_total"),
    ("engine_punted_total", "punted_total"),
    ("engine_alerts_total", "alerts_total"),
    ("engine_element_faults_total", "faults_total"),
)


class Engine:
    """A wired element pipeline executing one processing graph."""

    def __init__(
        self,
        graph: ProcessingGraph,
        elements: dict[str, Element],
        context: EngineContext,
        flow_cache: Any = None,
        tracer: Any = None,
        metrics: Any = None,
    ) -> None:
        """Use :func:`repro.obi.translation.build_engine` to construct."""
        self.graph = graph
        self.elements = elements
        self.context = context
        #: Flow-decision fast path (:mod:`repro.obi.fastpath`); None
        #: disables it and every packet takes the full traversal.
        self.flow_cache = flow_cache
        #: Sampled tracing (:class:`~repro.observability.tracing.PacketTracer`);
        #: None is the hard off-switch.
        self.tracer = tracer
        self.metrics = metrics
        # Hot-path telemetry is plain-int accumulation; export_metrics()
        # mirrors the totals into the registry at snapshot time (same
        # pattern as the flow cache), so per-packet cost is a handful of
        # integer adds whether or not a registry is attached.
        self.dropped_total = 0
        self.punted_total = 0
        self.alerts_total = 0
        self.faults_total = 0
        #: Raw path-length counts (index = path length, clamped); folded
        #: into the SIZE_BUCKETS histogram at export.
        self._path_counts = [0] * 193
        # Export watermarks (attribute -> total mirrored so far): exports
        # are additive, as the registry outlives this engine across deploys.
        self._exported = {attr: 0 for _name, attr in _MIRRORED}
        self._counters: list[tuple[Any, str]] = []
        self._m_path = None
        if metrics is not None:
            self._counters = [(metrics.counter(n), a) for n, a in _MIRRORED]
            self._m_path = metrics.histogram("engine_path_length", SIZE_BUCKETS)
        self._exported_path = [0] * 193
        #: Metadata keys this graph routes on: part of the flow key, so
        #: two packets of one 5-tuple that carry different upstream
        #: classification results never share a cache entry.
        self._metadata_scope = tuple(sorted({
            e.metadata_key for e in elements.values() if e.metadata_key
        }))
        self.entry_name = graph.entry_point()
        # A partially committed graph (e.g. a translation that dropped
        # blocks) may not have an element for the entry point. Tolerate
        # that at construction so the two-phase verify stage can inspect
        # and reject it; process() fails fast without counting anything.
        self._entry = elements.get(self.entry_name)
        for element in elements.values():
            element.attach(context)
        self.packets_processed = 0
        self.bytes_processed = 0

    @property
    def entry_resolved(self) -> bool:
        """True iff the graph's entry point translated into a live element."""
        return self._entry is not None

    def process(self, packet: Packet) -> PacketOutcome:
        """Push one packet through the graph and collect its outcome."""
        if self._entry is None:
            # Refuse *before* touching the counters: a packet that never
            # entered the graph must not inflate packets/bytes_processed.
            raise KeyError(
                f"entry element {self.entry_name!r} missing from engine"
            )
        outcome = PacketOutcome()
        context = self.context
        context.current = outcome
        tracer = self.tracer
        trace = None
        if tracer is not None and tracer.should_sample():
            trace = tracer.begin(safe_summary(packet))
            context.trace = trace
        cache = self.flow_cache
        recorder = None
        if cache is not None:
            guard = context.robustness
            key = None
            if guard is None or not guard.fastpath_blocked:
                key = flow_key(packet, self._metadata_scope)
            if key is None:
                cache.bypassed += 1
            else:
                entry = cache.lookup(key)
                if entry is None:
                    recorder = DecisionRecorder(key)
                    context.recorder = recorder
                elif entry.uncacheable:
                    cache.uncacheable_hits += 1
                else:
                    cache.hits += 1
                    context.decisions = entry.decisions
        try:
            self._entry.push(packet)
        finally:
            context.current = context.decisions = None
            context.recorder = context.trace = None
        if recorder is not None:
            # Reached only when push() completed: a traversal that
            # unwound (robustness disabled) installs nothing. An
            # abandoned recording (the traversal transitioned the flow
            # state it read) installs nothing either — the next packet
            # records afresh against the settled state.
            cache.misses += 1
            if not recorder.abandoned:
                cache.install(recorder.key, recorder.finish())
        if trace is not None:
            tracer.finish(trace, outcome)
        self.packets_processed += 1
        self.bytes_processed += len(packet.data)
        if outcome.dropped:
            self.dropped_total += 1
        if outcome.punted:
            self.punted_total += 1
        if outcome.alerts:
            self.alerts_total += len(outcome.alerts)
        if outcome.errors:
            self.faults_total += len(outcome.errors)
        length = len(outcome.path)
        self._path_counts[length if length < 192 else 192] += 1
        return outcome

    def export_metrics(self) -> None:
        """Mirror accumulated telemetry into the metrics registry.

        Additive and idempotent: only the delta since the previous export
        is applied, so the registry keeps accumulating across graph
        redeployments (each deploy builds a fresh engine against the same
        OBI-owned registry). No-op without a registry.
        """
        if self._m_path is None:
            return
        for counter, attr in self._counters:
            total = getattr(self, attr)
            counter.inc(total - self._exported[attr])
            self._exported[attr] = total
        exported = self._exported_path
        for length, count in enumerate(self._path_counts):
            if count != exported[length]:
                self._m_path.observe(length, count - exported[length])
                exported[length] = count

    def element(self, name: str) -> Element:
        try:
            return self.elements[name]
        except KeyError:
            raise KeyError(f"no element named {name!r} in engine") from None

    def read_handle(self, block: str, handle: str) -> Any:
        return self.element(block).read_handle(handle)

    def write_handle(self, block: str, handle: str, value: Any) -> None:
        element = self.element(block)
        element.write_handle(handle, value)
        # Any handle write may change routing (rule replacement, shaper
        # rates): recorded decisions are no longer trustworthy. Handles
        # an element declares routing-neutral (counter resets, state
        # flushes that invalidate per flow) are exempt — they were the
        # dominant source of full-cache invalidation storms.
        if (
            self.flow_cache is not None
            and handle not in element.ROUTING_NEUTRAL_HANDLES
        ):
            self.flow_cache.invalidate_all("write-handle")
