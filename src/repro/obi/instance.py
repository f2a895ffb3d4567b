"""The OpenBox service instance (OBI) wrapper.

This is the Python "generic wrapper" of paper §4.2: it speaks the
OpenBox protocol with the controller, translates deployed graphs onto
the execution engine, forwards alerts upstream, answers handle reads and
writes, reports load, and accepts custom modules.

The paper's Click engine has a hard-coded 1000 ms polling delay during
reconfiguration, which dominates its measured ``SetProcessingGraph``
round-trip of 1285 ms (Table 3, footnote 4). That delay is reproduced as
``ObiConfig.reconfigure_poll_delay`` — 0 by default (tests), 1.0 s in the
Table 3 benchmark.
"""

from __future__ import annotations

import collections
import operator
import threading
import time
from dataclasses import dataclass, field as dataclasses_field
from typing import Any, Callable, ClassVar, Sequence

from repro.core.graph import (
    GraphValidationError,
    ProcessingGraph,
    canonical_graph_digest,
)
from repro.net.packet import Packet, format_summary, safe_summary
from repro.obi.custom import CustomModuleLoader
from repro.obi.engine import AlertEvent, Engine, PacketOutcome
from repro.obi.fastpath import DEFAULT_FLOW_CACHE_SIZE, FlowDecisionCache
from repro.obi.flowstate import (
    FlowStateCheckpointer,
    FlowStatePolicy,
    load_checkpoint,
)
from repro.obi.headless import HeadlessBuffer
from repro.obi.robustness import (
    AdmissionGate,
    AlertBatcher,
    EngineRobustness,
    FaultPolicy,
    OverloadPolicy,
)
from repro.obi.services import LogService, PacketStorageService
from repro.obi.storage import SessionStorage
from repro.obi.translation import ElementFactory, build_engine
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import PacketTracer
from repro.protocol.blocks_spec import OBI_PSEUDO_BLOCK
from repro.protocol.codec import PROTOCOL_VERSION
from repro.protocol.dispatch import Handlers, ResponseCache, serve
from repro.transport.base import ChannelClosed
from repro.protocol.errors import ErrorCode, ProtocolError
from repro.protocol.messages import (
    AddCustomModuleRequest,
    AddCustomModuleResponse,
    Alert,
    BarrierRequest,
    BarrierResponse,
    ErrorMessage,
    PacketHistoryRequest,
    PacketHistoryResponse,
    GlobalStatsRequest,
    GlobalStatsResponse,
    Hello,
    HelloResponse,
    KeepAlive,
    LeaseAnnounce,
    ListCapabilitiesRequest,
    ListCapabilitiesResponse,
    Message,
    ObservabilitySnapshotResponse,
    ReadRequest,
    ReadResponse,
    SetExternalServices,
    SetProcessingGraphRequest,
    SetProcessingGraphResponse,
    StateCheckpointRequest,
    StateCheckpointResponse,
    StateHandoffRequest,
    StateHandoffResponse,
    TelemetryAck,
    TelemetryStream,
    TelemetrySubscribe,
    WriteRequest,
    WriteResponse,
)
from repro.telemetry.publisher import TelemetryPublisher


@dataclass
class ObiConfig:
    """Static configuration of one OBI."""

    obi_id: str
    segment: str = ""
    #: Relative packet-processing capacity (used by the controller's
    #: scaling logic and the simulator's cost model).
    capacity_hint: float = 1.0
    supports_custom_modules: bool = True
    #: Reproduction of Click's hard-coded 1000 ms reconfiguration poll
    #: (paper Table 3 footnote); seconds slept inside SetProcessingGraph.
    reconfigure_poll_delay: float = 0.0
    #: SHA-256 allowlist for custom modules (None = accept all).
    module_checksums: set[str] | None = None
    keepalive_interval: float = 10.0
    session_idle_timeout: float = 60.0
    #: Flow-state exhaustion defense (entry cap, per-source-prefix
    #: budgets, pressure/degradation watermarks, early TTL); None uses
    #: the FlowStatePolicy defaults.
    flow_state: FlowStatePolicy | None = None
    #: Journal path for crash-safe flow-state checkpoints ("" disables
    #: them). On construction the OBI replays the journal's longest
    #: valid prefix, so durable session state survives a SIGKILL.
    state_checkpoint_path: str = ""
    #: Journal fsync batching / snapshot compaction cadence (appends).
    state_checkpoint_fsync_every: int = 8
    state_snapshot_every: int = 256
    #: How many recent per-packet traversal records to retain for the
    #: packet-history debugging facility (paper §6); 0 disables it.
    history_size: int = 256
    #: Data-plane fault containment: per-element error policy, quarantine
    #: thresholds, poison-packet retention (see ``repro.obi.robustness``).
    fault_policy: FaultPolicy = dataclasses_field(default_factory=FaultPolicy)
    #: Overload control: admission token bucket, degradation watermark,
    #: seeded shedding. ``admission_rate`` 0 (the default) disables it.
    overload: OverloadPolicy = dataclasses_field(default_factory=OverloadPolicy)
    #: Per-origin-app upstream alert rate limit (alerts/second); 0 means
    #: unlimited. Refused alerts are counted and summarized.
    alert_rate_limit: float = 0.0
    alert_burst: float = 8.0
    #: Flow-decision fast path: maximum cached flow entries (see
    #: ``repro.obi.fastpath``); 0 disables the cache entirely and every
    #: packet takes the full slow-path traversal.
    flow_cache_size: int = DEFAULT_FLOW_CACHE_SIZE
    #: Per-packet trace sampling (see ``repro.observability.tracing``):
    #: fraction of packets to trace, deterministic 1-in-N. 0 (the
    #: default) is the hard off-switch — no tracer is installed at all
    #: and the engine pays one None-check per element visit.
    trace_sample_rate: float = 0.0
    #: How many recent sampled traces to retain for snapshots.
    trace_buffer: int = 64
    #: Seconds of controller silence before the OBI goes *headless*
    #: (keeps serving traffic on the last committed graph, buffers
    #: upstream events; see ``repro.obi.headless``). 0 disables the
    #: automatic transition entirely.
    headless_after: float = 30.0
    #: Ring-buffer capacity for alerts produced while headless;
    #: overflow evicts the oldest entry and is counted.
    headless_buffer: int = 256
    #: Ordered controller endpoints for re-homing (PROTOCOL.md §12):
    #: tried first-to-last after losing the leader. Refreshed in place
    #: by every ``LeaseAnnounce`` the OBI accepts, so the list tracks
    #: whichever controller currently holds the lease.
    controller_endpoints: list[str] = dataclasses_field(default_factory=list)
    #: Telemetry ring capacity (PROTOCOL.md §13): how many cursored
    #: records (metric deltas, traces, alerts) are retained for replay
    #: across subscriber reconnects; overflow evicts oldest, counted.
    telemetry_buffer: int = 1024


def _optional(part: str, attr: str, default: Any = 0) -> Callable[[Any], Any]:
    """Getter for ``obi.<part>.<attr>``, answering ``default`` while the
    optional component (cache, tracer, checkpointer) is not configured."""
    component = operator.attrgetter(part)

    def get(obi: Any) -> Any:
        owner = component(obi)
        return getattr(owner, attr) if owner is not None else default

    return get


_CACHE, _TRACER, _CHECKPOINT = "flow_cache", "tracer", "session.flow_table.checkpoint"

#: The ``_obi`` pseudo-block (PROTOCOL.md §7): handle name -> getter over
#: the instance. The one list of instance-level observables —
#: :meth:`OpenBoxInstance.read_obi_handle` serves exactly these names,
#: and the tests walk this table against the wire and the docs.
OBI_HANDLES: dict[str, Callable[["OpenBoxInstance"], Any]] = {
    "alerts_sent": lambda obi: obi.alerts_sent,
    "alerts_suppressed": lambda obi: obi._alert_batcher.suppressed_total,
    "errors_total": lambda obi: obi.robustness.errors_total,
    "packets_shed": lambda obi: obi.packets_shed,
    "quarantined_blocks": lambda obi: obi.robustness.quarantined_blocks(),
    "poison_quarantine": lambda obi: obi.robustness.poison_digests(),
    "degraded": lambda obi: obi.robustness.degraded,
    # Flow-decision fast path (PROTOCOL.md §8).
    "fastpath_hits": _optional(_CACHE, "hits"),
    "fastpath_misses": _optional(_CACHE, "misses"),
    "fastpath_uncacheable": _optional(_CACHE, "uncacheable_hits"),
    "fastpath_invalidations": _optional(_CACHE, "invalidations"),
    "fastpath_flow_invalidations": _optional(_CACHE, "flow_invalidations"),
    "fastpath_entries": _optional(_CACHE, "entries"),
    "fastpath_hit_rate": _optional(_CACHE, "hit_rate", 0.0),
    # Trace sampling (PROTOCOL.md §9).
    "trace_seen": _optional(_TRACER, "seen"),
    "trace_sampled": _optional(_TRACER, "sampled"),
    "trace_sample_rate": _optional(_TRACER, "sample_rate", 0.0),
    # Crash recovery / headless mode (PROTOCOL.md §10).
    "headless": lambda obi: obi.is_headless(),
    "headless_entries": lambda obi: len(obi.headless_buffer),
    "headless_dropped": lambda obi: obi.headless_buffer.dropped_total,
    "headless_episodes": lambda obi: obi.headless_episodes,
    "graph_digest": lambda obi: obi.graph_digest,
    "controller_generation": lambda obi: obi.highest_controller_generation,
    "stale_generation_rejections": lambda obi: obi.stale_generation_rejections,
    # Resilient flow state (PROTOCOL.md §11).
    "state_entries": lambda obi: obi.session.flow_count(),
    "state_protected": lambda obi: obi.session.flow_table.protected_count,
    "state_evictions": lambda obi: obi.session.flow_table.evictions,
    "state_eviction_reasons": lambda obi: dict(
        obi.session.flow_table.eviction_reasons
    ),
    "state_drops": lambda obi: obi.session.flow_table.drops,
    "state_drop_reasons": lambda obi: dict(obi.session.flow_table.drop_reasons),
    "state_pressure": lambda obi: obi.session.under_degradation,
    "state_generation": lambda obi: obi.session.state_generation,
    "state_checkpoint_degraded": _optional(_CHECKPOINT, "degraded", False),
    "state_checkpoint_dropped": _optional(_CHECKPOINT, "dropped_records"),
    "state_checkpoint_resumes": _optional(_CHECKPOINT, "resumes"),
    "stale_handoff_rejections": lambda obi: obi.stale_handoff_rejections,
    # Re-homing (PROTOCOL.md §12).
    "rehomes": lambda obi: obi.rehomes,
    "rehome_stale_skipped": lambda obi: obi.rehome_stale_skipped,
    "announced_leader": lambda obi: obi.announced_leader,
    "controller_endpoints": lambda obi: list(obi.config.controller_endpoints),
}


class OpenBoxInstance:
    """A software OBI: protocol endpoint + execution engine."""

    def __init__(
        self,
        config: ObiConfig,
        clock: Callable[[], float] | None = None,
        log_service: LogService | None = None,
        storage_service: PacketStorageService | None = None,
        state_storage: Any = None,
    ) -> None:
        self.config = config
        self.clock = clock or time.monotonic
        self.factory = ElementFactory()
        self.loader = CustomModuleLoader(
            self.factory, allowed_checksums=config.module_checksums
        )
        restored = None
        checkpointer = None
        if config.state_checkpoint_path:
            # Restore-before-open: fold the previous incarnation's
            # journal (tolerating a torn tail) before the checkpointer
            # reopens the file for appending.
            restored = load_checkpoint(config.state_checkpoint_path)
            checkpointer = FlowStateCheckpointer(
                config.state_checkpoint_path,
                fsync_every=config.state_checkpoint_fsync_every,
                snapshot_every=config.state_snapshot_every,
                storage=state_storage,
            )
        self.session = SessionStorage(
            idle_timeout=config.session_idle_timeout,
            policy=config.flow_state,
            checkpoint=checkpointer,
        )
        #: Flow entries recovered from the checkpoint journal at startup.
        self.state_restored = 0
        #: Per-source-OBI generation fence for state handoffs: the
        #: highest state generation already imported from each peer.
        self._handoff_fence: dict[str, int] = {}
        self.stale_handoff_rejections = 0
        # ``is None``, not ``or``: an empty service is falsy (``__len__``).
        self.log_service = LogService() if log_service is None else log_service
        self.storage_service = (
            PacketStorageService() if storage_service is None else storage_service
        )
        self.engine: Engine | None = None
        self.graph: ProcessingGraph | None = None
        self._channel: Any = None
        self._started_at = self.clock()
        self.packets_processed = 0
        self.bytes_processed = 0
        self.alerts_sent = 0
        self.graph_version = 0
        #: Canonical digest of the graph dict last committed (what the
        #: anti-entropy loop compares against controller intent).
        self.graph_digest = ""
        #: Highest controller generation ever obeyed; messages stamped
        #: with a lower one are rejected (split-brain guard).
        self.highest_controller_generation = 0
        self.stale_generation_rejections = 0
        #: Re-homing (PROTOCOL.md §12): endpoints walked, deposed
        #: leaders skipped as stale, successful adoptions, and where
        #: the OBI currently believes the leadership lives.
        self.rehome_attempts = 0
        self.rehome_stale_skipped = 0
        self.rehomes = 0
        self.rehomed_to = ""
        self.lease_announcements = 0
        self.announced_leader = ""
        #: Headless data plane (PROTOCOL.md §10): the last time any
        #: evidence of a live controller arrived, the latched mode flag,
        #: and the bounded replay buffer for upstream events.
        self.last_controller_heard = self.clock()
        self._headless = False
        self.headless_episodes = 0
        self.headless_buffer = HeadlessBuffer(max(config.headless_buffer, 1))
        #: Two-phase SetProcessingGraph bookkeeping: how many staged
        #: graphs were discarded (previous graph kept serving traffic).
        self.graph_rollbacks = 0
        #: Duplicate requests (same xid) answered from the response
        #: cache instead of being re-applied — the receiver half of the
        #: transport's idempotent-retry contract (PROTOCOL.md §6).
        self.duplicate_requests = 0
        self._responses = ResponseCache(256)
        #: Serializes engine swaps against packet processing and handle
        #: access: the REST endpoint is multi-threaded, so a
        #: SetProcessingGraph must never tear the engine out from under
        #: an in-flight packet.
        self._lock = threading.RLock()
        self.history: collections.deque = collections.deque(
            maxlen=max(config.history_size, 0)
        )
        #: Fault containment is owned by the OBI, not the engine, so
        #: breaker state, poison digests, and error counters survive
        #: graph redeployments (quarantine is a property of the
        #: instance's recent history, not of one engine build).
        self.robustness = EngineRobustness(config.fault_policy, clock=self.clock)
        #: The flow-decision cache is owned here for the same reason as
        #: ``robustness``: hit/miss accounting survives redeploys (the
        #: entries themselves are flushed on every graph swap). The
        #: robustness layer holds a reference so breaker transitions
        #: flush it.
        self.flow_cache = (
            FlowDecisionCache(config.flow_cache_size)
            if config.flow_cache_size > 0
            else None
        )
        self.robustness.flow_cache = self.flow_cache
        if self.flow_cache is not None:
            # Per-flow state changes invalidate exactly the affected
            # flow's cached decisions (no whole-cache flush).
            self.session.bind_flow_cache(self.flow_cache)
        if restored is not None and (restored.entries or restored.generation):
            self.state_restored = self.session.restore(
                restored, now=self.clock()
            )
        self._admission = (
            AdmissionGate(config.overload, self.clock)
            if config.overload.admission_rate > 0
            else None
        )
        self._alert_batcher = AlertBatcher(
            config.alert_rate_limit, config.alert_burst, self.clock
        )
        #: Ingress accounting: every packet offered to :meth:`inject`,
        #: whether admitted or shed.
        self.packets_offered = 0
        #: Per-instance metrics registry: owned here (like robustness and
        #: the flow cache) so series survive graph redeployments; the
        #: telemetry stream and ``observability_snapshot()`` serve
        #: exactly this registry.
        self.metrics = MetricsRegistry()
        #: Sampled packet tracing; None when ``trace_sample_rate`` is 0.
        self.tracer = (
            PacketTracer(
                config.trace_sample_rate, config.trace_buffer, clock=self.clock
            )
            if config.trace_sample_rate > 0
            else None
        )
        self._m_offered = self.metrics.counter("obi_packets_offered_total")
        self._m_shed = self.metrics.counter("obi_packets_shed_total")
        self._m_alerts_sent = self.metrics.counter("obi_alerts_sent_total")
        self._m_duplicates = self.metrics.counter("obi_duplicate_requests_total")
        self._m_dispatch = self.metrics.histogram("obi_dispatch_seconds")
        self._m_headless_buffered = self.metrics.counter(
            "obi_headless_buffered_total"
        )
        self._m_headless_dropped = self.metrics.counter(
            "obi_headless_dropped_total"
        )
        self._m_stale_rejected = self.metrics.counter(
            "obi_stale_generation_rejected_total"
        )
        #: Streaming telemetry producer (PROTOCOL.md §13): cursored ring
        #: of metric deltas / traces / alerts pushed to the subscribed
        #: controller. Deliberately NOT mirrored into ``self.metrics`` —
        #: a ring gauge would make every collect see its own append as a
        #: change, so an idle OBI would never go quiet.
        self.telemetry = TelemetryPublisher(
            config.obi_id, max(config.telemetry_buffer, 1)
        )

    # ------------------------------------------------------------------
    # Controller connection
    # ------------------------------------------------------------------
    def attach_channel(self, channel: Any) -> None:
        """Bind the upstream channel and install the downstream handler."""
        self._channel = channel
        channel.set_handler(self.handle_message)

    def set_upstream(self, channel: Any) -> None:
        """Bind an upstream-only channel (downstream handled elsewhere,
        e.g. by the OBI's own REST endpoint in the dual-channel setup)."""
        self._channel = channel

    def hello_message(self, callback_url: str = "") -> Hello:
        return Hello(
            obi_id=self.config.obi_id,
            version=PROTOCOL_VERSION,
            segment=self.config.segment,
            capabilities=self.factory.supported_types(),
            supports_custom_modules=self.config.supports_custom_modules,
            capacity_hint=self.config.capacity_hint,
            callback_url=callback_url,
            graph_version=self.graph_version,
            graph_digest=self.graph_digest,
            epoch=self.highest_controller_generation,
        )

    def connect(self, channel: Any, callback_url: str = "") -> Message:
        """Attach ``channel`` and perform the Hello handshake."""
        self.attach_channel(channel)
        response = channel.request(self.hello_message(callback_url))
        self._absorb_hello_response(response)
        return response

    def reconnect(self, channel: Any | None = None, callback_url: str = "") -> Message:
        """Re-establish contact after losing the controller.

        Re-sends Hello (idempotent controller-side: the handle is simply
        rebuilt, and the hello's digest lets a recovered controller adopt
        the running graph instead of re-pushing it), adopts the new
        controller generation from the response, and — via the headless
        exit path — replays everything buffered while out of contact.
        """
        if channel is not None:
            self.attach_channel(channel)
        if self._channel is None:
            raise ProtocolError(ErrorCode.NOT_CONNECTED, "no upstream channel")
        response = self._channel.request(self.hello_message(callback_url))
        self._absorb_hello_response(response)
        return response

    def _absorb_hello_response(self, response: Message | None) -> None:
        if isinstance(response, HelloResponse) and response.ok:
            self.highest_controller_generation = max(
                self.highest_controller_generation, response.epoch
            )
            self.note_controller_heard()

    def rehome(
        self,
        candidates: list[tuple[str, Any]],
        callback_url: str = "",
    ) -> str | None:
        """Walk the controller endpoint list and adopt the first live,
        non-stale responder (PROTOCOL.md §12).

        ``candidates`` is an ordered ``(endpoint, channel)`` list —
        typically built from ``config.controller_endpoints``, which
        every accepted ``LeaseAnnounce`` refreshes. Each candidate gets
        a Hello; a responder whose HelloResponse carries a generation
        *below* the highest this OBI has obeyed is a deposed leader
        still answering its socket and is skipped, never adopted.
        Adopting a winner re-binds the upstream channel and (via the
        headless exit path) replays everything buffered while out of
        contact to *that* controller — at-least-once, to whoever
        actually won, not to whoever the events were born under.

        Returns the adopted endpoint, or None when nobody qualified.
        """
        for endpoint, channel in candidates:
            self.rehome_attempts += 1
            try:
                response = channel.request(self.hello_message(callback_url))
            except (ChannelClosed, OSError):
                continue
            if not (isinstance(response, HelloResponse) and response.ok):
                continue
            if response.epoch < self.highest_controller_generation:
                self.rehome_stale_skipped += 1
                continue
            self.attach_channel(channel)
            self._absorb_hello_response(response)
            self.rehomes += 1
            self.rehomed_to = endpoint
            return endpoint
        return None

    def _lease_announce(self, message: LeaseAnnounce) -> Message:
        """Absorb a leadership announcement (§12).

        The epoch fence already ran in :meth:`handle_message`, so by
        here the announce is from the current (or a newer) leader:
        refresh the re-homing endpoint list and remember who leads.
        The announce also counts as controller liveness, like any
        authenticated downstream traffic.
        """
        self.lease_announcements += 1
        self.announced_leader = message.leader_id
        if message.endpoints:
            self.config.controller_endpoints = list(message.endpoints)
        return BarrierResponse(xid=message.xid)

    def send_keepalive(self) -> None:
        """Beacon liveness; the alert limiter's suppression summaries
        (PROTOCOL.md §7) go out first, so each keepalive period ends
        with the storm accounted."""
        self.flush_alerts()
        if self._channel is not None:
            self._channel.notify(KeepAlive(
                obi_id=self.config.obi_id,
                graph_version=self.graph_version,
                graph_digest=self.graph_digest,
                epoch=self.highest_controller_generation,
            ))

    # ------------------------------------------------------------------
    # Headless mode (PROTOCOL.md §10)
    # ------------------------------------------------------------------
    def is_headless(self) -> bool:
        """Whether the OBI is operating without a live controller.

        The transition in is lazy: evaluated against the injectable
        clock whenever an upstream event needs routing, so no background
        thread is required. ``headless_after`` 0 disables it.
        """
        if (
            not self._headless
            and self.config.headless_after > 0
            and self.clock() - self.last_controller_heard
            > self.config.headless_after
        ):
            self._headless = True
            self.headless_episodes += 1
        return self._headless

    def note_controller_heard(self) -> None:
        """Record controller liveness; leaving headless replays the buffer."""
        self.last_controller_heard = self.clock()
        if self._headless:
            self._exit_headless()

    def _buffer_upstream(self, alert: Alert) -> None:
        fit = self.headless_buffer.push(alert)
        self._m_headless_buffered.inc()
        if not fit:
            self._m_headless_dropped.inc()

    def _exit_headless(self) -> None:
        """Replay buffered events upstream, oldest first.

        If the channel dies mid-replay the un-replayed suffix goes back
        to the front of the buffer and the OBI stays headless — replay
        is at-least-once, never lossy beyond the counted ring evictions.
        """
        if self._channel is None:
            return
        entries, dropped = self.headless_buffer.drain()
        for index, entry in enumerate(entries):
            try:
                self._channel.notify(entry)
            except ChannelClosed:
                self.headless_buffer.requeue_front(entries[index:])
                self.headless_buffer.dropped += dropped
                return
            self.alerts_sent += 1
            self._m_alerts_sent.inc()
        self._headless = False
        if dropped:
            # The controller must learn the loss, not just the survivors.
            try:
                self._notify_alert(Alert(
                    obi_id=self.config.obi_id,
                    block=OBI_PSEUDO_BLOCK,
                    origin_app=OBI_PSEUDO_BLOCK,
                    message=(
                        f"{dropped} events dropped while headless "
                        f"(buffer capacity {self.headless_buffer.capacity})"
                    ),
                    severity="warning",
                    count=dropped,
                ))
            except ChannelClosed:
                self._headless = True
                self.headless_buffer.dropped += dropped

    # ------------------------------------------------------------------
    # Packet processing
    # ------------------------------------------------------------------
    def process_packet(self, packet: Packet) -> PacketOutcome:
        """Run one packet through the deployed graph.

        Ingress first passes the admission gate (when overload control is
        configured): a shed packet never reaches the engine and comes
        back ``dropped`` + ``shed``. Alerts raised by the graph and
        contained element faults are coalesced, rate limited, and
        forwarded upstream on the controller channel (paper §3.4).
        This is :meth:`inject_batch` on a vector of one.
        """
        return self.inject_batch((packet,))[0]

    def inject(self, packet: Packet) -> PacketOutcome:
        """Ingress entry point — admission gate, then the engine."""
        return self.process_packet(packet)

    def inject_batch(self, packets: Sequence[Packet]) -> list[PacketOutcome]:
        """Vectorized ingress: per-packet semantics, amortized bookkeeping.

        Each packet still passes the admission gate individually (token
        accounting and seeded shedding are order-dependent, so a batch
        sheds exactly the packets a packet-at-a-time loop would) and
        each outcome lands in the history, but the engine lock is taken
        once for the whole vector, the ingress counters are added once
        (in a ``finally``: exact even when the engine raises mid-vector)
        and the alert batcher sees all the outcomes' events in a single
        pass — cross-packet coalescing that per-packet :meth:`inject`
        cannot do (each packet's own ``PacketOutcome.alerts`` is
        unchanged either way).
        """
        outcomes: list[PacketOutcome] = []
        robustness, session = self.robustness, self.session
        admission = self._admission
        record = self._record_history if self.history.maxlen else None
        offered = processed = processed_bytes = 0
        with self._lock:
            process = self.engine.process if self.engine is not None else None
            try:
                for packet in packets:
                    offered += 1
                    # Flow-state exhaustion degrades the OBI through the
                    # same path as ingress overload (ORed inside
                    # EngineRobustness.degraded).
                    robustness.state_pressure = session.under_degradation
                    if admission is not None:
                        verdict = admission.admit(packet)
                        # The gate drives degraded mode: below the
                        # watermark the engine starts bypassing blocks
                        # marked ``degradable``.
                        robustness.degraded = admission.degraded
                        if not verdict.admitted:
                            self._m_shed.inc()
                            outcome = PacketOutcome(dropped=True, shed=True)
                            if record is not None:
                                record(packet, outcome, verdict.reason or "exhausted")
                            outcomes.append(outcome)
                            continue
                    if process is None:
                        raise ProtocolError(
                            ErrorCode.INVALID_GRAPH, "no processing graph deployed"
                        )
                    outcome = process(packet)
                    processed += 1
                    processed_bytes += len(packet.data)
                    if record is not None:
                        record(packet, outcome)
                    outcomes.append(outcome)
            finally:
                self.packets_offered += offered
                self._m_offered.inc(offered)
                self.packets_processed += processed
                self.bytes_processed += processed_bytes
        # Upstream-bound events: alerts, plus contained faults as alerts.
        events: list[AlertEvent] = []
        for outcome in outcomes:
            if outcome.alerts:
                events += outcome.alerts
            for error in outcome.errors:
                events.append(AlertEvent(
                    block=error.block,
                    origin_app=error.origin_app,
                    message=f"element fault ({error.policy}): {error.error}",
                    severity="error",
                    packet_summary=error.packet_summary,
                ))
        self._forward_alert_events(events)
        return outcomes

    def _record_history(
        self, packet: Packet, outcome: PacketOutcome, shed: str = ""
    ) -> None:
        """Append one packet-history record (paper §6), cheaply: the
        summary stays a tuple of ints until :meth:`packet_history`
        renders it."""
        try:
            summary: Any = packet.summary_fields()
        except Exception:  # noqa: BLE001 — the frame itself may be hostile
            summary = safe_summary(packet)
        self.history.append((
            summary,
            tuple(outcome.path),
            outcome.dropped,
            [device for device, _pkt in outcome.outputs],
            [event.message for event in outcome.alerts],
            shed,
            self.clock(),
        ))

    def packet_history(self, limit: int = 0) -> list[dict[str, Any]]:
        """The most recent ``limit`` (0 = all retained) history records,
        rendered as the dicts ``PacketHistoryResponse`` carries."""
        with self._lock:
            records = list(self.history)
        if limit > 0:
            records = records[-limit:]
        rendered = []
        for summary, path, dropped, outputs, alerts, shed, at in records:
            entry: dict[str, Any] = {
                "packet": format_summary(summary),
                "path": list(path),
                "dropped": dropped,
            }
            if shed:
                entry["shed"] = shed
            entry.update(outputs=outputs, alerts=alerts, at=at)
            rendered.append(entry)
        return rendered

    def _forward_alert_events(self, events: list[AlertEvent]) -> None:
        """Upstream alert path: coalesce, rate limit, plus quarantine alerts.

        Quarantine transitions bypass the rate limiter — a breaker trip
        is exactly the signal a storm must not drown out — while the
        per-packet alert bodies go through the batcher.
        """
        newly_quarantined = self.robustness.drain_newly_quarantined()
        if self._channel is None:
            return
        for block in newly_quarantined:
            self._notify_alert(Alert(
                obi_id=self.config.obi_id,
                block=block,
                origin_app=OBI_PSEUDO_BLOCK,
                message=f"block {block!r} quarantined after repeated errors",
                severity="critical",
            ))
        if not events:
            return
        for group in self._alert_batcher.batch(events):
            self._notify_alert(Alert(
                obi_id=self.config.obi_id,
                block=group.block,
                origin_app=group.origin_app,
                message=group.message,
                severity=group.severity,
                packet_summary=group.packet_summary,
                count=group.count,
            ))

    def _notify_alert(self, alert: Alert) -> None:
        # Mirror into the telemetry ring at send/buffer time so stream
        # subscribers see the alert even when the notify channel drops it.
        self.telemetry.note_alert(alert)
        if self.is_headless():
            self._buffer_upstream(alert)
            return
        self._channel.notify(alert)
        self.alerts_sent += 1
        self._m_alerts_sent.inc()

    def flush_alerts(self) -> None:
        """Summarize what the rate limiter refused: one "N suppressed"
        alert per origin app, instead of the N alerts themselves."""
        summaries = self._alert_batcher.drain_suppressed()
        if self._channel is None:
            return
        for origin, count in summaries:
            self._notify_alert(Alert(
                obi_id=self.config.obi_id,
                block=OBI_PSEUDO_BLOCK,
                origin_app=origin,
                message=f"{count} alerts suppressed",
                severity="warning",
                count=count,
            ))

    # ------------------------------------------------------------------
    # Admission accounting
    # ------------------------------------------------------------------
    @property
    def packets_shed(self) -> int:
        return self._admission.packets_shed if self._admission is not None else 0

    # ------------------------------------------------------------------
    # Downstream message handling
    # ------------------------------------------------------------------
    def handle_message(self, message: Message) -> Message | None:
        """Protocol entry point for messages arriving from the controller.

        The split-brain guard runs first: a request stamped below the
        highest controller generation this OBI has obeyed — unstamped
        included — is a deposed controller's, rejected and never cached
        (its xids belong to another number space). Then xid dedup (a
        retransmit replays the cached answer: the controller's blind
        retry is idempotent), then :data:`HANDLERS`.
        """
        if message.epoch < self.highest_controller_generation:
            self.stale_generation_rejections += 1
            self._m_stale_rejected.inc()
            return ErrorMessage(
                xid=message.xid,
                code=ErrorCode.STALE_GENERATION,
                detail=(
                    f"generation {message.epoch} is stale; this OBI has "
                    f"obeyed generation {self.highest_controller_generation}"
                ),
            )
        self.highest_controller_generation = message.epoch
        cached = self._responses.get(message.xid)
        if cached is not None:
            self.duplicate_requests += 1
            self._m_duplicates.inc()
            return cached
        started = self.clock()
        response = serve(self, self.HANDLERS, message)
        self._m_dispatch.observe(self.clock() - started)
        self._responses.put(message.xid, response)
        # Any authenticated downstream traffic is controller liveness
        # evidence; leaving headless replays the buffered events.
        self.note_controller_heard()
        return response

    def _set_external_services(self, message: SetExternalServices) -> Message:
        self.config.keepalive_interval = message.keepalive_interval
        return BarrierResponse(xid=message.xid)

    def _state_handoff(self, message: StateHandoffRequest) -> Message:
        """Install a dead peer's checkpoint, fenced by state generation.

        The fence is per source OBI: once generation G has been imported
        from ``source_obi``, anything older from the same source (a
        partitioned ghost's stale checkpoint) is rejected; an equal
        generation is an idempotent retry and accepted.
        """
        fence = self._handoff_fence.get(message.source_obi)
        if fence is not None and message.state_generation < fence:
            self.stale_handoff_rejections += 1
            return StateHandoffResponse(
                xid=message.xid, accepted=False, stale=True
            )
        self._handoff_fence[message.source_obi] = message.state_generation
        report = self.session.import_entries_checked(
            message.state, now=self.clock()
        )
        return StateHandoffResponse(
            xid=message.xid,
            accepted=True,
            flows_imported=report.imported,
            rejected=dict(report.rejected),
        )

    def _set_graph(self, message: SetProcessingGraphRequest) -> Message:
        """Two-phase graph apply: stage → verify → commit.

        The previous graph keeps serving packets until the new one has
        been fully translated, instantiated, and verified; any error in
        those phases rolls back to it, so a bad merged graph can never
        leave the instance blackholing traffic.
        """
        # Phase 1 — stage: parse and instantiate off to the side.
        try:
            received_digest = canonical_graph_digest(message.graph)
            if message.graph_digest and message.graph_digest != received_digest:
                # The controller digested what it sent; disagreement here
                # means the graph was corrupted in transit.
                raise ProtocolError(
                    ErrorCode.INVALID_GRAPH,
                    f"graph digest mismatch: sender claims "
                    f"{message.graph_digest}, received {received_digest}",
                )
            graph = ProcessingGraph.from_dict(message.graph)
            graph.validate()
            engine = build_engine(
                graph,
                factory=self.factory,
                clock=self.clock,
                session=self.session,
                log_service=self.log_service,
                storage_service=self.storage_service,
                robustness=self.robustness,
                flow_cache=self.flow_cache,
                tracer=self.tracer,
                metrics=self.metrics,
            )
            # Phase 2 — verify: the entry point must have resolved to a
            # live element (an engine without one rejects every packet),
            # and every declared block must have been translated, before
            # we commit.
            if not engine.entry_resolved:
                raise ProtocolError(
                    ErrorCode.INVALID_GRAPH,
                    f"entry point {engine.entry_name!r} did not resolve "
                    "to a live element",
                )
            missing = set(graph.blocks) - set(engine.elements)
            if missing:
                raise ProtocolError(
                    ErrorCode.INVALID_GRAPH,
                    f"translation dropped blocks: {sorted(missing)}",
                )
        except ProtocolError:
            self.graph_rollbacks += 1
            raise
        except (GraphValidationError, KeyError, ValueError) as exc:
            self.graph_rollbacks += 1
            raise ProtocolError(ErrorCode.INVALID_GRAPH, str(exc)) from exc
        if self.config.reconfigure_poll_delay > 0:
            # Reproduces Click's hard-coded 1000 ms element-update poll
            # (paper Table 3, footnote 4).
            time.sleep(self.config.reconfigure_poll_delay)
        # Phase 3 — commit: atomic swap against in-flight packets.
        with self._lock:
            if self.engine is not None:
                # Flush the outgoing engine's telemetry into the registry
                # before it is dropped; the registry accumulates across
                # deployments.
                self.engine.export_metrics()
            self.graph = graph
            self.engine = engine
            self.graph_version += 1
            self.graph_digest = received_digest
            # Decisions recorded against the old graph are meaningless
            # under the new wiring.
            if self.flow_cache is not None:
                self.flow_cache.invalidate_all("graph-swap")
                # Flush the cache's post-invalidate gauges immediately so
                # a subscriber attaching mid-swap reads registry state
                # consistent with the new graph, not the stale mirrors.
                self.flow_cache.bind_metrics(self.metrics)
                self.flow_cache.export_metrics()
        return SetProcessingGraphResponse(
            xid=message.xid,
            ok=True,
            detail=f"version {self.graph_version}",
            graph_version=self.graph_version,
            graph_digest=self.graph_digest,
        )

    def observability_snapshot(
        self, include_traces: bool = True, max_traces: int = 0
    ) -> ObservabilitySnapshotResponse:
        """The instance's metrics + recent sampled traces (PROTOCOL.md §9).

        Local only (no wire message asks for it): the oracle the
        push-equals-pull tests compare ``telemetry_snapshot()`` against.
        Snapshot-time-only series (flow-cache counters, quarantine and
        degradation levels, sampling totals) are mirrored into gauges
        at export time rather than maintained on the hot path.
        """
        with self._lock:
            snapshot = self._export_registry_locked()
            tracer = self.tracer
            return ObservabilitySnapshotResponse(
                obi_id=self.config.obi_id,
                graph_version=self.graph_version,
                metrics=snapshot,
                traces=(
                    tracer.traces(max_traces)
                    if include_traces and tracer is not None
                    else []
                ),
                packets_seen=(
                    tracer.seen if tracer is not None else self.packets_offered
                ),
                packets_sampled=tracer.sampled if tracer is not None else 0,
                sample_rate=tracer.sample_rate if tracer is not None else 0.0,
            )

    def _export_registry_locked(self) -> dict[str, Any]:
        """Flush watermarks, mirror gauges, snapshot — one critical section.

        ``Engine.export_metrics`` is an unguarded read-inc-write
        watermark: two concurrent exports (a snapshot racing a graph
        swap) would double-apply the same delta and inflate the shared
        registry. Every exporting path therefore runs under the engine
        lock, and the snapshot is taken in the *same* critical section —
        so the absolute values any consumer (local snapshot or telemetry
        ring record) observes are mutually consistent and monotonic.
        """
        with self._lock:
            if self.engine is not None:
                self.engine.export_metrics()
            if self.flow_cache is not None:
                self.flow_cache.bind_metrics(self.metrics)
                self.flow_cache.export_metrics()
            gauges = self.metrics
            gauges.gauge("obi_graph_version").set(self.graph_version)
            gauges.gauge("obi_degraded").set(
                1.0 if self.robustness.degraded else 0.0
            )
            gauges.gauge("obi_quarantined_blocks").set(
                len(self.robustness.quarantined_blocks())
            )
            gauges.gauge("obi_errors_total").set(self.robustness.errors_total)
            gauges.gauge("obi_headless").set(1.0 if self.is_headless() else 0.0)
            gauges.gauge("obi_headless_entries").set(len(self.headless_buffer))
            table = self.session.flow_table
            gauges.gauge("obi_state_entries").set(len(table))
            gauges.gauge("obi_state_protected").set(table.protected_count)
            gauges.gauge("obi_state_evictions").set(table.evictions)
            gauges.gauge("obi_state_drops").set(table.drops)
            gauges.gauge("obi_state_pressure").set(
                1.0 if table.under_degradation else 0.0
            )
            tracer = self.tracer
            if tracer is not None:
                gauges.gauge("trace_packets_seen").set(tracer.seen)
                gauges.gauge("trace_packets_sampled").set(tracer.sampled)
            return self.metrics.snapshot()

    # ------------------------------------------------------------------
    # Streaming telemetry (PROTOCOL.md §13)
    # ------------------------------------------------------------------
    def _telemetry_meta(self) -> dict[str, Any]:
        """Context riding metric records (the snapshot's envelope)."""
        tracer = self.tracer
        return {
            "graph_version": self.graph_version,
            "packets_seen": (
                tracer.seen if tracer is not None else self.packets_offered
            ),
            "packets_sampled": tracer.sampled if tracer is not None else 0,
            "sample_rate": tracer.sample_rate if tracer is not None else 0.0,
        }

    def _telemetry_collect(self) -> int:
        """Diff current state into the telemetry ring; records appended.

        Runs under the engine lock so the snapshot, the meta envelope,
        and the trace list are taken atomically with respect to graph
        swaps — ring order matches registry order, which is what keeps
        a folding subscriber's counters monotonic.
        """
        with self._lock:
            snapshot = self._export_registry_locked()
            tracer = self.tracer
            traces = tracer.traces(0) if tracer is not None else ()
            return self.telemetry.collect(
                snapshot, self._telemetry_meta(), traces
            )

    def _telemetry_subscribe(self, message: TelemetrySubscribe) -> Message:
        """Open/refresh a subscription; the response is the first batch."""
        self.telemetry.subscribe(message)
        self._telemetry_collect()
        stream = self.telemetry.build_stream(drain=message.drain)
        if stream is None:
            # Nothing past the cursor (an idempotent re-subscribe):
            # answer with an empty batch so the consumer still learns
            # the covered seq.
            stream = TelemetryStream(
                obi_id=self.config.obi_id,
                subscriber=message.subscriber,
                through_seq=self.telemetry.ring.cursor(message.subscriber),
                epoch=message.epoch,
            )
        stream.xid = message.xid
        return stream

    def _telemetry_ack(self, message: TelemetryAck) -> Message:
        self.telemetry.handle_ack(message)
        return BarrierResponse(xid=message.xid)

    def publish_telemetry(self) -> TelemetryAck | None:
        """Push one batch upstream; returns the consumer's ack (or None).

        Collection happens unconditionally — while headless or
        disconnected the ring keeps accumulating (bounded, drop-counted)
        so history replays after reconnect. The wire send is skipped
        when there is no live subscriber; a dead channel leaves the
        cursor unmoved, so the next publish replays the batch
        (at-least-once). A stream with nothing new costs no send at all:
        push cost scales with change rate, not with the publish cadence.
        """
        if self.telemetry.subscription is None:
            return None
        self._telemetry_collect()
        if self._channel is None or self.is_headless():
            return None
        stream = self.telemetry.build_stream()
        if stream is None:
            return None
        try:
            response = self._channel.request(stream)
        except ChannelClosed:
            return None
        self.telemetry.handle_ack(response)
        return response if isinstance(response, TelemetryAck) else None

    def _global_stats(self, message: GlobalStatsRequest) -> Message:
        return GlobalStatsResponse(
            xid=message.xid,
            obi_id=self.config.obi_id,
            cpu_load=self.estimate_cpu_load(),
            memory_used=self.estimate_memory_used(),
            memory_total=1 << 30,
            packets_processed=self.packets_processed,
            bytes_processed=self.bytes_processed,
            uptime=self.clock() - self._started_at,
        )

    def _read(self, message: ReadRequest) -> Message:
        if message.block == OBI_PSEUDO_BLOCK:
            # Instance-level robustness state: served even with no graph
            # deployed (the controller may probe a sick OBI).
            try:
                value = self.read_obi_handle(message.handle)
            except KeyError as exc:
                raise ProtocolError(ErrorCode.UNKNOWN_HANDLE, str(exc)) from exc
            return ReadResponse(
                xid=message.xid,
                block=message.block,
                handle=message.handle,
                value=value,
            )
        if self.engine is None:
            raise ProtocolError(ErrorCode.INVALID_GRAPH, "no graph deployed")
        try:
            with self._lock:
                value = self.engine.read_handle(message.block, message.handle)
        except KeyError as exc:
            code = (
                ErrorCode.UNKNOWN_BLOCK
                if message.block not in self.engine.elements
                else ErrorCode.UNKNOWN_HANDLE
            )
            raise ProtocolError(code, str(exc)) from exc
        except (TypeError, ValueError) as exc:
            raise ProtocolError(ErrorCode.MALFORMED_MESSAGE, str(exc)) from exc
        return ReadResponse(
            xid=message.xid, block=message.block, handle=message.handle, value=value
        )

    def read_obi_handle(self, handle: str) -> Any:
        """Read one ``_obi`` pseudo-block handle (see :data:`OBI_HANDLES`)."""
        getter = OBI_HANDLES.get(handle)
        if getter is None:
            raise KeyError(f"{OBI_PSEUDO_BLOCK} has no read handle {handle!r}")
        return getter(self)

    def _write(self, message: WriteRequest) -> Message:
        if self.engine is None:
            raise ProtocolError(ErrorCode.INVALID_GRAPH, "no graph deployed")
        try:
            with self._lock:
                self.engine.write_handle(message.block, message.handle, message.value)
        except KeyError as exc:
            code = (
                ErrorCode.UNKNOWN_BLOCK
                if message.block not in self.engine.elements
                else ErrorCode.UNKNOWN_HANDLE
            )
            raise ProtocolError(code, str(exc)) from exc
        except (TypeError, ValueError) as exc:
            # A known handle fed a garbage value (e.g. a firewall ruleset
            # that fails to parse) must answer with a protocol error, not
            # unwind the dispatcher with a raw ValueError.
            raise ProtocolError(ErrorCode.MALFORMED_MESSAGE, str(exc)) from exc
        return WriteResponse(
            xid=message.xid, block=message.block, handle=message.handle, ok=True
        )

    def _add_module(self, message: AddCustomModuleRequest) -> Message:
        if not self.config.supports_custom_modules:
            raise ProtocolError(
                ErrorCode.MODULE_REJECTED, "this OBI does not accept custom modules"
            )
        module = self.loader.load(
            module_name=message.module_name,
            binary=message.binary(),
            block_types=message.block_types,
            translation=message.translation,
        )
        return AddCustomModuleResponse(
            xid=message.xid,
            module_name=module.name,
            ok=True,
            detail=f"registered {len(module.block_types)} block types",
        )

    #: Every request an OBI serves: message class -> handler. The one
    #: list — PROTOCOL.md's direction tables are held equal to it.
    HANDLERS: ClassVar[Handlers] = {
        SetProcessingGraphRequest: _set_graph,
        GlobalStatsRequest: _global_stats,
        ReadRequest: _read,
        WriteRequest: _write,
        AddCustomModuleRequest: _add_module,
        ListCapabilitiesRequest: lambda obi, message: ListCapabilitiesResponse(
            xid=message.xid,
            capabilities=obi.factory.supported_types(),
            supports_custom_modules=obi.config.supports_custom_modules,
        ),
        SetExternalServices: _set_external_services,
        LeaseAnnounce: _lease_announce,
        BarrierRequest: lambda obi, message: BarrierResponse(xid=message.xid),
        PacketHistoryRequest: lambda obi, message: PacketHistoryResponse(
            xid=message.xid, records=obi.packet_history(message.limit)
        ),
        StateCheckpointRequest: lambda obi, message: StateCheckpointResponse(
            xid=message.xid,
            obi_id=obi.config.obi_id,
            state_generation=obi.session.state_generation,
            state=obi.session.export_entries(now=obi.clock()),
        ),
        StateHandoffRequest: _state_handoff,
        TelemetrySubscribe: _telemetry_subscribe,
        TelemetryAck: _telemetry_ack,
    }

    # ------------------------------------------------------------------
    # Load estimation (reported via GlobalStats, used for scaling)
    # ------------------------------------------------------------------
    #: Cost of a fast-path hit relative to a slow-path packet, for load
    #: estimation: a hit replays recorded decisions instead of running
    #: the classifier matches that dominate path cost.
    FASTPATH_HIT_COST = 0.25

    def estimate_cpu_load(self) -> float:
        """Fraction of capacity consumed, from recent packet accounting.

        Real OBIs read /proc; this reproduction derives load from packets
        processed per second of clock time against the capacity hint
        (packets/second at full load per unit hint). Packets served from
        the flow-decision cache are discounted to
        :data:`FASTPATH_HIT_COST` of a slow-path packet, so a warm OBI
        reports the headroom the cache actually buys it.
        """
        elapsed = max(self.clock() - self._started_at, 1e-9)
        packets = float(self.packets_processed)
        if self.flow_cache is not None:
            hits = min(self.flow_cache.hits, self.packets_processed)
            packets -= (1.0 - self.FASTPATH_HIT_COST) * hits
        rate = packets / elapsed
        full_load_rate = 100_000.0 * self.config.capacity_hint
        return min(1.0, rate / full_load_rate)

    def estimate_memory_used(self) -> int:
        base = 64 << 20
        per_flow = 512
        per_block = 4096
        blocks = len(self.graph.blocks) if self.graph is not None else 0
        return base + per_flow * self.session.flow_count() + per_block * blocks
