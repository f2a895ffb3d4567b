"""Data-plane robustness: fault containment, quarantine, overload control.

PR 1 made the *control plane* fault tolerant; this module armors the
*data plane*. The paper's provisioning story (§4.2, Fig. 9-10) assumes
OBIs detect and report saturation so the controller can react; SDNFV
further argues the data plane must make flow-aware local decisions
rather than punting everything upstream. Four mechanisms, all local to
the OBI and all observable through the ``_obi`` pseudo-block handles:

* **Fault containment** (:class:`EngineRobustness`) — an element whose
  ``process()`` raises no longer unwinds the traversal. The exception is
  recorded on the :class:`~repro.obi.engine.PacketOutcome` and the
  packet is handled per a :class:`FaultPolicy` (``drop`` | ``bypass``
  pass-through on port 0 | ``punt`` to the controller).
* **Quarantine** (:class:`CircuitBreaker`) — an element whose error
  rate trips a threshold is taken out of the traversal entirely
  (containment applies to every packet that would hit it) until a
  cool-down elapses, after which single packets probe it half-open.
  Digests of the offending packets land in a bounded poison quarantine.
* **Overload control** (:class:`AdmissionGate`) — a token-bucket
  admission gate in front of the engine. Below a fill watermark the OBI
  *degrades* (blocks whose config marks them ``degradable`` are
  bypassed) and sheds a seeded, deterministic fraction of packets; an
  empty bucket sheds everything. Seeding follows the
  :class:`~repro.transport.faults.FaultPlan` style: one
  ``random.Random(seed)``, same seed + same arrivals = same shed set.
* **Alert-storm suppression** (:class:`AlertBatcher`) — upstream alerts
  are coalesced into batched ``Alert`` messages under a per-origin-app
  token bucket; what the bucket refuses is counted and later summarized
  as a single "N suppressed" tail alert.
"""

from __future__ import annotations

import collections
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.net.packet import Packet, safe_summary

if TYPE_CHECKING:  # pragma: no cover
    from repro.obi.engine import AlertEvent, Element, PacketOutcome

#: Containment policies for a failing (or quarantined) element.
ERROR_POLICIES = ("drop", "bypass", "punt")


@dataclass
class FaultPolicy:
    """How the engine contains a faulting element."""

    #: ``drop`` the packet, ``bypass`` the element (pass-through on
    #: port 0), or ``punt`` the packet to the controller.
    error_policy: str = "drop"
    #: Errors within :attr:`error_window` seconds that open the breaker.
    quarantine_threshold: int = 5
    error_window: float = 60.0
    #: Seconds an open breaker blocks traffic before half-open probing.
    quarantine_cooldown: float = 30.0
    #: Bounded retention of poison-packet digests.
    poison_quarantine_size: int = 64

    def __post_init__(self) -> None:
        if self.error_policy not in ERROR_POLICIES:
            raise ValueError(
                f"error_policy must be one of {ERROR_POLICIES}, "
                f"got {self.error_policy!r}"
            )


class CircuitBreaker:
    """Per-element error circuit breaker with half-open probing.

    ``closed`` → errors accumulate in a sliding window; reaching the
    threshold opens the breaker (**quarantine**). While ``open`` and
    inside the cool-down every packet is contained without running the
    element. After the cool-down, :meth:`allow` returns ``"probe"``: one
    packet runs through the element; success closes the breaker, another
    error restarts the cool-down.
    """

    def __init__(self, threshold: int, window: float, cooldown: float) -> None:
        self.threshold = max(1, threshold)
        self.window = window
        self.cooldown = cooldown
        self.state = "closed"
        self.opened_at = 0.0
        self.trips = 0
        #: True once a half-open probe has been admitted for the current
        #: open period (lets the robustness layer observe the
        #: open -> half-open transition exactly once per cool-down).
        self.probing = False
        self._errors: collections.deque[float] = collections.deque()

    def allow(self, now: float) -> str:
        """``"run"`` | ``"blocked"`` | ``"probe"`` for a packet at ``now``."""
        if self.state == "closed":
            return "run"
        if now - self.opened_at >= self.cooldown:
            return "probe"
        return "blocked"

    def record_error(self, now: float) -> bool:
        """Count an error; returns True iff this error *opened* the breaker."""
        if self.state == "open":
            # A failed half-open probe: restart the cool-down.
            self.opened_at = now
            self.probing = False
            return False
        self._errors.append(now)
        while self._errors and now - self._errors[0] > self.window:
            self._errors.popleft()
        if len(self._errors) >= self.threshold:
            self.state = "open"
            self.opened_at = now
            self.trips += 1
            self.probing = False
            self._errors.clear()
            return True
        return False

    def record_success(self, now: float) -> None:
        """A successful half-open probe heals the breaker."""
        if self.state == "open" and now - self.opened_at >= self.cooldown:
            self.state = "closed"
            self.probing = False
            self._errors.clear()


class EngineRobustness:
    """Fault-containment state shared by every element of an engine.

    Owned by the OBI (so counters and breaker state survive graph
    redeployments) and attached to the :class:`~repro.obi.engine.EngineContext`;
    the element traversal consults it around every ``process()`` call.
    """

    def __init__(
        self,
        policy: FaultPolicy | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        import time

        self.policy = policy or FaultPolicy()
        self.clock = clock or time.monotonic
        self.breakers: dict[str, CircuitBreaker] = {}
        self.errors_total = 0
        #: Packets contained while their element was quarantined.
        self.quarantine_hits = 0
        #: Degradable elements bypassed while the OBI was degraded.
        self.degraded_bypasses = 0
        #: Overload degradation flag, driven by the admission gate.
        self._degraded = False
        #: Flow-state exhaustion flag, driven by the session storage's
        #: degradation watermark (see FlowStatePolicy): ORed into
        #: :attr:`degraded`, so state pressure degrades the OBI through
        #: the same path as ingress overload.
        self.state_pressure = False
        #: Bounded digests of packets that made elements fail.
        self.poison: collections.deque[dict[str, Any]] = collections.deque(
            maxlen=max(self.policy.poison_quarantine_size, 1)
        )
        #: Blocks whose breaker tripped since the OBI last drained this
        #: (the instance turns them into quarantine alerts).
        self.newly_quarantined: list[str] = []
        #: Flow-decision cache to flush on every breaker transition
        #: (:class:`repro.obi.fastpath.FlowDecisionCache`); wired by the
        #: OBI / translation layer, None when the fast path is off.
        self.flow_cache: Any = None
        self._open_breakers = 0

    @property
    def degraded(self) -> bool:
        """Overload degradation OR flow-state exhaustion pressure."""
        return self._degraded or self.state_pressure

    @degraded.setter
    def degraded(self, value: bool) -> None:
        self._degraded = bool(value)

    @property
    def fastpath_blocked(self) -> bool:
        """True while cached flow decisions must not be trusted.

        Any non-closed breaker means a slow-path traversal would behave
        differently from the one that recorded the cache entries (the
        quarantined element is detoured), so the fast path — lookup
        *and* recording — is disabled outright. That is the hard
        guarantee that a stale entry can never bypass an opened
        breaker; the flushes on each transition are belt-and-braces.
        Degraded mode blocks it for the same reason: ``degradable``
        blocks are bypassed while it lasts.
        """
        return self.degraded or self._open_breakers > 0

    def _flush_fastpath(self, reason: str) -> None:
        if self.flow_cache is not None:
            self.flow_cache.invalidate_all(reason)

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def breaker_for(self, name: str) -> CircuitBreaker:
        breaker = self.breakers.get(name)
        if breaker is None:
            breaker = CircuitBreaker(
                self.policy.quarantine_threshold,
                self.policy.error_window,
                self.policy.quarantine_cooldown,
            )
            self.breakers[name] = breaker
        return breaker

    def intercept(
        self, element: "Element", packet: "Packet", outcome: "PacketOutcome | None"
    ) -> list[tuple[int, "Packet"]] | None:
        """Decide whether ``element`` may run on ``packet``.

        Returns ``None`` to run the element normally (including as a
        half-open probe), or the containment emissions if the element is
        quarantined or bypassed by overload degradation.
        """
        if self.degraded and element.config.get("degradable"):
            self.degraded_bypasses += 1
            return [(0, packet)]
        breaker = self.breakers.get(element.name)
        if breaker is None:
            return None
        verdict = breaker.allow(self.clock())
        if verdict == "probe" and not breaker.probing:
            # open -> half-open: the probe may change element state, so
            # recorded decisions stop being trustworthy here too.
            breaker.probing = True
            self._flush_fastpath("quarantine-half-open")
        if verdict != "blocked":
            return None
        self.quarantine_hits += 1
        return self._contained(packet, outcome)

    def contain(
        self,
        element: "Element",
        packet: "Packet",
        exc: BaseException,
        outcome: "PacketOutcome | None",
    ) -> list[tuple[int, "Packet"]]:
        """Record an element failure and emit per the containment policy."""
        from repro.obi.engine import ErrorEvent

        now = self.clock()
        self.errors_total += 1
        summary = safe_summary(packet)
        event = ErrorEvent(
            block=element.name,
            origin_app=element.origin_app,
            error=f"{type(exc).__name__}: {exc}",
            policy=self.policy.error_policy,
            packet_summary=summary,
        )
        if outcome is not None:
            outcome.errors.append(event)
        self.poison.append({
            "block": element.name,
            "error": event.error,
            "packet": summary,
            "at": now,
        })
        if self.breaker_for(element.name).record_error(now):
            self.newly_quarantined.append(element.name)
            self._open_breakers += 1
            self._flush_fastpath("quarantine-open")
        return self._contained(packet, outcome)

    def on_success(self, element: "Element") -> None:
        """Heal a half-open breaker after a successful probe."""
        breaker = self.breakers.get(element.name)
        if breaker is not None and breaker.state == "open":
            breaker.record_success(self.clock())
            if breaker.state == "closed":
                self._open_breakers = max(0, self._open_breakers - 1)
                self._flush_fastpath("quarantine-close")

    def _contained(
        self, packet: "Packet", outcome: "PacketOutcome | None"
    ) -> list[tuple[int, "Packet"]]:
        policy = self.policy.error_policy
        if policy == "bypass":
            return [(0, packet)]
        if outcome is not None:
            if policy == "punt":
                outcome.punted = True
            else:
                outcome.dropped = True
        return []

    # ------------------------------------------------------------------
    # Introspection (the `_obi` handles)
    # ------------------------------------------------------------------
    def quarantined_blocks(self) -> list[str]:
        return sorted(
            name for name, breaker in self.breakers.items()
            if breaker.state == "open"
        )

    def poison_digests(self) -> list[dict[str, Any]]:
        return list(self.poison)

    def drain_newly_quarantined(self) -> list[str]:
        drained, self.newly_quarantined = self.newly_quarantined, []
        return drained


class TokenBucket:
    """A standard token bucket over an injectable clock."""

    def __init__(self, rate: float, burst: float, clock: Callable[[], float]) -> None:
        self.rate = rate
        self.burst = max(burst, 1.0)
        self.clock = clock
        self.tokens = self.burst
        self._last = clock()

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._last)
        self._last = now
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)

    def take(self, now: float, amount: float = 1.0) -> bool:
        self._refill(now)
        if self.tokens >= amount:
            self.tokens -= amount
            return True
        return False


@dataclass
class OverloadPolicy:
    """Admission-gate configuration (0 ``admission_rate`` disables it)."""

    #: Sustained packets/second admitted; 0 turns the gate off.
    admission_rate: float = 0.0
    #: Bucket depth (packets of headroom for bursts).
    admission_burst: float = 64.0
    #: Bucket fill fraction below which the OBI degrades (bypasses
    #: ``degradable`` blocks) and starts pressure shedding.
    overload_watermark: float = 0.5
    #: Seed for the pressure-band shed decisions (FaultPlan style).
    shed_seed: int = 0
    #: Probability a packet in the pressure band is shed (an empty
    #: bucket always sheds).
    pressure_shed_rate: float = 0.0


@dataclass
class AdmissionVerdict:
    """What the gate decided for one packet."""

    admitted: bool
    degraded: bool
    reason: str = ""  # "", "pressure", "exhausted"


class AdmissionGate:
    """Token-bucket admission with watermark degradation and seeded shedding.

    Degradation comes *before* shedding: in the pressure band (bucket
    below the watermark but not empty) the gate first flags degraded
    mode so the engine bypasses ``degradable`` blocks, and only sheds
    probabilistically at :attr:`OverloadPolicy.pressure_shed_rate`; a
    fully drained bucket sheds deterministically.
    """

    def __init__(self, policy: OverloadPolicy, clock: Callable[[], float]) -> None:
        self.policy = policy
        self.clock = clock
        self.bucket = TokenBucket(policy.admission_rate, policy.admission_burst, clock)
        self._rng = random.Random(policy.shed_seed)
        self.admitted = 0
        self.packets_shed = 0
        self.degraded = False
        #: Bounded digests of recently shed packets (ingress accounting).
        self.shed_log: collections.deque[str] = collections.deque(maxlen=64)

    def admit(self, packet: "Packet") -> AdmissionVerdict:
        now = self.clock()
        if not self.bucket.take(now):
            self.packets_shed += 1
            self.degraded = True
            self._log_shed(packet)
            return AdmissionVerdict(admitted=False, degraded=True, reason="exhausted")
        fraction = self.bucket.tokens / self.bucket.burst
        if fraction < self.policy.overload_watermark:
            self.degraded = True
            if (
                self.policy.pressure_shed_rate > 0
                and self._rng.random() < self.policy.pressure_shed_rate
            ):
                self.packets_shed += 1
                self._log_shed(packet)
                return AdmissionVerdict(
                    admitted=False, degraded=True, reason="pressure"
                )
        else:
            self.degraded = False
        self.admitted += 1
        return AdmissionVerdict(admitted=True, degraded=self.degraded)

    def _log_shed(self, packet: "Packet") -> None:
        self.shed_log.append(safe_summary(packet))


@dataclass
class _AlertBucketState:
    bucket: TokenBucket
    suppressed: int = 0


@dataclass
class BatchedAlert:
    """One coalesced alert group ready to go on the wire."""

    block: str
    origin_app: str
    message: str
    severity: str
    packet_summary: str
    count: int = 1


class AlertBatcher:
    """Per-origin-app alert coalescing + rate limiting.

    Identical alerts raised while processing one packet collapse into a
    single :class:`BatchedAlert` with a count. A per-origin token bucket
    (``rate_limit`` alerts/sec, 0 = unlimited) gates emission; refused
    groups increment the origin's suppression counter, and
    :meth:`drain_suppressed` later yields one "N suppressed" summary per
    origin — the storm's tail, not its body.
    """

    def __init__(
        self,
        rate_limit: float,
        burst: float,
        clock: Callable[[], float],
    ) -> None:
        self.rate_limit = rate_limit
        self.burst = max(burst, 1.0)
        self.clock = clock
        self._origins: dict[str, _AlertBucketState] = {}
        self.suppressed_total = 0
        self.coalesced_total = 0

    def _state(self, origin: str) -> _AlertBucketState:
        state = self._origins.get(origin)
        if state is None:
            state = _AlertBucketState(
                bucket=TokenBucket(self.rate_limit, self.burst, self.clock)
            )
            self._origins[origin] = state
        return state

    def batch(self, events: list["AlertEvent"]) -> list[BatchedAlert]:
        """Coalesce ``events`` and apply the per-origin rate limit."""
        now = self.clock()
        groups: dict[tuple[str, str, str, str], BatchedAlert] = {}
        for event in events:
            key = (
                event.block,
                event.origin_app or "",
                event.message,
                event.severity,
            )
            group = groups.get(key)
            if group is None:
                groups[key] = BatchedAlert(
                    block=event.block,
                    origin_app=event.origin_app or "",
                    message=event.message,
                    severity=event.severity,
                    packet_summary=event.packet_summary,
                )
            else:
                group.count += 1
                self.coalesced_total += 1
        emitted: list[BatchedAlert] = []
        for group in groups.values():
            if self.rate_limit <= 0:
                emitted.append(group)
                continue
            state = self._state(group.origin_app)
            if state.bucket.take(now):
                emitted.append(group)
            else:
                state.suppressed += group.count
                self.suppressed_total += group.count
        return emitted

    def drain_suppressed(self) -> list[tuple[str, int]]:
        """(origin, count) summaries for every origin with suppressions;
        counters reset so each suppression is summarized exactly once."""
        summaries = [
            (origin, state.suppressed)
            for origin, state in self._origins.items()
            if state.suppressed > 0
        ]
        for _origin, _count in summaries:
            self._origins[_origin].suppressed = 0
        return summaries
