"""Megaflow-style flow-decision cache for the OBI fast path.

OVS popularized the pattern this module reproduces in the OpenBox
setting: the first packet of a flow takes the *slow path* — the full
element traversal, including every classifier match — and the routing
decisions made along the way are recorded against the packet's flow
key. Subsequent packets of the same flow *replay* those decisions:
classifiers whose output is a pure function of the flow key
(``Element.caches_decision``) skip the match computation entirely,
while every other element still runs, so data-dependent effects
(TTL expiry, payload rewrites, alerts) stay exactly as on the slow
path.

Soundness rests on three rules, enforced here and in the engine:

* **Key completeness** — the flow key covers every packet field a
  decision-cached classifier may consult: the 5-tuple, whether L4
  parsed (port rules require it), the outer VLAN id, the IPv4 DSCP,
  and the values of every metadata key the graph's MetadataClassifier
  blocks route on (the *metadata scope*).
* **Poisoning** — a traversal that visits an element whose decisions
  are *not* flow-deterministic (``BlockTypeSpec.cacheable=False``: DPI
  classifiers, defragmenters, tunnels, rate limiters), or that is
  touched by fault containment, never installs a positive entry; a
  negative (uncacheable) entry is installed instead so the flow keeps
  taking the slow path without re-recording.
* **Invalidation** — the whole cache is flushed on any event that can
  change what a slow-path traversal would decide: a
  ``SetProcessingGraph`` swap, a ``write_handle`` that is not declared
  routing-neutral, and every circuit-breaker transition (open, first
  half-open probe, close). The fast path is additionally disabled
  outright while any breaker is non-closed or the OBI is degraded, so
  a stale entry can never bypass an opened breaker (see
  ``EngineRobustness.fastpath_blocked``).

  Per-flow *state* changes are surgical instead: a stateful element
  (conntrack) records which flow-state entries its decision read
  (:meth:`DecisionRecorder.note_flow_state`), and a state transition
  calls :meth:`FlowDecisionCache.invalidate_flow` to drop exactly the
  cache entries that depended on that flow — no invalidation storm.
"""

from __future__ import annotations

import collections
from typing import Any

from repro.net.packet import Packet

#: Default capacity of a flow-decision cache, in flow entries.
DEFAULT_FLOW_CACHE_SIZE = 65536


def flow_key(
    packet: Packet, metadata_scope: tuple[str, ...] = ()
) -> tuple | None:
    """The cache key for ``packet``, or None if the flow is unkeyable.

    Non-IP frames return None (never cached): header classifiers fall
    through to catch-all rules for them, and the cost of that path is
    negligible anyway. ``metadata_scope`` is the sorted tuple of
    metadata keys the deployed graph routes on; their *entry* values
    are part of the key because a MetadataClassifier's decision is a
    deterministic function of the entry metadata plus the (constant)
    upstream transforms.
    """
    try:
        if not packet._parsed:
            packet._parse()
    except Exception:  # noqa: BLE001 — hostile frame: just skip the cache
        return None
    # The parsed views, directly: each public property re-enters _parse().
    ipv4 = packet._ipv4
    if ipv4 is None:
        return None
    l4 = packet._l4
    tags = packet._eth.vlan_tags
    # -1 distinguishes "no parseable L4" from real port 0: port rules
    # require a parsed L4 header to match at all.
    if l4 is None:
        src_port = dst_port = -1
    else:
        src_port, dst_port = l4.src_port, l4.dst_port
    key = (
        ipv4.src, ipv4.dst, ipv4.proto, ipv4.dscp, src_port, dst_port,
        tags[0].vid if tags else -1,
    )
    if metadata_scope:
        key += tuple(repr(packet.metadata.get(name)) for name in metadata_scope)
    return key


class FlowDecision:
    """An installed cache entry: per-element routing decisions for one flow.

    ``decisions`` maps element name -> output port for every
    decision-cached classifier the slow-path traversal visited. An
    ``uncacheable`` entry is negative: the flow visited a poisoning
    element, so packets of it always take the slow path (without
    wasting a recorder on every packet).
    """

    __slots__ = ("decisions", "uncacheable", "state_refs")

    def __init__(
        self,
        decisions: dict[str, int],
        uncacheable: bool = False,
        state_refs: tuple = (),
    ) -> None:
        self.decisions = decisions
        self.uncacheable = uncacheable
        #: ``(flow_ref, version)`` pairs for every flow-state entry the
        #: recorded decisions read; a state transition on any of them
        #: invalidates this cache entry (and only this one).
        self.state_refs = state_refs


class DecisionRecorder:
    """Accumulates one slow-path traversal's decisions for installation."""

    __slots__ = ("key", "decisions", "poisoned", "abandoned", "state_refs")

    def __init__(self, key: tuple) -> None:
        self.key = key
        self.decisions: dict[str, int] = {}
        self.poisoned = False
        self.abandoned = False
        self.state_refs: dict[Any, int] = {}

    def poison(self) -> None:
        """The traversal is not flow-deterministic: install a negative entry."""
        self.poisoned = True

    def abandon(self) -> None:
        """Install nothing at all — not even a negative entry.

        Used by stateful elements when the traversal *itself* changed
        the flow state it read (a conntrack transition): the recording
        reflects a state that no longer exists, but the flow is
        perfectly cacheable once it stabilizes, so it must not be
        branded uncacheable either. The next packet simply records
        afresh against the new state.
        """
        self.abandoned = True

    def note_flow_state(self, ref: Any, version: int) -> None:
        """Declare that this traversal read flow-state entry ``ref`` at
        ``version`` — the installed decision must die with it."""
        self.state_refs[ref] = version

    def record(self, name: str, port: int) -> None:
        """Record one classifier decision; conflicting re-visits poison.

        An element visited twice in one traversal (e.g. both branches
        of a Mirror reach it) with *different* decisions cannot be
        replayed with a single port — the flow is uncacheable.
        """
        if self.poisoned:
            return
        previous = self.decisions.get(name)
        if previous is None:
            self.decisions[name] = port
        elif previous != port:
            self.poisoned = True

    def finish(self) -> FlowDecision:
        if self.poisoned:
            return FlowDecision({}, uncacheable=True)
        return FlowDecision(
            self.decisions, state_refs=tuple(self.state_refs.items())
        )


class FlowDecisionCache:
    """Bounded flow-key -> :class:`FlowDecision` store with counters.

    Owned by the OBI (like :class:`~repro.obi.robustness.EngineRobustness`)
    so hit/miss accounting survives graph redeployments; the engine
    consults it per packet. Not thread-safe by itself — the instance's
    engine lock already serializes packet processing against handle
    writes and graph swaps.
    """

    def __init__(self, max_entries: int = DEFAULT_FLOW_CACHE_SIZE) -> None:
        self.max_entries = max(1, max_entries)
        self._entries: dict[tuple, FlowDecision] = {}
        self.hits = 0
        self.misses = 0
        #: Packets whose flow hit a negative (uncacheable) entry.
        self.uncacheable_hits = 0
        #: Packets that skipped the cache entirely (non-IP frame, or
        #: fast path blocked by degradation/quarantine).
        self.bypassed = 0
        #: Full flushes performed (graph swap, write_handle, breaker
        #: transitions).
        self.invalidations = 0
        #: Entries dropped by per-flow (surgical) invalidation.
        self.flow_invalidations = 0
        self.evictions = 0
        #: Recent invalidation reasons — full flushes *and* per-flow
        #: drops (prefixed ``flow:``), for debugging invalidation storms.
        self.flush_log: collections.deque[tuple[str, int]] = collections.deque(
            maxlen=16
        )
        #: flow-state ref -> cache keys whose decisions read that state.
        self._flow_index: dict[Any, set[tuple]] = {}
        self._metrics: Any = None

    def bind_metrics(self, registry: Any) -> None:
        """Publish this cache's counters on ``registry`` at snapshot time.

        The hot path keeps its plain-int counters (the engine bumps them
        inline); :meth:`export_metrics` mirrors them into gauges when a
        snapshot is taken, so metrics cost the fast path nothing.
        """
        self._metrics = registry

    def export_metrics(self) -> None:
        if self._metrics is not None:
            for name, value in self.stats().items():
                self._metrics.gauge(f"fastpath_{name}").set(value)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of keyable packets served from a positive entry."""
        lookups = self.hits + self.misses + self.uncacheable_hits
        return self.hits / lookups if lookups else 0.0

    def lookup(self, key: tuple) -> FlowDecision | None:
        return self._entries.get(key)

    def _unindex(self, key: tuple, decision: FlowDecision) -> None:
        for ref, _version in decision.state_refs:
            keys = self._flow_index.get(ref)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._flow_index[ref]

    def install(self, key: tuple, decision: FlowDecision) -> None:
        previous = self._entries.get(key)
        if previous is not None:
            self._unindex(key, previous)
        elif len(self._entries) >= self.max_entries:
            # FIFO eviction: dicts preserve insertion order and flow
            # caches are churn-tolerant — precision is not worth LRU
            # bookkeeping on the hot path.
            evicted_key = next(iter(self._entries))
            self._unindex(evicted_key, self._entries.pop(evicted_key))
            self.evictions += 1
        self._entries[key] = decision
        for ref, _version in decision.state_refs:
            self._flow_index.setdefault(ref, set()).add(key)

    def invalidate_all(self, reason: str = "") -> int:
        """Flush every entry; returns how many were dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        self._flow_index.clear()
        self.invalidations += 1
        self.flush_log.append((reason, dropped))
        return dropped

    def invalidate_flow(self, ref: Any, reason: str = "") -> int:
        """Drop only the entries whose decisions read flow-state ``ref``.

        This is the surgical alternative to :meth:`invalidate_all` for
        per-flow state transitions: a conntrack establishment or FIN
        teardown kills the one flow's cached verdict while every other
        flow stays warm. A ref no decision ever read is a free no-op
        (flow expiry of untracked flows costs nothing here).
        """
        keys = self._flow_index.pop(ref, None)
        if not keys:
            return 0
        dropped = 0
        for key in keys:
            decision = self._entries.pop(key, None)
            if decision is not None:
                dropped += 1
                # It may have read other flows' state too: drop those
                # back-references, so the index never points at dead keys.
                self._unindex(key, decision)
        self.flow_invalidations += dropped
        self.flush_log.append((f"flow:{reason}" if reason else "flow", dropped))
        return dropped

    def stats(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "uncacheable_hits": self.uncacheable_hits,
            "bypassed": self.bypassed,
            "invalidations": self.invalidations,
            "flow_invalidations": self.flow_invalidations,
            "evictions": self.evictions,
            "entries": len(self._entries),
            "hit_rate": self.hit_rate,
        }
