"""OBI data-plane storages (paper §3.4.2).

Two key-value stores back stateful NF applications:

* **metadata storage** — short-lived, per-packet. Lives directly on
  :attr:`repro.net.packet.Packet.metadata`; :class:`MetadataCodec`
  serializes it into the NSH context header when a packet travels to the
  next OBI in a split processing graph (§3.1), and restores it on arrival.
* **session storage** — per-flow, valid while the flow is alive. Built on
  :class:`repro.obi.flowstate.FlowStateTable`; exposes export/import hooks
  so an OpenNF-style framework could migrate state between OBI replicas.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.net.flow import FiveTuple, Flow
from repro.net.packet import Packet
from repro.obi.flowstate import (
    CheckpointRestore,
    FlowStateCheckpointer,
    FlowStatePolicy,
    FlowStateTable,
)


class MetadataCodec:
    """Serializes the per-packet metadata store for inter-OBI transfer.

    The wire form is compact JSON — the paper estimates "a few bytes" per
    packet since metadata usually only names the processing-graph path
    the next OBI should follow.
    """

    @staticmethod
    def encode(metadata: dict[str, Any], keys: list[str] | None = None) -> bytes:
        """Encode ``metadata`` (optionally only ``keys``) to bytes."""
        if keys is not None:
            metadata = {key: metadata[key] for key in keys if key in metadata}
        return json.dumps(metadata, separators=(",", ":"), sort_keys=True).encode("utf-8")

    @staticmethod
    def decode(blob: bytes) -> dict[str, Any]:
        data = json.loads(blob)
        if not isinstance(data, dict):
            raise ValueError("metadata blob must decode to an object")
        return data


@dataclass
class ImportReport:
    """Outcome of a checked state import (migration/handoff)."""

    #: Entries installed or merged into the table.
    imported: int = 0
    #: Of those, entries that merged into an already-present flow.
    duplicates: int = 0
    #: Entries refused, keyed by reason ("malformed", "expired",
    #: "capacity").
    rejected: dict[str, int] = field(default_factory=dict)

    @property
    def rejected_total(self) -> int:
        return sum(self.rejected.values())

    def reject(self, reason: str) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1


class SessionStorage:
    """Flow-scoped key-value storage for stateful applications.

    "This storage is attached to a flow and is valid as long as the flow
    is alive" — entries vanish when the underlying flow expires from the
    flow table.

    Backed by :class:`repro.obi.flowstate.FlowStateTable`: entries are
    versioned, bounded by an exhaustion-defense policy, optionally
    journaled to a crash-safe checkpoint, and every state write can
    invalidate exactly the affected flow's fast-path cache entry (see
    :meth:`bind_flow_cache`).
    """

    def __init__(
        self,
        idle_timeout: float = 60.0,
        policy: FlowStatePolicy | None = None,
        checkpoint: FlowStateCheckpointer | None = None,
    ) -> None:
        self._flows = FlowStateTable(idle_timeout=idle_timeout, policy=policy)
        self._flows.checkpoint = checkpoint
        #: Report from the most recent checked import (diagnostics).
        self.last_import: ImportReport | None = None

    @property
    def flow_table(self) -> FlowStateTable:
        return self._flows

    @property
    def checkpoint(self) -> FlowStateCheckpointer | None:
        return self._flows.checkpoint

    @property
    def state_generation(self) -> int:
        return self._flows.state_generation

    @property
    def under_degradation(self) -> bool:
        """Occupancy above the degradation watermark (exhaustion)."""
        return self._flows.under_degradation

    def bind_flow_cache(self, flow_cache: Any) -> None:
        """Route state changes to per-flow fast-path invalidation.

        Every version bump or entry removal invalidates only the cached
        decisions that read that flow's state — the whole-cache flush
        of earlier revisions is gone from this path.
        """
        self._flows.on_state_change = flow_cache.invalidate_flow

    def note_state_change(
        self,
        flow: Flow,
        reason: str,
        *,
        protected: bool | None = None,
        durable: bool = False,
    ) -> int:
        """Delegate to the table (see FlowStateTable.note_state_change)."""
        return self._flows.note_state_change(
            flow, reason, protected=protected, durable=durable
        )

    def observe(self, packet: Packet, now: float) -> None:
        """Track the packet's flow (called by FlowTracker blocks)."""
        self._flows.observe(packet, now)

    def get(self, packet: Packet, key: str, default: Any = None) -> Any:
        tuple5 = FiveTuple.of(packet)
        if tuple5 is None:
            return default
        flow = self._flows.lookup(tuple5)
        if flow is None:
            return default
        return flow.session.get(key, default)

    def put(self, packet: Packet, key: str, value: Any, now: float) -> bool:
        """Store ``key: value`` for the packet's flow; creates the flow.

        A write that actually changes the value is a durable, versioned
        state change: it is journaled (when checkpointing is on) and
        invalidates the flow's cached decisions. Idempotent re-writes of
        the same value are free.
        """
        flow = self._flows.observe(packet, now)
        if flow is None:
            return False
        # observe() also counted the packet; undo the double count since
        # this is a storage operation, not a forwarding observation.
        flow.packets -= 1
        flow.bytes -= len(packet)
        if key in flow.session and flow.session[key] == value:
            return True
        flow.session[key] = value
        self._flows.note_state_change(flow, f"session:{key}", durable=True)
        return True

    def expire(self, now: float) -> int:
        """Evict idle flows; returns how many were removed."""
        return len(self._flows.expire(now))

    def flow_count(self) -> int:
        return len(self._flows)

    def export_state(self) -> dict[str, dict[str, Any]]:
        """Human-readable snapshot keyed by flow string (debugging)."""
        return self._flows.export_state()

    def export_entries(self, now: float | None = None) -> list[dict[str, Any]]:
        """Structured snapshot for OpenNF-style migration (paper §3.4.2).

        Each entry carries the flow key, session data, timestamps,
        version, and protection flag, so an importing OBI can
        reconstruct live flow entries exactly. With ``now`` given, each
        entry is stamped with its idle ``age`` — importers on another
        machine cannot compare raw clocks, but an age lets them reject
        entries that were already dead at export time. The age reference
        is the table's own most recent activity (never later than
        ``now``): entries whose timestamps were written against a
        different clock than the exporter's would otherwise all look
        ancient, and an idle-but-consistent table must not have its
        whole state condemned by the wall clock.
        """
        flows = list(self._flows)
        if now is None or not flows:
            return [self._flows.export_entry(flow) for flow in flows]
        reference = min(now, max(flow.last_seen for flow in flows))
        return [
            self._flows.export_entry(flow, now=reference) for flow in flows
        ]

    def import_entries_checked(
        self, entries: list[dict[str, Any]], now: float
    ) -> ImportReport:
        """Install exported flow entries, validating each one.

        Existing session entries for the same flow are merged (imported
        values win; versions take the max, protection is sticky), so
        repeated migrations are idempotent. Timestamps are refreshed to
        ``now`` so imported flows do not expire immediately on the new
        OBI. Rejected entries are counted by reason:

        * ``malformed`` — not a dict, bad/missing key, non-dict session;
        * ``expired`` — exporter-stamped ``age`` beyond the idle timeout
          (the flow was already dead when exported);
        * ``capacity`` — the exhaustion-defense policy refused the
          insert (table full of protected entries or budget exhausted).
        """
        report = ImportReport()
        for entry in entries:
            try:
                if not isinstance(entry, dict):
                    raise TypeError("entry must be a dict")
                key = self._flows.canonical_key(
                    FiveTuple.from_dict(entry["key"])
                )
                session = entry.get("session", {})
                if not isinstance(session, dict):
                    raise TypeError("session must be a dict")
            except (KeyError, TypeError, ValueError):
                report.reject("malformed")
                continue
            if float(entry.get("age", 0.0)) > self._flows.idle_timeout:
                report.reject("expired")
                continue
            flow = self._flows.lookup(key)
            if flow is None:
                flow = Flow(
                    key=key,
                    created_at=float(entry.get("created_at", now)),
                    last_seen=now,
                    packets=int(entry.get("packets", 0)),
                    bytes=int(entry.get("bytes", 0)),
                    version=int(entry.get("version", 0)),
                    protected=bool(entry.get("protected", False)),
                )
                flow.session.update(session)
                if not self._flows.install(flow):
                    report.reject("capacity")
                    continue
            else:
                flow.session.update(session)
                flow.last_seen = now
                flow.version = max(flow.version, int(entry.get("version", 0)))
                if entry.get("protected") and not flow.protected:
                    self._flows.note_state_change(
                        flow, "import", protected=True
                    )
                report.duplicates += 1
            report.imported += 1
        self.last_import = report
        return report

    def restore(self, result: CheckpointRestore, now: float) -> int:
        """Install a checkpoint fold after a crash (see FlowStateTable)."""
        return self._flows.restore(result, now)
