"""OBI-side telemetry producer: diff, stamp, push, replay.

The publisher owns the instance's :class:`TelemetryRing` and turns
registry snapshots into the cursored record stream of PROTOCOL.md §13:

* :meth:`collect` diffs the current registry snapshot against the last
  *published* one and appends a sparse absolute-value ``metrics`` record
  (or a full ``baseline`` when one is owed — first contact, explicit
  rewind to evicted history, or any counted gap). New sampled traces are
  appended by their tracer ordinal, so a trace is published exactly once.
* :meth:`build_stream` reads the subscriber's cursor forward (bounded by
  the window credit unless draining) into a ``TelemetryStream``.
* :meth:`handle_ack` advances the cursor on an ACK, rewinds it on a
  NACK, and tears the subscription down when the consumer fenced the
  stream as stale (``stale_generation`` — a newer controller owns the
  fleet; it will resubscribe under its own epoch).

Delivery is at-least-once by construction: the cursor only moves on an
explicit ACK, so a batch whose ack was lost is simply re-read and the
consumer dedupes by seq.
"""

from __future__ import annotations

import copy
from typing import Any, Iterable

from repro.protocol.errors import ErrorCode
from repro.protocol.messages import (
    Alert,
    ErrorMessage,
    TelemetryAck,
    TelemetryStream,
    TelemetrySubscribe,
)
from repro.telemetry.records import (
    ALL_TOPICS,
    alert_record,
    baseline_record,
    metrics_delta_record,
    record_topic,
    trace_record,
)
from repro.telemetry.ring import TelemetryRing


class TelemetryPublisher:
    """Produces the cursored telemetry stream for one OBI."""

    def __init__(self, obi_id: str, capacity: int = 1024) -> None:
        self.obi_id = obi_id
        self.ring = TelemetryRing(capacity)
        #: Active subscription (one consumer — the controller — per the
        #: single-controller-per-OBI model); None until subscribed.
        self.subscription: dict[str, Any] | None = None
        self._last_snapshot: dict[str, Any] = {}
        self._last_meta: dict[str, Any] = {}
        #: Highest PacketTrace.seq (ordinal among sampled) published.
        self._last_trace_seq = 0
        self._needs_baseline = True
        self.streams_sent = 0
        self.records_sent = 0
        self.acks_ok = 0
        self.nacks = 0

    # ------------------------------------------------------------------
    # Subscription lifecycle
    # ------------------------------------------------------------------
    def subscribe(self, message: TelemetrySubscribe) -> None:
        """Register (or refresh) the consumer named in ``message``, under
        the epoch it was sent with (stamped on every batch)."""
        topics = frozenset(message.topics) if message.topics else frozenset(ALL_TOPICS)
        self.subscription = {
            "subscriber": message.subscriber,
            "topics": topics,
            "window": max(1, message.window),
            "epoch": message.epoch,
        }
        cursor = None if message.cursor < 0 else message.cursor
        self.ring.register(message.subscriber, cursor)

    def unsubscribe(self) -> None:
        self.subscription = None

    def _gap(self) -> bool:
        """True when the subscriber's cursor points at evicted history."""
        sub = self.subscription
        if sub is None:
            return False
        cursor = self.ring.cursor(sub["subscriber"])
        oldest = (
            self.ring.oldest_seq
            if len(self.ring)
            else self.ring.last_seq + 1
        )
        return cursor + 1 < oldest

    # ------------------------------------------------------------------
    # Producing records
    # ------------------------------------------------------------------
    def collect(
        self,
        snapshot: dict[str, Any],
        meta: dict[str, Any] | None = None,
        traces: Iterable[dict[str, Any]] = (),
    ) -> int:
        """Fold current state into the ring; returns records appended.

        The caller takes the snapshot and the trace list atomically with
        respect to engine swaps (the OBI holds its engine lock), so every
        appended record's absolute values are mutually consistent and
        ring order matches snapshot order — the invariant that keeps a
        consumer's folded counters monotonic.
        """
        meta = dict(meta or {})
        appended = 0
        if self._gap():
            # Evicted history may have carried the only update to some
            # key; a fresh baseline makes the gap recoverable (the lost
            # count still reaches the consumer via the stream).
            self._needs_baseline = True
        if self._needs_baseline:
            record = baseline_record(snapshot, meta.get("graph_version", 0))
            record["meta"] = meta
            self.ring.append(record)
            self._needs_baseline = False
            appended += 1
        else:
            delta = metrics_delta_record(self._last_snapshot, snapshot)
            if delta is None and meta != self._last_meta:
                delta = {
                    "kind": "metrics",
                    "counters": {},
                    "gauges": {},
                    "histograms": {},
                }
            if delta is not None:
                delta["meta"] = meta
                self.ring.append(delta)
                appended += 1
        self._last_snapshot = copy.deepcopy(snapshot)
        self._last_meta = meta
        for trace in traces:
            seq = int(trace.get("seq", 0))
            if seq > self._last_trace_seq:
                self.ring.append(trace_record(trace))
                self._last_trace_seq = seq
                appended += 1
        return appended

    def note_alert(self, alert: Alert) -> None:
        """Mirror an upstream alert into the telemetry ring at send time."""
        self.ring.append(alert_record({
            "obi_id": alert.obi_id,
            "block": alert.block,
            "origin_app": alert.origin_app,
            "message": alert.message,
            "severity": alert.severity,
            "packet_summary": alert.packet_summary,
            "count": alert.count,
        }))

    # ------------------------------------------------------------------
    # The wire
    # ------------------------------------------------------------------
    def build_stream(self, drain: bool = False) -> TelemetryStream | None:
        """The next batch for the subscriber (None when nothing to say).

        ``drain`` ignores the window credit and returns everything
        pending — the one-shot form behind ``telemetry_snapshot()``.
        Records outside the subscribed topics still advance
        ``through_seq`` (the consumer acks past them) but do not travel.
        """
        sub = self.subscription
        if sub is None:
            return None
        name = sub["subscriber"]
        cursor = self.ring.cursor(name)
        limit = None if drain else sub["window"]
        lost, entries = self.ring.read_after(cursor, limit)
        topics = sub["topics"]
        records: list[dict[str, Any]] = []
        through = cursor
        for seq, record in entries:
            through = seq
            if record_topic(record) not in topics:
                continue
            wire = dict(record)
            wire["seq"] = seq
            records.append(wire)
        if not records and not lost and through == cursor:
            return None
        _, remaining = self.ring.read_after(through)
        stream = TelemetryStream(
            obi_id=self.obi_id,
            subscriber=name,
            records=records,
            lost=lost,
            pending=len(remaining),
            through_seq=through,
            epoch=sub["epoch"],
        )
        self.streams_sent += 1
        self.records_sent += len(records)
        return stream

    def handle_ack(self, ack: Any) -> bool:
        """Apply the consumer's verdict; True iff the cursor advanced."""
        sub = self.subscription
        if sub is None or ack is None:
            return False
        if isinstance(ack, TelemetryAck):
            if ack.ok:
                self.acks_ok += 1
                self.ring.ack(sub["subscriber"], ack.cursor)
                if ack.window > 0:
                    sub["window"] = ack.window
                return True
            self.nacks += 1
            if ack.error == ErrorCode.STALE_GENERATION:
                # A newer controller fenced this stream; stop pushing
                # until it subscribes under its own epoch.
                self.subscription = None
            else:
                self.ring.rewind(sub["subscriber"], ack.cursor)
            return False
        if (
            isinstance(ack, ErrorMessage)
            and ack.code == ErrorCode.STALE_GENERATION
        ):
            self.nacks += 1
            self.subscription = None
        return False
