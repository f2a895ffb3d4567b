"""Controller-side telemetry bus: fold streams, fan out watches.

The bus is the consumer half of PROTOCOL.md §13. ``apply_stream`` takes
one ``TelemetryStream`` batch, drops records at or below the per-OBI
high-water seq (at-least-once dedup), folds the rest into snapshot-shaped
per-OBI state (see :mod:`repro.telemetry.records`), and delivers each
fresh record as an *event* to every matching watch and callback.

Events are dicts::

    {"obi_id": ..., "segment": ..., "topic": ..., "seq": ..., "record": ...}

:class:`TopicFilter` scopes a watch by topic, OBI, segment subtree
("core/east" matches "core/east" and "core/east/leaf1"), or origin app.
App filters only match records that *name* apps — alerts (origin_app)
and traces (span origin apps); metric records carry no app attribution
and are excluded by any app filter.

:class:`Watch` is the iterator form of the northbound API: a bounded
pending queue (overflow is counted, never blocking the fold) drained by
``take()`` / iteration. ``subscribe(callback)`` is the push form —
callbacks run inline on the folding thread and must be cheap.
"""

from __future__ import annotations

import collections
import copy
import threading
from typing import Any, Callable, Iterable, Iterator

from repro.protocol.messages import ObservabilitySnapshotResponse, TelemetryStream
from repro.telemetry.records import (
    DEFAULT_KEEP_ALERTS,
    DEFAULT_KEEP_TRACES,
    empty_state,
    fold_records,
    record_topic,
)


def _record_apps(record: dict[str, Any]) -> set[str]:
    """Origin apps a record names (empty for metric/baseline records)."""
    kind = record.get("kind")
    if kind == "alert":
        app = record.get("alert", {}).get("origin_app", "")
        return {app} if app else set()
    if kind == "trace":
        return {
            span.get("origin_app", "")
            for span in record.get("trace", {}).get("spans", [])
            if span.get("origin_app")
        }
    return set()


class TopicFilter:
    """Declarative scope for a watch/subscription (None = match all)."""

    def __init__(
        self,
        topics: Iterable[str] | None = None,
        obi_ids: Iterable[str] | None = None,
        segments: Iterable[str] | None = None,
        apps: Iterable[str] | None = None,
    ) -> None:
        self.topics = frozenset(topics) if topics else None
        self.obi_ids = frozenset(obi_ids) if obi_ids else None
        self.segments = frozenset(segments) if segments else None
        self.apps = frozenset(apps) if apps else None

    def matches(self, event: dict[str, Any]) -> bool:
        if self.topics is not None and event["topic"] not in self.topics:
            return False
        if self.obi_ids is not None and event["obi_id"] not in self.obi_ids:
            return False
        if self.segments is not None:
            segment = event.get("segment", "")
            if not any(
                segment == wanted or segment.startswith(wanted + "/")
                for wanted in self.segments
            ):
                return False
        if self.apps is not None:
            if not (_record_apps(event["record"]) & self.apps):
                return False
        return True


class Watch:
    """Iterator-form subscription: bounded pending queue of events."""

    def __init__(
        self,
        bus: "TelemetryBus",
        topic_filter: TopicFilter,
        max_pending: int = 1024,
    ) -> None:
        self._bus = bus
        self.filter = topic_filter
        self.max_pending = max(1, max_pending)
        self._pending: collections.deque[dict[str, Any]] = collections.deque()
        #: Events discarded because the watcher fell max_pending behind.
        self.dropped = 0
        self.closed = False

    def _offer(self, event: dict[str, Any]) -> None:
        if self.closed:
            return
        if len(self._pending) >= self.max_pending:
            # Shed the *new* event: retained history stays contiguous
            # and the drop is visible, mirroring the ring's accounting.
            self.dropped += 1
            return
        self._pending.append(event)

    def take(self, limit: int | None = None) -> list[dict[str, Any]]:
        """Drain up to ``limit`` pending events (all when None)."""
        out: list[dict[str, Any]] = []
        while self._pending and (limit is None or len(out) < limit):
            out.append(self._pending.popleft())
        return out

    def __len__(self) -> int:
        return len(self._pending)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        while self._pending:
            yield self._pending.popleft()

    def close(self) -> None:
        self.closed = True
        self._bus._detach(self)


class TelemetryBus:
    """Folds pushed TelemetryStream batches; fans out to watchers."""

    def __init__(
        self,
        keep_traces: int = DEFAULT_KEEP_TRACES,
        keep_alerts: int = DEFAULT_KEEP_ALERTS,
    ) -> None:
        self.keep_traces = keep_traces
        self.keep_alerts = keep_alerts
        self._lock = threading.RLock()
        self._states: dict[str, dict[str, Any]] = {}
        self._watches: list[Watch] = []
        self._callbacks: list[tuple[Callable[[dict[str, Any]], None], TopicFilter]] = []
        self.streams_received = 0
        self.records_folded = 0
        self.duplicates = 0
        self.lost_total = 0

    # ------------------------------------------------------------------
    # Folding
    # ------------------------------------------------------------------
    def _state(self, obi_id: str) -> dict[str, Any]:
        state = self._states.get(obi_id)
        if state is None:
            state = empty_state()
            state["meta"] = {}
            state["last_seq"] = 0
            state["lost_total"] = 0
            state["duplicates"] = 0
            self._states[obi_id] = state
        return state

    def apply_stream(self, stream: TelemetryStream, segment: str = "") -> int:
        """Fold one batch; returns how many records were fresh.

        Records with seq at or below the per-OBI high-water mark are
        duplicates from an at-least-once replay and are counted, not
        refolded (folding them would be harmless for metrics — absolute
        values — but would duplicate traces/alerts).
        """
        events: list[dict[str, Any]] = []
        with self._lock:
            state = self._state(stream.obi_id)
            last_seq = state["last_seq"]
            fresh = [
                record
                for record in stream.records
                if int(record.get("seq", 0)) > last_seq
            ]
            dup = len(stream.records) - len(fresh)
            fold_records(state, fresh, self.keep_traces, self.keep_alerts)
            top = last_seq
            for record in fresh:
                meta = record.get("meta")
                if meta:
                    state["meta"].update(meta)
                top = max(top, int(record.get("seq", 0)))
            state["last_seq"] = max(top, stream.through_seq)
            state["lost_total"] += stream.lost
            state["duplicates"] += dup
            self.streams_received += 1
            self.records_folded += len(fresh)
            self.duplicates += dup
            self.lost_total += stream.lost
            for record in fresh:
                events.append({
                    "obi_id": stream.obi_id,
                    "segment": segment,
                    "topic": record_topic(record),
                    "seq": int(record.get("seq", 0)),
                    "record": record,
                })
            watches = list(self._watches)
            callbacks = list(self._callbacks)
        for event in events:
            for watch in watches:
                if watch.filter.matches(event):
                    watch._offer(event)
            for callback, topic_filter in callbacks:
                if topic_filter.matches(event):
                    callback(event)
        return len(fresh)

    def reset(self, obi_id: str, cursor: int = 0) -> None:
        """Rewind the dedup watermark (NACK-driven replay).

        ``cursor=0`` discards the folded state entirely — the replay
        will rebuild it from the baseline the OBI re-sends.
        """
        with self._lock:
            if cursor == 0:
                self._states.pop(obi_id, None)
                self._state(obi_id)
            else:
                self._state(obi_id)["last_seq"] = cursor

    # ------------------------------------------------------------------
    # Reading folded state
    # ------------------------------------------------------------------
    def last_seq(self, obi_id: str) -> int:
        with self._lock:
            state = self._states.get(obi_id)
            return state["last_seq"] if state else 0

    def metric(self, obi_id: str, kind: str, key: str) -> float:
        """One folded ``counters``/``gauges`` value (0 if never seen),
        read in place: the controller reads the fold on every stream,
        so no copy."""
        with self._lock:
            state = self._states.get(obi_id)
            return state["metrics"][kind].get(key, 0) if state else 0

    def state(self, obi_id: str) -> dict[str, Any] | None:
        """Deep copy of the folded per-OBI state (None if unknown)."""
        with self._lock:
            state = self._states.get(obi_id)
            return copy.deepcopy(state) if state else None

    def snapshot_response(
        self,
        obi_id: str,
        include_traces: bool = True,
        max_traces: int = 0,
    ) -> ObservabilitySnapshotResponse | None:
        """Folded state as a snapshot value (PROTOCOL.md §9) — what
        ``OpenBoxController.telemetry_snapshot`` returns."""
        with self._lock:
            state = self._states.get(obi_id)
            if state is None:
                return None
            meta = state["meta"]
            traces: list[dict[str, Any]] = []
            if include_traces:
                traces = copy.deepcopy(state["traces"])
                if max_traces:
                    traces = traces[-max_traces:]
            return ObservabilitySnapshotResponse(
                obi_id=obi_id,
                graph_version=int(
                    meta.get("graph_version", state.get("graph_version", 0))
                ),
                metrics=copy.deepcopy(state["metrics"]),
                traces=traces,
                packets_seen=int(meta.get("packets_seen", 0)),
                packets_sampled=int(meta.get("packets_sampled", 0)),
                sample_rate=float(meta.get("sample_rate", 0.0)),
            )

    # ------------------------------------------------------------------
    # Northbound watch/subscribe
    # ------------------------------------------------------------------
    def watch(
        self,
        topics: Iterable[str] | None = None,
        obi_ids: Iterable[str] | None = None,
        segments: Iterable[str] | None = None,
        apps: Iterable[str] | None = None,
        max_pending: int = 1024,
    ) -> Watch:
        """Iterator-form subscription over future matching events."""
        watch = Watch(
            self, TopicFilter(topics, obi_ids, segments, apps), max_pending
        )
        with self._lock:
            self._watches.append(watch)
        return watch

    def subscribe(
        self,
        callback: Callable[[dict[str, Any]], None],
        topics: Iterable[str] | None = None,
        obi_ids: Iterable[str] | None = None,
        segments: Iterable[str] | None = None,
        apps: Iterable[str] | None = None,
    ) -> Callable[[], None]:
        """Callback-form subscription; returns an unsubscribe handle."""
        entry = (callback, TopicFilter(topics, obi_ids, segments, apps))
        with self._lock:
            self._callbacks.append(entry)

        def unsubscribe() -> None:
            with self._lock:
                if entry in self._callbacks:
                    self._callbacks.remove(entry)

        return unsubscribe

    def _detach(self, watch: Watch) -> None:
        with self._lock:
            if watch in self._watches:
                self._watches.remove(watch)
