"""Telemetry record shapes and the fold that reconstructs snapshots.

Records are plain JSON-able dicts so they travel unchanged inside
``TelemetryStream`` messages. Four kinds:

* ``baseline`` — a full :meth:`MetricsRegistry.snapshot` plus context
  gauges. Replaces the consumer's metric state wholesale. Emitted on
  subscribe and after any counted loss (ring eviction past a cursor),
  so a gap never leaves a consumer permanently stale.
* ``metrics`` — a **sparse absolute-value delta**: only the instrument
  keys whose values changed since the last published record, carrying
  their *new absolute values* (not arithmetic differences). Folding is
  therefore a plain ``dict.update`` — idempotent under at-least-once
  redelivery, and the folded state is byte-identical to a local
  snapshot of the same registry (the equivalence the tests gate).
* ``trace`` — one sampled packet trace (``PacketTrace.to_dict()``).
* ``alert`` — one upstream alert, mirrored at send/buffer time.

``fold_records`` applies a batch to per-OBI consumer state shaped like
the ``ObservabilitySnapshotResponse`` payload (PROTOCOL.md §9), which
is what ``TelemetryBus.snapshot_response`` reads back.
"""

from __future__ import annotations

import copy
from typing import Any, Iterable

TOPIC_METRICS = "metrics"
TOPIC_TRACES = "traces"
TOPIC_ALERTS = "alerts"

ALL_TOPICS = (TOPIC_METRICS, TOPIC_TRACES, TOPIC_ALERTS)

RECORD_KINDS = ("baseline", "metrics", "trace", "alert")

#: How many folded trace/alert records a consumer retains per OBI.
DEFAULT_KEEP_TRACES = 64
DEFAULT_KEEP_ALERTS = 128


def record_topic(record: dict[str, Any]) -> str:
    """The topic a record belongs to (baselines ride the metrics topic)."""
    kind = record.get("kind")
    if kind == "trace":
        return TOPIC_TRACES
    if kind == "alert":
        return TOPIC_ALERTS
    return TOPIC_METRICS


def baseline_record(
    snapshot: dict[str, Any], graph_version: int = 0
) -> dict[str, Any]:
    return {
        "kind": "baseline",
        "snapshot": copy.deepcopy(snapshot),
        "graph_version": graph_version,
    }


def metrics_delta_record(
    before: dict[str, Any], after: dict[str, Any]
) -> dict[str, Any] | None:
    """Sparse absolute-value delta ``before -> after`` (None if equal).

    Every changed counter/gauge key carries its new absolute value;
    changed histograms travel whole (boundaries/counts/count/sum) so
    the fold can replace rather than re-derive them.
    """
    b_counters = before.get("counters", {})
    counters = {
        key: value
        for key, value in after.get("counters", {}).items()
        if b_counters.get(key) != value
    }
    b_gauges = before.get("gauges", {})
    gauges = {
        key: value
        for key, value in after.get("gauges", {}).items()
        if b_gauges.get(key) != value
    }
    b_hists = before.get("histograms", {})
    histograms = {
        key: copy.deepcopy(hist)
        for key, hist in after.get("histograms", {}).items()
        if b_hists.get(key) != hist
    }
    if not counters and not gauges and not histograms:
        return None
    return {
        "kind": "metrics",
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
    }


def trace_record(trace: dict[str, Any]) -> dict[str, Any]:
    return {"kind": "trace", "trace": trace}


def alert_record(alert: dict[str, Any]) -> dict[str, Any]:
    return {"kind": "alert", "alert": alert}


def empty_state() -> dict[str, Any]:
    """Fresh consumer-side per-OBI state (snapshot shaped, §9)."""
    return {
        "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
        "traces": [],
        "alerts": [],
        "graph_version": 0,
    }


def fold_records(
    state: dict[str, Any],
    records: Iterable[dict[str, Any]],
    keep_traces: int = DEFAULT_KEEP_TRACES,
    keep_alerts: int = DEFAULT_KEEP_ALERTS,
) -> dict[str, Any]:
    """Apply records to ``state`` in order; returns ``state`` (mutated).

    Baselines replace the metric sections wholesale; metric deltas are
    ``dict.update`` (absolute values, so refolding a replayed record is
    a no-op); traces/alerts append with bounded retention.
    """
    for record in records:
        kind = record.get("kind")
        if kind == "baseline":
            snapshot = copy.deepcopy(record.get("snapshot", {}))
            state["metrics"] = {
                "counters": snapshot.get("counters", {}),
                "gauges": snapshot.get("gauges", {}),
                "histograms": snapshot.get("histograms", {}),
            }
            state["graph_version"] = record.get(
                "graph_version", state.get("graph_version", 0)
            )
        elif kind == "metrics":
            metrics = state["metrics"]
            metrics["counters"].update(record.get("counters", {}))
            metrics["gauges"].update(record.get("gauges", {}))
            for key, hist in record.get("histograms", {}).items():
                metrics["histograms"][key] = copy.deepcopy(hist)
        elif kind == "trace":
            state["traces"].append(record["trace"])
            if len(state["traces"]) > keep_traces:
                del state["traces"][: -keep_traces]
        elif kind == "alert":
            state["alerts"].append(record["alert"])
            if len(state["alerts"]) > keep_alerts:
                del state["alerts"][: -keep_alerts]
    return state
