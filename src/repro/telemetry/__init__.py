"""Streaming telemetry bus: push-based observability at fleet scale.

The one way to observe an OBI: OBIs *push* cursored records (sparse
metric deltas, sampled trace spans, alerts) through a bounded
:class:`~repro.telemetry.ring.TelemetryRing`, the controller folds them
into per-OBI snapshot state (:class:`~repro.telemetry.bus.TelemetryBus`)
and exposes a ``watch()``/``subscribe()`` northbound API — so cost
scales with *change rate*, not OBI count.

Wire format: ``TelemetrySubscribe`` / ``TelemetryStream`` /
``TelemetryAck`` (PROTOCOL.md §13). Delivery is at-least-once: records
carry ring sequence numbers, the subscriber's cursor dedupes replays,
and eviction is never silent (drop accounting + rebaseline).
"""
