"""Observability plane: metrics registry + sampled per-packet tracing.

See ``docs/DESIGN.md`` (Observability) and ``docs/PROTOCOL.md`` §9 for
how snapshots travel from OBIs to the controller.
"""

from repro.observability.metrics import (
    LATENCY_BUCKETS,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    diff_snapshots,
    set_default_registry,
)
from repro.observability.tracing import (
    PacketTrace,
    PacketTracer,
    TraceSpan,
    render_trace_tree,
)

__all__ = [
    "LATENCY_BUCKETS",
    "SIZE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "set_default_registry",
    "diff_snapshots",
    "PacketTrace",
    "PacketTracer",
    "TraceSpan",
    "render_trace_tree",
]
