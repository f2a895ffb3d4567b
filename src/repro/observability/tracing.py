"""Sampled per-packet trace spans with application attribution.

The controller's demultiplexing story (paper §4.1: alerts and responses
are routed back to the *originating application* via merge provenance)
is invisible at packet granularity — ``PacketHistory`` records the block
path but not who owns each hop or what it cost. A :class:`PacketTrace`
fixes that: for a sampled packet the engine records one
:class:`TraceSpan` per element visit — enter/exit timestamps, the output
port(s) taken, fast-path replay markers, and fault-containment events —
each stamped with the element's ``origin_app`` (the provenance the
aggregator preserves through merging).

Tracing is strictly observational: a traced traversal produces a
byte-identical :class:`~repro.obi.engine.PacketOutcome` to an untraced
one (property-tested), and the disabled path costs one ``is None`` check
per element visit. Sampling is deterministic — 1-in-N by packet counter,
no RNG, no wall clock in the decision — so two replays of the same
workload sample the same packets.
"""

from __future__ import annotations

import collections
from typing import Any, Callable


class TraceSpan:
    """One element visit inside a sampled packet traversal."""

    __slots__ = (
        "index", "parent", "block", "origin_app",
        "enter", "exit", "ports", "replayed", "event",
    )

    def __init__(
        self, index: int, parent: int, block: str, origin_app: str | None,
        enter: float,
    ) -> None:
        self.index = index
        #: Index of the span that emitted the packet to this element
        #: (-1 for the graph's entry element); forks (Mirror/Tee) give
        #: several spans the same parent, forming the trace tree.
        self.parent = parent
        self.block = block
        #: Merge provenance: which application contributed this block.
        self.origin_app = origin_app
        self.enter = enter
        self.exit = enter
        #: Output ports emitted, in emission order (empty = absorbed).
        self.ports: list[int] = []
        #: True when the fast path replayed a cached decision instead of
        #: running the element's match computation.
        self.replayed = False
        #: Robustness annotation: ``quarantine-bypass``, ``fault:<policy>``,
        #: or ``degraded-bypass``; None for a clean visit.
        self.event: str | None = None

    @property
    def duration(self) -> float:
        return self.exit - self.enter

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "parent": self.parent,
            "block": self.block,
            "origin_app": self.origin_app,
            "enter": self.enter,
            "exit": self.exit,
            "ports": list(self.ports),
            "replayed": self.replayed,
            "event": self.event,
        }


class PacketTrace:
    """All spans of one sampled packet, plus its verdict."""

    __slots__ = (
        "seq", "packet_summary", "spans", "started", "finished",
        "dropped", "punted", "fastpath", "alerts", "errors",
    )

    def __init__(self, seq: int, packet_summary: str, started: float) -> None:
        #: Ordinal among *sampled* packets (not all packets).
        self.seq = seq
        self.packet_summary = packet_summary
        self.spans: list[TraceSpan] = []
        self.started = started
        self.finished = started
        self.dropped = False
        self.punted = False
        #: True when the traversal replayed cached flow decisions.
        self.fastpath = False
        self.alerts = 0
        self.errors = 0

    # ------------------------------------------------------------------
    # Engine hooks (hot only for sampled packets)
    # ------------------------------------------------------------------
    def enter(
        self, block: str, origin_app: str | None, parent: int, now: float
    ) -> TraceSpan:
        span = TraceSpan(len(self.spans), parent, block, origin_app, now)
        self.spans.append(span)
        return span

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def duration(self) -> float:
        return self.finished - self.started

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "packet": self.packet_summary,
            "started": self.started,
            "finished": self.finished,
            "dropped": self.dropped,
            "punted": self.punted,
            "fastpath": self.fastpath,
            "alerts": self.alerts,
            "errors": self.errors,
            "spans": [span.to_dict() for span in self.spans],
        }


def render_trace_tree(trace: dict[str, Any]) -> str:
    """Pretty-print a serialized trace as an indented span tree.

    Works on the wire form (plain dicts), so the ``obsv`` CLI can render
    snapshots pulled from any OBI without reconstructing objects.
    """
    spans = trace.get("spans", [])
    lines = [
        f"packet {trace.get('packet', '?')}  "
        f"({'fastpath, ' if trace.get('fastpath') else ''}"
        f"{'dropped' if trace.get('dropped') else 'punted' if trace.get('punted') else 'forwarded'}, "
        f"{(trace.get('finished', 0.0) - trace.get('started', 0.0)) * 1e6:.1f} µs, "
        f"{len(spans)} spans)"
    ]
    children: dict[int, list[dict[str, Any]]] = {}
    for span in spans:
        children.setdefault(span.get("parent", -1), []).append(span)

    def walk(parent: int, depth: int) -> None:
        for span in children.get(parent, ()):
            marks = []
            if span.get("replayed"):
                marks.append("replayed")
            if span.get("event"):
                marks.append(span["event"])
            app = span.get("origin_app") or "-"
            ports = ",".join(str(p) for p in span.get("ports", ())) or "∅"
            lines.append(
                "  " * (depth + 1)
                + f"{span.get('block')} [{app}] -> port {ports} "
                f"({(span.get('exit', 0.0) - span.get('enter', 0.0)) * 1e6:.1f} µs"
                + (", " + ", ".join(marks) if marks else "")
                + ")"
            )
            walk(span["index"], depth + 1)

    walk(-1, 0)
    return "\n".join(lines)


class PacketTracer:
    """Deterministic 1-in-N packet sampler owning a bounded trace ring.

    Owned by the OBI (like the flow cache and robustness state) so
    traces and sampling counters survive graph redeployments. A
    ``sample_rate`` of 0 is the hard off-switch — :meth:`should_sample`
    is never consulted because the instance installs no tracer at all —
    and the engine's per-element cost collapses to one None check.
    """

    def __init__(
        self,
        sample_rate: float = 0.0,
        buffer: int = 64,
        clock: Callable[[], float] | None = None,
    ) -> None:
        import time

        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        self.sample_rate = sample_rate
        #: Sample every Nth packet; 0 disables sampling entirely.
        self.interval = int(round(1.0 / sample_rate)) if sample_rate > 0 else 0
        self.clock = clock or time.monotonic
        self.recent: collections.deque[PacketTrace] = collections.deque(
            maxlen=max(1, buffer)
        )
        self.seen = 0
        self.sampled = 0

    def should_sample(self) -> bool:
        """Deterministic decision for the next packet (counts it seen)."""
        self.seen += 1
        if self.interval == 0:
            return False
        return self.interval == 1 or self.seen % self.interval == 1

    def begin(self, packet_summary: str) -> PacketTrace:
        self.sampled += 1
        return PacketTrace(self.sampled, packet_summary, self.clock())

    def finish(self, trace: PacketTrace, outcome: Any) -> None:
        """Stamp the verdict and retain the trace in the ring."""
        trace.finished = self.clock()
        trace.dropped = outcome.dropped
        trace.punted = outcome.punted
        trace.alerts = len(outcome.alerts)
        trace.errors = len(outcome.errors)
        self.recent.append(trace)

    def traces(self, limit: int = 0) -> list[dict[str, Any]]:
        """The most recent traces, serialized (``limit`` 0 = all kept)."""
        retained = list(self.recent)
        if limit > 0:
            retained = retained[-limit:]
        return [trace.to_dict() for trace in retained]
