"""Process-wide metrics registry: counters, gauges, histograms.

The paper's controller "collects statistics from instances" (§4.1) but
never says what a statistic *is*; this module pins it down for the whole
reproduction. Every layer — the element traversal, the flow-decision
fast path, OBI admission, the transports, and the controller's
deploy/scaling/stats loops — registers named instruments here and bumps
them through cheap pre-resolved handles, so the hot path pays one
attribute increment per event and nothing else.

Three instrument kinds, Prometheus-shaped on purpose (the snapshot dict
maps 1:1 onto an exposition format if a real scraper is ever bolted on):

* :class:`Counter` — monotonic event count (``inc``).
* :class:`Gauge` — last-write-wins level (``set``).
* :class:`Histogram` — fixed bucket boundaries declared at registration;
  **no wall-clock values ever appear in metric keys**, only in observed
  samples, so snapshots from different machines/times diff cleanly.

Registries are instantiable (each OBI owns one, so an observability
snapshot is per-instance) and there is one process-wide
default (:func:`default_registry`) for code without a natural owner —
transport channels and controller loops. Increments are plain int/float
``+=`` under the GIL: statistically exact for CPython's atomic cases and
close enough for telemetry everywhere else; instrument *creation* is
locked.
"""

from __future__ import annotations

import bisect
import re
import threading
from typing import Any, Iterable, Iterator

#: Default latency boundaries (seconds): 10 µs .. 5 s, roughly log-spaced.
LATENCY_BUCKETS = (
    0.00001, 0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
)

#: Default boundaries for small cardinalities (path lengths, batch sizes).
SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)


def _key(name: str, labels: dict[str, Any]) -> str:
    """Canonical instrument key: ``name`` or ``name{k=v,...}`` (sorted)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("key", "value")

    def __init__(self, key: str) -> None:
        self.key = key
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A last-write-wins level (cache entries, degraded flag, ...)."""

    __slots__ = ("key", "value")

    def __init__(self, key: str) -> None:
        self.key = key
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A distribution over fixed, registration-time bucket boundaries.

    ``counts[i]`` counts observations ``<= boundaries[i]``; the final
    slot is the overflow bucket (everything above the last boundary) —
    no ``+inf`` sentinel, so snapshots stay strict-JSON serializable.
    """

    __slots__ = ("key", "boundaries", "counts", "count", "sum")

    def __init__(self, key: str, boundaries: Iterable[float]) -> None:
        self.key = key
        self.boundaries = tuple(sorted(boundaries))
        if not self.boundaries:
            raise ValueError("histogram needs at least one bucket boundary")
        self.counts = [0] * (len(self.boundaries) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value``."""
        self.counts[bisect.bisect_left(self.boundaries, value)] += count
        self.count += count
        self.sum += value * count

    def quantile(self, q: float) -> float:
        """Upper-boundary estimate of the ``q`` quantile (0 if empty)."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for boundary, bucket in zip(self.boundaries, self.counts):
            seen += bucket
            if seen >= target:
                return boundary
        return self.boundaries[-1]


class MetricsRegistry:
    """Named instruments with cached handles and a JSON-able snapshot."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Instrument registration (idempotent: same key -> same object)
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        key = _key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(key, Counter(key))
        return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = _key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(key, Gauge(key))
        return instrument

    def histogram(
        self,
        name: str,
        buckets: Iterable[float] = LATENCY_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        key = _key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(
                    key, Histogram(key, buckets)
                )
        return instrument

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """A plain-dict view of every instrument (JSON-serializable)."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: {
                    "boundaries": list(h.boundaries),
                    "counts": list(h.counts),
                    "count": h.count,
                    "sum": h.sum,
                }
                for k, h in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        """Zero every instrument (handles stay valid)."""
        with self._lock:
            for counter in self._counters.values():
                counter.value = 0
            for gauge in self._gauges.values():
                gauge.value = 0.0
            for histogram in self._histograms.values():
                histogram.counts = [0] * (len(histogram.boundaries) + 1)
                histogram.count = 0
                histogram.sum = 0.0


# ----------------------------------------------------------------------
# Process-wide default registry
# ----------------------------------------------------------------------
_default = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry (transports, controller loops)."""
    return _default


# ----------------------------------------------------------------------
# Snapshot algebra and exposition (used by `repro.tools.obsv`)
# ----------------------------------------------------------------------
def diff_snapshots(
    before: dict[str, Any], after: dict[str, Any]
) -> dict[str, Any]:
    """Counter/histogram deltas and gauge changes between two snapshots.

    Keys absent from ``before`` diff against zero; keys absent from
    ``after`` are dropped (the instrument disappeared with its owner).
    """
    b_counters = before.get("counters", {})
    counters = {
        key: value - b_counters.get(key, 0)
        for key, value in after.get("counters", {}).items()
        if value != b_counters.get(key, 0)
    }
    b_gauges = before.get("gauges", {})
    gauges = {
        key: {"from": b_gauges.get(key, 0), "to": value}
        for key, value in after.get("gauges", {}).items()
        if value != b_gauges.get(key, 0)
    }
    histograms: dict[str, Any] = {}
    b_hists = before.get("histograms", {})
    for key, hist in after.get("histograms", {}).items():
        base = b_hists.get(key)
        if base is not None and base["boundaries"] == hist["boundaries"]:
            delta_count = hist["count"] - base["count"]
            delta_sum = hist["sum"] - base["sum"]
        else:
            delta_count, delta_sum = hist["count"], hist["sum"]
        if delta_count:
            histograms[key] = {"count": delta_count, "sum": delta_sum}
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


_KEYED = re.compile(r"^(?P<name>[^{]+)\{(?P<labels>.*)\}$")
_INVALID_NAME_CHAR = re.compile(r"[^a-zA-Z0-9_:]")


def _split_key(key: str) -> tuple[str, dict[str, str]]:
    """``name{k=v,...}`` → (name, labels); bare names pass through."""
    match = _KEYED.match(key)
    if not match:
        return key, {}
    labels: dict[str, str] = {}
    for pair in match.group("labels").split(","):
        if not pair:
            continue
        k, _, v = pair.partition("=")
        labels[k.strip()] = v.strip()
    return match.group("name"), labels


def _format(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _sample(name: str, labels: dict[str, str], value: float) -> str:
    name = _INVALID_NAME_CHAR.sub("_", name)
    if not labels:
        return f"{name} {_format(value)}"
    inner = ",".join(
        f'{k}="{_escape(str(v))}"' for k, v in sorted(labels.items())
    )
    return f"{name}{{{inner}}} {_format(value)}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _histogram_samples(key: str, hist: dict[str, Any]) -> Iterator[str]:
    name, labels = _split_key(key)
    counts = list(hist.get("counts", []))
    cumulative = 0
    for index, bound in enumerate(hist.get("boundaries", [])):
        cumulative += counts[index] if index < len(counts) else 0
        yield _sample(
            f"{name}_bucket", {**labels, "le": _format(float(bound))},
            cumulative,
        )
    total = hist.get("count", sum(counts))
    yield _sample(f"{name}_bucket", {**labels, "le": "+Inf"}, total)
    yield _sample(f"{name}_count", labels, total)
    yield _sample(f"{name}_sum", labels, hist.get("sum", 0.0))


def render_prometheus(metrics: dict[str, Any]) -> str:
    """Prometheus exposition text (0.0.4) for one snapshot dict.

    Counters and gauges become single samples; a histogram expands into
    cumulative ``_bucket`` series with ``le`` labels plus ``_count`` and
    ``_sum``. Registry keys ``name{k=v,...}`` become Prometheus labels
    (``name{k="v",...}``), and each family gets one ``# TYPE`` line.
    """
    lines: list[str] = []
    typed: set[str] = set()
    for section, kind in (
        ("counters", "counter"), ("gauges", "gauge"),
        ("histograms", "histogram"),
    ):
        values = metrics.get(section, {})
        for key in sorted(values):
            name, labels = _split_key(key)
            family = _INVALID_NAME_CHAR.sub("_", name)
            if family not in typed:
                typed.add(family)
                lines.append(f"# TYPE {family} {kind}")
            if kind == "histogram":
                lines.extend(_histogram_samples(key, values[key]))
            else:
                lines.append(_sample(name, labels, values[key]))
    return "\n".join(lines) + "\n"
