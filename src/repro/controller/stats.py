"""OBI liveness and load tracking.

The controller "can request system information, such as CPU load and
memory usage, from OBIs. It can use this information to scale and
provision additional service instances, or merge the tasks of multiple
underutilized instances and take some of them down" (paper §3.3).

:class:`ObiStatsTracker` records keepalives and the latest GlobalStats
per OBI; the scaling manager consumes its view, and the orchestrator's
failover stage consumes :meth:`ObiStatsTracker.dead_obis` — liveness is
evidenced by *any* message from the OBI (keepalive, stats response or
pushed telemetry stream), so a silent-but-polled
instance is not declared dead while one that answers nothing for
``liveness_timeout`` is.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.protocol.messages import GlobalStatsResponse


@dataclass
class ObiLoadView:
    """The controller's current knowledge about one OBI."""

    obi_id: str
    last_keepalive: float = 0.0
    #: Last time *any* evidence of liveness arrived (keepalive, stats,
    #: or a pushed telemetry stream).
    last_heard: float = 0.0
    keepalives: int = 0
    last_stats: GlobalStatsResponse | None = None
    stats_history: list[tuple[float, float]] = field(default_factory=list)
    #: The OBI's ``obi_packets_shed_total`` as of the previous telemetry
    #: fold: shedding progress is measured against it.
    packets_shed: int = 0
    #: True while the OBI reports overload evidence: running degraded or
    #: actively shedding packets since the previous telemetry fold.
    overloaded: bool = False

    @property
    def cpu_load(self) -> float:
        return self.last_stats.cpu_load if self.last_stats is not None else 0.0

    def add_sample(self, now: float, load: float, limit: int) -> None:
        """Append a load sample, enforcing ``limit`` on every append."""
        self.stats_history.append((now, load))
        excess = len(self.stats_history) - limit
        if excess > 0:
            del self.stats_history[:excess]

    def smoothed_load(self, window: int = 5) -> float:
        """Mean of the last ``window`` CPU-load samples (0 if none)."""
        recent = self.stats_history[-window:]
        if not recent:
            return 0.0
        return sum(load for _ts, load in recent) / len(recent)

    def effective_load(self, window: int = 5) -> float:
        """Load as the scaling loop should see it.

        An OBI shedding packets at its admission gate is at capacity no
        matter what its smoothed CPU samples say (samples lag, and a shed
        packet consumes no CPU) — overload evidence pins the effective
        load to 1.0 so the scale-up threshold is guaranteed to trip.
        """
        smoothed = self.smoothed_load(window)
        return 1.0 if self.overloaded else smoothed


class ObiStatsTracker:
    """Tracks liveness and load for every connected OBI."""

    def __init__(
        self,
        liveness_timeout: float = 30.0,
        history_limit: int = 1000,
        clock: "Callable[[], float] | None" = None,
    ) -> None:
        if history_limit < 1:
            raise ValueError("history_limit must be >= 1")
        self.liveness_timeout = liveness_timeout
        self.history_limit = history_limit
        # Injectable monotonic clock: liveness math must never read the
        # wall clock directly, so virtual-time tests stay deterministic.
        self.clock = clock or time.monotonic
        self._views: dict[str, ObiLoadView] = {}
        #: Audit log of declared failures: (obi_id, when declared).
        self.failures: list[tuple[str, float]] = []

    def register(self, obi_id: str, now: float) -> ObiLoadView:
        view = self._views.get(obi_id)
        if view is None:
            view = ObiLoadView(obi_id=obi_id, last_keepalive=now, last_heard=now)
            self._views[obi_id] = view
        return view

    def forget(self, obi_id: str) -> None:
        self._views.pop(obi_id, None)

    def record_failure(self, obi_id: str, now: float) -> None:
        """Audit that ``obi_id`` was declared failed at ``now``."""
        self.failures.append((obi_id, now))

    def record_heard(self, obi_id: str, now: float) -> ObiLoadView:
        """Any message from ``obi_id`` is liveness evidence."""
        view = self.register(obi_id, now)
        view.last_heard = max(view.last_heard, now)
        return view

    def record_keepalive(self, obi_id: str, now: float) -> None:
        view = self.record_heard(obi_id, now)
        view.last_keepalive = now
        view.keepalives += 1

    def record_stats(self, stats: GlobalStatsResponse, now: float) -> None:
        view = self.record_heard(stats.obi_id, now)
        view.last_stats = stats
        view.add_sample(now, stats.cpu_load, self.history_limit)

    def record_overload(
        self, obi_id: str, degraded: bool, packets_shed: int, now: float
    ) -> None:
        """Fold one telemetry stream's overload evidence into the view.

        Overload evidence is shedding *progress* (the shed counter grew
        since the previous fold) or currently-degraded mode; a historical
        shed counter alone does not keep an OBI marked overloaded
        forever. The stream is liveness evidence too.
        """
        view = self.record_heard(obi_id, now)
        view.overloaded = degraded or packets_shed > view.packets_shed
        view.packets_shed = packets_shed

    def view(self, obi_id: str) -> ObiLoadView | None:
        return self._views.get(obi_id)

    def is_live(self, obi_id: str, now: float | None = None) -> bool:
        if now is None:
            now = self.clock()
        view = self._views.get(obi_id)
        return view is not None and now - view.last_heard <= self.liveness_timeout

    def live_obis(self, now: float | None = None) -> list[str]:
        if now is None:
            now = self.clock()
        return [
            view.obi_id for view in self._views.values()
            if now - view.last_heard <= self.liveness_timeout
        ]

    def dead_obis(self, now: float | None = None) -> list[str]:
        if now is None:
            now = self.clock()
        return [
            view.obi_id for view in self._views.values()
            if now - view.last_heard > self.liveness_timeout
        ]
