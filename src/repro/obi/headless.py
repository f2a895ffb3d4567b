"""Headless data plane: an OBI surviving controller absence.

The paper's design keeps *processing* in the data plane and *policy* in
the controller (§3), which means a controller crash must not take
traffic down with it: an OBI that stops hearing from its controller
keeps serving packets on the last graph it committed. What it cannot do
is deliver upstream events — so alerts produced while headless land in
a bounded ring buffer and are replayed, in order, when contact is
re-established.

The buffer is a *ring*: when full, the oldest entry is evicted and the
eviction is **counted** (``dropped``), never silent — on replay the
controller learns both every surviving event and exactly how many were
lost, so its view is degraded but honest.

The ring mechanics now live in :class:`repro.telemetry.ring.TelemetryRing`
(the same bounded, drop-accounted log backs the streaming telemetry bus
of PROTOCOL.md §13); ``HeadlessBuffer`` keeps its original push/drain/
requeue surface as a thin subclass.

"Scaling-sensitive behavior freezes" while headless falls out of the
same rule: the telemetry stream (PROTOCOL.md §13) carries the overload
evidence the controller's scaling loop reads, and a headless OBI
publishes no stream — its telemetry ring keeps accumulating and replays
on reconnect — so no stale half-connected OBI feeds that loop; the
split-brain generation guard (PROTOCOL.md §10) keeps a stale controller
from un-freezing it.
"""

from __future__ import annotations

from typing import Any

from repro.telemetry.ring import TelemetryRing


class HeadlessBuffer(TelemetryRing):
    """Bounded FIFO of upstream alerts with drop accounting.

    ``push`` evicts the oldest entry once ``capacity`` is reached and
    counts the eviction; ``drain`` hands back the surviving entries plus
    the drop count for that headless episode (cumulative totals are
    retained separately for metrics).
    """

    def __init__(self, capacity: int = 256) -> None:
        super().__init__(capacity)

    @property
    def buffered_total(self) -> int:
        """Lifetime count of messages ever buffered (never reset)."""
        return self.appended_total

    def push(self, message: Any) -> bool:
        """Buffer one message; returns False when it evicted the oldest."""
        before = self.dropped_total
        self.append(message)
        return self.dropped_total == before

    def requeue_front(self, messages: list[Any]) -> None:
        """Put partially-replayed entries back at the head, oldest first.

        Used when a replay fails midway (the channel died again): the
        un-replayed suffix must keep its position ahead of anything
        buffered later. Entries shoved past ``capacity`` evict from the
        *newest* end — the front of the buffer is the oldest history and
        is what the drop count already promised to preserve first.
        """
        self.prepend(messages)

    def drain(self) -> tuple[list[Any], int]:
        """Take every buffered entry and the episode's drop count."""
        return self.clear(), self.take_dropped()
