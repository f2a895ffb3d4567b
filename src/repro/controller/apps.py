"""The northbound application API (paper §3.4).

"An application defines a single network function (NF) by statement
declarations. Each statement consists of a location specifier, which
specifies a network segment or a specific OBI, and a processing graph
associated with this location. Applications are event-driven."

Subclass :class:`OpenBoxApplication`, implement :meth:`statements`, and
optionally override the event hooks. Applications never see each other's
logic — the controller is the only party that observes merged graphs
(paper §6, tenant isolation).
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.core.graph import ProcessingGraph
from repro.protocol.messages import Alert, GlobalStatsResponse

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.controller.obc import OpenBoxController
    from repro.controller.results import (
        AppStatsView,
        HandleReadResult,
        HandleWriteResult,
    )


@dataclass(frozen=True)
class AppStatement:
    """One location-scoped processing-graph declaration.

    ``segment`` scopes by segment path; ``obi_id`` pins to one instance.
    Exactly one of the two may be set (``segment=""`` with no obi_id
    means network-wide); setting both raises — the obi_id used to win
    silently, leaving the segment a lie. Statements naming a segment
    unknown to the controller's hierarchy are additionally rejected at
    ``register_application`` time.
    """

    graph: ProcessingGraph
    segment: str = ""
    obi_id: str | None = None

    def __post_init__(self) -> None:
        if self.obi_id is not None and self.segment:
            raise ValueError(
                f"AppStatement scopes both segment {self.segment!r} and "
                f"obi_id {self.obi_id!r}; set exactly one (an obi_id already "
                "pins the statement to that instance regardless of segment)"
            )

    def applies_to(self, obi_id: str, obi_segment: str, hierarchy: Any) -> bool:
        if self.obi_id is not None:
            return self.obi_id == obi_id
        return hierarchy.in_scope(obi_segment, self.segment)


#: How many recent alerts the controller and each application retain.
#: Alert logs live as long as the process and alerts arrive at packet
#: rate, so they are rings; the monotonic count is the
#: ``controller_alerts_received_total`` metric.
ALERT_LOG_SIZE = 1024


class OpenBoxApplication:
    """Base class for OpenBox applications.

    ``priority`` orders applications in the logical service chain: lower
    values run earlier (the firewall typically precedes the IPS). The
    controller preserves this order when merging (paper §3.4.1:
    "preserving application priority and ordering").

    ``mergeable=False`` marks an application whose logic changes too
    frequently to be worth merging (paper §3.4); the controller chains
    such graphs naively instead of merging them with their neighbors.
    """

    def __init__(self, name: str, priority: int = 100, mergeable: bool = True) -> None:
        self.name = name
        self.priority = priority
        self.mergeable = mergeable
        self.controller: "OpenBoxController | None" = None
        #: The most recent alerts only (see :data:`ALERT_LOG_SIZE`).
        self.alerts_received: collections.deque[Alert] = collections.deque(
            maxlen=ALERT_LOG_SIZE
        )

    # ------------------------------------------------------------------
    # To implement in subclasses
    # ------------------------------------------------------------------
    def statements(self) -> list[AppStatement]:
        """Declare the application's processing graphs."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Event hooks (called by the controller)
    # ------------------------------------------------------------------
    def on_start(self, controller: "OpenBoxController") -> None:
        """Called when the application is registered."""

    def on_alert(self, alert: Alert) -> None:
        """An Alert originating from this application's blocks arrived."""
        self.alerts_received.append(alert)

    def on_obi_connected(self, obi_id: str) -> None:
        """A new OBI this application applies to came online."""

    def on_obi_disconnected(self, obi_id: str) -> None:
        """An OBI went away (scale-in, failure, admin action)."""

    def on_stats(self, stats: GlobalStatsResponse) -> None:
        """A GlobalStats response this application requested arrived."""

    # ------------------------------------------------------------------
    # Downstream requests (through the controller, paper §4.1)
    # ------------------------------------------------------------------
    def request_read(
        self,
        obi_id: str,
        block: str,
        handle: str,
    ) -> "HandleReadResult":
        """Invoke a read handle in the data plane.

        Returns a typed :class:`~repro.controller.results.HandleReadResult`
        carrying per-clone values, per-block errors, and round-trip
        latency; ``result.value`` gives the aggregated value.
        """
        return self._require_controller().app_read(self, obi_id, block, handle)

    def request_write(
        self,
        obi_id: str,
        block: str,
        handle: str,
        value: Any,
    ) -> "HandleWriteResult":
        """Invoke a write handle in the data plane; returns a typed result."""
        return self._require_controller().app_write(
            self, obi_id, block, handle, value
        )

    def request_stats(self, obi_id: str) -> "AppStatsView":
        """Request load information from an OBI (paper §3.4 example)."""
        return self._require_controller().app_stats(self, obi_id)

    def update_logic(self) -> None:
        """Signal that :meth:`statements` changed; triggers redeployment.

        This is the downstream reconfiguration path of paper §3.4: e.g.
        an IPS that detected an attack tightens its policies.
        """
        self._require_controller().redeploy_app(self)

    def _require_controller(self) -> "OpenBoxController":
        if self.controller is None:
            raise RuntimeError(f"application {self.name!r} is not registered")
        return self.controller


class FunctionApplication(OpenBoxApplication):
    """Adapter: wrap a plain graph-producing function as an application.

    Convenient for tests and quick experiments::

        app = FunctionApplication("fw", lambda: [AppStatement(graph)])
    """

    def __init__(
        self,
        name: str,
        statements_fn: Callable[[], list[AppStatement]],
        priority: int = 100,
        mergeable: bool = True,
    ) -> None:
        super().__init__(name, priority=priority, mergeable=mergeable)
        self._statements_fn = statements_fn

    def statements(self) -> list[AppStatement]:
        return self._statements_fn()
