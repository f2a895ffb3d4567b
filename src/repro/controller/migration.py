"""Session-state migration between OBI replicas (paper §3.4.2).

"Frameworks such as OpenNF [18] can be used as-is to allow replication
and migration of OBIs along with their stored data, to ensure correct
behavior of applications in such cases."

This module implements the controller-side mechanism OpenNF would drive:
checkpoint the session storage of one OBI, hand it off to another, with
loss-free semantics for the scaling events this repo performs
(scale-out: copy state so reassigned flows keep their session data;
scale-in and failover: fold the victim's state into a survivor).

One message pair exports (StateCheckpoint) and one imports
(StateHandoff, fenced by the source's state generation; PROTOCOL.md
§11). Every handoff is accounted: a transfer the importer only partly
accepts raises a ``_controller`` alert.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, TypeVar

from repro.protocol.errors import ErrorCode, ProtocolError
from repro.protocol.messages import (
    Alert,
    Message,
    StateCheckpointRequest,
    StateCheckpointResponse,
    StateHandoffRequest,
    StateHandoffResponse,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.controller.obc import OpenBoxController

M = TypeVar("M", bound=Message)


@dataclass
class MigrationReport:
    """What one handoff moved."""

    source: str
    target: str
    flows_exported: int
    flows_imported: int
    #: Entries the importer refused, keyed by reason ("malformed",
    #: "expired", "capacity", or "stale" for a fenced-off handoff).
    #: Empty on a loss-free transfer.
    rejected: dict[str, int] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.flows_imported >= self.flows_exported


class StateMigrator:
    """Moves per-flow session state between OBIs through the protocol."""

    #: Handoff reports kept for audit (oldest dropped first).
    REPORTS_KEPT = 256

    def __init__(self, controller: "OpenBoxController") -> None:
        self.controller = controller
        self.reports: collections.deque[MigrationReport] = collections.deque(
            maxlen=self.REPORTS_KEPT
        )

    def _request(self, obi_id: str, message: Message, expected: type[M]) -> M:
        """Send ``message`` to ``obi_id``; anything but an ``expected``
        answer raises."""
        response = self.controller.send(obi_id, message)
        if not isinstance(response, expected):
            raise ProtocolError(
                ErrorCode.INTERNAL_ERROR,
                f"unexpected answer to {message.TYPE}: {type(response).__name__}",
            )
        return response

    def export_checkpoint(self, obi_id: str) -> dict[str, Any]:
        """Snapshot ``obi_id``'s flow state with its generation number.

        Returns ``{"generation": int, "entries": [...]}`` — the shape
        the orchestrator stores per OBI and feeds to :meth:`handoff`
        when that OBI later dies (PROTOCOL.md §11).
        """
        response = self._request(
            obi_id, StateCheckpointRequest(), StateCheckpointResponse
        )
        return {
            "generation": response.state_generation,
            "entries": response.state,
        }

    def handoff(
        self,
        source: str,
        target: str,
        generation: int,
        entries: list[dict[str, Any]],
    ) -> StateHandoffResponse:
        """Install ``source``'s checkpoint into ``target``, fenced.

        The target remembers the highest generation imported per source;
        a stale checkpoint (a partitioned ghost's leftovers) comes back
        ``stale=True`` instead of clobbering newer state. Every answered
        handoff appends a :class:`MigrationReport`, and one that did not
        install every entry raises a ``_controller`` alert with the
        per-reason rejection counts so the operator knows state was lost.
        """
        response = self._request(target, StateHandoffRequest(
            source_obi=source, state_generation=generation, state=entries,
        ), StateHandoffResponse)
        rejected = dict(response.rejected)
        if response.stale and entries:
            rejected["stale"] = len(entries)
        report = MigrationReport(
            source=source, target=target,
            flows_exported=len(entries),
            flows_imported=response.flows_imported,
            rejected=rejected,
        )
        if not report.complete:
            self._alert_partial(report)
        self.reports.append(report)
        return response

    def _alert_partial(self, report: MigrationReport) -> None:
        """Surface a lossy transfer as a controller-origin alert."""
        detail = ", ".join(
            f"{reason}={count}"
            for reason, count in sorted(report.rejected.items())
        ) or "unknown"
        self.controller._handle_alert(Alert(
            obi_id=report.target,
            origin_app=self.controller.CONTROLLER_ORIGIN,
            message=(
                f"state migration {report.source!r} -> {report.target!r} "
                f"partial: imported {report.flows_imported}/"
                f"{report.flows_exported} flows (rejected: {detail})"
            ),
            severity="warning",
        ))

    def migrate(self, source: str, target: str) -> MigrationReport:
        """Copy all of ``source``'s session state to ``target``.

        Used on scale-out, before steering moves flows to the new
        replica: a checkpoint of the live ``source`` handed off to
        ``target`` — the same fenced, accounted path as failover.
        """
        checkpoint = self.export_checkpoint(source)
        self.handoff(
            source, target, checkpoint["generation"], checkpoint["entries"]
        )
        return self.reports[-1]
