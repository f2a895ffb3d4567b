"""Session-state migration between OBI replicas (paper §3.4.2).

"Frameworks such as OpenNF [18] can be used as-is to allow replication
and migration of OBIs along with their stored data, to ensure correct
behavior of applications in such cases."

This module implements the controller-side mechanism OpenNF would drive:
export the session storage of one OBI, import it into another, with
loss-free semantics for the scaling events this repo performs
(scale-out: copy state so reassigned flows keep their session data;
scale-in: fold the victim's state back into the survivors).

The protocol grows two message pairs (ExportState / ImportState), which
the OBI serves from its session storage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, TypeVar

from repro.protocol.errors import ErrorCode, ProtocolError
from repro.protocol.messages import (
    Alert,
    ExportStateRequest,
    ExportStateResponse,
    ImportStateRequest,
    ImportStateResponse,
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
    """What a migration moved."""

    source: str
    target: str
    flows_exported: int
    flows_imported: int
    #: Entries the importer refused, keyed by reason ("malformed",
    #: "expired", "capacity"). Empty on a loss-free transfer.
    rejected: dict[str, int] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.flows_imported >= self.flows_exported


class StateMigrator:
    """Moves per-flow session state between OBIs through the protocol."""

    def __init__(self, controller: "OpenBoxController") -> None:
        self.controller = controller
        self.reports: list[MigrationReport] = []

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

    def export_state(self, obi_id: str) -> list[dict[str, Any]]:
        """Snapshot ``obi_id``'s session storage (one entry per flow)."""
        return self._request(
            obi_id, ExportStateRequest(), ExportStateResponse
        ).state

    def import_state(self, obi_id: str, state: list[dict[str, Any]]) -> int:
        """Install exported state into ``obi_id``; returns flows imported."""
        return self.import_state_checked(obi_id, state).flows_imported

    def import_state_checked(
        self, obi_id: str, state: list[dict[str, Any]]
    ) -> ImportStateResponse:
        """Install exported state; returns the full response (rejections)."""
        return self._request(
            obi_id, ImportStateRequest(state=state), ImportStateResponse
        )

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
        """Install a dead ``source``'s checkpoint into ``target``, fenced.

        The target remembers the highest generation imported per source;
        a stale checkpoint (a partitioned ghost's leftovers) comes back
        ``stale=True`` instead of clobbering newer state.
        """
        return self._request(target, StateHandoffRequest(
            source_obi=source, state_generation=generation, state=entries,
        ), StateHandoffResponse)

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

        Used on scale-out (before steering moves flows to the new
        replica) and scale-in (before a victim is deprovisioned).
        Verifies the importer accepted every exported flow — a partial
        transfer raises a ``_controller`` alert with the per-reason
        rejection counts so the operator knows state was lost.
        """
        state = self.export_state(source)
        response = self.import_state_checked(target, state)
        report = MigrationReport(
            source=source, target=target,
            flows_exported=len(state),
            flows_imported=response.flows_imported,
            rejected=dict(response.rejected),
        )
        if not report.complete:
            self._alert_partial(report)
        self.reports.append(report)
        return report
