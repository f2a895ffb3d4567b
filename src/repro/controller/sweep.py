"""The fleet sweep: the one way the controller deploys (paper §3.3).

"For each OBI, the controller merges the corresponding graphs to a
single graph and sends this merged processing graph to the instance."
Which graphs correspond is decided by the OBI's place in the segment
tree (§3.4), so a fleet needs one merged graph per *distinct list of
applicable statements*, not one per OBI. A :class:`FleetSweep` is one
pass over some of the fleet that works that way, and every deployment
goes through one: registering or unregistering an application and an
anti-entropy round sweep the fleet, ``update_logic`` sweeps the OBIs the
application applies to, a Hello or an explicit ``deploy`` is a sweep of
one, and declaring a Figure 5 split (``deploy_split``) sweeps its OBIs.

**Placement is intent.** An OBI named in a split declaration runs one
half of its hardware OBI's merged graph (§3.1, Figures 5-6): the
hardware OBI the classifying half, each software OBI the processing
half. The sweep resolves that from the declaration and the current
merge every time, so the split outlives application changes and
anti-entropy rounds; a split that cannot be resolved fails those OBIs
instead of deploying the unsplit graph.

**What a sweep shares.** Each application's ``statements()`` is called
once; the stamped, merged, optimized and validated graph, its
``to_dict()``, its canonical digest and its split halves are computed
once per distinct applicable list
(:class:`~repro.controller.aggregator.SweepApplications`).

**What it never keeps.** All of that dies with the sweep object. There
is no cache between sweeps and therefore no invalidation rule: an
application that mutated its rules is simply asked again.

**When a push is skipped.** Per OBI the sweep compares the freshly
computed digest with what the OBI reports running (Hello, KeepAlive,
deploy response) and with the controller's own bookkeeping:

* *converged* — both match: nothing is sent and nothing is journaled;
  the OBI keeps its engine, flow cache and element state;
* *adopted* — the OBI already runs the graph but bookkeeping lags (a
  controller recovered from its journal): handle and journal are
  updated with no southbound push;
* *pushed* — anything else: the ordinary two-phase
  ``SetProcessingGraphRequest``, journaled on success.

An explicit ``deploy(obi_id)`` forces the push.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, NamedTuple

from repro.controller.aggregator import AggregationResult, SweepApplications
from repro.controller.apps import OpenBoxApplication
from repro.core.graph import GraphValidationError
from repro.protocol.errors import ErrorCode, ProtocolError
from repro.protocol.messages import (
    SetProcessingGraphRequest,
    SetProcessingGraphResponse,
    xid_watermark,
)
from repro.transport.base import ChannelClosed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.controller.obc import ObiHandle, OpenBoxController

CONVERGED, ADOPTED, PUSHED = "converged", "adopted", "pushed"


class Intent(NamedTuple):
    """What should run on one OBI, in every form a sweep needs."""

    result: AggregationResult
    graph_dict: dict[str, Any]
    digest: str


@dataclass
class SweepReport:
    """What one sweep found and did."""

    at: float
    #: Every OBI examined.
    checked: list[str] = field(default_factory=list)
    #: Nothing applies, or reported digest and bookkeeping match intent.
    converged: list[str] = field(default_factory=list)
    #: Matched intent but controller bookkeeping lagged (post-recovery):
    #: adopted without a push.
    adopted: list[str] = field(default_factory=list)
    #: Mismatched: intended graph pushed.
    pushed: list[str] = field(default_factory=list)
    #: (obi_id, reason) for OBIs that could not be converged.
    failed: list[tuple[str, str]] = field(default_factory=list)
    #: The errors of pushes the sweep actually attempted (the OBI had a
    #: channel), or the fence that stopped it from attempting any.
    refused: list[ProtocolError] = field(default_factory=list)
    #: True when a newer controller generation fenced the sweep off.
    superseded: bool = False

    @property
    def all_converged(self) -> bool:
        return not self.pushed and not self.failed and not self.superseded

    def raise_if_refused(self) -> None:
        """Every push attempted was refused: the new application logic
        itself is bad (or this controller is fenced off) — surface it
        to the northbound caller that changed it. One failing OBI among
        accepting ones is recorded, not raised."""
        if self.refused and not self.pushed:
            raise self.refused[0]


class FleetSweep:
    """One pass over (part of) the fleet, sharing work among its OBIs."""

    def __init__(self, controller: "OpenBoxController") -> None:
        self.controller = controller
        self.applications = SweepApplications(controller.applications.values())

    def intended(self, handle: "ObiHandle") -> Intent | None:
        """What should run on ``handle``'s OBI (None: nothing applies).

        A split member runs its half of the hardware OBI's merge; an
        unresolvable split raises :class:`ProtocolError`."""
        site, segment = self._site(handle)
        split = self.controller.splits.get(site)
        if split is None:
            result = self.controller.aggregator.aggregate(
                self.applications, site, segment
            )
        else:
            halves = self.halves(site, segment, split)
            result = halves and halves[handle.obi_id != site]
        if result is None:
            return None
        return Intent(result, *self.applications.wire_form(result))

    def halves(
        self, hw_obi_id: str, segment: str | None, split: dict[str, Any]
    ) -> tuple[AggregationResult, AggregationResult] | None:
        """The merge of ``hw_obi_id`` (in ``segment``) cut by ``split``
        into its hardware and software halves (None: nothing applies).
        Raises :class:`ProtocolError` — never falls back to the unsplit
        graph — when the segment is unknown or the merge cannot be
        split."""
        if segment is None:
            raise ProtocolError(
                ErrorCode.INVALID_GRAPH,
                f"split hardware OBI {hw_obi_id!r} has no known segment",
            )
        merged = self.controller.aggregator.aggregate(
            self.applications, hw_obi_id, segment
        )
        if merged is None:
            return None
        try:
            return self.applications.split(merged, split)
        except GraphValidationError as exc:
            raise ProtocolError(
                ErrorCode.INVALID_GRAPH,
                f"cannot split the merged graph of {hw_obi_id!r}: {exc}",
            ) from exc

    def _site(self, handle: "ObiHandle") -> tuple[str, str | None]:
        """The OBI whose merge ``handle``'s OBI runs — the hardware OBI
        of the split it serves in software, else itself — and that
        OBI's segment (None: not known, live or journaled)."""
        controller, obi_id = self.controller, handle.obi_id
        site = next((
            hw for hw, split in controller.splits.items()
            if obi_id in split["sw_obi_ids"]
        ), obi_id)
        if site == obi_id:
            return site, handle.segment
        hardware = controller.obis.get(site)
        if hardware is not None:
            return site, hardware.segment
        return site, controller.expected_obis.get(site, {}).get("segment")

    def affected_by(
        self, app: OpenBoxApplication, handles: Iterable["ObiHandle"]
    ) -> list["ObiHandle"]:
        """The handles whose merge one of ``app``'s statements applies to."""
        swept, segments = self.applications, self.controller.segments
        affected = []
        for handle in handles:
            site, segment = self._site(handle)
            if segment is not None and any(
                swept.statements[index][0] is app
                for index in swept.applicable(site, segment, segments)
            ):
                affected.append(handle)
        return affected

    def run(self, handles: Iterable["ObiHandle"]) -> SweepReport:
        """Converge every handle; one failing OBI (recorded via the
        deploy-failure path) does not block the rest, a fence by a newer
        controller generation stops the sweep."""
        controller = self.controller
        report = SweepReport(at=controller.clock())
        if controller.superseded:
            report.superseded = True
            report.refused.append(ProtocolError(
                ErrorCode.STALE_GENERATION,
                f"generation {controller.generation} is superseded: a "
                "newer controller owns the fleet",
            ))
            return report
        for handle in handles:
            report.checked.append(handle.obi_id)
            try:
                if controller.superseded:
                    # Fenced mid-sweep (a message from a newer
                    # controller's world arrived): stop *before* any
                    # adopt or push — a ghost must not absorb a
                    # successor's digests into its journal.
                    raise ProtocolError(
                        ErrorCode.STALE_GENERATION,
                        f"generation {controller.generation} superseded "
                        "mid-sweep",
                    )
                outcome = self.converge(handle)
            except ProtocolError as exc:
                report.failed.append((handle.obi_id, str(exc)))
                fenced = exc.code == ErrorCode.STALE_GENERATION
                if fenced or handle.channel is not None:
                    report.refused.append(exc)
                if fenced:
                    report.superseded = True
                    break
                continue
            getattr(report, outcome).append(handle.obi_id)
        return report

    def converge(self, handle: "ObiHandle", force: bool = False) -> str:
        """Bring one OBI onto its intended graph; returns what that took
        (``converged`` / ``adopted`` / ``pushed``, see the module
        docstring). ``force`` pushes whatever the OBI reports. Raises
        :class:`ProtocolError` when a needed push fails."""
        intent = self.intended(handle)
        if intent is None:
            return CONVERGED
        if not force and handle.reported_digest == intent.digest:
            if (
                handle.intended_digest == intent.digest
                and handle.deployed is not None
            ):
                return CONVERGED
            self._adopt(handle, intent)
            return ADOPTED
        self._push(handle, intent)
        return PUSHED

    def _adopt(self, handle: "ObiHandle", intent: Intent) -> None:
        """Reality is right, bookkeeping is behind: record, do not push,
        so an already-correct OBI suffers no duplicate deploy side
        effects after a controller recovery."""
        handle.deployed = intent.result
        handle.intended_digest = intent.digest
        if handle.generation == 0:
            handle.generation = max(1, handle.reported_graph_version)
        self._journal_deploy(handle)

    def _journal_deploy(self, handle: "ObiHandle") -> None:
        self.controller._journal({
            "rec": "deploy", "obi_id": handle.obi_id,
            "digest": handle.intended_digest,
            "graph_version": handle.generation,
            "xid_high": xid_watermark(),
        }, flush=True)

    def _push(self, handle: "ObiHandle", intent: Intent) -> None:
        """The two-phase deploy of ``intent`` to one OBI."""
        controller, obi_id = self.controller, handle.obi_id
        if controller.degraded:
            # Journaled-read-only: a deploy the journal cannot record is
            # a deploy a recovered controller would not know about —
            # exactly the intent-divergence the journal exists to
            # prevent. OBIs keep forwarding on what they already run.
            raise ProtocolError(
                ErrorCode.DEGRADED,
                f"deploy to {obi_id!r} fenced: controller is in "
                "journaled-read-only degraded mode (journal storage "
                "failed); will resume when storage heals",
            )
        started = controller.clock()
        try:
            response = controller.send(obi_id, SetProcessingGraphRequest(
                graph=intent.graph_dict, graph_digest=intent.digest,
            ))
        except ChannelClosed as exc:
            controller._record_deploy_failure(obi_id, f"channel failed: {exc}")
            raise ProtocolError(
                ErrorCode.NOT_CONNECTED, f"OBI {obi_id!r} unreachable: {exc}"
            ) from exc
        finally:
            controller._m_deploy_latency.observe(controller.clock() - started)
        if isinstance(response, SetProcessingGraphResponse) and response.ok:
            handle.deployed = intent.result
            handle.generation += 1
            handle.intended_digest = intent.digest
            handle.reported_digest = response.graph_digest or intent.digest
            handle.reported_graph_version = (
                response.graph_version or handle.generation
            )
            controller.consecutive_deploy_failures.pop(obi_id, None)
            controller._m_deploys.inc()
            self._journal_deploy(handle)
            return
        code = str(getattr(response, "code", ""))
        if code == ErrorCode.STALE_GENERATION:
            # The OBI has obeyed a newer controller (``send`` marked us
            # superseded): not an OBI-side deploy failure.
            raise ProtocolError(
                ErrorCode.STALE_GENERATION,
                f"OBI {obi_id!r} rejected generation {controller.generation}: "
                f"{getattr(response, 'detail', '')}",
            )
        detail = getattr(response, "detail", "") or code
        controller._record_deploy_failure(obi_id, str(detail))
        raise ProtocolError(
            ErrorCode.INVALID_GRAPH, f"OBI {obi_id!r} rejected graph: {detail}"
        )
