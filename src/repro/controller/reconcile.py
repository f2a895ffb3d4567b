"""Anti-entropy reconciliation (PROTOCOL.md §10).

After a controller crash the journal restores *intent* (which graph each
OBI should run, by canonical digest) while the data plane kept running
*reality* (whatever was committed before the crash). This module closes
the gap the way replicated systems do it — periodic anti-entropy:

* every OBI advertises the digest and version of its running graph on
  ``Hello`` and every ``KeepAlive``;
* each reconciliation round compares that **reported** digest against
  the digest of the graph the controller would deploy right now
  (recomputed from the registered applications, not trusted from the
  journal — applications are the source of truth for intent);
* a matching digest is **converged** (or **adopted**, if the controller's
  bookkeeping lagged reality — e.g. right after recovery — which updates
  handles and the journal without any southbound push, so an already-
  correct OBI suffers no duplicate deploy side effects);
* a mismatch is **pushed** via the ordinary two-phase deploy;
* a push rejected with ``stale_generation`` flips the controller's
  ``superseded`` flag and stops the round — a newer controller owns the
  fleet and anti-entropy must not fight it.

Rounds are idempotent: once every OBI reports its intended digest,
further rounds do nothing, which is the convergence criterion
:meth:`AntiEntropyLoop.converged` checks and the chaos suite asserts.

A round is a :class:`~repro.controller.sweep.FleetSweep` over every
known OBI — the same code path application registration deploys
through — so it merges once per distinct applicable-statement list, not
once per OBI.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.controller.sweep import FleetSweep, SweepReport

if TYPE_CHECKING:  # pragma: no cover
    from repro.controller.obc import OpenBoxController


class AntiEntropyLoop:
    """Periodic intended-vs-reported digest reconciliation.

    Drive :meth:`reconcile` from the orchestrator tick or any scheduler;
    :meth:`run_until_converged` iterates rounds for tests and recovery
    drills.
    """

    def __init__(self, controller: "OpenBoxController") -> None:
        self.controller = controller
        self.reports: list[SweepReport] = []

    def reconcile(self) -> SweepReport:
        """One anti-entropy round: a sweep over every known OBI."""
        report = FleetSweep(self.controller).run(
            list(self.controller.obis.values())
        )
        self.reports.append(report)
        return report

    def run_until_converged(self, max_rounds: int = 10) -> list[SweepReport]:
        """Reconcile until a round changes nothing (or rounds run out)."""
        rounds: list[SweepReport] = []
        for _ in range(max_rounds):
            report = self.reconcile()
            rounds.append(report)
            if report.all_converged or report.superseded:
                break
        return rounds

    def converged(self) -> bool:
        """True when every connected OBI reports its intended digest."""
        sweep = FleetSweep(self.controller)
        for handle in self.controller.obis.values():
            intent = sweep.intended(handle)
            if intent is not None and handle.reported_digest != intent.digest:
                return False
        return True
