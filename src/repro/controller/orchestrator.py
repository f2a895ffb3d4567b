"""The orchestration loop: failover → stats → scaling → migration → steering.

The paper's controller "can use this information to scale and provision
additional service instances, or merge the tasks of multiple
underutilized instances and take some of them down" (§3.3). This module
closes that loop as one periodic tick:

0. **failover** — any group member that has not been heard from within
   the stats tracker's ``liveness_timeout`` (no keepalive, no stats
   response), or whose deployments keep failing, is declared dead: its
   last state checkpoint is handed off to a live survivor (or a freshly
   provisioned replacement), the group and steering tables are shrunk
   around it;
1. poll ``GlobalStats`` from every live OBI in each managed group —
   a successful poll is liveness evidence, a failed one is not;
2. let the :class:`~repro.controller.scaling.ScalingManager` decide;
3. on **scale-up**: copy session state from the template replica to the
   new one (so reassigned flows keep their verdicts — the OpenNF hook),
   then widen the steering hop;
4. on **scale-down**: hand the victim's last checkpoint to a surviving
   replica *before* the provisioner tears it down, then narrow steering.

Every state transfer is a generation-fenced handoff (PROTOCOL.md §11).

Drive it from any scheduler: ``scheduler.schedule_every(p, loop.tick)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ClassVar

from repro.controller.migration import StateMigrator
from repro.controller.reconcile import AntiEntropyLoop
from repro.controller.scaling import ScalingAction, ScalingManager
from repro.controller.steering import TrafficSteering
from repro.protocol.errors import ProtocolError
from repro.transport.base import ChannelClosed

if TYPE_CHECKING:  # pragma: no cover
    from repro.controller.lease import LeaseManager
    from repro.controller.obc import OpenBoxController
    from repro.controller.replication import ReplicationHub


@dataclass
class TickReport:
    """What one orchestration tick observed and did."""

    at: float
    polled: list[str] = field(default_factory=list)
    poll_failures: list[str] = field(default_factory=list)
    actions: list[ScalingAction] = field(default_factory=list)
    migrations: list[tuple[str, str]] = field(default_factory=list)
    #: OBIs declared dead this tick.
    dead: list[str] = field(default_factory=list)
    #: Group members whose telemetry shows overload (degraded mode or
    #: admission-gate shedding) as of this tick.
    overloaded: list[str] = field(default_factory=list)
    #: (dead OBI, survivor that absorbed its role; "" if none found).
    failovers: list[tuple[str, str]] = field(default_factory=list)
    #: Cumulative controller-wide deploy-failure count at tick end.
    failed_deployments: int = 0
    #: Anti-entropy results this tick (PROTOCOL.md §10): OBIs whose
    #: running graph was adopted without a push, and OBIs that had the
    #: intended graph re-pushed because their reported digest diverged.
    reconcile_adopted: list[str] = field(default_factory=list)
    reconcile_pushed: list[str] = field(default_factory=list)
    #: Leadership this tick (PROTOCOL.md §12). Always True when the
    #: controller is not lease-managed; when it is, a tick without the
    #: lease does *nothing* southbound and stops here.
    leader: bool = True
    #: Epoch of the held lease (0 when not leading / not lease-managed).
    lease_epoch: int = 0
    #: Standbys that acknowledged the journal stream this tick.
    replicated: list[str] = field(default_factory=list)
    #: True when the controller spent this tick in journaled-read-only
    #: degraded mode (journal storage down; deploys fenced).
    degraded: bool = False
    #: True when this tick's resume probe rebuilt the journal and left
    #: degraded mode (a fresh fsync'd segment now holds live state).
    journal_resumed: bool = False


class OrchestrationLoop:
    """Periodic controller housekeeping over scaling groups."""

    #: Declare an OBI failed after this many consecutive deploy failures
    #: even if its keepalives still arrive (a live process that can no
    #: longer be (re)configured is not serving policy).
    DEPLOY_FAILURE_THRESHOLD: ClassVar[int] = 3

    def __init__(
        self,
        controller: "OpenBoxController",
        scaling: ScalingManager,
        steering: TrafficSteering | None = None,
        #: Leadership lease (PROTOCOL.md §12): when set, every tick
        #: renews it first and a tick without the lease does nothing.
        lease: "LeaseManager | None" = None,
        #: Journal replication to hot standbys: when set, every leading
        #: tick ends by streaming the tick's journal delta.
        replication: "ReplicationHub | None" = None,
    ) -> None:
        self.controller = controller
        self.scaling = scaling
        self.steering = steering
        self.migrator = StateMigrator(controller)
        #: Runs an anti-entropy round each tick, converging every OBI's
        #: reported graph digest to current intent (PROTOCOL.md §10).
        self.reconciler = AntiEntropyLoop(controller)
        self.lease = lease
        self.replication = replication
        self.reports: list[TickReport] = []
        #: Last successful state checkpoint per OBI, as
        #: ``{"generation": int, "entries": [...]}`` — the failover
        #: stage hands this to a survivor because a dead OBI can no
        #: longer be asked for its state.
        self.snapshots: dict[str, dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # Stage 1: stats polling (also refreshes liveness evidence)
    # ------------------------------------------------------------------
    def _poll_stage(self, report: TickReport) -> None:
        for group in list(self.scaling._groups):
            for obi_id in self.scaling.group_members(group):
                if obi_id not in self.controller.obis:
                    continue
                try:
                    if self.controller.poll_stats(obi_id) is not None:
                        report.polled.append(obi_id)
                except (ChannelClosed, ProtocolError):
                    report.poll_failures.append(obi_id)

    # ------------------------------------------------------------------
    # Stage 0: failure detection and failover
    # ------------------------------------------------------------------
    def _failed_members(self, now: float) -> list[tuple[str, str]]:
        """(group, obi) pairs that must be failed over this tick."""
        dead = set(self.controller.stats.dead_obis(now))
        dead.update(
            obi_id
            for obi_id, count in self.controller.consecutive_deploy_failures.items()
            if count >= self.DEPLOY_FAILURE_THRESHOLD
        )
        failed: list[tuple[str, str]] = []
        for group in list(self.scaling._groups):
            for obi_id in self.scaling.group_members(group):
                if obi_id in dead and obi_id in self.controller.obis:
                    failed.append((group, obi_id))
        return failed

    def _failover_stage(self, report: TickReport, now: float) -> None:
        for group, obi_id in self._failed_members(now):
            report.dead.append(obi_id)
            self.controller.stats.record_failure(obi_id, now)
            members = self.scaling.group_members(group)
            survivor = next(
                (
                    m for m in members
                    if m != obi_id
                    and m in self.controller.obis
                    and self.controller.stats.is_live(m, now)
                ),
                None,
            )
            if survivor is None:
                # Last replica of its group died: provision a fresh
                # replacement (while the dead handle still exists as a
                # template), exactly as §3.3's "provision additional
                # service instances" prescribes.
                try:
                    survivor = self.scaling.provisioner.provision(obi_id)
                    self.scaling.add_member(group, survivor)
                except Exception:  # noqa: BLE001 - provisioning is best-effort
                    survivor = None
            # Hand the dead member's last checkpoint to the survivor so
            # re-steered flows keep their verdicts. The handoff carries
            # the checkpoint's state generation: if a partitioned ghost
            # of the same OBI already handed over newer state, the
            # survivor rejects this one as stale instead of regressing.
            state = self.snapshots.pop(obi_id, None)
            entries = state["entries"] if state else []
            if survivor is not None and entries:
                try:
                    outcome = self.migrator.handoff(
                        obi_id, survivor, state["generation"], entries
                    )
                    if outcome.accepted:
                        report.migrations.append((obi_id, survivor))
                except (ChannelClosed, ProtocolError):
                    pass
            self.scaling.remove_member(group, obi_id)
            # Disconnecting drops the stats view and notifies apps.
            self.controller.disconnect_obi(obi_id)
            if survivor is not None:
                # Re-run aggregation/deploy so the survivor carries the
                # current merged graph for the affected segment.
                try:
                    self.controller.deploy(survivor)
                except (ChannelClosed, ProtocolError):
                    pass
            if self.steering is not None:
                self.steering.update_replicas(
                    group, self.scaling.group_members(group)
                )
            report.failovers.append((obi_id, survivor or ""))

    # ------------------------------------------------------------------
    # Session-state snapshots (consumed by failover and scale-down)
    # ------------------------------------------------------------------
    def _snapshot_stage(self) -> None:
        for group in list(self.scaling._groups):
            for obi_id in self.scaling.group_members(group):
                if obi_id not in self.controller.obis:
                    continue
                try:
                    self.snapshots[obi_id] = self.migrator.export_checkpoint(
                        obi_id
                    )
                except (ChannelClosed, ProtocolError):
                    # Keep the previous snapshot: stale state beats none.
                    pass

    def tick(self) -> TickReport:
        """One round: poll, fail over, decide, migrate, re-steer."""
        now = self.controller.clock()
        report = TickReport(at=now)

        # -1. Leadership first: renew (or try to acquire) the lease.
        # Without it this controller does *nothing* this tick — no
        # polls, no deploys, no reconciliation — because every one of
        # those is an act of ownership the lease arbitrates (§12).
        if self.lease is not None:
            held = self.lease.tick(now)
            report.leader = held is not None
            if held is None:
                self.reports.append(report)
                return report
            report.lease_epoch = held.epoch
            # A fresh acquisition's epoch becomes the fencing token,
            # journaled durably before anything southbound below.
            self.controller.adopt_epoch(held.epoch)

        # -0.5. Storage health: while in journaled-read-only degraded
        # mode, every tick probes whether the journal storage healed and
        # rebuilds a fresh segment the moment it has — this is what makes
        # degradation *graceful* (automatic resume, no operator action).
        if self.controller.degraded:
            report.journal_resumed = self.controller.try_resume_journal()
        report.degraded = self.controller.degraded

        # 1. Poll stats first — answering a poll is proof of life, so a
        # healthy-but-quiet OBI is never misdeclared dead; a hung one
        # fails its poll and stays silent, so stage 0 catches it.
        self._poll_stage(report)

        # Record which members report data-plane overload: their
        # effective load is pinned at 1.0, so the scaling stage below
        # sees them as saturated regardless of lagging CPU samples.
        for group in list(self.scaling._groups):
            for obi_id in self.scaling.group_members(group):
                view = self.controller.stats.view(obi_id)
                if view is not None and view.overloaded:
                    report.overloaded.append(obi_id)

        # 0. Declare and recover from failures.
        self._failover_stage(report, now)

        # 0b. Anti-entropy: converge every survivor's reported graph
        # digest to current intent — catches OBIs that served headless
        # through a controller restart (adopted, no push) and ones that
        # missed a redeploy (re-pushed).
        # A degraded controller skips anti-entropy pushes: re-pushing a
        # graph it cannot journal would diverge intent from the record.
        if not self.controller.superseded and not self.controller.degraded:
            reconcile = self.reconciler.reconcile()
            report.reconcile_adopted = list(reconcile.adopted)
            report.reconcile_pushed = list(reconcile.pushed)

        # Snapshot session state for scale-down and the *next* failover.
        self._snapshot_stage()

        # 2-4. Scaling decisions with state-aware choreography.
        for action in self.scaling.evaluate(now):
            report.actions.append(action)
            members = self.scaling.group_members(action.group)
            if action.kind == "scale_up":
                template = next(
                    (m for m in members
                     if m != action.obi_id and m in self.controller.obis),
                    None,
                )
                if template is not None:
                    self.migrator.migrate(template, action.obi_id)
                    report.migrations.append((template, action.obi_id))
            elif action.kind == "scale_down":
                survivor = next(
                    (m for m in members if m in self.controller.obis), None
                )
                state = self.snapshots.get(action.obi_id)
                if survivor is not None and state and state["entries"]:
                    self.migrator.handoff(
                        action.obi_id, survivor,
                        state["generation"], state["entries"],
                    )
                    report.migrations.append((action.obi_id, survivor))
            if self.steering is not None:
                self.steering.update_replicas(action.group, members)

        report.failed_deployments = self.controller.failed_deployments

        # 6. Ship this tick's journal delta to the hot standbys, so the
        # replication lag at any crash is bounded by one tick.
        if self.replication is not None and not self.controller.superseded:
            report.replicated = self.replication.sync()
            if self.lease is not None and self.lease.lease is not None:
                self.replication.announce(
                    lease_remaining=max(
                        self.lease.lease.expires_at - now, 0.0
                    )
                )

        self.reports.append(report)
        return report
