"""Scaling and provisioning decisions (paper §3.3, §5.4.1).

The controller scales OBIs the way the paper's evaluation does: the
merged firewall+IPS graph runs on two OBI replicas "multiplexed by the
network for load balancing", and under-utilized instances can be merged
and taken down. :class:`ScalingManager` is the decision engine — it
observes per-OBI load and emits provision/deprovision actions through a
pluggable :class:`Provisioner` (the simulator implements one; a real
deployment would call its VM orchestrator).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.controller.stats import ObiStatsTracker
from repro.observability.metrics import default_registry


class Provisioner(Protocol):
    """Environment hooks the scaling manager drives."""

    def provision(self, like_obi_id: str) -> str:
        """Start a replica configured like ``like_obi_id``; returns its id."""

    def deprovision(self, obi_id: str) -> None:
        """Shut an OBI down."""


@dataclass
class ScalingPolicy:
    """Thresholds for the hysteresis loop.

    Scale up when smoothed load exceeds ``scale_up_load``; scale down a
    replica when the *group's* mean load falls below ``scale_down_load``
    and more than ``min_replicas`` replicas remain. ``cooldown`` is the
    minimum time between actions for a group.
    """

    scale_up_load: float = 0.8
    scale_down_load: float = 0.3
    min_replicas: int = 1
    max_replicas: int = 8
    cooldown: float = 30.0
    smoothing_window: int = 5


@dataclass
class ScalingAction:
    """A decision taken by the manager (also kept as an audit trail)."""

    kind: str  # "scale_up" | "scale_down"
    group: str
    obi_id: str
    at: float
    load: float


class ScalingManager:
    """Per-group replica scaling with hysteresis.

    A *group* is a set of OBI replicas running the same merged graph
    (e.g. the two OBIs of Figure 7(c)). Groups are registered by the
    controller when it deploys graphs.
    """

    def __init__(
        self,
        tracker: ObiStatsTracker,
        provisioner: Provisioner,
        policy: ScalingPolicy | None = None,
    ) -> None:
        self.tracker = tracker
        self.provisioner = provisioner
        self.policy = policy or ScalingPolicy()
        self._groups: dict[str, list[str]] = {}
        self._last_action: dict[str, float] = {}
        self.actions: list[ScalingAction] = []
        registry = default_registry()
        self._m_scale_up = registry.counter(
            "controller_scaling_actions_total", kind="scale_up"
        )
        self._m_scale_down = registry.counter(
            "controller_scaling_actions_total", kind="scale_down"
        )

    def register_group(self, group: str, obi_ids: list[str]) -> None:
        self._groups[group] = list(obi_ids)

    def group_members(self, group: str) -> list[str]:
        return list(self._groups.get(group, ()))

    def add_member(self, group: str, obi_id: str) -> None:
        """Add a replica provisioned outside a scaling decision
        (e.g. a failover replacement)."""
        members = self._groups.setdefault(group, [])
        if obi_id not in members:
            members.append(obi_id)

    def remove_member(self, group: str, obi_id: str) -> None:
        """Drop a replica that is gone (dead or externally removed)."""
        members = self._groups.get(group)
        if members is not None and obi_id in members:
            members.remove(obi_id)

    def _group_loads(self, group: str) -> list[tuple[str, float]]:
        loads: list[tuple[str, float]] = []
        for obi_id in self._groups.get(group, ()):
            view = self.tracker.view(obi_id)
            # Effective load, not raw smoothed CPU: an OBI whose
            # telemetry shows admission-gate shedding counts as saturated
            # even before its CPU samples catch up.
            load = view.effective_load(self.policy.smoothing_window) if view else 0.0
            loads.append((obi_id, load))
        return loads

    def evaluate(self, now: float) -> list[ScalingAction]:
        """Run one decision round over every group."""
        actions: list[ScalingAction] = []
        for group in list(self._groups):
            action = self._evaluate_group(group, now)
            if action is not None:
                actions.append(action)
        return actions

    def _evaluate_group(self, group: str, now: float) -> ScalingAction | None:
        last = self._last_action.get(group, float("-inf"))
        if now - last < self.policy.cooldown:
            return None
        loads = self._group_loads(group)
        if not loads:
            return None
        mean_load = sum(load for _id, load in loads) / len(loads)
        members = self._groups[group]

        if (
            mean_load > self.policy.scale_up_load
            and len(members) < self.policy.max_replicas
        ):
            template = max(loads, key=lambda item: item[1])[0]
            new_id = self.provisioner.provision(template)
            members.append(new_id)
            action = ScalingAction(
                kind="scale_up", group=group, obi_id=new_id, at=now, load=mean_load
            )
            self._m_scale_up.inc()
        elif (
            mean_load < self.policy.scale_down_load
            and len(members) > self.policy.min_replicas
        ):
            victim = min(loads, key=lambda item: item[1])[0]
            self.provisioner.deprovision(victim)
            members.remove(victim)
            action = ScalingAction(
                kind="scale_down", group=group, obi_id=victim, at=now, load=mean_load
            )
            self._m_scale_down.inc()
        else:
            return None

        self._last_action[group] = now
        self.actions.append(action)
        return action
