"""Declarative chaos scenarios: a seeded fault schedule + invariants.

A :class:`Scenario` is a list of :func:`step` operations played against
a fresh :class:`~repro.chaos.env.ChaosEnv`; the
:class:`ScenarioRunner` executes them in order and evaluates every
registered invariant **after each step**, so a violation is pinned to
the exact operation that caused it rather than discovered in a final
sweep. The op vocabulary is deliberately small and fault-point-addressed
— it is the same vocabulary the random search draws from, which is what
makes failing schedules shrinkable and replayable from a seed.

Operations (``step(op, **args)``):

======================  =================================================
``advance``             run virtual time ``seconds`` forward
``inject``              inject ``count`` packets of ``kind`` at the chain head
``tick``                ``n`` orchestration ticks on the live loop
``deploy``              push current intent to ``obi``
``register_app``        register (auto-deploy) app ``name``
``half_deploy``         the mid-deploy crash window (ips on obi-1 only)
``kill`` / ``revive``   a ``process:*`` fault point
``storage_fail_writes`` / ``storage_fail_fsync`` / ``storage_lie_fsync``
/ ``storage_fail_replace`` / ``storage_slow`` / ``storage_heal``
/ ``storage_crash``     a ``storage:*`` fault point
``partition`` / ``heal``  a ``transport:*`` fault point (``mode``)
``lease_partition`` / ``lease_heal``  cut ``owner`` off the lease store
``clock_jump`` / ``clock_skew`` / ``clock_reset``  a ``clock:*`` point
``fail_over``           standby lease + takeover + OBI re-homing
``ghost_deploy``        the deposed leader sends every request kind anyway
                        (each must be fenced)
``converge``            anti-entropy until converged on the active leader
``heal_all``            lift every standing fault
======================  =================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.chaos.env import ChaosEnv
from repro.chaos.invariants import (
    DEFAULT_INVARIANTS,
    Invariant,
    InvariantViolation,
)
from repro.controller.lease import LeaseUnavailable
from repro.protocol.errors import ProtocolError
from repro.transport.base import ChannelClosed, ChannelTimeout

#: Exceptions an operation may *legitimately* surface under faults —
#: recorded as the step's outcome, never a scenario error.
EXPECTED_ERRORS = (ProtocolError, ChannelClosed, ChannelTimeout,
                   LeaseUnavailable, OSError)

#: Ops that do not disturb a previously established convergence (the
#: digest-agreement invariant only applies between ``converge`` and the
#: next intent mutation or fault).
_CONVERGENCE_SAFE = {
    "advance", "inject", "tick", "converge", "ghost_deploy",
    "heal", "storage_heal", "lease_heal", "clock_reset", "heal_all",
}


@dataclass(frozen=True)
class Step:
    """One scenario operation."""

    op: str
    args: dict[str, Any] = field(default_factory=dict)

    def to_list(self) -> list[Any]:
        return [self.op, dict(self.args)]


def step(op: str, **args: Any) -> Step:
    """Sugar: ``step("storage_fail_fsync", point="storage:leader")``."""
    return Step(op=op, args=args)


@dataclass
class Scenario:
    """A named, seeded, replayable fault schedule."""

    name: str
    steps: list[Step]
    seed: int = 0
    #: Extra :class:`ChaosEnv` constructor kwargs (plans, OBI count).
    env_kwargs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "steps": [s.to_list() for s in self.steps],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Scenario":
        return cls(
            name=str(data.get("name", "scenario")),
            seed=int(data.get("seed", 0)),
            steps=[Step(op=str(op), args=dict(args))
                   for op, args in data.get("steps", [])],
        )


@dataclass
class ScenarioResult:
    """What one scenario run observed."""

    scenario: Scenario
    ok: bool
    violations: list[InvariantViolation] = field(default_factory=list)
    #: Per-step record: {"op", "args", "outcome"}.
    observations: list[dict[str, Any]] = field(default_factory=list)
    steps_run: int = 0
    #: Non-empty on an *unexpected* exception (a scenario bug or a real
    #: crash in the system under test — always a failure).
    error: str = ""
    #: The environment, for post-run assertions (migrated tests).
    env: ChaosEnv | None = field(default=None, repr=False)

    def summary(self) -> str:
        if self.ok:
            return (
                f"{self.scenario.name}: OK "
                f"({self.steps_run} steps, seed {self.scenario.seed})"
            )
        lines = [
            f"{self.scenario.name}: FAILED after {self.steps_run} steps "
            f"(seed {self.scenario.seed})"
        ]
        lines += [f"  {v}" for v in self.violations]
        if self.error:
            lines.append(f"  error: {self.error}")
        return "\n".join(lines)


class ScenarioRunner:
    """Plays scenarios and holds the invariant catalog."""

    def __init__(
        self,
        invariants: Iterable[Invariant] = DEFAULT_INVARIANTS,
        env_factory: Callable[..., ChaosEnv] = ChaosEnv,
        fail_fast: bool = False,
    ) -> None:
        self.invariants = tuple(invariants)
        self.env_factory = env_factory
        self.fail_fast = fail_fast

    # ------------------------------------------------------------------
    def run(
        self,
        scenario: Scenario,
        root: str | None = None,
        env: ChaosEnv | None = None,
    ) -> ScenarioResult:
        """Play ``scenario`` against a fresh environment rooted at
        ``root`` (a scratch directory for journals/checkpoints), or
        against an existing ``env`` — which lets a test split one
        schedule into phases and assert on the environment in between.
        """
        if env is None:
            if root is None:
                raise ValueError("run() needs either a root or an env")
            env = self.env_factory(root, seed=scenario.seed,
                                   **scenario.env_kwargs)
        result = ScenarioResult(scenario=scenario, ok=True, env=env)
        for index, current in enumerate(scenario.steps):
            observation: dict[str, Any] = {
                "op": current.op, "args": dict(current.args),
            }
            try:
                observation["outcome"] = self._apply(env, current)
            except EXPECTED_ERRORS as exc:
                observation["outcome"] = f"raised {type(exc).__name__}: {exc}"
            except Exception as exc:  # noqa: BLE001 - a real bug: fail loud
                observation["outcome"] = f"ERROR {type(exc).__name__}: {exc}"
                result.observations.append(observation)
                result.steps_run = index + 1
                result.error = f"{type(exc).__name__}: {exc}"
                result.ok = False
                return result
            result.observations.append(observation)
            result.steps_run = index + 1
            if current.op not in _CONVERGENCE_SAFE:
                env.converged = False
            for invariant in self.invariants:
                detail = invariant(env)
                if detail is not None:
                    result.violations.append(InvariantViolation(
                        invariant=invariant.name, detail=detail,
                        step_index=index, op=current.op,
                    ))
            if result.violations and self.fail_fast:
                break
        result.ok = result.ok and not result.violations
        return result

    # ------------------------------------------------------------------
    # Op dispatch
    # ------------------------------------------------------------------
    def _apply(self, env: ChaosEnv, current: Step) -> Any:
        op, args = current.op, current.args
        if op == "advance":
            return env.advance(float(args.get("seconds", 1.0)))
        if op == "inject":
            env.inject(int(args.get("count", 1)),
                       kind=str(args.get("kind", "pass")))
            return env.injected
        if op == "tick":
            report = None
            for _ in range(int(args.get("n", 1))):
                report = env.tick()
            if report is None:
                return "no live orchestration loop"
            return {
                "leader": report.leader,
                "degraded": report.degraded,
                "journal_resumed": report.journal_resumed,
            }
        if op == "deploy":
            env.deploy(str(args["obi"]))
            return True
        if op == "register_app":
            env.register_app(str(args["name"]))
            return True
        if op == "half_deploy":
            env.half_deploy()
            return True
        if op == "kill":
            env.point(str(args["point"])).kill()
            return True
        if op == "revive":
            env.point(str(args["point"])).revive()
            return True
        if op == "storage_fail_writes":
            env.point(str(args["point"])).fail_writes(
                error=str(args.get("error", "ENOSPC")),
                count=args.get("count"),
            )
            return True
        if op == "storage_fail_fsync":
            env.point(str(args["point"])).fail_fsync(
                error=str(args.get("error", "ENOSPC")),
                count=args.get("count"),
            )
            return True
        if op == "storage_lie_fsync":
            env.point(str(args["point"])).lie_fsync(args.get("count"))
            return True
        if op == "storage_fail_replace":
            env.point(str(args["point"])).fail_replace(
                error=str(args.get("error", "EIO")),
                count=args.get("count"),
            )
            return True
        if op == "storage_slow":
            env.point(str(args["point"])).slow_io(
                float(args.get("seconds", 0.1))
            )
            return True
        if op == "storage_heal":
            env.point(str(args["point"])).heal()
            return True
        if op == "storage_crash":
            env.point(str(args["point"])).crash(
                torn_tail=bool(args.get("torn_tail", False))
            )
            return True
        if op == "partition":
            env.point(str(args["point"])).partition(
                str(args.get("mode", "both"))
            )
            return True
        if op == "heal":
            env.point(str(args["point"])).heal()
            return True
        if op == "lease_partition":
            env.lease_partition(str(args["owner"]))
            return True
        if op == "lease_heal":
            env.lease_heal(str(args["owner"]))
            return True
        if op == "clock_jump":
            env.point(str(args["point"])).jump(float(args["seconds"]))
            return True
        if op == "clock_skew":
            env.point(str(args["point"])).skew(float(args["rate"]))
            return True
        if op == "clock_reset":
            env.point(str(args["point"])).reset()
            return True
        if op == "fail_over":
            promoted = env.fail_over()
            return promoted.generation if promoted is not None else None
        if op == "ghost_deploy":
            return env.ghost_deploy()
        if op == "converge":
            return env.converge()
        if op == "heal_all":
            env.heal_all()
            return True
        raise ValueError(f"unknown scenario op {op!r}")
