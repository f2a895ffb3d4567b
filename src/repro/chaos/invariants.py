"""System-wide invariants evaluated after every scenario step.

An :class:`Invariant` is a named predicate over the whole
:class:`~repro.chaos.env.ChaosEnv` — not one component's unit contract
but a promise the *system* keeps while faults rain down:

* **zero split-brain accepts** — once a successor leads, no push from
  the deposed leader is ever accepted (epoch fencing);
* **zero telemetry loss** — the cursored telemetry rings plus replay
  mean ``lost_total`` stays 0 on every controller;
* **packet conservation** — every injected packet is either delivered
  or accounted to a named loss reason (drop, punt, shed, unrouted);
  silent loss is the one unforgivable outcome;
* **digest agreement** — after a heal plus anti-entropy convergence,
  every OBI's running graph digest matches controller intent;
* **journal replay fidelity** — replaying the active controller's
  journal from disk reproduces its live intent (generation, apps,
  segments, per-OBI digests). Skipped while degraded: the journal is
  *known* stale then, by design, until the rebuild.

Checkers return ``None`` when satisfied or a human-readable detail
string; the :class:`~repro.chaos.scenario.ScenarioRunner` wraps details
into :class:`InvariantViolation` records with step provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.controller.journal import StateJournal

if TYPE_CHECKING:  # pragma: no cover
    from repro.chaos.env import ChaosEnv


@dataclass(frozen=True)
class Invariant:
    """One named system-wide predicate."""

    name: str
    description: str
    check: Callable[["ChaosEnv"], str | None] = field(compare=False)

    def __call__(self, env: "ChaosEnv") -> str | None:
        return self.check(env)


@dataclass
class InvariantViolation:
    """One invariant broken at one step of one scenario."""

    invariant: str
    detail: str
    #: Index of the step after which the check failed (-1: final sweep).
    step_index: int = -1
    #: The operation that step performed.
    op: str = ""

    def __str__(self) -> str:
        where = f"step {self.step_index} ({self.op})" if self.op else "final"
        return f"[{self.invariant}] after {where}: {self.detail}"


# ----------------------------------------------------------------------
# The catalog
# ----------------------------------------------------------------------
def _check_split_brain(env: "ChaosEnv") -> str | None:
    if env.split_brain_accepts:
        return (
            f"{env.split_brain_accepts} request(s) from the deposed leader "
            "were accepted after a successor took over"
        )
    return None


def _check_telemetry(env: "ChaosEnv") -> str | None:
    lost = {
        f"c{index + 1}": controller.telemetry.lost_total
        for index, controller in enumerate(env.controllers())
    }
    total = sum(lost.values())
    if total:
        return f"telemetry records lost: {lost}"
    return None


def _check_conservation(env: "ChaosEnv") -> str | None:
    losses = env.drop_accounting()
    accounted = env.delivered() + sum(losses.values())
    if accounted != env.injected:
        return (
            f"injected {env.injected} != delivered {env.delivered()} "
            f"+ accounted losses {losses} (silent loss or duplication)"
        )
    return None


def _check_digest_agreement(env: "ChaosEnv") -> str | None:
    # Only promised after an explicit heal + converge; while faults are
    # standing (or convergence has not been run) divergence is expected.
    if not env.converged:
        return None
    active = env.active
    if active.degraded:
        return None
    for obi_id, obi in env.obis.items():
        handle = active.obis.get(obi_id)
        if handle is None or not handle.intended_digest:
            continue
        if obi.graph_digest != handle.intended_digest:
            return (
                f"{obi_id} runs digest {obi.graph_digest[:12]!r} but the "
                f"controller intends {handle.intended_digest[:12]!r} "
                "after convergence"
            )
    return None


def _check_journal_replay(env: "ChaosEnv") -> str | None:
    active = env.active
    if active.journal is None or active.degraded:
        return None
    replayed = StateJournal.replay(active.journal.path).state
    intent = active._journal_state()
    if replayed.generation != intent.generation:
        return (
            f"replayed generation {replayed.generation} != live "
            f"{intent.generation}"
        )
    if replayed.apps != intent.apps:
        return f"replayed apps {sorted(replayed.apps)} != live {sorted(intent.apps)}"
    if sorted(replayed.segments) != sorted(intent.segments):
        return (
            f"replayed segments {sorted(replayed.segments)} != live "
            f"{sorted(intent.segments)}"
        )
    if replayed.obis != intent.obis:
        return (
            f"replayed OBI intent diverges from live state: "
            f"{replayed.obis} != {intent.obis}"
        )
    if replayed.splits != intent.splits:
        return (
            f"replayed splits diverge from live state: "
            f"{replayed.splits} != {intent.splits}"
        )
    return None


DEFAULT_INVARIANTS: tuple[Invariant, ...] = (
    Invariant(
        name="split_brain_accepts",
        description="no deposed leader's request is ever accepted",
        check=_check_split_brain,
    ),
    Invariant(
        name="telemetry_lossless",
        description="cursored telemetry rings lose nothing (lost_total == 0)",
        check=_check_telemetry,
    ),
    Invariant(
        name="packet_conservation",
        description="injected == delivered + counted drops per reason",
        check=_check_conservation,
    ),
    Invariant(
        name="digest_agreement",
        description="post-heal convergence leaves every OBI on intent",
        check=_check_digest_agreement,
    ),
    Invariant(
        name="journal_replay",
        description="journal replay reproduces live controller intent",
        check=_check_journal_replay,
    ),
)
