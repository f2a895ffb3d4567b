"""The fault-point registry: one namespace over every injectable fault.

A **fault point** is a named handle on one chaos instrument somewhere in
the system under test, tagged with the *layer* it perturbs:

* ``transport`` — a :class:`~repro.transport.faults.FaultyChannel`
  (drops, duplicates, partitions, reordering, peer crashes);
* ``storage`` — a :class:`~repro.chaos.storage.FaultyStorage`
  (EIO/ENOSPC, lying fsyncs, torn replaces, slow I/O, power loss);
* ``clock`` — a :class:`~repro.chaos.clocks.ChaosClock` (skew, jumps);
* ``process`` — a :class:`ProcessPoint` (kill / revive, generalizing
  the hand-rolled SIGKILL helpers in the integration tests).

Scenarios address faults by point name (``"storage:leader"``,
``"transport:obi-2"``); the registry resolves the name to the live
instrument. Keeping the namespace flat and layer-tagged is what lets
the random scenario search enumerate a *bounded* fault vocabulary
instead of reaching into topology internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator

LAYERS = ("transport", "storage", "clock", "process")


class ProcessPoint:
    """Kill/revive as a first-class fault (the process layer).

    The actual mechanics — closing in-process pairs, reconnecting a
    revived OBI — are topology-specific, so they are injected as
    callables by whoever builds the environment. ``revive`` may be
    ``None`` for processes that cannot come back as themselves (a
    SIGKILLed leader is replaced via failover/recovery, not revived).
    """

    def __init__(
        self,
        name: str,
        kill: Callable[[], None],
        revive: Callable[[], None] | None = None,
    ) -> None:
        self.name = name
        self._kill = kill
        self._revive = revive
        self.alive = True
        self.kills = 0
        self.revives = 0

    def kill(self) -> None:
        if not self.alive:
            return
        self._kill()
        self.alive = False
        self.kills += 1

    def revive(self) -> None:
        if self.alive:
            return
        if self._revive is None:
            raise ValueError(f"process point {self.name!r} is not revivable")
        self._revive()
        self.alive = True
        self.revives += 1


@dataclass(frozen=True)
class FaultPoint:
    """One named, layer-tagged chaos instrument."""

    name: str
    #: One of :data:`LAYERS`.
    layer: str
    #: The live instrument (FaultyChannel / FaultyStorage / ChaosClock /
    #: ProcessPoint) scenario operations act on.
    target: Any = field(compare=False)
    description: str = field(default="", compare=False)


class ChaosRegistry:
    """Flat name -> :class:`FaultPoint` namespace for one environment."""

    def __init__(self) -> None:
        self._points: dict[str, FaultPoint] = {}

    def register(
        self, name: str, layer: str, target: Any, description: str = ""
    ) -> FaultPoint:
        if layer not in LAYERS:
            raise ValueError(
                f"unknown fault layer {layer!r} (expected one of {LAYERS})"
            )
        if name in self._points:
            raise ValueError(f"duplicate fault point {name!r}")
        point = FaultPoint(
            name=name, layer=layer, target=target, description=description
        )
        self._points[name] = point
        return point

    def retarget(self, name: str, target: Any) -> FaultPoint:
        """Point ``name`` at a new live instrument (a process came back
        with a fresh channel); layer and description are kept."""
        point = replace(self.get(name), target=target)
        self._points[name] = point
        return point

    def get(self, name: str) -> FaultPoint:
        try:
            return self._points[name]
        except KeyError:
            known = ", ".join(sorted(self._points)) or "<empty registry>"
            raise KeyError(
                f"unknown fault point {name!r}; registered: {known}"
            ) from None

    def target(self, name: str) -> Any:
        """The live instrument behind ``name`` (shorthand for scenarios)."""
        return self.get(name).target

    def by_layer(self, layer: str) -> list[FaultPoint]:
        if layer not in LAYERS:
            raise ValueError(f"unknown fault layer {layer!r}")
        return [p for p in self._points.values() if p.layer == layer]

    def names(self, layer: str | None = None) -> list[str]:
        if layer is None:
            return sorted(self._points)
        return sorted(p.name for p in self.by_layer(layer))

    def __contains__(self, name: str) -> bool:
        return name in self._points

    def __iter__(self) -> Iterator[FaultPoint]:
        return iter(self._points.values())

    def __len__(self) -> int:
        return len(self._points)
