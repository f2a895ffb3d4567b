"""Typed results for the northbound handle API.

The original API was callback-unwrap style: applications passed an
``unwrap`` closure to :meth:`OpenBoxController.app_read` and mentally
reconstructed what the controller had done with cloned blocks. Since
both transports are synchronous RPC (the response to an application
request arrives before the call returns), that indirection bought
nothing — so the API is now synchronous and typed: each call returns a
result dataclass carrying the per-deployed-block values, any per-block
errors, and the wall-clock latency of the round trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.protocol.messages import GlobalStatsResponse


@dataclass
class HandleError:
    """One failed handle operation against one deployed block."""

    obi_id: str
    block: str = ""
    handle: str = ""
    #: Protocol error code (``repro.protocol.errors.ErrorCode`` value).
    code: str = ""
    detail: str = ""

    def __str__(self) -> str:
        where = f"{self.obi_id}:{self.block}" if self.block else self.obi_id
        return f"{where} {self.code}: {self.detail}"


@dataclass
class HandleReadResult:
    """Outcome of reading one application block's handle on one OBI.

    Merging may have cloned the application's block; ``values`` maps
    each *deployed* block name to the value it returned, and
    :attr:`value` reproduces the old unwrap aggregation (single value /
    sum of numerics / list) for callers that don't care about clones.
    """

    app_name: str
    obi_id: str
    block: str
    handle: str
    values: dict[str, Any] = field(default_factory=dict)
    errors: list[HandleError] = field(default_factory=list)
    #: Wall-clock seconds for the full (all clones) round trip.
    latency: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.errors and bool(self.values)

    @property
    def value(self) -> Any:
        """Aggregated value across clones (the old callback argument).

        One clone returns its value directly; several numeric values sum
        (e.g. a per-branch Alert's ``count``); anything else returns the
        list of per-clone values in deployed-name order.
        """
        ordered = [self.values[name] for name in sorted(self.values)]
        if len(ordered) == 1:
            return ordered[0]
        if ordered and all(isinstance(value, (int, float)) for value in ordered):
            return sum(ordered)
        return ordered


@dataclass
class HandleWriteResult:
    """Outcome of writing one application block's handle on one OBI."""

    app_name: str
    obi_id: str
    block: str
    handle: str
    #: Deployed block names successfully written.
    written: list[str] = field(default_factory=list)
    errors: list[HandleError] = field(default_factory=list)
    latency: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.errors and bool(self.written)


@dataclass
class AppStatsView:
    """Outcome of an application's GlobalStats request against one OBI."""

    app_name: str
    obi_id: str
    stats: GlobalStatsResponse | None = None
    error: HandleError | None = None
    latency: float = 0.0

    @property
    def ok(self) -> bool:
        return self.stats is not None and self.error is None
