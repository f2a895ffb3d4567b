"""Shaper elements: rate limiting and queue management.

Shapers run against the engine clock (``context.now``), which the network
simulator advances in virtual time — token buckets and RED thresholds
behave identically under simulated and wall-clock time.
"""

from __future__ import annotations

import random
from typing import Any

from repro.net.packet import Packet
from repro.obi.engine import Element


class _TokenBucket:
    """A token bucket refilled continuously at ``rate`` units/second."""

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self.burst = max(burst, 1.0)
        self.tokens = self.burst
        self._last = None  # type: float | None

    def consume(self, amount: float, now: float) -> bool:
        if self._last is None:
            self._last = now
        elapsed = max(0.0, now - self._last)
        self._last = now
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        if self.tokens >= amount:
            self.tokens -= amount
            return True
        return False


class _ShaperBase(Element):
    """Common drop accounting for shapers."""

    def __init__(self, name: str, config: dict[str, Any], origin_app: str | None = None) -> None:
        super().__init__(name, config, origin_app)
        self.dropped = 0

    def _drop(self, packet: Packet) -> list[tuple[int, Packet]]:
        self.dropped += 1
        outcome = self.context.current if self.context is not None else None
        if outcome is not None:
            outcome.dropped = True
        return []

    def read_handle(self, name: str) -> Any:
        if name == "dropped":
            return self.dropped
        return super().read_handle(name)


class BpsShaperElement(_ShaperBase):
    """Limits throughput to ``bps`` bits per second (token bucket)."""

    def __init__(self, name: str, config: dict[str, Any], origin_app: str | None = None) -> None:
        super().__init__(name, config, origin_app)
        bps = float(config["bps"])
        burst = float(config.get("burst", bps / 4))
        self._bucket = _TokenBucket(rate=bps, burst=burst)

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        bits = len(packet) * 8
        if self._bucket.consume(bits, self.context.now):
            return [(0, packet)]
        return self._drop(packet)

    def read_handle(self, name: str) -> Any:
        if name == "rate":
            return self._bucket.rate
        return super().read_handle(name)

    def write_handle(self, name: str, value: Any) -> None:
        if name == "rate":
            self._bucket.rate = float(value)
            return
        super().write_handle(name, value)


class PpsShaperElement(_ShaperBase):
    """Limits throughput to ``pps`` packets per second."""

    def __init__(self, name: str, config: dict[str, Any], origin_app: str | None = None) -> None:
        super().__init__(name, config, origin_app)
        pps = float(config["pps"])
        burst = float(config.get("burst", max(pps / 10, 1)))
        self._bucket = _TokenBucket(rate=pps, burst=burst)

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        if self._bucket.consume(1.0, self.context.now):
            return [(0, packet)]
        return self._drop(packet)

    def write_handle(self, name: str, value: Any) -> None:
        if name == "rate":
            self._bucket.rate = float(value)
            return
        super().write_handle(name, value)


class QueueElement(_ShaperBase):
    """FIFO with tail drop, modelled against a drain rate.

    In a synchronous push engine the queue cannot literally buffer, so it
    models occupancy: packets arriving while the modelled backlog exceeds
    ``capacity`` are tail-dropped; otherwise they pass through. Backlog
    drains at ``drain_pps`` packets/second of engine-clock time.
    """

    def __init__(self, name: str, config: dict[str, Any], origin_app: str | None = None) -> None:
        super().__init__(name, config, origin_app)
        self.capacity = int(config.get("capacity", 1000))
        self.drain_pps = float(config.get("drain_pps", 1_000_000.0))
        self._backlog = 0.0
        self._last: float | None = None

    def _update_backlog(self, now: float) -> None:
        if self._last is not None:
            self._backlog = max(0.0, self._backlog - (now - self._last) * self.drain_pps)
        self._last = now

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        self._update_backlog(self.context.now)
        if self._backlog >= self.capacity:
            return self._drop(packet)
        self._backlog += 1
        return [(0, packet)]

    def read_handle(self, name: str) -> Any:
        if name == "backlog":
            return self._backlog
        return super().read_handle(name)


class RedQueueElement(QueueElement):
    """Random early detection over the modelled backlog."""

    def __init__(self, name: str, config: dict[str, Any], origin_app: str | None = None) -> None:
        super().__init__(name, config, origin_app)
        self.min_threshold = float(config.get("min_threshold", self.capacity * 0.3))
        self.max_threshold = float(config.get("max_threshold", self.capacity * 0.9))
        if self.min_threshold >= self.max_threshold:
            raise ValueError("min_threshold must be below max_threshold")
        self._random = random.Random(int(config.get("seed", 0)))

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        self._update_backlog(self.context.now)
        backlog = self._backlog
        if backlog >= self.max_threshold:
            return self._drop(packet)
        if backlog > self.min_threshold:
            drop_probability = (
                (backlog - self.min_threshold)
                / (self.max_threshold - self.min_threshold)
            )
            if self._random.random() < drop_probability:
                return self._drop(packet)
        self._backlog += 1
        return [(0, packet)]


class DelayShaperElement(Element):
    """Adds a fixed modelled delay to the packet's timestamp."""

    def __init__(self, name: str, config: dict[str, Any], origin_app: str | None = None) -> None:
        super().__init__(name, config, origin_app)
        self.delay = float(config.get("delay", 0.0))

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        packet.timestamp += self.delay
        return [(0, packet)]
