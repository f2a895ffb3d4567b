"""Static elements: side effects that never alter packet or path."""

from __future__ import annotations

from typing import Any

from repro.net.packet import Packet
from repro.obi.engine import AlertEvent, Element, LogEvent


class AlertElement(Element):
    """Raises an alert to the controller (paper Table 1, Figure 2).

    Alerts are recorded on the packet outcome; the OBI forwards them
    upstream as protocol ``Alert`` messages tagged with the originating
    application so the controller can demultiplex (paper §6).
    """

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        outcome = self.context.current if self.context is not None else None
        if outcome is not None:
            config = self.config
            outcome.alerts.append(AlertEvent(
                self.name,
                self.origin_app or config.get("origin_app"),
                config.get("message", ""),
                config.get("severity", "info"),
                packet.summary_fields(),
            ))
        return [(0, packet)]


class LogElement(Element):
    """Logs the packet to the logging service (paper §3.1)."""

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        event = LogEvent(
            block=self.name,
            origin_app=self.origin_app or self.config.get("origin_app"),
            message=self.config.get("message", ""),
            packet_summary=packet.summary_fields(),
        )
        outcome = self.context.current if self.context is not None else None
        if outcome is not None:
            outcome.logs.append(event)
        if self.context is not None and self.context.log_service is not None:
            self.context.log_service.log(event)
        return [(0, packet)]


class CounterElement(Element):
    """Counts packets and bytes (handles only, no side effects)."""


class FlowTrackerElement(Element):
    """Records the packet's flow in the session storage (paper Table 1)."""

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        if self.context is not None:
            self.context.session.observe(packet, self.context.now)
        return [(0, packet)]

    def read_handle(self, name: str) -> Any:
        if name == "flow_count":
            if self.context is None:
                return 0
            return self.context.session.flow_count()
        return super().read_handle(name)


class SessionTagElement(Element):
    """Writes a key/value into the packet's *flow* session entry.

    This is how stateful NFs record verdicts in the data plane (paper
    §3.4.2: Snort "stores information about each flow ... flags it may
    be marked with"): a downstream FlowClassifier then steers every
    subsequent packet of the flow by the tag.
    """

    def __init__(self, name: str, config: dict[str, Any], origin_app: str | None = None) -> None:
        super().__init__(name, config, origin_app)
        self.tagged = 0

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        if self.context is not None:
            if self.context.session.put(
                packet, self.config["key"], self.config["value"], self.context.now
            ):
                self.tagged += 1
        return [(0, packet)]

    def read_handle(self, name: str) -> Any:
        if name == "tagged":
            return self.tagged
        return super().read_handle(name)


class StorePacketElement(Element):
    """Stores a copy of the packet in the storage service (cache or
    quarantine use cases, paper §3.1)."""

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        if self.context is not None and self.context.storage_service is not None:
            packet.rebuild()
            self.context.storage_service.store(
                namespace=self.config.get("namespace", "default"),
                data=packet.data,
            )
        return [(0, packet)]


class MirrorElement(Element):
    """Forwards on port 0 and copies the packet to port 1."""

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        return [(0, packet), (1, packet.clone())]


class TeeElement(Element):
    """Duplicates the packet to every configured output port."""

    def __init__(self, name: str, config: dict[str, Any], origin_app: str | None = None) -> None:
        super().__init__(name, config, origin_app)
        self.ports = int(config.get("ports", 2))

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        emissions = [(0, packet)]
        emissions.extend((port, packet.clone()) for port in range(1, self.ports))
        return emissions
