"""Metadata transfer elements: NSH encapsulation and SetMetadata.

These implement the distributed data plane of paper §3.1 and Figure 6:
when a processing graph is split across OBIs, the upstream OBI stores its
intermediate results (e.g. the header-classification outcome) in the
packet's metadata storage, encapsulates the metadata onto the wire, and
the downstream OBI decapsulates it and resumes processing mid-graph.
"""

from __future__ import annotations

from typing import Any

from repro.net.nsh import NSH_NEXT_PROTO_ETHERNET, NshHeader
from repro.net.packet import Packet
from repro.obi.engine import Element
from repro.obi.storage import MetadataCodec


class SetMetadataElement(Element):
    """Writes constant values into the packet's metadata storage.

    This is how a classifier's outcome is recorded for the next OBI: the
    merged graph's branch for port *p* starts with
    ``SetMetadata {"values": {"classify_result": p}}``.
    """

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        packet.metadata.update(self.config.get("values", {}))
        return [(0, packet)]


class NshEncapsulateElement(Element):
    """Prepends an NSH header carrying the packet's metadata storage.

    Config: ``spi`` (service path id), optional ``metadata_keys`` (which
    keys to ship; default all), optional ``si`` (initial service index).
    """

    def __init__(self, name: str, config: dict[str, Any], origin_app: str | None = None) -> None:
        super().__init__(name, config, origin_app)
        self.spi = int(config["spi"])
        self.si = int(config.get("si", 255))
        self.metadata_keys = config.get("metadata_keys")

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        packet.rebuild()
        nsh = NshHeader(spi=self.spi, si=self.si, next_proto=NSH_NEXT_PROTO_ETHERNET)
        blob = MetadataCodec.encode(packet.metadata, self.metadata_keys)
        nsh.add_metadata(blob)
        packet.data = nsh.serialize() + packet.data
        packet.invalidate()
        return [(0, packet)]


class NshDecapsulateElement(Element):
    """Strips the NSH header and restores the metadata storage."""

    def __init__(self, name: str, config: dict[str, Any], origin_app: str | None = None) -> None:
        super().__init__(name, config, origin_app)
        self.decap_errors = 0

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        try:
            nsh = NshHeader.parse(packet.data)
        except ValueError:
            self.decap_errors += 1
            return [(0, packet)]
        blob = nsh.openbox_metadata()
        if blob is not None:
            try:
                packet.metadata.update(MetadataCodec.decode(blob))
            except ValueError:
                self.decap_errors += 1
        packet.data = packet.data[nsh.header_len:]
        packet.invalidate()
        return [(0, packet)]

    def read_handle(self, name: str) -> Any:
        if name == "decap_errors":
            return self.decap_errors
        return super().read_handle(name)
