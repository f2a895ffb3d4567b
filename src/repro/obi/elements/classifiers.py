"""Classifier elements.

The HeaderClassifier element demonstrates the protocol's implementation
selection (paper §2.1): the abstract block can be realized by a linear
scan, a software index query (``"trie"``), or a simulated TCAM; the
controller picks via the block's ``implementation`` attribute, or the
OBI applies its default (``"trie"``).
"""

from __future__ import annotations

from typing import Any

from repro.core.classify.header import HeaderRuleSet, LinearMatcher
from repro.core.classify.payload import HeaderPayloadRuleSet
from repro.core.classify.regex import RegexRuleSet
from repro.core.classify.tcam import TcamMatcher
from repro.core.classify.trie import TrieMatcher
from repro.net.http import looks_like_http
from repro.net.ip import IpProto
from repro.net.packet import Packet
from repro.obi.engine import Element

_MATCHER_IMPLEMENTATIONS = {
    "linear": LinearMatcher,
    "trie": TrieMatcher,
    "tcam": TcamMatcher,
}

DEFAULT_HEADER_IMPLEMENTATION = "trie"


def _rules_of(config: dict[str, Any]) -> HeaderRuleSet:
    """A config's rule value; a block's config already holds one."""
    return HeaderRuleSet.parse(config.get("rules", ()), config.get("default_port", 0))


class HeaderClassifierElement(Element):
    """First-match header classification with selectable implementation."""

    # Rules consult only flow-key fields (prefixes, ports, proto, vlan,
    # dscp): the match is a pure function of the flow key and the fast
    # path may record and replay it.
    caches_decision = True

    def __init__(self, name: str, config: dict[str, Any], origin_app: str | None = None) -> None:
        super().__init__(name, config, origin_app)
        self._ruleset = _rules_of(config)
        implementation = config.get("implementation", DEFAULT_HEADER_IMPLEMENTATION)
        matcher_cls = _MATCHER_IMPLEMENTATIONS.get(implementation)
        if matcher_cls is None:
            raise ValueError(f"unknown HeaderClassifier implementation: {implementation!r}")
        self._matcher = matcher_cls(self._ruleset)
        self.match_counts: dict[int, int] = {}

    @property
    def implementation(self) -> str:
        return self._matcher.implementation

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        port = self._matcher.match(packet)
        self.match_counts[port] = self.match_counts.get(port, 0) + 1
        return [(port, packet)]

    def replay_decision(self, port: int, packet: Packet) -> None:
        # Keep the match_counts handle identical to a slow-path run.
        self.match_counts[port] = self.match_counts.get(port, 0) + 1

    def read_handle(self, name: str) -> Any:
        if name == "match_counts":
            return dict(self.match_counts)
        if name == "rules":
            return {"rules": self._ruleset.wire, "default_port": self._ruleset.default_port}
        return super().read_handle(name)

    def write_handle(self, name: str, value: Any) -> None:
        if name == "rules":
            self._ruleset = _rules_of(value)
            self._matcher = type(self._matcher)(self._ruleset)
            return
        super().write_handle(name, value)


class RegexClassifierElement(Element):
    """Payload classification against a pattern set (DPI)."""

    def __init__(self, name: str, config: dict[str, Any], origin_app: str | None = None) -> None:
        super().__init__(name, config, origin_app)
        self._ruleset = RegexRuleSet.from_config(config)
        self.match_counts: dict[int, int] = {}

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        port = self._ruleset.classify(packet.payload)
        self.match_counts[port] = self.match_counts.get(port, 0) + 1
        return [(port, packet)]

    def read_handle(self, name: str) -> Any:
        if name == "match_counts":
            return dict(self.match_counts)
        if name == "rules":
            return self._ruleset.to_config()
        return super().read_handle(name)

    def write_handle(self, name: str, value: Any) -> None:
        if name == "rules":
            self._ruleset = RegexRuleSet.from_config(value)
            return
        super().write_handle(name, value)


class HeaderPayloadClassifierElement(Element):
    """Combined header + payload rules (IPS-style, paper Table 1)."""

    def __init__(self, name: str, config: dict[str, Any], origin_app: str | None = None) -> None:
        super().__init__(name, config, origin_app)
        self._ruleset = HeaderPayloadRuleSet.from_config(config)
        self.match_counts: dict[int, int] = {}

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        port = self._ruleset.classify(packet)
        self.match_counts[port] = self.match_counts.get(port, 0) + 1
        return [(port, packet)]

    def read_handle(self, name: str) -> Any:
        if name == "match_counts":
            return dict(self.match_counts)
        if name == "rules":
            return self._ruleset.to_config()
        return super().read_handle(name)

    def write_handle(self, name: str, value: Any) -> None:
        if name == "rules":
            self._ruleset = HeaderPayloadRuleSet.from_config(value)
            return
        super().write_handle(name, value)


class ProtocolAnalyzerElement(Element):
    """Classifies by identified application protocol.

    ``protocols`` maps protocol names to output ports, e.g.
    ``{"http": 1, "dns": 2}``; unidentified traffic goes to
    ``default_port``. Identification is lightweight: transport protocol,
    well-known ports, and HTTP payload heuristics.
    """

    def __init__(self, name: str, config: dict[str, Any], origin_app: str | None = None) -> None:
        super().__init__(name, config, origin_app)
        self._ports = {
            str(proto).lower(): int(port)
            for proto, port in config.get("protocols", {}).items()
        }
        self._default = int(config.get("default_port", 0))

    def identify(self, packet: Packet) -> str:
        ipv4 = packet.ipv4
        if ipv4 is None:
            return "non-ip"
        l4 = packet.l4
        if ipv4.proto == IpProto.TCP and l4 is not None:
            if looks_like_http(packet.payload):
                return "http"
            if 443 in (l4.src_port, l4.dst_port):
                return "tls"
            if 22 in (l4.src_port, l4.dst_port):
                return "ssh"
            return "tcp"
        if ipv4.proto == IpProto.UDP and l4 is not None:
            if 53 in (l4.src_port, l4.dst_port):
                return "dns"
            return "udp"
        if ipv4.proto == IpProto.ICMP:
            return "icmp"
        return "other"

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        protocol = self.identify(packet)
        return [(self._ports.get(protocol, self._default), packet)]


class FlowClassifierElement(Element):
    """Routes packets by a session-storage key set on their flow.

    ``rules`` maps values of session key ``key`` to output ports; flows
    without the key (or unknown values) take ``default_port``. This is
    how a stateful application (e.g. an IPS that tagged a flow as
    suspicious) steers subsequent packets of the flow.
    """

    def __init__(self, name: str, config: dict[str, Any], origin_app: str | None = None) -> None:
        super().__init__(name, config, origin_app)
        self._key = config.get("key", "class")
        self._ports = {
            str(value): int(port)
            for value, port in (config.get("rules") or {}).items()
        }
        self._default = int(config.get("default_port", 0))

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        value = None
        if self.context is not None:
            value = self.context.session.get(packet, self._key)
        port = self._ports.get(str(value), self._default) if value is not None else self._default
        return [(port, packet)]


class VlanClassifierElement(Element):
    """Classifies by 802.1Q VLAN id; the first rule naming the vid wins."""

    # The outer vid is part of the flow key (tag pops are uncacheable),
    # so the decision is flow-deterministic.
    caches_decision = True

    def __init__(self, name: str, config: dict[str, Any], origin_app: str | None = None) -> None:
        super().__init__(name, config, origin_app)
        rules = _rules_of(config)
        self._ports: dict[int, int] = {}
        self._default = rules.default_port
        for rule in rules:
            if rule.vlan is None:  # a catch-all ends the table
                self._default = rule.port
                break
            self._ports.setdefault(rule.vlan, rule.port)

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        eth = packet.eth
        tag = eth.vlan if eth is not None else None
        if tag is None:
            return [(self._default, packet)]
        return [(self._ports.get(tag.vid, self._default), packet)]


class MetadataClassifierElement(Element):
    """Routes on a key in the packet's metadata storage.

    The downstream half of a split processing graph (paper Figure 6(b))
    starts with this block: the upstream OBI wrote its classification
    result into the metadata, this block resumes processing on the
    matching path. ``rules`` maps metadata values to output ports.
    """

    # The routed-on metadata key is folded into the flow key by the
    # engine (the graph's "metadata scope"), making the decision
    # flow-deterministic; metadata writers that are not constant
    # (tunnel decaps) are themselves uncacheable and poison the entry.
    caches_decision = True

    def __init__(self, name: str, config: dict[str, Any], origin_app: str | None = None) -> None:
        super().__init__(name, config, origin_app)
        self._key = config["key"]
        self.metadata_key = self._key
        self._ports = {
            str(value): int(port)
            for value, port in (config.get("rules") or {}).items()
        }
        self._default = int(config.get("default_port", 0))

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        value = packet.metadata.get(self._key)
        if value is None:
            return [(self._default, packet)]
        return [(self._ports.get(str(value), self._default), packet)]
