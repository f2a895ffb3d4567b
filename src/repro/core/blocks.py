"""The abstract processing-block model and the block-type registry.

The OpenBox protocol defines over 40 abstract processing-block types
(paper §2.1, Table 1). Each type has:

* a *block class* — Terminal, Classifier, Modifier, Shaper or Static —
  which drives what the merge algorithm may reorder or combine (§2.2.1);
* configuration parameters;
* a port signature (fixed number of output ports, or config-dependent);
* read/write handles exposed to the control plane (§3.2).

:data:`block_registry` is the single source of truth shared by the
controller (graph validation, merging) and the OBI (translation to
execution-engine elements). The protocol layer serializes it for
capability advertisement in ``Hello`` messages.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.classify.header import HeaderRuleSet


class BlockClass:
    """The five block classes of paper §2.2.1."""

    TERMINAL = "terminal"
    CLASSIFIER = "classifier"
    MODIFIER = "modifier"
    SHAPER = "shaper"
    STATIC = "static"

    ALL = (TERMINAL, CLASSIFIER, MODIFIER, SHAPER, STATIC)


#: Block types whose ``config["rules"]`` is a :class:`HeaderRuleSet` value.
HEADER_RULE_TYPES = ("HeaderClassifier", "VlanClassifier")

#: Sentinel: the block's output-port count depends on its configuration
#: (e.g. one port per classification rule).
PORTS_BY_CONFIG = -1


@dataclass(frozen=True)
class HandleSpec:
    """A read or write handle exposed by a block type (paper §3.2)."""

    name: str
    writable: bool = False
    description: str = ""


@dataclass(frozen=True)
class BlockTypeSpec:
    """Static description of an abstract processing-block type."""

    name: str
    block_class: str
    description: str = ""
    num_ports: int = 1
    params: tuple[str, ...] = ()
    required_params: tuple[str, ...] = ()
    handles: tuple[HandleSpec, ...] = ()
    #: Classifier types that implement a cross-product merge (the paper's
    #: ``mergeWith`` interface on HeaderClassifier).
    mergeable: bool = False
    #: May a flow-decision cache entry (obi/fastpath.py) cover a visit
    #: to this block type? False for types whose behaviour is stateful
    #: or payload-dependent beyond what the flow key captures (DPI,
    #: fragmentation, tunnels, rate limiters): a slow-path visit to one
    #: poisons the flow's cache entry.
    cacheable: bool = True
    #: Optional hook combining two same-type static/modifier blocks into
    #: one (returns the merged config, or None if the configs conflict).
    combine: Callable[[dict[str, Any], dict[str, Any]], dict[str, Any] | None] | None = None

    def output_ports(self, config: dict[str, Any]) -> int:
        """Resolve the concrete number of output ports for ``config``."""
        if self.num_ports != PORTS_BY_CONFIG:
            return self.num_ports
        if isinstance(config.get("ports"), int):
            return int(config["ports"])  # Tee-style explicit port count
        ports: set[int] = set()
        rules = config.get("rules", config.get("patterns", []))
        if isinstance(rules, HeaderRuleSet):
            return rules.num_ports
        if isinstance(rules, dict):
            ports.update(int(port) for port in rules.values())
        else:
            ports.update(int(rule.get("port", 0)) for rule in rules)
        protocols = config.get("protocols")
        if isinstance(protocols, dict):
            ports.update(int(port) for port in protocols.values())
        default_port = config.get("default_port")
        if default_port is not None:
            ports.add(int(default_port))
        return (max(ports) + 1) if ports else 1


class BlockRegistry:
    """Mapping of block-type name to :class:`BlockTypeSpec`."""

    def __init__(self) -> None:
        self._types: dict[str, BlockTypeSpec] = {}

    def register(self, spec: BlockTypeSpec) -> BlockTypeSpec:
        if spec.name in self._types:
            raise ValueError(f"duplicate block type: {spec.name}")
        if spec.block_class not in BlockClass.ALL:
            raise ValueError(f"unknown block class: {spec.block_class}")
        self._types[spec.name] = spec
        return spec

    def get(self, name: str) -> BlockTypeSpec:
        try:
            return self._types[name]
        except KeyError:
            raise KeyError(f"unknown block type: {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._types

    def names(self) -> list[str]:
        return sorted(self._types)

    def __iter__(self):
        return iter(self._types.values())

    def __len__(self) -> int:
        return len(self._types)


#: Global registry of abstract block types.
block_registry = BlockRegistry()


def _register_builtin_types() -> None:
    reg = block_registry.register
    T, C, M, Sh, St = (
        BlockClass.TERMINAL, BlockClass.CLASSIFIER, BlockClass.MODIFIER,
        BlockClass.SHAPER, BlockClass.STATIC,
    )

    # ---------------- Terminals ----------------
    reg(BlockTypeSpec(
        "FromDevice", T, "Read packets from a network interface",
        num_ports=1, params=("devname",), required_params=("devname",),
        handles=(HandleSpec("count", description="packets read"),
                 HandleSpec("byte_count"),
                 HandleSpec("reset_counts", writable=True)),
    ))
    reg(BlockTypeSpec(
        "ToDevice", T, "Write packets to a network interface",
        num_ports=0, params=("devname",), required_params=("devname",),
        handles=(HandleSpec("count"), HandleSpec("byte_count"),
                 HandleSpec("reset_counts", writable=True)),
    ))
    reg(BlockTypeSpec(
        "Discard", T, "Drop all packets", num_ports=0,
        handles=(HandleSpec("count", description="packets dropped"),
                 HandleSpec("reset_counts", writable=True)),
    ))
    reg(BlockTypeSpec("FromDump", T, "Read packets from a capture file",
                      num_ports=1, params=("filename",), required_params=("filename",)))
    reg(BlockTypeSpec("ToDump", T, "Write packets to a capture file",
                      num_ports=0, params=("filename",), required_params=("filename",)))
    reg(BlockTypeSpec("SendToController", T,
                      "Punt the packet to the controller", num_ports=0))

    # ---------------- Classifiers ----------------
    classifier_handles = (
        HandleSpec("count"), HandleSpec("match_counts"),
        HandleSpec("rules", writable=True, description="replace the rule set"),
        HandleSpec("reset_counts", writable=True),
    )
    reg(BlockTypeSpec(
        "HeaderClassifier", C, "Classify on L2-L4 header fields",
        num_ports=PORTS_BY_CONFIG, params=("rules", "default_port"),
        required_params=("rules",), handles=classifier_handles, mergeable=True,
    ))
    # Routing depends on payload bytes, which the flow key does not
    # cover: a visit poisons the flow-decision cache entry.
    reg(BlockTypeSpec(
        "RegexClassifier", C, "Classify payload against regular expressions",
        num_ports=PORTS_BY_CONFIG, params=("patterns", "default_port"),
        required_params=("patterns",), handles=classifier_handles,
        cacheable=False,
    ))
    # Payload-dependent routing: poisons the flow-decision cache.
    reg(BlockTypeSpec(
        "HeaderPayloadClassifier", C,
        "Classify on header fields and payload patterns together",
        num_ports=PORTS_BY_CONFIG, params=("rules", "default_port"),
        required_params=("rules",), handles=classifier_handles,
        cacheable=False,
    ))
    # The HTTP heuristic reads payload bytes: poisons the cache.
    reg(BlockTypeSpec(
        "ProtocolAnalyzer", C, "Classify by identified application protocol",
        num_ports=PORTS_BY_CONFIG, params=("protocols", "default_port"),
        required_params=("protocols",), handles=(HandleSpec("count"),),
        cacheable=False,
    ))
    # Session state changes between packets of one flow (that is the
    # point of the block): never cache past it.
    reg(BlockTypeSpec(
        "FlowClassifier", C, "Classify by flow-table state",
        num_ports=PORTS_BY_CONFIG, params=("rules", "default_port"),
        cacheable=False,
    ))
    reg(BlockTypeSpec(
        "Conntrack", C,
        "Stateful connection-tracking firewall (SYN/EST/FIN machine): "
        "port 0 passes valid connection packets, port 1 drops invalid ones",
        num_ports=2, params=("drop_invalid",),
        handles=(
            HandleSpec("count"), HandleSpec("state_counts"),
            HandleSpec("transitions"), HandleSpec("invalid_dropped"),
            HandleSpec("state_drops"), HandleSpec("established"),
            HandleSpec("flush", writable=True,
                       description="remove all tracked connection state"),
            HandleSpec("reset_counts", writable=True),
        ),
    ))
    reg(BlockTypeSpec(
        "VlanClassifier", C, "Classify by 802.1Q VLAN id",
        num_ports=PORTS_BY_CONFIG, params=("rules", "default_port"),
        required_params=("rules",), mergeable=True,
    ))
    reg(BlockTypeSpec(
        "MetadataClassifier", C,
        "Route on a key in the packet metadata storage (split graphs)",
        num_ports=PORTS_BY_CONFIG, params=("key", "rules", "default_port"),
        required_params=("key",),
    ))

    # ---------------- Modifiers ----------------
    def _combine_field_rewrites(
        a: dict[str, Any], b: dict[str, Any]
    ) -> dict[str, Any] | None:
        """Two rewrites combine iff they touch disjoint fields or agree."""
        fields_a = dict(a.get("fields", {}))
        fields_b = dict(b.get("fields", {}))
        for name, value in fields_b.items():
            if name in fields_a and fields_a[name] != value:
                return None
            fields_a[name] = value
        return {"fields": fields_a}

    reg(BlockTypeSpec(
        "NetworkHeaderFieldRewriter", M, "Rewrite L2-L4 header fields",
        num_ports=1, params=("fields",), required_params=("fields",),
        handles=(HandleSpec("count"), HandleSpec("fields", writable=True)),
        combine=_combine_field_rewrites,
    ))
    reg(BlockTypeSpec("Ipv4AddressTranslator", M, "NAT-style IPv4 rewriting",
                      num_ports=1, params=("mappings",), required_params=("mappings",)))
    reg(BlockTypeSpec("TcpPortTranslator", M, "Translate TCP ports",
                      num_ports=1, params=("mappings",)))
    reg(BlockTypeSpec("DecTtl", M, "Decrement the IPv4 TTL", num_ports=1,
                      handles=(HandleSpec("count"),)))
    reg(BlockTypeSpec("VlanEncapsulate", M, "Push an 802.1Q tag", num_ports=1,
                      params=("vid", "pcp"), required_params=("vid",)))
    # Reveals an inner tag the flow key (outer vid only) cannot see.
    reg(BlockTypeSpec("VlanDecapsulate", M, "Pop the 802.1Q tag", num_ports=1,
                      cacheable=False))
    reg(BlockTypeSpec("GzipDecompressor", M, "Decompress gzip HTTP bodies",
                      num_ports=1, handles=(HandleSpec("count"), HandleSpec("errors"))))
    reg(BlockTypeSpec("GzipCompressor", M, "Compress HTTP bodies with gzip",
                      num_ports=1))
    reg(BlockTypeSpec("HtmlNormalizer", M, "Normalize HTML payloads",
                      num_ports=1, handles=(HandleSpec("count"),)))
    reg(BlockTypeSpec("UrlNormalizer", M, "Normalize URLs in HTTP requests",
                      num_ports=1))
    reg(BlockTypeSpec("HeaderPayloadRewriter", M,
                      "Rewrite payload bytes by pattern", num_ports=1,
                      params=("substitutions",)))
    # Tunnel framing/metadata changes per packet: poisons the cache.
    reg(BlockTypeSpec(
        "NshEncapsulate", M, "Push an NSH header carrying OpenBox metadata",
        num_ports=1, params=("spi", "metadata_keys"), required_params=("spi",),
        cacheable=False,
    ))
    # Restores metadata from wire bytes the flow key cannot see.
    reg(BlockTypeSpec("NshDecapsulate", M,
                      "Pop the NSH header and restore OpenBox metadata",
                      num_ports=1, cacheable=False))
    reg(BlockTypeSpec(
        "SetMetadata", M, "Write constant values into the packet metadata storage",
        num_ports=1, params=("values",), required_params=("values",),
        combine=_combine_field_rewrites_metadata,
    ))
    # Downstream re-parse of the bare IP frame is payload-dependent.
    reg(BlockTypeSpec("StripEthernet", M, "Remove the Ethernet header", num_ports=1,
                      cacheable=False))
    # Emission count depends on the packet length, not the flow key.
    reg(BlockTypeSpec("Fragmenter", M, "Fragment oversized IPv4 packets",
                      num_ports=1, params=("mtu",), cacheable=False))
    # Stateful reassembly: emission depends on fragments seen so far.
    reg(BlockTypeSpec(
        "Defragmenter", M,
        "Reassemble IPv4 fragments before classification (anti-evasion)",
        num_ports=1, params=("timeout", "max_pending"), cacheable=False,
        handles=(HandleSpec("count"), HandleSpec("reassembled"),
                 HandleSpec("pending"), HandleSpec("expired")),
    ))
    # Hit-or-miss routing depends on payload and mutable cache state.
    reg(BlockTypeSpec(
        "HttpCacheResponder", M,
        "Serve cached HTTP content: hits emit a synthesized response "
        "toward the client on port 1; misses pass through on port 0",
        num_ports=2, params=("cache",), required_params=("cache",),
        cacheable=False,
        handles=(HandleSpec("count"), HandleSpec("hits"), HandleSpec("misses")),
    ))

    # ---------------- Shapers ----------------
    # Rate-limit verdicts depend on clock and bucket state, not the
    # flow key (DelayShaper, a pure timestamp shift, stays cacheable).
    shaper_handles = (HandleSpec("count"), HandleSpec("dropped"),
                      HandleSpec("rate", writable=True))
    reg(BlockTypeSpec("BpsShaper", Sh, "Limit throughput in bits per second",
                      num_ports=1, params=("bps", "burst"), required_params=("bps",),
                      handles=shaper_handles, cacheable=False))
    reg(BlockTypeSpec("PpsShaper", Sh, "Limit throughput in packets per second",
                      num_ports=1, params=("pps", "burst"), required_params=("pps",),
                      handles=shaper_handles, cacheable=False))
    reg(BlockTypeSpec("Queue", Sh, "FIFO queue with tail drop",
                      num_ports=1, params=("capacity",), handles=shaper_handles,
                      cacheable=False))
    reg(BlockTypeSpec("RedQueue", Sh, "Random-early-detection queue",
                      num_ports=1, params=("capacity", "min_threshold", "max_threshold"),
                      handles=shaper_handles, cacheable=False))
    reg(BlockTypeSpec("DelayShaper", Sh, "Add fixed delay to packets",
                      num_ports=1, params=("delay",)))

    # ---------------- Statics ----------------
    # Alert and Log deliberately have no combine hook: every firing is an
    # externally observable event, so two adjacent identical Alerts must
    # stay two Alerts (two messages reach the controller). Only blocks
    # whose repetition is idempotent may combine.
    reg(BlockTypeSpec(
        "Alert", St, "Send an alert message to the controller", num_ports=1,
        params=("message", "severity", "origin_app"),
        handles=(HandleSpec("count"), HandleSpec("reset_counts", writable=True)),
    ))
    reg(BlockTypeSpec(
        "Log", St, "Log the packet to the logging service", num_ports=1,
        params=("message", "origin_app"), handles=(HandleSpec("count"),),
    ))
    reg(BlockTypeSpec("Counter", St, "Count packets and bytes", num_ports=1,
                      handles=(HandleSpec("count"), HandleSpec("byte_count"),
                               HandleSpec("reset_counts", writable=True)),
                      combine=None))
    reg(BlockTypeSpec("FlowTracker", St, "Record flows in the session storage",
                      num_ports=1, handles=(HandleSpec("flow_count"),)))
    reg(BlockTypeSpec(
        "SessionTag", St,
        "Write a key/value into the session storage for the packet's flow",
        num_ports=1, params=("key", "value"), required_params=("key", "value"),
        handles=(HandleSpec("count"), HandleSpec("tagged")),
    ))
    reg(BlockTypeSpec("StorePacket", St, "Store the packet in the storage service",
                      num_ports=1, params=("namespace",)))
    reg(BlockTypeSpec("Mirror", St, "Copy the packet to a mirror port", num_ports=2))
    reg(BlockTypeSpec("Tee", St, "Duplicate the packet to all output ports",
                      num_ports=PORTS_BY_CONFIG, params=("ports",)))


def _combine_field_rewrites_metadata(
    a: dict[str, Any], b: dict[str, Any]
) -> dict[str, Any] | None:
    """SetMetadata blocks combine iff their key sets are compatible."""
    values_a = dict(a.get("values", {}))
    values_b = dict(b.get("values", {}))
    for key, value in values_b.items():
        if key in values_a and values_a[key] != value:
            return None
        values_a[key] = value
    return {"values": values_a}


_block_ids = itertools.count(1)


@dataclass
class Block:
    """A processing-block instance inside a :class:`ProcessingGraph`.

    ``name`` identifies the block within its graph. ``origin_app`` records
    which OpenBox application contributed the block — preserved through
    merging so alerts and statistics demultiplex to the right application
    (paper §6, "Security").
    """

    type: str
    name: str = ""
    config: dict[str, Any] = field(default_factory=dict)
    origin_app: str | None = None
    #: Preferred concrete implementation (e.g. "tcam"); None lets the OBI
    #: choose its default implementation for this abstract type (§2.1).
    implementation: str | None = None
    #: The name this block had in its application's original graph.
    #: Preserved through normalization/merging clones so the controller
    #: can route an application's read/write requests to the deployed
    #: copies of its blocks (paper §4.1). None for blocks synthesized by
    #: the merge itself (e.g. a cross-product classifier).
    origin_block: str | None = None

    def __post_init__(self) -> None:
        if self.type not in block_registry:
            raise KeyError(f"unknown block type: {self.type!r}")
        if not self.name:
            self.name = f"{self.type.lower()}_{next(_block_ids)}"
        if self.origin_block is None:
            self.origin_block = self.name
        missing = [
            param for param in self.spec.required_params if param not in self.config
        ]
        if missing:
            raise ValueError(f"block {self.name} ({self.type}) missing config: {missing}")
        if self.type in HEADER_RULE_TYPES:
            rules = HeaderRuleSet.parse(self.config["rules"], self.config.get("default_port", 0))
            if rules is not self.config["rules"]:
                self.config = {**self.config, "rules": rules}

    @property
    def spec(self) -> BlockTypeSpec:
        return block_registry.get(self.type)

    @property
    def block_class(self) -> str:
        return self.spec.block_class

    @property
    def num_output_ports(self) -> int:
        return self.spec.output_ports(self.config)

    def clone(self, name: str | None = None) -> "Block":
        """Copy the block (fresh generated name unless one is given): config
        lists and dicts are copied, immutable values such as rules shared."""
        return Block(
            type=self.type,
            name=name or f"{self.type.lower()}_{next(_block_ids)}",
            config=_deep_copy_config(self.config),
            origin_app=self.origin_app,
            implementation=self.implementation,
            origin_block=self.origin_block,
        )

    def config_fingerprint(self) -> str:
        """A deterministic string identifying (type, config, origin).

        ``origin_block`` is included so deduplication never merges two
        *different* application blocks that happen to share a config —
        that would break handle addressing — while still merging clones
        of the same original block.
        """
        return (
            f"{self.type}|{_stable_repr(self.config)}|{self.origin_app}"
            f"|{self.origin_block}"
        )

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"type": self.type, "name": self.name, "config": self.config}
        if self.origin_app is not None:
            data["origin_app"] = self.origin_app
        if self.implementation is not None:
            data["implementation"] = self.implementation
        if self.origin_block is not None and self.origin_block != self.name:
            data["origin_block"] = self.origin_block
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Block":
        return cls(
            type=data["type"],
            name=data.get("name", ""),
            config=data.get("config", {}),
            origin_app=data.get("origin_app"),
            implementation=data.get("implementation"),
            origin_block=data.get("origin_block"),
        )


def _deep_copy_config(config: dict[str, Any]) -> dict[str, Any]:
    def copy_value(value: Any) -> Any:
        if isinstance(value, dict):
            return {key: copy_value(item) for key, item in value.items()}
        if isinstance(value, list):
            return [copy_value(item) for item in value]
        return value

    return {key: copy_value(value) for key, value in config.items()}


def _stable_repr(value: Any) -> str:
    if isinstance(value, dict):
        inner = ",".join(
            f"{key}:{_stable_repr(value[key])}" for key in sorted(value, key=str)
        )
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_stable_repr(item) for item in value) + "]"
    return repr(value)


_register_builtin_types()
