"""The per-block cycle-cost model.

Calibration targets the paper's standalone measurements (Table 2):
a 4560-rule firewall at ~840 Mbps / ~48 µs and a Snort-web IPS at
~454 Mbps / ~76 µs, both on one VM, with the campus-trace packet mix.
The knobs below were fit once against those two anchors; everything
else (chains, merged graphs, regions) is *predicted* by the model from
the block paths the engine reports — that separation is what makes the
reproduced trends meaningful.

Cost structure:

* every block hop costs a fixed dispatch overhead (Click's per-element
  cost analog);
* header classification is priced like a compiled decision tree (Click's
  ``Classifier``): the dominant term is the number of *header fields*
  the rule set examines, plus a weak logarithmic term in the rule count,
  plus per-entry cost for a linear-scan implementation and a constant
  for the simulated TCAM. This matters for reproducing the paper's
  headline result: merging two classifiers yields one lookup whose cost
  is close to a single classification, not the sum of the two;
* DPI (regex/payload classification) is dominated by a per-payload-byte
  scan cost;
* payload transforms (gzip, HTML normalization) are per-byte;
* everything else is a small constant.

Costs are resolved once per graph into :class:`GraphCostProfile` — a
``fixed + per_payload_byte`` pair per block — so per-packet accounting
is a cheap sum over the traversed path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.classify.header import HeaderRuleSet
from repro.core.graph import ProcessingGraph
from repro.net.packet import Packet
from repro.obi.engine import Engine


@dataclass(frozen=True)
class VmSpec:
    """A data-plane VM: one core of a 2016-era Xeon by default."""

    cycles_per_second: float = 3.0e9
    #: Fixed per-traversal latency: NIC, vhost, KVM exit/entry path.
    overhead_seconds: float = 40e-6


@dataclass(frozen=True)
class BlockCostProfile:
    """Resolved per-block cost: ``fixed + per_payload_byte * len(payload)``."""

    fixed: float
    per_payload_byte: float = 0.0

    def cost(self, payload_len: int) -> float:
        return self.fixed + self.per_payload_byte * payload_len


def _classifier_fields(rules: "list | HeaderRuleSet") -> int:
    """How many distinct header fields the rule set examines."""
    if isinstance(rules, HeaderRuleSet):
        rules = rules.wire
    fields: set[str] = set()
    for rule in rules or ():
        if isinstance(rule, dict):
            fields.update(
                key for key in rule
                if key in ("src_ip", "dst_ip", "src_port", "dst_port",
                           "proto", "vlan", "dscp")
            )
    return len(fields)


@dataclass
class CostModel:
    """Maps block types/configs to :class:`BlockCostProfile`."""

    block_dispatch: float = 150.0
    # Header classification (decision-tree style): the per-field term
    # dominates, rule count only enters logarithmically.
    header_classify_base: float = 2_000.0
    header_classify_per_field: float = 4_000.0
    header_classify_per_log_rule: float = 120.0
    header_classify_linear_per_rule: float = 110.0
    tcam_lookup: float = 500.0
    dpi_base: float = 1_000.0
    dpi_per_byte: float = 55.0
    modifier_base: float = 300.0
    gzip_per_byte: float = 45.0
    html_per_byte: float = 8.0
    shaper_cost: float = 200.0
    static_cost: float = 150.0
    alert_cost: float = 400.0
    metadata_block: float = 250.0
    nsh_codec: float = 450.0

    #: Per-type fixed-cost overrides for injected custom block types.
    custom_costs: dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def _header_classifier_fixed(self, config: dict) -> float:
        implementation = config.get("implementation", "trie")
        rules = config.get("rules") or []
        if implementation == "tcam":
            return self.tcam_lookup
        if implementation == "linear":
            return self.header_classify_linear_per_rule * max(len(rules), 1)
        return (
            self.header_classify_base
            + self.header_classify_per_field * _classifier_fields(rules)
            + self.header_classify_per_log_rule * math.log2(1 + len(rules))
        )

    def profile(self, block_type: str, config: dict) -> BlockCostProfile:
        """Resolve the cost profile of one block."""
        dispatch = self.block_dispatch
        if block_type in self.custom_costs:
            return BlockCostProfile(fixed=dispatch + self.custom_costs[block_type])
        if block_type == "HeaderClassifier":
            return BlockCostProfile(fixed=dispatch + self._header_classifier_fixed(config))
        if block_type == "RegexClassifier":
            return BlockCostProfile(
                fixed=dispatch + self.dpi_base, per_payload_byte=self.dpi_per_byte
            )
        if block_type == "HeaderPayloadClassifier":
            return BlockCostProfile(
                fixed=dispatch + self._header_classifier_fixed(config) + self.dpi_base,
                per_payload_byte=self.dpi_per_byte,
            )
        if block_type in ("GzipDecompressor", "GzipCompressor"):
            return BlockCostProfile(
                fixed=dispatch + self.modifier_base, per_payload_byte=self.gzip_per_byte
            )
        if block_type in ("HtmlNormalizer", "UrlNormalizer",
                          "HeaderPayloadRewriter", "HttpCacheResponder"):
            return BlockCostProfile(
                fixed=dispatch + self.modifier_base, per_payload_byte=self.html_per_byte
            )
        if block_type in ("NshEncapsulate", "NshDecapsulate"):
            return BlockCostProfile(fixed=dispatch + self.nsh_codec)
        if block_type in ("SetMetadata", "MetadataClassifier", "FlowClassifier",
                          "VlanClassifier", "ProtocolAnalyzer"):
            return BlockCostProfile(fixed=dispatch + self.metadata_block)
        if block_type == "Alert":
            return BlockCostProfile(fixed=dispatch + self.alert_cost)
        if block_type in ("BpsShaper", "PpsShaper", "Queue", "RedQueue", "DelayShaper"):
            return BlockCostProfile(fixed=dispatch + self.shaper_cost)
        if block_type in ("NetworkHeaderFieldRewriter", "Ipv4AddressTranslator",
                          "TcpPortTranslator", "DecTtl", "VlanEncapsulate",
                          "VlanDecapsulate", "StripEthernet", "Fragmenter",
                          "Defragmenter"):
            return BlockCostProfile(fixed=dispatch + self.modifier_base)
        # Terminals, Log, Counter, FlowTracker, StorePacket, Mirror, Tee.
        return BlockCostProfile(fixed=dispatch + self.static_cost)


class GraphCostProfile:
    """Per-block resolved costs for one graph."""

    def __init__(self, graph: ProcessingGraph, model: CostModel) -> None:
        self.graph = graph
        self.model = model
        self._profiles: dict[str, BlockCostProfile] = {}
        for block in graph.blocks.values():
            config = dict(block.config)
            if block.implementation is not None:
                config.setdefault("implementation", block.implementation)
            self._profiles[block.name] = model.profile(block.type, config)

    def path_cost(self, path: list[str], packet: Packet) -> float:
        payload_len = len(packet.payload)
        total = 0.0
        for name in path:
            profile = self._profiles.get(name)
            if profile is not None:
                total += profile.cost(payload_len)
        return total


@dataclass
class VmMeasurement:
    """Aggregate cost accounting for one VM over a trace."""

    packets: int = 0
    total_bits: float = 0.0
    total_cycles: float = 0.0
    total_path_len: int = 0
    per_packet_cycles: list = field(default_factory=list)

    def add(self, bits: float, cycles: float, path_len: int) -> None:
        self.packets += 1
        self.total_bits += bits
        self.total_cycles += cycles
        self.total_path_len += path_len
        self.per_packet_cycles.append(cycles)

    def latency_percentile(self, vm: VmSpec, percentile: float) -> float:
        """Per-packet latency at ``percentile`` (0-100), seconds.

        The paper reports mean latency only; percentiles expose the tail
        the trimodal packet mix induces (DPI cost scales with payload).
        """
        if not self.per_packet_cycles:
            return 0.0
        ordered = sorted(self.per_packet_cycles)
        index = min(
            len(ordered) - 1,
            max(0, int(round(percentile / 100.0 * (len(ordered) - 1)))),
        )
        return vm.overhead_seconds + ordered[index] / vm.cycles_per_second

    def throughput_bps(self, vm: VmSpec) -> float:
        """Saturation throughput: bits emitted per second of CPU time."""
        if self.total_cycles == 0:
            return float("inf")
        return vm.cycles_per_second * self.total_bits / self.total_cycles

    def latency_seconds(self, vm: VmSpec) -> float:
        """Mean unloaded per-packet latency for one traversal."""
        if self.packets == 0:
            return 0.0
        mean_cycles = self.total_cycles / self.packets
        return vm.overhead_seconds + mean_cycles / vm.cycles_per_second

    def mean_path_length(self) -> float:
        return self.total_path_len / self.packets if self.packets else 0.0


def measure_engine(
    engine: Engine,
    packets: list[Packet],
    model: CostModel,
) -> VmMeasurement:
    """Run ``packets`` through ``engine`` and account their path costs."""
    profile = GraphCostProfile(engine.graph, model)
    measurement = VmMeasurement()
    for packet in packets:
        clone = packet.clone()
        outcome = engine.process(clone)
        cycles = profile.path_cost(outcome.path, packet)
        measurement.add(
            bits=len(packet) * 8, cycles=cycles, path_len=len(outcome.path)
        )
    return measurement
