"""Control-level graph optimization beyond merging (paper §6).

"The OBC can provide optimization to user-defined processing graphs, in
addition to that provided by the merge algorithm ... it could reorder
blocks or merge them, or even remove or replace blocks."

These rewrites are semantics-preserving on arbitrary DAGs (unlike the
compression pass, which needs tree form) and are applied by the
controller to each deployable graph:

* **rule pruning** — each HeaderClassifier's rule set is run through
  duplicate/shadow elimination, and the ports no rule (nor the default)
  maps to are cut;
* **no-op elision** — blocks that provably do nothing (empty SetMetadata,
  substitution-less rewriters, zero DelayShaper, pass-through Tee) are
  spliced out;
* **trivial-classifier elision** — a classifier with no rules routes
  every packet to its default port: replace with a direct edge;
* **dead-branch pruning** — blocks unreachable from the entry are
  removed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.blocks import Block
from repro.core.concat import INPUT_TERMINALS
from repro.core.graph import ProcessingGraph


@dataclass
class OptimizationReport:
    """What the optimizer changed."""

    rules_pruned: int = 0
    noop_blocks_removed: int = 0
    trivial_classifiers_removed: int = 0
    dead_blocks_removed: int = 0
    details: list[str] = field(default_factory=list)

    @property
    def total_changes(self) -> int:
        return (
            self.rules_pruned + self.noop_blocks_removed
            + self.trivial_classifiers_removed + self.dead_blocks_removed
        )


def _is_noop(block: Block) -> bool:
    if block.type == "SetMetadata":
        return not block.config.get("values")
    if block.type == "HeaderPayloadRewriter":
        return not block.config.get("substitutions")
    if block.type == "DelayShaper":
        return float(block.config.get("delay", 0.0)) == 0.0
    if block.type == "NetworkHeaderFieldRewriter":
        return not block.config.get("fields")
    return False


def _splice_out(graph: ProcessingGraph, name: str) -> bool:
    """Remove a single-output block, rewiring parents to its child.

    Only applies when the block emits on port 0 to exactly one child;
    returns False when the shape does not allow a safe splice.
    """
    outs = graph.out_connectors(name)
    if len(outs) != 1 or outs[0].src_port != 0:
        return False
    child = outs[0].dst
    for connector in graph.in_connectors(name):
        graph.remove_connector(connector)
        graph.connect(connector.src, child, connector.src_port)
    graph.remove_block(name)
    return True


def _prune_classifier_rules(graph: ProcessingGraph, report: OptimizationReport) -> None:
    """Prune each classifier's rules, then cut the ports no rule (nor the
    default) maps to any more."""
    for name, block in graph.blocks.items():
        if block.type != "HeaderClassifier":
            continue
        pruned = block.config["rules"].pruned
        removed = len(block.config["rules"]) - len(pruned)
        if removed > 0:
            block.config["rules"] = pruned
            report.rules_pruned += removed
            report.details.append(f"pruned {removed} shadowed/duplicate rules from {name}")
        for connector in graph.out_connectors(name):
            if connector.src_port not in pruned.used_ports:
                graph.remove_connector(connector)
                report.details.append(f"cut dead port {connector.src_port} of {name}")


def _remove_noops(graph: ProcessingGraph, report: OptimizationReport) -> None:
    changed = True
    while changed:
        changed = False
        for name in list(graph.blocks):
            block = graph.blocks.get(name)
            if block is None or not _is_noop(block):
                continue
            if _splice_out(graph, name):
                report.noop_blocks_removed += 1
                report.details.append(f"removed no-op block {name} ({block.type})")
                changed = True


def _remove_trivial_classifiers(
    graph: ProcessingGraph, report: OptimizationReport
) -> None:
    for name in list(graph.blocks):
        block = graph.blocks.get(name)
        if block is None or block.type != "HeaderClassifier":
            continue
        rules = block.config["rules"]
        if rules:
            continue
        # Rule pruning cut every port but the default: the splice is unambiguous.
        child = graph.successor_on_port(name, rules.default_port)
        if child is None:
            continue
        for connector in graph.in_connectors(name):
            graph.remove_connector(connector)
            graph.connect(connector.src, child, connector.src_port)
        graph.remove_block(name)
        report.trivial_classifiers_removed += 1
        report.details.append(f"elided rule-less classifier {name}")


def _prune_dead(graph: ProcessingGraph, report: OptimizationReport) -> None:
    """Remove the blocks no longer reachable from the entry."""
    roots = graph.roots()
    reachable = graph.reachable([
        name for name in roots if graph.blocks[name].type in INPUT_TERMINALS
    ] or roots[:1])
    for name in [name for name in graph.blocks if name not in reachable]:
        graph.remove_block(name)
        report.dead_blocks_removed += 1
        report.details.append(f"removed unreachable block {name}")


def optimize_graph(graph: ProcessingGraph) -> OptimizationReport:
    """Apply all control-level optimizations to ``graph`` in place."""
    report = OptimizationReport()
    _prune_classifier_rules(graph, report)
    _remove_trivial_classifiers(graph, report)
    _remove_noops(graph, report)
    _prune_dead(graph, report)
    graph.validate()
    return report
