"""Stage 3 of the merge pipeline: path compression (paper Algorithm 1).

Works on a processing *tree* and repeatedly applies two semantics-
preserving rewrites until a fixpoint:

1. **Classifier-classifier merge.** If classifier ``c`` has, on the
   subtree hanging off one of its output ports ``p``, a mergeable
   classifier ``d`` of the same type separated only by *static* blocks
   (class St — blocks that neither modify the packet nor its forwarding
   path), then ``c`` and ``d`` collapse into a single classifier whose
   rule set routes each packet directly to the combined outcome. The
   static blocks between them are cloned onto every merged egress path
   that passes through them (Figure 4: the firewall's Alert block appears
   once per IPS branch), and ``d``'s subtrees are re-wired below the
   merged classifier. Classifiers are never moved across modifiers or
   shapers — that could change classification results (§2.2.1).

2. **Static/modifier combine.** Two adjacent single-output blocks of the
   same type combine when the block type's ``combine`` hook accepts their
   configs (e.g. two header rewrites touching disjoint fields, or two
   identical Alerts).

Each rewrite strictly decreases (#classifiers, #blocks) lexicographically,
so the fixpoint loop terminates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.blocks import HEADER_RULE_TYPES, Block, BlockClass
from repro.core.classify.header import HeaderRuleSet
from repro.core.classify.index import RuleIndex, iter_bits
from repro.core.classify.rules import HeaderRule
from repro.core.graph import ProcessingGraph

@dataclass
class CompressionStats:
    """Counters describing what compression did (reported in MergeResult)."""

    classifier_merges: int = 0
    static_combines: int = 0
    statics_cloned: int = 0
    passes: int = 0
    #: Rule pairs the cross product intersected; each yields a rule.
    rule_pairs_intersected: int = 0


def compress_tree(
    tree: ProcessingGraph,
    enable_classifier_merge: bool = True,
    enable_static_combine: bool = True,
    stats: CompressionStats | None = None,
) -> CompressionStats:
    """Compress ``tree`` in place; returns rewrite statistics."""
    if stats is None:
        stats = CompressionStats()
    entry = tree.entry_point()
    changed = True
    while changed:
        stats.passes += 1
        changed = False
        if enable_classifier_merge and _try_classifier_merge(tree, stats):
            _prune_unreachable(tree, entry)
            changed = True
            continue
        if enable_static_combine and _try_static_combine(tree, stats):
            changed = True
    return stats


def _prune_unreachable(tree: ProcessingGraph, entry: str) -> None:
    """Drop blocks no longer reachable from the entry terminal.

    A classifier merge can prove a subtree dead — e.g. when the cross
    product of an outer UDP rule with an inner TCP-only classifier is
    empty, the inner subtree for that branch has no rule mapping to it.
    Such subtrees must be removed or they would dangle as spurious roots.
    """
    reachable = tree.reachable([entry])
    for name in [name for name in tree.blocks if name not in reachable]:
        tree.remove_block(name)


# ----------------------------------------------------------------------
# Rewrite 1: classifier-classifier merge
# ----------------------------------------------------------------------

def _is_mergeable_classifier(block: Block) -> bool:
    return block.type in HEADER_RULE_TYPES and block.spec.mergeable


def _find_merge_candidate(
    tree: ProcessingGraph,
) -> tuple[str, int, list[str], str] | None:
    """Find (classifier c, port p, statics-between, classifier d) to merge.

    Scans in topological order so upstream classifiers merge first,
    mirroring Algorithm 1's root-to-leaf walk.
    """
    for name in tree.topological_order():
        block = tree.blocks[name]
        if not _is_mergeable_classifier(block):
            continue
        for connector in tree.out_connectors(name):
            statics: list[str] = []
            current = connector.dst
            while True:
                candidate = tree.blocks[current]
                if (
                    _is_mergeable_classifier(candidate)
                    and candidate.type == block.type
                ):
                    return name, connector.src_port, statics, current
                # Only skip over *static* blocks with a single egress —
                # anything else (modifier, shaper, terminal, branching
                # static, non-mergeable classifier) ends the search on
                # this path.
                if candidate.block_class != BlockClass.STATIC:
                    break
                outs = tree.out_connectors(current)
                if len(outs) != 1:
                    break
                statics.append(current)
                current = outs[0].dst
    return None


def merge_classifier_rulesets_on_branch(
    outer: HeaderRuleSet,
    branch_port: int,
    inner: HeaderRuleSet,
    allocate: "PortAllocator",
    stats: CompressionStats,
) -> HeaderRuleSet:
    """Merge ``inner`` (reached via ``outer`` port ``branch_port``) into ``outer``.

    Produces a rule set with sequential first-match semantics:

    * a packet that ``outer`` sends to a port other than ``branch_port``
      keeps that outcome — one rule per original rule, no cross product;
    * a packet that ``outer`` sends to ``branch_port`` is further split by
      ``inner``'s rules — the cross product is taken only on this branch,
      with an explicit catch-all closing each expansion so that first-match
      order is preserved.

    This is the paper's cross-product merge ("orders them according to
    their priority, removes duplicate rules caused by the cross-product
    and empty rules caused by priority considerations") restricted to the
    branch where the inner classifier actually sits, which keeps the rule
    count at ``O(|outer| + k·|inner|)`` instead of ``O(|outer|·|inner|)``
    (k = rules mapping to the merged branch).

    Each branch rule is intersected only with the inner rules a
    :class:`RuleIndex` reports as overlapping it, in inner order, so every
    pair tried is non-empty (counted in ``stats.rule_pairs_intersected``).
    Branch ports are allocated for every inner rule, in inner order, at
    the first branch rule — the order trying every pair would give.
    """
    inner_rules = list(inner.rules) + [HeaderRule(port=inner.default_port)]
    merged: list[HeaderRule] = []
    outer_rules = list(outer.rules) + [HeaderRule(port=outer.default_port)]
    index: RuleIndex | None = None
    inner_ports: list[int] = []
    for position, rule_a in enumerate(outer_rules):
        is_catch_all_default = position == len(outer_rules) - 1
        if rule_a.port != branch_port:
            target = allocate.outer_port(rule_a.port)
            if not is_catch_all_default:
                merged.append(replace(rule_a, port=target))
            continue
        if index is None:
            index = RuleIndex(inner_rules)
            inner_ports = [allocate.branch_port(rule.port) for rule in inner_rules]
        for slot in iter_bits(index.overlapping(rule_a)):
            merged.append(rule_a.intersect(inner_rules[slot], inner_ports[slot]))
            stats.rule_pairs_intersected += 1

    if outer.default_port != branch_port:
        default = allocate.outer_port(outer.default_port)
    else:
        default = allocate.branch_port(inner.default_port)
    return HeaderRuleSet(merged, default).pruned


@dataclass
class PortAllocator:
    """Assigns contiguous output ports to merged-classifier outcomes."""

    _ports: dict[tuple[str, int], int] = field(default_factory=dict)

    def outer_port(self, port: int) -> int:
        return self._alloc(("outer", port))

    def branch_port(self, port: int) -> int:
        return self._alloc(("branch", port))

    def _alloc(self, key: tuple[str, int]) -> int:
        if key not in self._ports:
            self._ports[key] = len(self._ports)
        return self._ports[key]

    def assignments(self) -> dict[tuple[str, int], int]:
        return dict(self._ports)


def _try_classifier_merge(tree: ProcessingGraph, stats: CompressionStats) -> bool:
    candidate = _find_merge_candidate(tree)
    if candidate is None:
        return False
    outer_name, branch_port, statics, inner_name = candidate
    outer = tree.blocks[outer_name]
    inner = tree.blocks[inner_name]

    allocate = PortAllocator()
    merged_rules = merge_classifier_rulesets_on_branch(
        outer.config["rules"], branch_port, inner.config["rules"], allocate, stats
    )
    merged_block = Block(
        type=outer.type,
        config={"rules": merged_rules, "default_port": merged_rules.default_port},
        origin_app=outer.origin_app if outer.origin_app == inner.origin_app else None,
        implementation=outer.implementation,
    )

    # Record where each merged port must lead before we start rewiring.
    outer_children = {
        connector.src_port: connector.dst for connector in tree.out_connectors(outer_name)
    }
    inner_children = {
        connector.src_port: connector.dst for connector in tree.out_connectors(inner_name)
    }
    in_connectors = tree.in_connectors(outer_name)

    tree.add_block(merged_block)

    # Ports whose rules were entirely pruned (empty cross products,
    # shadowed rules) are dead: leave them unwired so reachability
    # pruning collects their subtrees, and so the merged block's port
    # count (derived from its rule set) stays consistent.
    live_ports = merged_rules.used_ports

    # Re-wire the merged classifier's ports.
    for (kind, original_port), new_port in allocate.assignments().items():
        if new_port not in live_ports:
            continue
        if kind == "outer":
            # Unchanged branch of the outer classifier. The statics chain
            # and the inner classifier live on branch_port, so these
            # subtrees are reused as-is.
            child = outer_children.get(original_port)
            if child is not None:
                _reconnect(tree, merged_block.name, child, new_port)
        else:
            # Branch that passed through the inner classifier: clone of
            # the statics chain, then the inner classifier's subtree for
            # this port.
            tail = inner_children.get(original_port)
            head = _clone_statics_chain(tree, statics, stats)
            if head is not None:
                chain_head, chain_tail = head
                tree.connect(merged_block.name, chain_head, new_port)
                if tail is not None:
                    _reconnect(tree, chain_tail, tail, 0)
            elif tail is not None:
                _reconnect(tree, merged_block.name, tail, new_port)
            # A port with neither statics nor subtree is a dangling
            # outcome (inner classifier port wired to nothing): leave it
            # unconnected, matching the original dangling semantics.

    # Point the outer classifier's parents at the merged block.
    for connector in in_connectors:
        tree.remove_connector(connector)
        tree.connect(connector.src, merged_block.name, connector.src_port)

    # Remove the consumed blocks: outer, the original statics chain, inner.
    _detach_and_remove(tree, outer_name)
    for static_name in statics:
        _detach_and_remove(tree, static_name)
    _detach_and_remove(tree, inner_name)

    stats.classifier_merges += 1
    return True


def _reconnect(tree: ProcessingGraph, src: str, dst: str, port: int) -> None:
    """Connect src->dst, first detaching dst from its previous parent."""
    for connector in tree.in_connectors(dst):
        tree.remove_connector(connector)
    tree.connect(src, dst, port)


def _clone_statics_chain(
    tree: ProcessingGraph, statics: list[str], stats: CompressionStats
) -> tuple[str, str] | None:
    """Clone the chain of static blocks; returns (head, tail) or None."""
    if not statics:
        return None
    clones: list[Block] = []
    for name in statics:
        clone = tree.blocks[name].clone()
        tree.add_block(clone)
        clones.append(clone)
        stats.statics_cloned += 1
    for first, second in zip(clones, clones[1:]):
        tree.connect(first.name, second.name, 0)
    return clones[0].name, clones[-1].name


def _detach_and_remove(tree: ProcessingGraph, name: str) -> None:
    """Remove a block that should no longer have live connectors."""
    if name in tree.blocks:
        tree.remove_block(name)


# ----------------------------------------------------------------------
# Rewrite 2: static/modifier combine
# ----------------------------------------------------------------------

def _try_static_combine(tree: ProcessingGraph, stats: CompressionStats) -> bool:
    for name in tree.topological_order():
        block = tree.blocks.get(name)
        if block is None:
            continue
        if block.block_class not in (BlockClass.STATIC, BlockClass.MODIFIER):
            continue
        if block.spec.combine is None or block.num_output_ports != 1:
            continue
        outs = tree.out_connectors(name)
        if len(outs) != 1:
            continue
        successor = tree.blocks[outs[0].dst]
        if successor.type != block.type:
            continue
        combined_config = block.spec.combine(block.config, successor.config)
        if combined_config is None:
            continue
        combined = Block(
            type=block.type,
            config=combined_config,
            origin_app=(
                block.origin_app
                if block.origin_app == successor.origin_app
                else None
            ),
            implementation=block.implementation,
        )
        tree.add_block(combined)
        for connector in tree.in_connectors(name):
            tree.remove_connector(connector)
            tree.connect(connector.src, combined.name, connector.src_port)
        for connector in tree.out_connectors(successor.name):
            tree.remove_connector(connector)
            tree.connect(combined.name, connector.dst, connector.src_port)
        tree.remove_connector(outs[0])
        tree.remove_block(name)
        tree.remove_block(successor.name)
        stats.static_combines += 1
        return True
    return False
