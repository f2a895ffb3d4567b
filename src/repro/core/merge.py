"""The merge driver: naive merge, full merge pipeline, and policy.

The OpenBox controller calls :func:`merge_graphs` with the processing
graphs of every application deployed to an OBI, ordered by application
priority. The full pipeline is normalize → concatenate → path-compress →
deduplicate (paper §2.2.1); if normalization would blow up, the driver
"rolls back to the naive merge", which simply chains the graphs
(Figure 3).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.compress import CompressionStats, compress_tree
from repro.core.concat import INPUT_TERMINALS, OUTPUT_TERMINALS, concatenate_trees
from repro.core.dedup import deduplicate
from repro.core.graph import GraphValidationError, ProcessingGraph
from repro.core.normalize import NormalizationBlowup, normalize_to_tree


@dataclass(frozen=True)
class MergePolicy:
    """Knobs controlling the merge pipeline.

    ``max_tree_blocks`` is the blow-up guard: if normalization or
    concatenation would exceed it, the driver falls back to the naive
    merge. ``merge_classifiers`` / ``combine_statics`` switch the two
    compression rewrites (used by the ablation benchmarks). Applications
    whose logic changes too frequently can be excluded from merging
    upstream (paper §3.4) — the controller filters them before calling
    this module.
    """

    max_tree_blocks: int = 100_000
    merge_classifiers: bool = True
    combine_statics: bool = True
    deduplicate: bool = True


@dataclass
class MergeResult:
    """The merged graph plus provenance and size/latency accounting."""

    graph: ProcessingGraph
    used_naive: bool = False
    merge_time: float = 0.0
    diameter_naive: int = 0
    diameter_merged: int = 0
    compression: CompressionStats = field(default_factory=CompressionStats)


def naive_merge(graphs: Sequence[ProcessingGraph]) -> ProcessingGraph:
    """Chain graphs back to back without any restructuring (Figure 3).

    Every output terminal of graph *i* is replaced by an edge into graph
    *i+1*'s entry successor. The second graph appears exactly once (paths
    may converge), so no normalization is needed.
    """
    if not graphs:
        raise ValueError("no graphs to merge")
    result = graphs[0].copy(rename=True)
    for nxt in graphs[1:]:
        result = _naive_concat(result, nxt)
    result.name = "+".join(graph.name for graph in graphs) + ":naive"
    return result


def _naive_concat(first: ProcessingGraph, second: ProcessingGraph) -> ProcessingGraph:
    second_entry = second.entry_point()
    if second.blocks[second_entry].type not in INPUT_TERMINALS:
        raise GraphValidationError("second graph must start with an input terminal")
    successors = second.out_connectors(second_entry)
    if len(successors) != 1:
        raise GraphValidationError("second graph entry must have one successor")

    result = first.copy(rename=True)
    # Copy the second graph body (everything but its entry terminal).
    appended = second.copy(rename=True)
    appended_entry = appended.entry_point()
    body_root = appended.out_connectors(appended_entry)[0].dst
    appended.remove_block(appended_entry)
    for block in appended.blocks.values():
        result.add_block(block)
    for connector in appended.connectors:
        result._add_connector(connector)

    output_leaves = [
        name for name in result.leaves()
        if result.blocks[name].type in OUTPUT_TERMINALS
        and name not in appended.blocks
    ]
    if not output_leaves:
        raise GraphValidationError(
            f"graph {first.name!r} has no output terminal to chain after"
        )
    for leaf in output_leaves:
        for connector in result.in_connectors(leaf):
            result.remove_connector(connector)
            result.connect(connector.src, body_root, connector.src_port)
        result.remove_block(leaf)
    return result


def merge_graphs(
    graphs: Sequence[ProcessingGraph],
    policy: MergePolicy | None = None,
) -> MergeResult:
    """Merge application graphs in priority order into one deployable graph.

    Returns a :class:`MergeResult`; ``used_naive`` is True when the
    blow-up guard fired and the naive merge was used instead.
    """
    if not graphs:
        raise ValueError("no graphs to merge")
    if policy is None:
        policy = MergePolicy()

    start = time.perf_counter()
    naive = naive_merge(graphs) if len(graphs) > 1 else graphs[0].copy(rename=True)
    diameter_naive = naive.diameter()

    if len(graphs) == 1 and not policy.merge_classifiers and not policy.combine_statics:
        merged = naive
        merged.validate()
        return MergeResult(
            graph=merged,
            used_naive=False,
            merge_time=time.perf_counter() - start,
            diameter_naive=diameter_naive,
            diameter_merged=merged.diameter(),
        )

    try:
        tree = normalize_to_tree(graphs[0], policy.max_tree_blocks)
        for nxt in graphs[1:]:
            next_tree = normalize_to_tree(nxt, policy.max_tree_blocks)
            tree = concatenate_trees(tree, next_tree)
            if len(tree.blocks) > policy.max_tree_blocks:
                raise NormalizationBlowup(tree.name, policy.max_tree_blocks)
    except NormalizationBlowup:
        # Roll back to the naive merge (paper §2.2.1, footnote 1).
        naive.validate()
        return MergeResult(
            graph=naive,
            used_naive=True,
            merge_time=time.perf_counter() - start,
            diameter_naive=diameter_naive,
            diameter_merged=naive.diameter(),
        )

    stats = compress_tree(
        tree,
        enable_classifier_merge=policy.merge_classifiers,
        enable_static_combine=policy.combine_statics,
    )
    merged = deduplicate(tree) if policy.deduplicate else tree
    merged.name = "+".join(graph.name for graph in graphs)
    merged.validate()
    return MergeResult(
        graph=merged,
        used_naive=False,
        merge_time=time.perf_counter() - start,
        diameter_naive=diameter_naive,
        diameter_merged=merged.diameter(),
        compression=stats,
    )
