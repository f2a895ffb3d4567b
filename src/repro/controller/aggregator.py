"""Per-OBI graph selection and merging.

"Upon connection of an OBI, the OBC determines the processing graphs
that apply to this OBI in accordance with its location in the segment
hierarchy. Then, for each OBI, the controller merges the corresponding
graphs to a single graph and sends this merged processing graph to the
instance" (paper §3.3).

Applications flagged non-mergeable ("Applications that are expected to
change their logic too frequently may be marked so that the merge
algorithm will not be applied on them", §3.4) are chained naively in
priority order; runs of consecutive mergeable applications are fully
merged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import groupby
from typing import Any, Iterable

from repro.controller.apps import AppStatement, OpenBoxApplication
from repro.controller.optimizer import optimize_graph
from repro.controller.segments import SegmentHierarchy
from repro.controller.split import split_at_classifier
from repro.core.graph import ProcessingGraph, canonical_graph_digest
from repro.core.merge import MergePolicy, MergeResult, merge_graphs, naive_merge


def _stamp_ownership(graph: ProcessingGraph, app_name: str) -> ProcessingGraph:
    """Copy ``graph`` with every unlabeled block owned by ``app_name``.

    Ownership labels survive merging (clones keep them), which is how
    the controller later routes handle requests and demultiplexes alerts;
    blocks the merge synthesizes itself (cross-product classifiers of
    several tenants) end up with no owner and stay unaddressable.
    """
    stamped = graph.copy()
    for block in stamped.blocks.values():
        if block.origin_app is None:
            block.origin_app = app_name
    return stamped


def _named_by_position(graph: ProcessingGraph) -> ProcessingGraph:
    """``graph`` with every block renamed ``<type>_<index>`` by position.

    Merging draws names from a process-global gensym counter, so intent
    re-derived elsewhere (a recovered or promoted controller that adopts
    the running graph) would name blocks the OBI does not run. Equal
    intent must mean equal names, as it already means equal digests;
    origins are kept — they are how handle requests find blocks.
    """
    named = ProcessingGraph(graph.name)
    names = {name: f"{block.type.lower()}_{index}"
             for index, (name, block) in enumerate(graph.blocks.items())}
    named.add_blocks(replace(block, name=names[block.name])
                     for block in graph.blocks.values())
    for connector in graph.connectors:
        named.connect(names[connector.src], names[connector.dst], connector.src_port)
    return named


@dataclass(eq=False)
class AggregationResult:
    """The deployable graph for one OBI plus merge provenance.

    OBIs with the same applicable statements share one result within a
    fleet sweep (:class:`SweepApplications`): treat it as read-only.
    Results compare (and hash) by identity.
    """

    graph: ProcessingGraph
    app_names: list[str]
    merge_results: list[MergeResult]

    @property
    def used_naive(self) -> bool:
        return any(result.used_naive for result in self.merge_results)

    def origin_map(self) -> dict[str, str | None]:
        """Deployed block name -> originating application.

        The provenance view trace attribution rides on: ``None`` marks a
        block the merge synthesized across tenants (e.g. a cross-product
        classifier), which belongs to no single application.
        """
        return {
            name: block.origin_app for name, block in self.graph.blocks.items()
        }


class SweepApplications:
    """The application set as one fleet sweep sees it.

    The segment tree, not the fleet's width, bounds how many distinct
    merged graphs a deployment needs (paper §3.3-3.4), so everything
    :meth:`GraphAggregator.aggregate` computes is shared among the OBIs
    of one sweep: every application's ``statements()`` is taken once,
    here, and the merged result, its wire form and the halves a split
    declaration cuts it into are kept per distinct list of applicable
    statements.

    All of it lives exactly as long as the sweep holds this object. The
    next sweep builds its own, so an application that changed its rules
    in between is asked again and can never be served a stale merge.
    """

    def __init__(self, applications: Iterable[OpenBoxApplication]) -> None:
        #: ``(application, statement)`` in deployment order: by priority,
        #: ties by application name, so deployment is deterministic
        #: regardless of registration order.
        self.statements: list[tuple[OpenBoxApplication, AppStatement]] = [
            (app, statement)
            for app in sorted(applications, key=lambda a: (a.priority, a.name))
            for statement in app.statements()
        ]
        #: Applicable-statement indices -> the one merge they share.
        self.results: dict[tuple[int, ...], AggregationResult] = {}
        self._wire: dict[AggregationResult, tuple[dict[str, Any], str]] = {}
        self._halves: dict[
            tuple[Any, ...], tuple[AggregationResult, AggregationResult]
        ] = {}

    def applicable(
        self, obi_id: str, obi_segment: str, hierarchy: SegmentHierarchy
    ) -> tuple[int, ...]:
        """Indices into :attr:`statements` of those applying to an OBI."""
        return tuple(
            index for index, (_app, statement) in enumerate(self.statements)
            if statement.applies_to(obi_id, obi_segment, hierarchy)
        )

    def wire_form(self, result: AggregationResult) -> tuple[dict[str, Any], str]:
        """``result.graph.to_dict()`` and its canonical digest, computed
        once per shared result."""
        known = self._wire.get(result)
        if known is None:
            graph_dict = result.graph.to_dict()
            known = self._wire[result] = (
                graph_dict, canonical_graph_digest(graph_dict)
            )
        return known

    def split(
        self, result: AggregationResult, split: dict[str, Any]
    ) -> tuple[AggregationResult, AggregationResult]:
        """``result`` cut by a split declaration into the half its
        hardware OBI runs and the half its software OBIs run, computed
        once per shared result. Raises ``GraphValidationError`` when the
        merge cannot be split there."""
        key = (result, split["classifier"], split["spi"], split["trunk_device"])
        halves = self._halves.get(key)
        if halves is None:
            graphs = split_at_classifier(
                result.graph, split["classifier"], spi=split["spi"],
                trunk_device=split["trunk_device"],
            )
            halves = self._halves[key] = (
                AggregationResult(graphs.first, result.app_names, result.merge_results),
                AggregationResult(graphs.second, result.app_names, result.merge_results),
            )
        return halves


class GraphAggregator:
    """Builds each OBI's deployed graph from the application set."""

    def __init__(
        self,
        hierarchy: SegmentHierarchy,
        policy: MergePolicy | None = None,
    ) -> None:
        self.hierarchy = hierarchy
        self.policy = policy or MergePolicy()

    def aggregate(
        self,
        applications: Iterable[OpenBoxApplication] | SweepApplications,
        obi_id: str,
        obi_segment: str,
    ) -> AggregationResult | None:
        """Build the merged graph for one OBI; None if nothing applies.

        Called with the same :class:`SweepApplications` for every OBI of
        a sweep, OBIs with equal applicable statements get the same
        result object; a plain collection of applications is a sweep of
        this one call.
        """
        sweep = (
            applications if isinstance(applications, SweepApplications)
            else SweepApplications(applications)
        )
        selected = sweep.applicable(obi_id, obi_segment, self.hierarchy)
        if not selected:
            return None
        result = sweep.results.get(selected)
        if result is None:
            result = sweep.results[selected] = self._merge(
                [sweep.statements[index] for index in selected]
            )
        return result

    def _merge(
        self, selected: list[tuple[OpenBoxApplication, AppStatement]]
    ) -> AggregationResult:
        """Stamp, merge, optimize and validate one list of statements."""
        # Merge consecutive runs of mergeable apps; chain runs naively.
        merge_results: list[MergeResult] = []
        run_graphs: list[ProcessingGraph] = []
        for mergeable, run in groupby(selected, key=lambda item: item[0].mergeable):
            graphs = [
                _stamp_ownership(statement.graph, app.name)
                for app, statement in run
            ]
            if mergeable:
                result = merge_graphs(graphs, self.policy)
                merge_results.append(result)
                run_graphs.append(result.graph)
            else:
                run_graphs.extend(graphs)

        # Copy so the deployed graph never aliases an application's own
        # statement graph (applications may mutate theirs later).
        final = run_graphs[0].copy() if len(run_graphs) == 1 else naive_merge(run_graphs)
        optimize_graph(final)
        final.validate()
        return AggregationResult(
            graph=_named_by_position(final),
            app_names=[app.name for app, _statement in selected],
            merge_results=merge_results,
        )
