"""Splitting a processing graph between OBIs (paper §3.1, Figures 5-6).

"An OBI may be in charge of only part of a processing graph. ... each
OBI attaches metadata (using some encapsulation technique) to the packet
before sending it to the next OBI."

The canonical split — reproduced in Figure 6 — is at a header classifier
that has a hardware (TCAM) implementation: the first OBI performs only
the classification and ships the result as NSH metadata; the second OBI
decodes the metadata and applies the corresponding processing path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.blocks import Block, BlockClass
from repro.core.graph import GraphValidationError, ProcessingGraph
from repro.protocol.errors import ErrorCode, ProtocolError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.controller.obc import OpenBoxController

#: Metadata key carrying the upstream classification result.
CLASSIFY_RESULT_KEY = "openbox.classify_result"


@dataclass
class SplitGraphs:
    """The two halves of a split processing graph."""

    first: ProcessingGraph
    second: ProcessingGraph
    spi: int
    metadata_key: str = CLASSIFY_RESULT_KEY


def split_at_classifier(
    graph: ProcessingGraph,
    classifier_name: str | None,
    spi: int = 1,
    first_implementation: str | None = "tcam",
    trunk_device: str = "sfc0",
) -> SplitGraphs:
    """Split ``graph`` at ``classifier_name`` into two OBI graphs.

    The first graph contains everything up to and including the
    classifier; each classifier outcome is recorded with ``SetMetadata``,
    NSH-encapsulated, and emitted on ``trunk_device`` (Figure 6(a)). The
    second graph decapsulates, routes on the metadata with a
    ``MetadataClassifier``, and continues with the original subtrees
    (Figure 6(b)).

    ``classifier_name`` None splits at the graph's first
    ``HeaderClassifier``. ``first_implementation`` pins the classifier's
    implementation in the first OBI (default: the simulated TCAM — the
    hardware-accelerator use case the paper motivates the split with).
    Both halves list their blocks in ``graph``'s order, so equal graphs
    split into equal digests.
    """
    if classifier_name is None:
        classifier_name = next(
            (block.name for block in graph.blocks.values()
             if block.type == "HeaderClassifier"),
            None,
        )
        if classifier_name is None:
            raise GraphValidationError(
                f"graph {graph.name!r} has no HeaderClassifier to split at"
            )
    if classifier_name not in graph.blocks:
        raise GraphValidationError(f"no block named {classifier_name!r}")
    classifier = graph.blocks[classifier_name]
    if classifier.block_class != BlockClass.CLASSIFIER:
        raise GraphValidationError(f"{classifier_name!r} is not a classifier")

    descendants = _strict_descendants(graph, classifier_name)
    upstream = set(graph.blocks) - descendants - {classifier_name}
    # A clean split needs the classifier to dominate its subtrees: no
    # edges from upstream blocks into the descendants.
    for connector in graph.connectors:
        if connector.src in upstream and connector.dst in descendants:
            raise GraphValidationError(
                f"block {connector.dst!r} is reachable around the classifier; "
                f"cannot split at {classifier_name!r}"
            )

    # ---------------- First OBI: classify + export metadata ----------
    first = ProcessingGraph(f"{graph.name}:classify")
    for name, block in graph.blocks.items():
        if name in descendants:
            continue
        clone = block.clone(name=name)
        if name == classifier_name and first_implementation is not None:
            clone.implementation = first_implementation
        first.add_block(clone)
    for connector in graph.connectors:
        if connector.src in first.blocks and connector.dst in first.blocks:
            first.connect(connector.src, connector.dst, connector.src_port)

    encap = Block("NshEncapsulate", name="split_encap", config={"spi": spi})
    trunk = Block("ToDevice", name="split_out", config={"devname": trunk_device})
    first.add_blocks([encap, trunk])
    first.connect(encap, trunk, 0)

    classifier_ports = sorted(
        connector.src_port for connector in graph.out_connectors(classifier_name)
    )

    def drops_immediately(port: int) -> bool:
        """True iff the subtree on ``port`` is a bare absorbing Discard.

        "Only if the packet requires further processing does the first
        OBI store the classification result as metadata" (paper §3.1) —
        packets whose fate is already decided are dropped locally instead
        of being shipped to the second OBI.
        """
        successor = graph.successor_on_port(classifier_name, port)
        return (
            successor is not None
            and graph.blocks[successor].type == "Discard"
            and not graph.out_connectors(successor)
        )

    forwarded_ports: list[int] = []
    for port in classifier_ports:
        if drops_immediately(port):
            local_drop = Block("Discard", name=f"split_drop_{port}")
            first.add_block(local_drop)
            first.connect(classifier_name, local_drop, port)
            continue
        forwarded_ports.append(port)
        marker = Block(
            "SetMetadata",
            name=f"split_mark_{port}",
            config={"values": {CLASSIFY_RESULT_KEY: port}},
        )
        first.add_block(marker)
        first.connect(classifier_name, marker, port)
        first.connect(marker, encap, 0)
    if not forwarded_ports:
        raise GraphValidationError(
            "every classifier branch drops; splitting is pointless"
        )
    first.validate()

    # ---------------- Second OBI: import metadata + continue ---------
    second = ProcessingGraph(f"{graph.name}:process")
    entry = Block("FromDevice", name="split_in", config={"devname": trunk_device})
    decap = Block("NshDecapsulate", name="split_decap", config={})
    router = Block(
        "MetadataClassifier",
        name="split_router",
        config={
            "key": CLASSIFY_RESULT_KEY,
            "rules": {str(port): index for index, port in enumerate(forwarded_ports)},
            "default_port": 0,
        },
    )
    second.add_blocks([entry, decap, router])
    second.connect(entry, decap, 0)
    second.connect(decap, router, 0)

    # Only subtrees of forwarded branches travel to the second OBI;
    # locally-dropped branches' Discard blocks stay out of it.
    forwarded_descendants: set[str] = set()
    stack = [
        graph.successor_on_port(classifier_name, port) for port in forwarded_ports
    ]
    stack = [name for name in stack if name is not None]
    while stack:
        current = stack.pop()
        if current in forwarded_descendants:
            continue
        forwarded_descendants.add(current)
        stack.extend(connector.dst for connector in graph.out_connectors(current))

    for name, block in graph.blocks.items():
        if name in forwarded_descendants:
            second.add_block(block.clone(name=name))
    for connector in graph.connectors:
        if connector.src in forwarded_descendants and connector.dst in forwarded_descendants:
            second.connect(connector.src, connector.dst, connector.src_port)
    for index, port in enumerate(forwarded_ports):
        successor = graph.successor_on_port(classifier_name, port)
        if successor is not None:
            second.connect(router.name, successor, index)
    second.validate()

    return SplitGraphs(first=first, second=second, spi=spi)


def deploy_split(
    controller: "OpenBoxController",
    hw_obi_id: str,
    sw_obi_ids: list[str],
    classifier_name: str | None = None,
    spi: int = 1,
    trunk_device: str = "sfc0",
) -> SplitGraphs:
    """Declare the Figure 5 deployment for one OBI group and sweep it.

    The merged graph that would run on ``hw_obi_id`` is split at
    ``classifier_name`` (default: the first header classifier of that
    merge, looked up again on every sweep); the classification half runs
    on the hardware OBI with the TCAM implementation, the processing
    half on every software replica. The declaration is intent, like an
    application: it is journaled, restored by ``recover()``, and
    resolved by every fleet sweep (:meth:`FleetSweep.intended`), so
    anti-entropy keeps the split instead of undoing it and nothing here
    pushes a graph of its own. Re-declaring ``hw_obi_id`` replaces its
    split. The caller wires the forwarding plane (e.g. a multiplexer on
    ``trunk_device``) — see ``examples/distributed_dataplane.py``.
    """
    from repro.controller.sweep import FleetSweep

    members = [hw_obi_id, *sw_obi_ids]
    handles = [controller._handle_of(obi_id) for obi_id in members]
    if len(set(members)) != len(members):
        raise ProtocolError(
            ErrorCode.INVALID_GRAPH,
            f"split of {hw_obi_id!r} names an OBI twice: {members}",
        )
    for other, declared in controller.splits.items():
        taken = set(members) & {other, *declared["sw_obi_ids"]}
        if other != hw_obi_id and taken:
            raise ProtocolError(
                ErrorCode.INVALID_GRAPH,
                f"{sorted(taken)} already belong to the split of {other!r}",
            )
    split = {"sw_obi_ids": list(sw_obi_ids), "classifier": classifier_name,
             "spi": spi, "trunk_device": trunk_device}
    sweep = FleetSweep(controller)
    halves = sweep.halves(hw_obi_id, handles[0].segment, split)
    if halves is None:
        raise ProtocolError(
            ErrorCode.INVALID_GRAPH, f"no applications apply to {hw_obi_id!r}"
        )
    # A software OBI a re-declaration drops goes back to the unsplit graph.
    dropped = controller.splits.get(hw_obi_id, {}).get("sw_obi_ids", [])
    handles += [controller.obis[obi_id] for obi_id in dropped
                if obi_id not in members and obi_id in controller.obis]
    controller.splits[hw_obi_id] = split
    controller._journal(
        {"rec": "split", "hw_obi_id": hw_obi_id, **split}, flush=True
    )
    sweep.run(handles).raise_if_refused()
    return SplitGraphs(first=halves[0].graph, second=halves[1].graph, spi=spi)


def _strict_descendants(graph: ProcessingGraph, name: str) -> set[str]:
    seen: set[str] = set()
    stack = [connector.dst for connector in graph.out_connectors(name)]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        stack.extend(connector.dst for connector in graph.out_connectors(current))
    return seen
