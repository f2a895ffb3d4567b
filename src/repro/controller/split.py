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

from repro.core.blocks import Block, BlockClass
from repro.core.graph import GraphValidationError, ProcessingGraph

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
    classifier_name: str,
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

    ``first_implementation`` pins the classifier's implementation in the
    first OBI (default: the simulated TCAM — the hardware-accelerator
    use case the paper motivates the split with).
    """
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
    for name in upstream | {classifier_name}:
        block = graph.blocks[name]
        clone = block.clone(name=block.name)
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

    for name in forwarded_descendants:
        second.add_block(graph.blocks[name].clone(name=name))
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
    controller,
    hw_obi_id: str,
    sw_obi_ids: list[str],
    classifier_name: str | None = None,
    spi: int = 1,
    trunk_device: str = "sfc0",
) -> SplitGraphs:
    """Compute, split, and deploy one OBI group's merged graph.

    The Figure 5 deployment in one call: the merged graph that would run
    on ``hw_obi_id`` is split at ``classifier_name`` (default: its first
    header classifier); the classification half goes to the hardware OBI
    with the TCAM implementation, the processing half to every software
    replica. The caller wires the forwarding plane (e.g. a multiplexer
    on ``trunk_device``) — see ``examples/distributed_dataplane.py``.
    """
    from repro.protocol.errors import ErrorCode, ProtocolError
    from repro.protocol.messages import SetProcessingGraphRequest

    deployment = controller.compute_deployment(hw_obi_id)
    if deployment is None:
        raise ProtocolError(
            ErrorCode.INVALID_GRAPH, f"no applications apply to {hw_obi_id!r}"
        )
    merged = deployment.graph
    if classifier_name is None:
        classifier_name = next(
            (block.name for block in merged.blocks.values()
             if block.type == "HeaderClassifier"),
            None,
        )
        if classifier_name is None:
            raise ProtocolError(
                ErrorCode.INVALID_GRAPH,
                f"merged graph for {hw_obi_id!r} has no HeaderClassifier to split at",
            )
    split = split_at_classifier(
        merged, classifier_name, spi=spi, trunk_device=trunk_device
    )

    def push(obi_id: str, graph: ProcessingGraph) -> None:
        response = controller.send(
            obi_id, SetProcessingGraphRequest(graph=graph.to_dict())
        )
        if not getattr(response, "ok", False):
            raise ProtocolError(
                ErrorCode.INVALID_GRAPH,
                f"OBI {obi_id!r} rejected split graph: {response}",
            )

    push(hw_obi_id, split.first)
    for obi_id in sw_obi_ids:
        push(obi_id, split.second)
    return split


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
