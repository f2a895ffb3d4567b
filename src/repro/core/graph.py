"""ProcessingGraph: the DAG-of-blocks abstraction (paper §2.1).

A processing graph is a directed acyclic graph of processing blocks.
Each block has a single input port (connectors only name their *source*
port) and zero or more output ports; each output port connects to the
input of another block via a :class:`Connector`.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.core.blocks import Block, BlockClass
from repro.core.classify.header import json_default


def canonical_graph_digest(graph_dict: dict[str, Any]) -> str:
    """Content digest of a serialized processing graph.

    Canonical form is JSON with sorted keys and no whitespace, so the
    controller (digesting what it sends) and an OBI (digesting what it
    received) agree byte-for-byte whenever the graphs are identical —
    the convergence test of the anti-entropy loop (PROTOCOL.md §10).
    List order (blocks, connectors) is semantic and preserved. A rule
    value is hashed as its wire list, so a graph built from rule dicts
    and the same graph built from values digest alike.

    Block *names* are canonicalized positionally (``b0``, ``b1``, …,
    with connector endpoints remapped) before hashing: merged graphs
    name their blocks with an aggregator-level gensym counter, so two
    controllers computing the identical deployment — e.g. one recovered
    from a journal reproducing its predecessor's intent — emit equal
    structures under different labels. The digest must call those
    *converged*, or anti-entropy would re-push (and the data plane
    would churn) after every controller restart. For the same reason the
    ``origin_block`` of an ownerless block is left out: a block without
    an ``origin_app`` was synthesized by the merge, and what it records
    as its origin is the gensym name it was born with.
    """
    rename: dict[str, str] = {}
    blocks = []
    for index, block in enumerate(graph_dict.get("blocks", [])):
        canonical = dict(block)
        name = canonical.get("name")
        if isinstance(name, str):
            rename[name] = canonical["name"] = f"b{index}"
        if "origin_app" not in canonical:
            canonical.pop("origin_block", None)
        blocks.append(canonical)
    connectors = []
    for connector in graph_dict.get("connectors", []):
        canonical = dict(connector)
        for endpoint in ("src", "dst"):
            value = canonical.get(endpoint)
            if isinstance(value, str):
                canonical[endpoint] = rename.get(value, value)
        connectors.append(canonical)
    canonical_dict = dict(graph_dict)
    canonical_dict["blocks"] = blocks
    canonical_dict["connectors"] = connectors
    payload = json.dumps(
        canonical_dict, sort_keys=True, separators=(",", ":"), default=json_default
    )
    return "sha256:" + hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True, slots=True)
class Connector:
    """A directed edge from (src block, src output port) to dst block."""

    src: str
    src_port: int
    dst: str

    def to_dict(self) -> dict[str, Any]:
        return {"src": self.src, "src_port": self.src_port, "dst": self.dst}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Connector":
        return cls(src=data["src"], src_port=int(data["src_port"]), dst=data["dst"])


class GraphValidationError(ValueError):
    """Raised when a processing graph violates a structural invariant."""


class ProcessingGraph:
    """A named DAG of processing blocks connected by connectors."""

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self.blocks: dict[str, Block] = {}
        self._out: dict[str, list[Connector]] = defaultdict(list)
        self._in: dict[str, list[Connector]] = defaultdict(list)

    @property
    def connectors(self) -> list[Connector]:
        """All connectors, grouped by source block in insertion order."""
        return [
            connector for connectors in self._out.values()
            for connector in connectors
        ]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_block(self, block: Block) -> Block:
        if block.name in self.blocks:
            raise GraphValidationError(f"duplicate block name: {block.name!r}")
        self.blocks[block.name] = block
        return block

    def add_blocks(self, blocks: Iterable[Block]) -> None:
        for block in blocks:
            self.add_block(block)

    def connect(self, src: Block | str, dst: Block | str, src_port: int = 0) -> Connector:
        """Connect output ``src_port`` of ``src`` to the input of ``dst``."""
        src_name = src.name if isinstance(src, Block) else src
        dst_name = dst.name if isinstance(dst, Block) else dst
        for name in (src_name, dst_name):
            if name not in self.blocks:
                raise GraphValidationError(f"unknown block in connector: {name!r}")
        connector = Connector(src=src_name, src_port=src_port, dst=dst_name)
        self._add_connector(connector)
        return connector

    def _add_connector(self, connector: Connector) -> None:
        """Index a pre-built connector (endpoints need not be validated)."""
        self._out[connector.src].append(connector)
        self._in[connector.dst].append(connector)

    def chain(self, *blocks: Block) -> None:
        """Add (if needed) and connect ``blocks`` in a straight line on port 0."""
        for block in blocks:
            if block.name not in self.blocks:
                self.add_block(block)
        for src, dst in zip(blocks, blocks[1:]):
            self.connect(src, dst)

    def remove_block(self, name: str) -> None:
        """Remove a block and all connectors touching it (O(degree))."""
        if name not in self.blocks:
            raise GraphValidationError(f"unknown block: {name!r}")
        del self.blocks[name]
        for connector in self._out.pop(name, []):
            if connector.dst != name:
                self._in[connector.dst].remove(connector)
        for connector in self._in.pop(name, []):
            if connector.src != name:
                self._out[connector.src].remove(connector)

    def remove_connector(self, connector: Connector) -> None:
        self._out[connector.src].remove(connector)
        self._in[connector.dst].remove(connector)

    # ------------------------------------------------------------------
    # Topology queries
    # ------------------------------------------------------------------
    def out_connectors(self, name: str) -> list[Connector]:
        return list(self._out.get(name, ()))

    def in_connectors(self, name: str) -> list[Connector]:
        return list(self._in.get(name, ()))

    def successors(self, name: str) -> list[str]:
        return [connector.dst for connector in self._out.get(name, ())]

    def successor_on_port(self, name: str, port: int) -> str | None:
        """The (unique) successor wired to output ``port``, or None."""
        for connector in self._out.get(name, ()):
            if connector.src_port == port:
                return connector.dst
        return None

    def roots(self) -> list[str]:
        """Blocks with no incoming connector (entry points), in insertion order."""
        return [name for name in self.blocks if not self._in.get(name)]

    def reachable(self, starts: Iterable[str]) -> set[str]:
        """The blocks some path from ``starts`` reaches, ``starts`` included."""
        seen: set[str] = set()
        stack = list(starts)
        while stack:
            name = stack.pop()
            if name not in seen:
                seen.add(name)
                stack.extend(self.successors(name))
        return seen

    def leaves(self) -> list[str]:
        """Blocks with no outgoing connector, in insertion order."""
        return [name for name in self.blocks if not self._out.get(name)]

    def entry_point(self) -> str:
        """The single entry block; raises if the graph has 0 or >1 roots."""
        roots = self.roots()
        if len(roots) != 1:
            raise GraphValidationError(
                f"graph {self.name!r} must have exactly one entry, found {roots}"
            )
        return roots[0]

    def topological_order(self) -> list[str]:
        """Topological order of block names; raises on cycles."""
        in_degree = {name: len(self._in.get(name, ())) for name in self.blocks}
        ready = deque(name for name, degree in in_degree.items() if degree == 0)
        order: list[str] = []
        while ready:
            name = ready.popleft()
            order.append(name)
            for connector in self._out.get(name, ()):
                in_degree[connector.dst] -= 1
                if in_degree[connector.dst] == 0:
                    ready.append(connector.dst)
        if len(order) != len(self.blocks):
            raise GraphValidationError(f"graph {self.name!r} contains a cycle")
        return order

    def iter_paths(self, start: str | None = None) -> Iterator[list[str]]:
        """Yield every root-to-leaf path as a list of block names.

        The number of paths can be exponential in graph depth; callers that
        only need path statistics should prefer :meth:`diameter`.
        """
        start_names = [start] if start is not None else self.roots()
        for root in start_names:
            stack: list[tuple[str, list[str]]] = [(root, [root])]
            while stack:
                name, path = stack.pop()
                outs = self._out.get(name, ())
                if not outs:
                    yield path
                    continue
                for connector in outs:
                    stack.append((connector.dst, path + [connector.dst]))

    def diameter(self) -> int:
        """Longest root-to-leaf path length in *blocks*.

        The paper uses this as the latency-relevant size measure: path
        length, not block count, determines per-packet delay (§2.2.1).
        """
        if not self.blocks:
            return 0
        longest: dict[str, int] = {}
        for name in reversed(self.topological_order()):
            outs = self._out.get(name, ())
            longest[name] = 1 + max(
                (longest[connector.dst] for connector in outs), default=0
            )
        roots = self.roots()
        return max(longest[root] for root in roots) if roots else 0

    def num_connectors(self) -> int:
        return len(self.connectors)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the structural invariants of a deployable graph.

        * acyclic;
        * every connector's source port exists on the source block;
        * at most one connector per (block, port) pair;
        * terminals with zero output ports have no outgoing connectors.
        """
        self.topological_order()
        seen_ports: set[tuple[str, int]] = set()
        for connector in self.connectors:
            block = self.blocks[connector.src]
            ports = block.num_output_ports
            if ports == 0:
                raise GraphValidationError(
                    f"block {block.name} ({block.type}) is a sink but has an "
                    f"outgoing connector"
                )
            if not 0 <= connector.src_port < ports:
                raise GraphValidationError(
                    f"connector from {block.name} uses port {connector.src_port}, "
                    f"but block has {ports} ports"
                )
            key = (connector.src, connector.src_port)
            if key in seen_ports:
                raise GraphValidationError(
                    f"multiple connectors from {block.name} port {connector.src_port}"
                )
            seen_ports.add(key)

    def is_tree(self) -> bool:
        """True iff every block has at most one incoming connector."""
        return all(len(self._in.get(name, ())) <= 1 for name in self.blocks)

    # ------------------------------------------------------------------
    # Copying / serialization
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None, rename: bool = False) -> "ProcessingGraph":
        """Deep-copy the graph; ``rename`` gives all blocks fresh names."""
        graph = ProcessingGraph(name or self.name)
        mapping: dict[str, str] = {}
        for block in self.blocks.values():
            clone = block.clone(name=None if rename else block.name)
            mapping[block.name] = clone.name
            graph.add_block(clone)
        for connector in self.connectors:
            graph.connect(mapping[connector.src], mapping[connector.dst], connector.src_port)
        return graph

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "blocks": [block.to_dict() for block in self.blocks.values()],
            "connectors": [connector.to_dict() for connector in self.connectors],
        }

    def digest(self) -> str:
        """Canonical content digest (see :func:`canonical_graph_digest`)."""
        return canonical_graph_digest(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ProcessingGraph":
        graph = cls(data.get("name", "graph"))
        for block_data in data.get("blocks", ()):
            graph.add_block(Block.from_dict(block_data))
        for connector_data in data.get("connectors", ()):
            graph._add_connector(Connector.from_dict(connector_data))
        return graph

    def to_dot(self) -> str:
        """Render the graph in Graphviz DOT form (debugging/figures).

        Blocks are shaped by class: classifiers are diamonds, terminals
        are double circles, modifiers boxes, shapers trapezia, statics
        ellipses. Edge labels carry the source port.
        """
        shapes = {
            BlockClass.TERMINAL: "doublecircle",
            BlockClass.CLASSIFIER: "diamond",
            BlockClass.MODIFIER: "box",
            BlockClass.SHAPER: "trapezium",
            BlockClass.STATIC: "ellipse",
        }
        lines = [f'digraph "{self.name}" {{', "  rankdir=LR;"]
        for block in self.blocks.values():
            shape = shapes.get(block.block_class, "ellipse")
            label = f"{block.name}\\n({block.type})"
            if block.origin_app:
                label += f"\\n[{block.origin_app}]"
            lines.append(f'  "{block.name}" [shape={shape} label="{label}"];')
        for connector in self.connectors:
            lines.append(
                f'  "{connector.src}" -> "{connector.dst}" '
                f'[label="{connector.src_port}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    # Block-class helpers used by the merge algorithm
    # ------------------------------------------------------------------
    def blocks_of_class(self, block_class: str) -> list[Block]:
        return [
            block for block in self.blocks.values()
            if block.block_class == block_class
        ]

    def classifiers(self) -> list[Block]:
        return self.blocks_of_class(BlockClass.CLASSIFIER)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProcessingGraph({self.name!r}, blocks={len(self.blocks)}, "
            f"connectors={len(self.connectors)})"
        )
