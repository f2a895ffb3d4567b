"""Translating protocol processing graphs into engine element pipelines.

The paper's OBI has a Python "generic wrapper" that "translates protocol
directives to the specific underlying execution engine" (§4.2). This is
that translation layer: it maps each abstract block to an element class
(built-in or from an injected custom module), instantiates and wires the
elements, and returns a runnable :class:`Engine`.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.blocks import Block, block_registry
from repro.core.graph import ProcessingGraph
from repro.obi.elements import element_registry
from repro.obi.engine import Element, Engine, EngineContext
from repro.obi.storage import SessionStorage
from repro.protocol.errors import ErrorCode, ProtocolError


class ElementFactory:
    """Resolves abstract block types to element classes.

    Custom modules injected via ``AddCustomModuleRequest`` register their
    element classes here; lookups prefer custom registrations so a module
    can override a built-in implementation (the paper lets the controller
    pick among implementations the same way).
    """

    def __init__(self) -> None:
        self._custom: dict[str, type[Element]] = {}

    def register_custom(self, type_name: str, element_cls: type[Element]) -> None:
        self._custom[type_name] = element_cls

    def supported_types(self) -> dict[str, list[str]]:
        """Abstract type -> implementation names, for Hello capabilities."""
        capabilities: dict[str, list[str]] = {}
        for type_name in element_registry:
            if type_name == "HeaderClassifier":
                capabilities[type_name] = ["linear", "trie", "tcam"]
            else:
                capabilities[type_name] = ["default"]
        for type_name in self._custom:
            capabilities.setdefault(type_name, []).append("custom")
        return capabilities

    def resolve(self, type_name: str) -> type[Element]:
        element_cls = self._custom.get(type_name) or element_registry.get(type_name)
        if element_cls is None:
            raise ProtocolError(
                ErrorCode.UNSUPPORTED_BLOCK_TYPE,
                f"no implementation for block type {type_name!r}",
            )
        return element_cls


def _effective_cacheable(element: Element, block: Block) -> bool:
    """Resolve whether a visit to ``element`` may be flow-cached.

    The element class *and* the block-type spec must both allow it (a
    custom element implementing a built-in type keeps the class's own
    judgement, and a wire-declared custom type defaults to uncacheable
    — see ``spec_from_dict``). Block config has no say: a graph author
    cannot mark a payload-dependent block replayable.
    """
    spec_allows = True
    if block.type in block_registry:
        spec_allows = block_registry.get(block.type).cacheable
    return bool(type(element).cacheable and spec_allows)


def build_engine(
    graph: ProcessingGraph,
    factory: ElementFactory | None = None,
    clock: Callable[[], float] | None = None,
    session: SessionStorage | None = None,
    log_service: Any = None,
    storage_service: Any = None,
    robustness: Any = ...,
    flow_cache: Any = ...,
    tracer: Any = None,
    metrics: Any = None,
) -> Engine:
    """Instantiate and wire an :class:`Engine` for ``graph``.

    Fault containment is on by default: unless ``robustness`` is given
    (an :class:`~repro.obi.robustness.EngineRobustness`, or ``None`` to
    disable containment and restore fail-fast traversal), a fresh
    default containment layer guards every element. The flow-decision
    fast path follows the same convention: pass a shared
    :class:`~repro.obi.fastpath.FlowDecisionCache` (the OBI does, so
    counters survive redeploys), ``None`` to disable it, or leave the
    default for a fresh private cache.

    Observability is opt-in: ``tracer`` is a
    :class:`~repro.observability.tracing.PacketTracer` (None disables
    sampling entirely) and ``metrics`` a
    :class:`~repro.observability.metrics.MetricsRegistry` the engine and
    flow cache register their instruments on. Both are owned by the OBI
    so series survive redeploys.
    """
    import time

    from repro.obi.fastpath import FlowDecisionCache
    from repro.obi.robustness import EngineRobustness

    graph.validate()
    if factory is None:
        factory = ElementFactory()
    resolved_clock = clock or time.monotonic
    if robustness is ...:
        robustness = EngineRobustness(clock=resolved_clock)
    if flow_cache is ...:
        flow_cache = FlowDecisionCache()
    if robustness is not None and flow_cache is not None:
        # Breaker transitions must flush recorded decisions.
        robustness.flow_cache = flow_cache
    context = EngineContext(
        clock=resolved_clock,
        session=session or SessionStorage(),
        log_service=log_service,
        storage_service=storage_service,
        robustness=robustness,
    )
    if flow_cache is not None:
        # Per-flow state transitions surgically invalidate the cached
        # decisions that read them (stateful elements tag their reads
        # via DecisionRecorder.note_flow_state).
        context.session.bind_flow_cache(flow_cache)
    elements: dict[str, Element] = {}
    for block in graph.blocks.values():
        element_cls = factory.resolve(block.type)
        config = dict(block.config)
        if block.implementation is not None:
            config.setdefault("implementation", block.implementation)
        element = element_cls(
            name=block.name, config=config, origin_app=block.origin_app
        )
        element.cacheable = _effective_cacheable(element, block)
        elements[block.name] = element
    for connector in graph.connectors:
        elements[connector.src].wire(connector.src_port, elements[connector.dst])
    if flow_cache is not None and metrics is not None:
        flow_cache.bind_metrics(metrics)
    return Engine(
        graph=graph,
        elements=elements,
        context=context,
        flow_cache=flow_cache,
        tracer=tracer,
        metrics=metrics,
    )
