"""Builds each workload's stack from public APIs, and instruments it.

A :class:`Stack` is the real thing: an ``OpenBoxController`` with
applications registered, OBIs connected over a transport, telemetry
subscribed. Configuration is the default ``ObiConfig`` / controller
settings (``reconfigure_poll_delay`` stays 0: the paper's fixed 1000 ms
Click poll is excluded, fn. 4) with one stated exception —
``dp_fw_churn`` shrinks ``flow_cache_size`` so that a pass longer than
the cache fits the run's time budget (README, "What was scaled down").
"""

from __future__ import annotations

import pathlib
import shutil
import tempfile
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.apps.firewall import FirewallApp, parse_firewall_rules
from repro.apps.ips import IpsApp, parse_snort_rules
from repro.bootstrap import connect_inproc, connect_obi_rest, serve_controller_rest
from repro.controller.apps import OpenBoxApplication
from repro.controller.journal import StateJournal
from repro.controller.obc import OpenBoxController
from repro.obi.elements.classifiers import (
    HeaderClassifierElement,
    HeaderPayloadClassifierElement,
    RegexClassifierElement,
)
from repro.obi.elements.statics import AlertElement
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.protocol.messages import (
    Alert,
    SetProcessingGraphRequest,
    TelemetryStream,
)
from repro.sim.rulesets import SNORT_VARIABLES
from repro.transport.rest import RestEndpoint

from benchmarks.ledger import traffic
from benchmarks.ledger.spec import BATCH, Scale
from benchmarks.ledger.trace import Recorder, _now

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"

_SEGMENTS = ("corp/east", "corp/west", "dmz")


@dataclass
class Link:
    """How one OBI is wired: the objects whose calls the trace wraps."""

    obi: OpenBoxInstance
    #: OBI -> controller (alerts, keepalives, telemetry streams).
    upstream: Any
    #: Objects holding the message handlers as an attribute:
    #: ``(object, attribute)`` for the OBI side and the controller side.
    obi_handler: tuple[Any, str]
    controller_handler: tuple[Any, str]


@dataclass
class Stack:
    controller: OpenBoxController
    links: list[Link]
    #: The OBI that packets are offered to, and the frames offered.
    dp: OpenBoxInstance
    frames: list[bytes]
    #: Application whose ``<name>_read`` counter the small-op phase reads.
    base_app: OpenBoxApplication
    #: Round number -> the application the timed deploy registers.
    deploy_app: Callable[[int], OpenBoxApplication]
    inputs_digest: str
    #: Undoes the build: servers, journal, temporary directory.
    cleanup: ExitStack = field(default_factory=ExitStack)

    @property
    def obis(self) -> list[OpenBoxInstance]:
        return [link.obi for link in self.links]

    def converged(self) -> bool:
        """Every OBI runs exactly the graph the controller intends."""
        handles = self.controller.obis
        return all(
            handles[obi.config.obi_id].intended_digest
            == handles[obi.config.obi_id].reported_digest
            == obi.graph_digest != ""
            for obi in self.obis
        )

    def close(self) -> None:
        self.cleanup.close()


def _close_endpoints(endpoints: list[RestEndpoint]) -> None:
    """Stop the HTTP servers side by side: each ``shutdown`` waits out the
    server's 0.5 s poll interval, which adds up over a fleet."""
    if not endpoints:
        return
    with ThreadPoolExecutor(max_workers=len(endpoints)) as pool:
        for future in [pool.submit(e.close) for e in endpoints]:
            future.result()


def _firewall(name: str, count: int, shape: int, seed: int, **kwargs: Any):
    text = traffic.firewall_rules_text(count, shape, seed)
    app = FirewallApp(name, parse_firewall_rules(text), alert_only=True, **kwargs)
    return app, text


def _schedule(frames: list[bytes], batches: int) -> list[bytes]:
    """The pass: ``batches`` x 32 frames, cycling over the flow universe."""
    total = batches * BATCH
    repeats = -(-total // len(frames))
    return (frames * repeats)[:total]


def _build_inproc(
    apps: list[tuple[OpenBoxApplication, str]],
    config: ObiConfig,
    frames: list[bytes],
    batches: int,
) -> Stack:
    controller = OpenBoxController()
    obi = OpenBoxInstance(config)
    pair = connect_inproc(controller, obi)
    for app, _text in apps:
        controller.register_application(app)
    controller.subscribe_telemetry(config.obi_id)
    last = apps[-1][0]
    # The deploy phase re-registers the last application, so the stack
    # starts the control phase the way every round leaves it.
    return Stack(
        controller=controller,
        links=[Link(
            obi=obi, upstream=pair.right,
            obi_handler=(pair.right, "_handler"),
            controller_handler=(pair.left, "_handler"),
        )],
        dp=obi,
        frames=_schedule(frames, batches),
        base_app=apps[0][0],
        deploy_app=lambda _index: last,
        inputs_digest=traffic.inputs_digest([t for _a, t in apps], frames),
    )


def build_dp_fw(workload: str, seed: int, scale: Scale) -> Stack:
    """Two merged firewalls, one OBI in-process (paper Table 2 FW+FW)."""
    fw1 = _firewall("fw1", scale.fw_rules, 0, seed, priority=10)
    fw2 = _firewall("fw2", scale.fw_rules, 1, seed, priority=20)
    if workload == "dp_fw_warm":
        config = ObiConfig(obi_id="obi-dp", segment="bench")
        frames = traffic.flow_frames(scale.warm_flows, seed)
        batches = scale.warm_batches
    else:
        # Working set twice the cache, one pass = one lap of the universe:
        # FIFO eviction then guarantees every lookup misses.
        config = ObiConfig(
            obi_id="obi-dp", segment="bench", flow_cache_size=scale.churn_cache
        )
        frames = traffic.flow_frames(2 * scale.churn_cache, seed)
        batches = 2 * scale.churn_cache // BATCH
    return _build_inproc([fw1, fw2], config, frames, batches)


def build_dp_ips(seed: int, scale: Scale) -> Stack:
    """Firewall + IPS merged, campus traffic (paper Table 2 FW+IPS)."""
    fw = _firewall("fw1", scale.fw_rules, 0, seed, priority=10)
    snort = traffic.snort_rules_text(scale.snort_rules, seed)
    ips = IpsApp("ips", parse_snort_rules(snort, SNORT_VARIABLES), priority=20)
    frames = traffic.campus_frames(
        scale.dpi_batches, BATCH, scale.dpi_flows, seed
    )
    config = ObiConfig(obi_id="obi-dp", segment="bench")
    return _build_inproc([fw, (ips, snort)], config, frames, scale.dpi_batches)


def build_cp_fleet(seed: int, scale: Scale) -> Stack:
    """Journaled controller behind REST, a fleet of OBIs on loopback HTTP."""
    RESULTS_DIR.mkdir(exist_ok=True)
    with ExitStack() as cleanup:
        workdir = tempfile.mkdtemp(prefix="journal-", dir=RESULTS_DIR)
        cleanup.callback(shutil.rmtree, workdir, ignore_errors=True)
        journal = StateJournal(pathlib.Path(workdir) / "controller.journal")
        controller = OpenBoxController(journal=journal)
        cleanup.callback(controller.close)
        endpoints: list[RestEndpoint] = []
        cleanup.callback(_close_endpoints, endpoints)
        for segment in _SEGMENTS:
            controller.segments.add(segment)
        gateway, gateway_text = _firewall(
            "gateway", scale.fleet_rules, 0, seed, priority=10
        )
        snort = traffic.snort_rules_text(scale.snort_rules, seed)
        ips = IpsApp(
            "ips", parse_snort_rules(snort, SNORT_VARIABLES),
            segment="corp", priority=30,
        )
        controller.register_application(gateway)
        controller.register_application(ips)
        endpoint = serve_controller_rest(controller)
        endpoints.append(endpoint)
        links = []
        for index in range(scale.fleet_obis):
            obi = OpenBoxInstance(ObiConfig(
                obi_id=f"obi-{index:02d}",
                segment=_SEGMENTS[index % len(_SEGMENTS)],
            ))
            obi_endpoint, upstream = connect_obi_rest(obi, endpoint.url)
            endpoints.append(obi_endpoint)
            links.append(Link(
                obi=obi, upstream=upstream,
                obi_handler=(obi_endpoint, "handler"),
                controller_handler=(endpoint, "handler"),
            ))
        # Packets go to a ``dmz`` OBI: it runs the gateway firewall only,
        # and no deploy round changes its graph (its cache stays warm).
        dp = next(l.obi for l in links if l.obi.config.segment == "dmz")
        controller.subscribe_telemetry(dp.config.obi_id)
        frames = traffic.flow_frames(scale.warm_flows, seed)
        # Four department rule shapes, cycled two rounds each: every run
        # covers the same mix whatever its number of rounds, and a traced
        # round and the untraced one before it share a shape.
        departments = [
            _firewall(
                "department", scale.fleet_rules, 100 + shape, seed,
                segment="corp", priority=20,
            )
            for shape in range(4)
        ]
        return Stack(
            controller=controller,
            links=links,
            dp=dp,
            frames=_schedule(frames, scale.warm_batches),
            base_app=gateway,
            deploy_app=lambda index: departments[index // 2 % 4][0],
            inputs_digest=traffic.inputs_digest(
                [gateway_text, snort] + [text for _app, text in departments],
                frames,
            ),
            cleanup=cleanup.pop_all(),
        )


def build(workload: str, seed: int, scale: Scale) -> Stack:
    if workload in ("dp_fw_warm", "dp_fw_churn"):
        return build_dp_fw(workload, seed, scale)
    if workload == "dp_ips_dpi":
        return build_dp_ips(seed, scale)
    if workload == "cp_fleet":
        return build_cp_fleet(seed, scale)
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# Instrumentation (traced passes and rounds only)
# ----------------------------------------------------------------------
_ELEMENT_LAYERS = (
    (HeaderClassifierElement, "core.classify.header"),
    (RegexClassifierElement, "obi.elements.payload"),
    (HeaderPayloadClassifierElement, "obi.elements.payload"),
    (AlertElement, "obi.elements.alert"),
)


def _controller_span(message: Any) -> str:
    if isinstance(message, Alert):
        return "controller.obc.alert"
    if isinstance(message, TelemetryStream):
        return "controller.obc.telemetry"
    return "controller.obc.handle"


def _obi_span(message: Any) -> str:
    if isinstance(message, SetProcessingGraphRequest):
        return "obi.instance.set_graph"
    return "obi.instance.handle"


def _downstream_span(message: Any, *_timeout: Any) -> str:
    if isinstance(message, SetProcessingGraphRequest):
        return "transport.rest.setgraph"
    return "transport.rest.smallop"


def _upstream_span(message: Any, *_timeout: Any) -> str:
    if isinstance(message, (Alert, TelemetryStream)):
        return "transport.rest.telemetry"
    return "transport.rest.smallop"


def instrument_dataplane(stack: Stack, rec: Recorder) -> None:
    """Rebind the packet path of ``stack.dp`` (and what it calls upstream)."""
    obi = stack.dp
    engine, cache = obi.engine, obi.flow_cache
    rec.wrap(obi, "inject_batch", "obi.instance.ingress")
    rec.wrap(obi, "publish_telemetry", "telemetry.publisher")
    rec.wrap(stack.controller.telemetry, "apply_stream", "telemetry.bus.fold")
    link = next(l for l in stack.links if l.obi is obi)
    rec.wrap(link.upstream, "notify", _upstream_span)
    rec.wrap(link.upstream, "request", _upstream_span)
    rec.wrap(*link.controller_handler, _controller_span)

    # Engine.process, with the flow-key pseudo-span: it opens with the
    # engine span and closes when ``cache.lookup`` is entered, so it
    # covers ``flow_key`` (whose first header access is the parse span,
    # its child) plus the outcome allocation that precedes it.
    engine_id = rec.name_id("obi.engine")
    key_id = rec.name_id("obi.fastpath.key")
    process, spans = engine.process, rec.stack

    def traced_process(packet: Any) -> Any:
        engine_frame = rec.enter(engine_id)
        key_frame = rec.enter(key_id) if cache is not None else None
        try:
            return process(packet)
        finally:
            end = _now()
            if key_frame is not None and spans[-1] is key_frame:
                rec.exit(key_frame, end)  # the packet bypassed the cache
            rec.exit(engine_frame, end)

    def close_key() -> None:
        if spans and spans[-1][0] == key_id:
            rec.exit(spans[-1])

    rec.rebind(engine, "process", traced_process)
    if cache is not None:
        rec.wrap(cache, "lookup", "obi.fastpath.lookup", before=close_key)
        rec.wrap(cache, "install", "obi.fastpath.install")
    for element in engine.elements.values():
        for cls, layer in _ELEMENT_LAYERS:
            if isinstance(element, cls):
                rec.wrap(element, "process", layer)
                break


def instrument_control(stack: Stack, rec: Recorder) -> None:
    """Rebind the deploy and small-op path of the whole fleet."""
    controller = stack.controller
    rec.wrap(controller.aggregator, "aggregate", "core.merge")
    if controller.journal is not None:
        for method in ("append", "flush", "maybe_compact"):
            rec.wrap(controller.journal, method, "controller.journal")
    wrapped: set[int] = set()
    for link in stack.links:
        channel = controller.obis[link.obi.config.obi_id].channel
        rec.wrap(channel, "request", _downstream_span)
        rec.wrap(*link.obi_handler, _obi_span)
        rec.wrap(link.upstream, "notify", _upstream_span)
        holder = link.controller_handler[0]
        if id(holder) not in wrapped:  # REST: one endpoint serves the fleet
            wrapped.add(id(holder))
            rec.wrap(*link.controller_handler, _controller_span)
