"""Shared fixtures: canonical graphs, packets, a fake clock, and the
one-controller-one-OBI wiring helper (``connected``).

Also hosts the tier-1 determinism guard: test code must not call bare
``time.sleep``/``time.time`` (wall-clock coupling makes runs flaky and
slow); inject a fake clock instead. See docs/TESTING.md.
"""

from __future__ import annotations

import sys
import time

import pytest

from repro.bootstrap import connect_inproc
from repro.controller.obc import OpenBoxController
from repro.core.blocks import Block
from repro.core.graph import ProcessingGraph
from repro.net.builder import make_http_get, make_tcp_packet, make_udp_packet
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.protocol.messages import ErrorMessage, SetProcessingGraphRequest


def build_firewall_graph(name: str = "fw") -> ProcessingGraph:
    """The paper's Figure 2(a) firewall: classify -> {drop|alert|out}."""
    graph = ProcessingGraph(name)
    read = Block("FromDevice", name=f"{name}_read", config={"devname": "in"})
    classify = Block(
        "HeaderClassifier",
        name=f"{name}_hc",
        config={
            "rules": [
                {"src_ip": "10.0.0.0/8", "dst_port": [23, 23], "port": 0},
                {"dst_port": [22, 22], "port": 1},
            ],
            "default_port": 2,
        },
        origin_app=name,
    )
    drop = Block("Discard", name=f"{name}_drop")
    alert = Block("Alert", name=f"{name}_alert",
                  config={"message": f"{name} alert"}, origin_app=name)
    out = Block("ToDevice", name=f"{name}_out", config={"devname": "out"})
    graph.add_blocks([read, classify, drop, alert, out])
    graph.connect(read, classify)
    graph.connect(classify, drop, 0)
    graph.connect(classify, alert, 1)
    graph.connect(alert, out)
    graph.connect(classify, out, 2)
    graph.validate()
    return graph


def build_conntrack_graph(name: str = "ct") -> ProcessingGraph:
    """Stateful firewall: connection tracking -> {out|drop}."""
    graph = ProcessingGraph(name)
    read = Block("FromDevice", name=f"{name}_read", config={"devname": "in"})
    track = Block("Conntrack", name=f"{name}_track", config={}, origin_app=name)
    out = Block("ToDevice", name=f"{name}_out", config={"devname": "out"})
    drop = Block("Discard", name=f"{name}_drop")
    graph.add_blocks([read, track, out, drop])
    graph.connect(read, track)
    graph.connect(track, out, 0)
    graph.connect(track, drop, 1)
    graph.validate()
    return graph


def build_ips_graph(name: str = "ips") -> ProcessingGraph:
    """The paper's Figure 2(b) IPS: classify -> regex -> {alert|drop|out}."""
    graph = ProcessingGraph(name)
    read = Block("FromDevice", name=f"{name}_read", config={"devname": "in"})
    classify = Block(
        "HeaderClassifier",
        name=f"{name}_hc",
        config={
            "rules": [
                {"proto": 6, "dst_port": [80, 80], "port": 1},
                {"proto": 6, "dst_port": [443, 443], "port": 2},
            ],
            "default_port": 0,
        },
        origin_app=name,
    )
    regex_web = Block(
        "RegexClassifier", name=f"{name}_rx_web",
        config={"patterns": [
            {"pattern": "attack", "port": 1},
            {"pattern": "union select", "case_sensitive": False, "port": 2},
        ], "default_port": 0},
        origin_app=name,
    )
    regex_tls = Block(
        "RegexClassifier", name=f"{name}_rx_tls",
        config={"patterns": [{"pattern": "heartbleed", "port": 1}],
                "default_port": 0},
        origin_app=name,
    )
    alert = Block("Alert", name=f"{name}_alert",
                  config={"message": f"{name} alert"}, origin_app=name)
    drop = Block("Discard", name=f"{name}_drop")
    out = Block("ToDevice", name=f"{name}_out", config={"devname": "out"})
    graph.add_blocks([read, classify, regex_web, regex_tls, alert, drop, out])
    graph.connect(read, classify)
    graph.connect(classify, out, 0)
    graph.connect(classify, regex_web, 1)
    graph.connect(classify, regex_tls, 2)
    graph.connect(regex_web, out, 0)
    graph.connect(regex_web, alert, 1)
    graph.connect(regex_web, drop, 2)
    graph.connect(regex_tls, out, 0)
    graph.connect(regex_tls, alert, 1)
    graph.connect(alert, out)
    graph.validate()
    return graph


@pytest.fixture
def firewall_graph() -> ProcessingGraph:
    return build_firewall_graph()


@pytest.fixture
def ips_graph() -> ProcessingGraph:
    return build_ips_graph()


@pytest.fixture
def sample_packets() -> list:
    """A spread of packets exercising drop/alert/DPI/pass paths."""
    return [
        make_tcp_packet("10.1.2.3", "192.168.0.9", 1234, 23),      # fw drop
        make_tcp_packet("44.0.0.1", "192.168.0.9", 1234, 22),      # fw alert
        make_http_get("44.0.0.1", "192.168.0.9", "x.com", "/a"),   # ips web clean
        make_tcp_packet("44.0.0.1", "192.168.0.9", 5, 80,
                        payload=b"launch the attack now"),          # ips alert
        make_tcp_packet("44.0.0.1", "192.168.0.9", 5, 80,
                        payload=b"UNION SELECT * FROM users"),      # ips drop
        make_tcp_packet("44.0.0.1", "192.168.0.9", 5, 443,
                        payload=b"heartbleed probe"),               # ips tls alert
        make_udp_packet("44.0.0.1", "192.168.0.9", 53, 53),         # pass
        make_tcp_packet("44.0.0.1", "192.168.0.9", 9999, 12345),    # pass
    ]


TESTS_DIR = str(__file__).rsplit("/", 1)[0] + "/"


class WallClockInTestError(AssertionError):
    """A tier-1 test touched the wall clock directly."""


def _guarded(original, name: str, hint: str):
    def guard(*args, **kwargs):
        caller = sys._getframe(1).f_code.co_filename
        if caller.startswith(TESTS_DIR):
            raise WallClockInTestError(
                f"bare time.{name}() called from test code ({caller}). "
                f"Tier-1 tests must be deterministic: {hint} "
                f"(see docs/TESTING.md, 'Determinism guard')."
            )
        return original(*args, **kwargs)

    guard.__wrapped__ = original
    return guard


@pytest.fixture(scope="session", autouse=True)
def _forbid_wall_clock_in_tests():
    """Trap bare time.sleep/time.time calls issued from under tests/.

    Production code reached *through* a test (e.g. the reconfigure poll
    in obi/instance.py) still sees the real clock — only frames whose
    code object lives under tests/ are rejected. Injectables to use
    instead: ``clock=`` parameters on leases/conntrack/checkpoints and
    ``RetryPolicy(sleep=...)`` for backoff.
    """
    real_sleep, real_time = time.sleep, time.time
    time.sleep = _guarded(
        real_sleep, "sleep",
        "inject RetryPolicy(sleep=...) or drive the component directly",
    )
    time.time = _guarded(
        real_time, "time",
        "pass a fake clock= callable and advance it explicitly",
    )
    try:
        yield
    finally:
        time.sleep, time.time = real_sleep, real_time


class FakeClock:
    """A clock that moves only when told: ``clock()`` reads it,
    ``clock.advance(dt)`` moves it."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def connected(
    clock: FakeClock | None = None,
    config: ObiConfig | None = None,
    **config_kwargs,
) -> tuple[OpenBoxController, OpenBoxInstance]:
    """A controller and one OBI (``o1`` in segment ``corp`` unless
    ``config`` says otherwise) on one clock, connected in-process and
    running the Figure 2(a) firewall, deployed through
    ``controller.send``."""
    clock = FakeClock() if clock is None else clock
    config = config or ObiConfig(obi_id="o1", segment="corp", **config_kwargs)
    controller = OpenBoxController(clock=clock)
    obi = OpenBoxInstance(config, clock=clock)
    connect_inproc(controller, obi)
    response = controller.send(config.obi_id, SetProcessingGraphRequest(
        graph=build_firewall_graph().to_dict()
    ))
    assert not isinstance(response, ErrorMessage), response
    return controller, obi


@pytest.fixture
def controller() -> OpenBoxController:
    return OpenBoxController()


@pytest.fixture
def connected_obi(controller):
    """An OBI connected to the controller over in-process transport."""
    obi = OpenBoxInstance(ObiConfig(obi_id="obi-test", segment="corp"))
    connect_inproc(controller, obi)
    return obi
