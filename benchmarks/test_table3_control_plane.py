"""Table 3 — round-trip time of common OBC<->OBI protocol operations.

Paper rows (OBC and OBI on the same physical machine):

    SetProcessingGraph   1285 ms   (dominated by Click's hard-coded
                                    1000 ms element-update poll, fn. 4)
    KeepAlive              20 ms
    GlobalStats            25 ms
    AddCustomModule       124 ms   (22.3 KB module, one block type)

This benchmark runs the real dual REST channel over loopback HTTP with
the OBI's reconfigure poll set to the paper's 1000 ms, and measures the
same four round trips. Shape criterion: SetProcessingGraph is dominated
by the poll delay; the other operations are small and ordered
KeepAlive <= GlobalStats < AddCustomModule << SetProcessingGraph.

Regression gate: SetProcessingGraph (pinned near the fixed 1000 ms
poll) and the AddCustomModule/GlobalStats ratio are stable across
machines, so they are checked against the committed baseline
``benchmarks/BENCH_control_plane.json`` (>30% regression fails),
mirroring the BENCH_fastpath.json pattern.
"""

import json
import pathlib
import statistics
import time

import pytest

from benchmarks.conftest import RESULTS_DIR, write_result
from repro.bootstrap import connect_obi_rest, serve_controller_rest
from repro.controller.obc import OpenBoxController
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.protocol.messages import (
    AddCustomModuleRequest,
    GlobalStatsRequest,
    KeepAlive,
    SetProcessingGraphRequest,
)
from tests.conftest import build_firewall_graph

BASELINE_PATH = pathlib.Path(__file__).parent / "BENCH_control_plane.json"

#: Largest tolerated slowdown of the gated metrics vs the baseline.
MAX_RTT_REGRESSION = 0.30

#: A custom module comparable to the paper's 22.3 KB binary: one block
#: type plus padding to the same size.
_MODULE_SOURCE = (
    b"class PaddedBlock(Element):\n"
    b"    def process(self, packet):\n"
    b"        return [(0, packet)]\n"
    b"ELEMENTS = {'PaddedBlock': PaddedBlock}\n"
    + b"# padding\n" * 2030  # ~22.3 KB total
)


@pytest.fixture(scope="module")
def rest_pair():
    controller = OpenBoxController(auto_deploy=False)
    controller_endpoint = serve_controller_rest(controller)
    obi = OpenBoxInstance(ObiConfig(
        obi_id="bench-obi", segment="bench",
        reconfigure_poll_delay=1.0,  # Click's hard-coded poll (fn. 4)
    ))
    obi_endpoint, upstream = connect_obi_rest(obi, controller_endpoint.url)
    channel = controller.obis["bench-obi"].channel
    yield controller, obi, channel, upstream
    obi_endpoint.close()
    controller_endpoint.close()


def _rtt(callable_, rounds):
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        callable_()
        samples.append((time.perf_counter() - start) * 1000.0)
    return statistics.mean(samples)


def test_table3_control_plane_rtt(benchmark, rest_pair):
    controller, obi, channel, upstream = rest_pair
    graph_dict = build_firewall_graph("bench_fw").to_dict()

    # The OBI has Hello'd this controller, so it refuses any request not
    # stamped with the controller's generation (``stale_generation``).
    epoch = controller.generation
    set_graph_ms = _rtt(
        lambda: channel.request(
            SetProcessingGraphRequest(graph=graph_dict, epoch=epoch), timeout=30.0
        ),
        rounds=2,
    )
    keepalive_ms = _rtt(lambda: upstream.notify(KeepAlive(obi_id="bench-obi")),
                        rounds=20)
    stats_ms = _rtt(lambda: channel.request(GlobalStatsRequest(epoch=epoch)), rounds=20)

    module_counter = [0]

    def add_module():
        module_counter[0] += 1
        request = AddCustomModuleRequest.from_binary(
            f"mod{module_counter[0]}", _MODULE_SOURCE,
            [{"name": f"PaddedBlock{module_counter[0]}", "class": "static"}],
            translation={"element_map": {
                f"PaddedBlock{module_counter[0]}": "PaddedBlock"}},
        )
        request.epoch = epoch
        response = channel.request(request)
        assert getattr(response, "ok", False), response

    add_module_ms = _rtt(add_module, rounds=5)

    paper = {"SetProcessingGraph": 1285, "KeepAlive": 20,
             "GlobalStats": 25, "AddCustomModule": 124}
    measured = {"SetProcessingGraph": set_graph_ms, "KeepAlive": keepalive_ms,
                "GlobalStats": stats_ms, "AddCustomModule": add_module_ms}
    lines = [f"{'Operation':20s} {'RTT[ms]':>9s} {'paper[ms]':>10s}"]
    for name in paper:
        lines.append(f"{name:20s} {measured[name]:9.1f} {paper[name]:10d}")
    lines.append(
        "\nnote: SetProcessingGraph includes the reproduced 1000 ms engine "
        "reconfiguration poll (paper footnote 4); the remainder is software "
        "path. TLS omitted (loopback HTTP), so small operations are faster "
        "than the paper's absolute numbers."
    )
    write_result("table3_control_plane", "\n".join(lines) + "\n")
    result = {
        "set_graph_ms": round(set_graph_ms, 1),
        "module_over_stats": round(add_module_ms / stats_ms, 3),
        # Machine-dependent, recorded for context only — not gated.
        "keepalive_ms": round(keepalive_ms, 2),
        "stats_ms": round(stats_ms, 2),
        "add_module_ms": round(add_module_ms, 2),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_control_plane.json").write_text(
        json.dumps(result, indent=2) + "\n"
    )

    # Shape criteria.
    assert set_graph_ms > 1000.0          # dominated by the engine poll
    assert set_graph_ms < 2500.0          # plus modest software overhead
    assert keepalive_ms < stats_ms * 3    # both are small round trips
    assert stats_ms < add_module_ms       # module transfer+load costs more
    assert add_module_ms < set_graph_ms / 4

    # Ratio-style regression gates vs the committed baseline.
    # SetProcessingGraph sits just above the fixed 1000 ms poll, so its
    # absolute RTT is comparable across machines; the module/stats
    # ratio cancels host speed entirely.
    baseline = json.loads(BASELINE_PATH.read_text())
    set_graph_ceiling = baseline["set_graph_ms"] * (1.0 + MAX_RTT_REGRESSION)
    assert set_graph_ms <= set_graph_ceiling, (
        f"SetProcessingGraph {set_graph_ms:.0f} ms regressed more than "
        f"{MAX_RTT_REGRESSION:.0%} vs baseline "
        f"{baseline['set_graph_ms']:.0f} ms (ceiling {set_graph_ceiling:.0f})"
    )
    ratio_ceiling = baseline["module_over_stats"] * (1.0 + MAX_RTT_REGRESSION)
    assert result["module_over_stats"] <= ratio_ceiling, (
        f"AddCustomModule/GlobalStats ratio {result['module_over_stats']:.2f} "
        f"regressed more than {MAX_RTT_REGRESSION:.0%} vs baseline "
        f"{baseline['module_over_stats']:.2f} (ceiling {ratio_ceiling:.2f})"
    )

    # Cleanup registered bench block types to keep the registry tidy.
    from repro.core.blocks import block_registry
    for index in range(1, module_counter[0] + 1):
        block_registry._types.pop(f"PaddedBlock{index}", None)

    benchmark(lambda: channel.request(GlobalStatsRequest(epoch=epoch)))
