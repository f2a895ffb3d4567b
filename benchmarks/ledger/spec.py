"""Names, units and bounds of the ledger — the single source of truth.

``BENCHMARK.json`` at the repository root is this module rendered as JSON
(:func:`benchmark_json`); the smoke test fails when the two disagree.
"""

from __future__ import annotations

from dataclasses import dataclass

COMMAND = ["python3", "-m", "benchmarks.ledger"]
PATHS = ["benchmarks/ledger"]
#: Seconds of timed work per run: 70% on the workload's own plane, 30% on
#: the other one (see README, "Phases").
RUN_SECONDS = 18

WORKLOADS = {
    "dp_fw_warm": (
        "FW+FW merged graph, 54-byte frames over 256 long-lived flows: >=99% "
        "flow-cache hits, so parse, flow key, lookup and ingress bookkeeping "
        "do the work and the classifier does none"
    ),
    "dp_fw_churn": (
        "same graph and frames, flow universe twice the flow cache, visited "
        "round-robin: every lookup misses, installs and evicts, so trie match "
        "and engine traversal dominate and dearer installs show as a loss"
    ),
    "dp_ips_dpi": (
        "FW+IPS merged graph on the campus mix (~800 B, 55% HTTP, 1% attacks): "
        "uncacheable flows walk the regex elements, header work is diluted; a "
        "parse or cache win must not move this"
    ),
    "cp_fleet": (
        "journaled controller, 12 OBIs over loopback REST: register-to-"
        "converged deploys are merge-bound, small ops are codec+transport-"
        "bound; the data-plane layers run only in the short side phase"
    ),
}

#: name -> (unit, better, bound). ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change is a regression.
END_TO_END = {
    "pps": ("packets/s", "higher", 0.20),
    "batch_p50_us": ("us", "lower", 0.20),
    "batch_p95_us": ("us", "lower", 0.25),
    "deploy_ms": ("ms", "lower", 0.20),
    "ctl_rtt_p50_ms": ("ms", "lower", 0.20),
    "peak_rss_mb": ("MB", "lower", 0.10),
    "setup_s": ("s", "lower", 0.25),
}

#: name -> (unit, better). Per-layer metrics carry no bound.
PER_LAYER = {
    "net.packet.parse_us_per_pkt": ("us", "lower"),
    "obi.fastpath.key_us_per_pkt": ("us", "lower"),
    "obi.fastpath.lookup_us_per_pkt": ("us", "lower"),
    "obi.fastpath.install_us_per_pkt": ("us", "lower"),
    "obi.fastpath.hit_ratio": ("ratio", "higher"),
    "obi.fastpath.uncacheable_ratio": ("ratio", "lower"),
    "obi.fastpath.installs_per_pkt": ("count", "lower"),
    "obi.fastpath.evictions_per_pkt": ("count", "lower"),
    "obi.engine.process_us_per_pkt": ("us", "lower"),
    "obi.engine.hops_per_pkt": ("count", "lower"),
    "core.classify.header_us_per_pkt": ("us", "lower"),
    "obi.elements.payload_us_per_pkt": ("us", "lower"),
    "obi.elements.alert_us_per_pkt": ("us", "lower"),
    "obi.instance.ingress_self_us_per_pkt": ("us", "lower"),
    "obi.instance.alerts_raised": ("count", "lower"),
    "obi.instance.alerts_sent": ("count", "lower"),
    "obi.instance.alert_coalesce_ratio": ("ratio", "lower"),
    "telemetry.publisher.publish_us_per_call": ("us", "lower"),
    "telemetry.publisher.records_per_publish": ("count", "lower"),
    "telemetry.bus.fold_us_per_stream": ("us", "lower"),
    "controller.obc.alert_us_per_alert": ("us", "lower"),
    "core.merge.merge_ms_per_call": ("ms", "lower"),
    "core.merge.calls_per_deploy": ("count", "lower"),
    "core.graph.digest_ms_per_deploy": ("ms", "lower"),
    "protocol.messages.encode_ms_per_setgraph": ("ms", "lower"),
    "protocol.messages.decode_ms_per_setgraph": ("ms", "lower"),
    "protocol.messages.setgraph_bytes": ("bytes", "lower"),
    "protocol.messages.codec_us_per_smallop": ("us", "lower"),
    "transport.rest.rtt_self_ms_per_setgraph": ("ms", "lower"),
    "transport.rest.rtt_self_us_per_smallop": ("us", "lower"),
    "transport.rest.smallop_p99_ms": ("ms", "lower"),
    "obi.instance.set_graph_ms": ("ms", "lower"),
    "obi.translation.build_engine_ms": ("ms", "lower"),
    "controller.journal.append_ms_per_deploy": ("ms", "lower"),
    "controller.journal.fsyncs_per_deploy": ("count", "lower"),
    "controller.journal.bytes_per_deploy": ("bytes", "lower"),
    "controller.obc.pushes_per_deploy": ("count", "lower"),
    "controller.obc.pushes_unchanged_per_deploy": ("count", "lower"),
    "controller.obc.deploy_self_ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.unattributed_ratio": ("ratio", "lower"),
    "run.fail_ratio": ("ratio", "lower"),
    "run.wall_s": ("s", "lower"),
}


#: Span names that only occur under a deploy (phase a); the small
#: operations (phase b) record under names of their own.
DEPLOY_LAYERS = (
    "controller.obc.deploy", "core.merge", "controller.journal",
    "transport.rest.setgraph", "obi.instance.set_graph",
)


@dataclass(frozen=True)
class Scale:
    """Input sizes. ``FULL`` is what the ledger records; ``TINY`` is the
    smoke test's internal scale (same code paths, seconds not minutes)."""

    fw_rules: int
    warm_flows: int
    warm_batches: int
    churn_cache: int
    dpi_flows: int
    dpi_batches: int
    snort_rules: int
    fleet_obis: int
    fleet_rules: int
    #: Small operations per round, spread evenly over the OBIs (three
    #: kinds per OBI per sweep).
    smallops_per_round: int
    #: How often the whole set-up is repeated (``setup_s`` is the median).
    setups: int
    #: First packets of a pass checked against the cache-less interpreter.
    oracle_packets: int


FULL = Scale(
    fw_rules=1000, warm_flows=256, warm_batches=256, churn_cache=2048,
    dpi_flows=2000, dpi_batches=128, snort_rules=120,
    fleet_obis=12, fleet_rules=100, smallops_per_round=144,
    setups=3, oracle_packets=2048,
)
TINY = Scale(
    fw_rules=60, warm_flows=32, warm_batches=16, churn_cache=128,
    dpi_flows=64, dpi_batches=8, snort_rules=120,
    fleet_obis=6, fleet_rules=24, smallops_per_round=18,
    setups=1, oracle_packets=256,
)

BATCH = 32
PUBLISH_EVERY = 32


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in PER_LAYER.items()
        ],
    }
