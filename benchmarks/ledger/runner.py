"""One run of one workload: set-up, the two phases, the metrics, the report."""

from __future__ import annotations

import gc
import os
import pathlib
import platform
import resource
import statistics
import time
from typing import Any

from benchmarks.ledger import spec
from benchmarks.ledger.phases import (
    ControlResult,
    DataplaneResult,
    PacketLoop,
    run_control,
    run_dataplane,
    run_round,
)
from benchmarks.ledger.stack import RESULTS_DIR, Stack, build
from benchmarks.ledger.trace import Recorder
from benchmarks.ledger.traffic import DEFAULT_SEED

#: Share of ``--seconds`` spent on the workload's own plane.
FOCUS_SHARE = 0.7


def environment() -> dict[str, Any]:
    """The environment block every run prints."""
    root = pathlib.Path(__file__).resolve().parents[2]
    commit = "unknown"
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (root / ".git" / head[5:]).read_text().strip()
        commit = head[:12]
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_1m": round(os.getloadavg()[0], 2),
        "commit": commit,
    }


def _set_up(workload: str, seed: int, scale: spec.Scale) -> tuple[Stack, str]:
    """Everything before the first timed operation, warm-up included."""
    stack = build(workload, seed, scale)
    try:
        if workload == "cp_fleet":
            run_round(stack, 0, 1, None)
            return stack, ""
        return stack, PacketLoop(stack, 0).run_pass().digest
    except BaseException:
        stack.close()
        raise


def run(
    workload: str,
    seed: int = DEFAULT_SEED,
    seconds: float = spec.RUN_SECONDS,
    trace: bool = False,
    scale: spec.Scale = spec.FULL,
) -> dict[str, Any]:
    """One run of one workload; returns the result document."""
    wall_start = time.monotonic()
    setup_s: list[float] = []
    stack = None
    for _repeat in range(scale.setups):
        if stack is not None:
            stack.close()
            stack = None
            gc.collect()  # the old stack's cycles must not be swept mid-set-up
        start = time.perf_counter()
        stack, warm_digest = _set_up(workload, seed, scale)
        setup_s.append(time.perf_counter() - start)
    assert stack is not None
    # One recorder per plane: each keeps its own span ids and totals.
    rec_dp = Recorder() if trace else None
    rec_cp = Recorder() if trace else None
    # The other plane's share is split in two slices, one on either side
    # of the workload's own phase: a noisy spell that swallows one slice
    # whole leaves the other for the quietest-window estimators.
    focus, half = seconds * FOCUS_SHARE, seconds * (1 - FOCUS_SHARE) / 2
    smallops, oracle = scale.smallops_per_round, scale.oracle_packets
    try:
        if workload == "cp_fleet":
            # The warm-up round re-pushed the ``dmz`` OBI's graph, and
            # every deploy does: each slice warms its flow cache anew.
            dataplane = run_dataplane(stack, half, oracle, rec_dp, warm_up=True)
            control = run_control(stack, focus, smallops, rec_cp)
            run_dataplane(
                stack, half, oracle, rec_dp, warm_up=True, result=dataplane
            )
        else:
            control = run_control(stack, half, smallops, rec_cp)
            dataplane = run_dataplane(
                stack, focus, oracle, rec_dp,
                warm_up=True, reference_digest=warm_digest,
            )
            run_control(stack, half, smallops, rec_cp, result=control)
        inputs_digest = stack.inputs_digest
    finally:
        stack.close()
    attempted = dataplane.attempted + control.attempted
    failed = dataplane.failed + control.failed
    wall_s = time.monotonic() - wall_start
    document: dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "inputs_sha256": inputs_digest,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "notes": sorted(set(dataplane.notes + control.notes)),
        "samples": {
            "setups": len(setup_s),
            "passes": len(dataplane.passes),
            "batches": dataplane.batch_samples(),
            "deploy_rounds": len([r for r in control.rounds if not r.traced]),
            "small_ops": control.smallop_samples(),
        },
    }
    if not trace:
        # The raw series behind the end-to-end numbers, for the results file.
        document["series"] = {
            "pass_pps": [
                p.packets / (p.timed_ns / 1e9) for p in dataplane.passes
            ],
            "window_p50_us": dataplane.window_us(0.50),
            "window_p95_us": dataplane.window_us(0.95),
            "deploy_ms": [r.deploy_ns / 1e6 for r in control.rounds],
            "round_rtt_ms": control.round_rtt_ms(),
            "setup_s": setup_s,
        }
    if trace:
        assert rec_dp is not None and rec_cp is not None
        document["metrics"] = _per_layer(
            workload, dataplane, control, rec_dp, rec_cp, failed / attempted, wall_s
        )
        document["layers_self_ms"] = {
            plane: dict(sorted(rec.self_ms().items(), key=lambda item: -item[1]))
            for plane, rec in (("packets", rec_dp), ("control", rec_cp))
        }
        document["counts"] = {
            "merges_in_small_ops": sum(r.merges_smallops for r in control.rounds),
        }
        RESULTS_DIR.mkdir(exist_ok=True)
        header = {key: document[key] for key in ("workload", "seed", "environment")}
        for plane, rec in (("packets", rec_dp), ("control", rec_cp)):
            rec.dump(
                RESULTS_DIR / f"trace-{workload}-seed{seed}-{plane}.json",
                {**header, "plane": plane},
            )
    else:
        document["metrics"] = _end_to_end(dataplane, control, setup_s)
    return document


def _metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def _end_to_end(
    dataplane: DataplaneResult, control: ControlResult, setup_s: list[float]
) -> dict[str, Any]:
    values = {
        "pps": dataplane.pps(),
        "batch_p50_us": min(dataplane.window_us(0.50)),
        "batch_p95_us": min(dataplane.window_us(0.95)),
        "deploy_ms": control.deploy_ms(),
        "ctl_rtt_p50_ms": min(control.round_rtt_ms()),
        # ru_maxrss is kilobytes on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_s),
    }
    return {
        name: _metric(values[name], unit)
        for name, (unit, _better, _bound) in spec.END_TO_END.items()
    }


def _per_layer(
    workload: str,
    dataplane: DataplaneResult,
    control: ControlResult,
    dp: Recorder,
    cp: Recorder,
    fail_ratio: float,
    wall_s: float,
) -> dict[str, Any]:
    traced_passes = [p for p in dataplane.passes if p.traced]
    packets = sum(p.packets for p in traced_passes) or 1
    rounds = [r for r in control.rounds if r.traced]
    deploys = len(rounds) or 1
    pushes = sum(r.pushes for r in rounds) or 1
    over_rest = workload == "cp_fleet"

    def per_packet(layer: str) -> float:
        return dp.total_ns(layer) / 1e3 / packets

    def per_call(rec: Recorder, layer: str, scale: float) -> float:
        return rec.total_ns(layer) / scale / (rec.count(layer) or 1)

    def replica(key: str) -> float:
        return sum(r.replica.get(key, 0.0) for r in rounds)

    codec_per_setgraph = (replica("encode_ms") + replica("decode_ms")) / pushes
    codec_per_smallop = statistics.fmean(
        [r.replica["smallop_codec_us"] for r in rounds if r.replica] or [0.0]
    )
    # The focus plane's traced time, by the driver's own stamps, against
    # what its layers' self times add up to; and against the untraced
    # passes (rounds) the same run interleaved.
    if workload == "cp_fleet":
        traced_total = sum(r.deploy_ns + sum(r.smallop_ns) for r in rounds)
        attributed = sum(cp.self_ns)
        overhead = control.deploy_ms(traced=True) / control.deploy_ms()
    else:
        traced_total = sum(p.timed_ns for p in traced_passes)
        attributed = sum(dp.self_ns)
        overhead = dataplane.pps() / dataplane.pps(traced=True)
    publishes = [ns for p in traced_passes for ns in p.publish_ns]
    counters = dataplane.counters()
    values = {
        "net.packet.parse_us_per_pkt": per_packet("net.packet.parse"),
        "obi.fastpath.key_us_per_pkt": per_packet("obi.fastpath.key"),
        "obi.fastpath.lookup_us_per_pkt": per_packet("obi.fastpath.lookup"),
        "obi.fastpath.install_us_per_pkt": per_packet("obi.fastpath.install"),
        "obi.fastpath.hit_ratio": counters["hit_ratio"],
        "obi.fastpath.uncacheable_ratio": counters["uncacheable_ratio"],
        "obi.fastpath.installs_per_pkt": counters["installs_per_pkt"],
        "obi.fastpath.evictions_per_pkt": counters["evictions_per_pkt"],
        "obi.engine.process_us_per_pkt": per_packet("obi.engine"),
        "obi.engine.hops_per_pkt": counters["hops_per_pkt"],
        "core.classify.header_us_per_pkt": per_packet("core.classify.header"),
        "obi.elements.payload_us_per_pkt": per_packet("obi.elements.payload"),
        "obi.elements.alert_us_per_pkt": per_packet("obi.elements.alert"),
        "obi.instance.ingress_self_us_per_pkt": per_packet("obi.instance.ingress"),
        "obi.instance.alerts_raised": counters["alerts_raised"],
        "obi.instance.alerts_sent": counters["alerts_sent"],
        "obi.instance.alert_coalesce_ratio": counters["alert_coalesce_ratio"],
        "telemetry.publisher.publish_us_per_call": (
            statistics.fmean(publishes) / 1e3 if publishes else 0.0
        ),
        "telemetry.publisher.records_per_publish": counters["records_per_publish"],
        "telemetry.bus.fold_us_per_stream": per_call(dp, "telemetry.bus.fold", 1e3),
        "controller.obc.alert_us_per_alert": per_call(dp, "controller.obc.alert", 1e3),
        "core.merge.merge_ms_per_call": per_call(cp, "core.merge", 1e6),
        "core.merge.calls_per_deploy": sum(r.merges for r in rounds) / deploys,
        "core.graph.digest_ms_per_deploy": replica("digest_ms") / deploys,
        "protocol.messages.encode_ms_per_setgraph": replica("encode_ms") / pushes,
        "protocol.messages.decode_ms_per_setgraph": replica("decode_ms") / pushes,
        "protocol.messages.setgraph_bytes": replica("bytes") / pushes,
        "protocol.messages.codec_us_per_smallop": codec_per_smallop,
        # The codec runs inside the channel's span only when the channel
        # is REST; the in-process pair hands the message object over.
        "transport.rest.rtt_self_ms_per_setgraph": max(0.0, (
            per_call(cp, "transport.rest.setgraph", 1e6)
            - (codec_per_setgraph if over_rest else 0.0)
        )),
        "transport.rest.rtt_self_us_per_smallop": max(0.0, (
            per_call(cp, "transport.rest.smallop", 1e3)
            - (codec_per_smallop if over_rest else 0.0)
        )),
        "transport.rest.smallop_p99_ms": control.smallop_p99_ms(),
        "obi.instance.set_graph_ms": per_call(cp, "obi.instance.set_graph", 1e6),
        "obi.translation.build_engine_ms": replica("build_ms") / pushes,
        "controller.journal.append_ms_per_deploy": (
            cp.total_ns("controller.journal") / 1e6 / deploys
        ),
        "controller.journal.fsyncs_per_deploy": (
            sum(r.journal_fsyncs for r in rounds) / deploys
        ),
        "controller.journal.bytes_per_deploy": (
            sum(r.journal_bytes for r in rounds) / deploys
        ),
        "controller.obc.pushes_per_deploy": sum(r.pushes for r in rounds) / deploys,
        "controller.obc.pushes_unchanged_per_deploy": (
            sum(r.pushes_unchanged for r in rounds) / deploys
        ),
        # The controller's half of the digest replica ran inside this
        # span; a replica is an estimate, so the residual is floored at 0.
        "controller.obc.deploy_self_ms": max(0.0, (
            cp.total_ns("controller.obc.deploy") / 1e6 / deploys
            - replica("digest_ms") / 2 / deploys
        )),
        "trace.overhead_ratio": overhead,
        "trace.unattributed_ratio": abs(1.0 - attributed / traced_total),
        "run.fail_ratio": fail_ratio,
        "run.wall_s": wall_s,
    }
    return {
        name: _metric(values[name], unit)
        for name, (unit, _better) in spec.PER_LAYER.items()
    }


def report(document: dict[str, Any]) -> str:
    """The human-readable part of the output."""
    env = document["environment"]
    lines = [
        f"workload {document['workload']}  seed {document['seed']}  "
        f"seconds {document['seconds']}  trace {document['trace']}",
        f"environment: nproc={env['nproc']} python={env['python']} "
        f"loadavg_1m={env['loadavg_1m']} commit={env['commit']}",
        f"inputs sha256 {document['inputs_sha256']}",
        "samples: " + "  ".join(f"{k}={v}" for k, v in document["samples"].items()),
    ]
    width = max(len(name) for name in document["metrics"])
    for name, metric in document["metrics"].items():
        lines.append(f"  {name:<{width}}  {metric['value']:>14.4f} {metric['unit']}")
    for plane, layers in document.get("layers_self_ms", {}).items():
        total = sum(layers.values()) or 1.0
        lines.append(f"self time by layer, {plane} (traced only):")
        for name, value in layers.items():
            lines.append(f"  {name:<28} {value:>10.2f} ms  {value / total:6.1%}")
    lines.append(
        f"attempted {document['attempted']}  failed {document['failed']}  "
        f"correct {document['correct']}"
    )
    lines.extend(f"note: {note}" for note in document["notes"])
    return "\n".join(lines)
