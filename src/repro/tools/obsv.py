"""Snapshot tooling: dump, diff, inspect and export (PROTOCOL.md §9).

Usage::

    python -m repro.tools.obsv dump [--packets 500] [--trace-sample 0.05] \\
        [--max-traces 8] [--output snap.json]
    python -m repro.tools.obsv diff before.json after.json
    python -m repro.tools.obsv trace snap.json [--limit 3] [--app fw]
    python -m repro.tools.obsv prom (--input snap.json | --demo) [--output F]

``dump`` stands up a miniature control plane (controller + one OBI over
the in-process channel, merged firewall+IPS), drives synthetic traffic
through the data plane, drains the OBI's telemetry stream into an
:class:`ObservabilitySnapshotResponse` (``telemetry_snapshot()``), and
writes it as JSON — a self-contained way to
see what the telemetry pipeline produces. ``diff`` subtracts two dumped
snapshots (counter/histogram deltas, gauge from→to). ``trace``
pretty-prints the sampled per-packet trace trees inside a dump, spans
attributed to their originating application. ``prom`` renders a dump's
metrics (or a fresh demo run's) as Prometheus exposition text.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

from repro.observability.metrics import diff_snapshots, render_prometheus
from repro.observability.tracing import render_trace_tree

FIREWALL_RULES = """
deny  tcp 10.0.0.0/8 any any 23
alert tcp any        any any 22
allow any any        any any any
"""

IPS_RULES = (
    'alert tcp any any -> any 80 (msg:"web attack"; content:"attack"; sid:1;)'
)


def _build_demo_snapshot(
    packets: int, trace_sample: float, max_traces: int
) -> dict[str, Any]:
    """Run the quickstart topology and pull its snapshot over the wire."""
    from repro.apps.firewall import FirewallApp, parse_firewall_rules
    from repro.apps.ips import IpsApp, parse_snort_rules
    from repro.bootstrap import connect_inproc
    from repro.controller.obc import OpenBoxController
    from repro.obi.instance import ObiConfig, OpenBoxInstance
    from repro.sim.traffic import TraceConfig, TrafficGenerator

    controller = OpenBoxController()
    obi = OpenBoxInstance(ObiConfig(
        obi_id="obi-1", segment="corp",
        trace_sample_rate=trace_sample,
        trace_buffer=max(max_traces, 64),
    ))
    connect_inproc(controller, obi)
    controller.register_application(FirewallApp(
        "fw", parse_firewall_rules(FIREWALL_RULES), segment="corp", priority=1))
    controller.register_application(IpsApp(
        "ips", parse_snort_rules(IPS_RULES), segment="corp", priority=2))

    generator = TrafficGenerator(TraceConfig(seed=7, num_packets=packets))
    obi.inject_batch(list(generator.packets()))

    response = controller.telemetry_snapshot("obi-1", max_traces=max_traces)
    if response is None:
        raise RuntimeError("snapshot pull failed: OBI unreachable")
    return response.to_dict()


def _cmd_dump(args: argparse.Namespace) -> int:
    snapshot = _build_demo_snapshot(
        args.packets, args.trace_sample, args.max_traces
    )
    rendered = json.dumps(snapshot, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendered + "\n")
        metrics = snapshot.get("metrics", {})
        print(f"wrote {args.output}: "
              f"{len(metrics.get('counters', {}))} counters, "
              f"{len(metrics.get('gauges', {}))} gauges, "
              f"{len(metrics.get('histograms', {}))} histograms, "
              f"{len(snapshot.get('traces', []))} traces")
    else:
        print(rendered)
    return 0


def _load_metrics(path: str) -> dict[str, Any]:
    with open(path) as handle:
        data = json.load(handle)
    # Accept either a full ObservabilitySnapshotResponse dump or a bare
    # metrics snapshot ({counters, gauges, histograms}).
    return data["metrics"] if "metrics" in data else data


def _cmd_diff(args: argparse.Namespace) -> int:
    delta = diff_snapshots(_load_metrics(args.before), _load_metrics(args.after))
    if not any(delta.values()):
        print("no changes")
        return 0
    for key in sorted(delta["counters"]):
        print(f"counter    {key}  {delta['counters'][key]:+g}")
    for key in sorted(delta["gauges"]):
        change = delta["gauges"][key]
        print(f"gauge      {key}  {change['from']:g} -> {change['to']:g}")
    for key in sorted(delta["histograms"]):
        change = delta["histograms"][key]
        mean = change["sum"] / change["count"] if change["count"] else 0.0
        print(f"histogram  {key}  +{change['count']} observations "
              f"(mean {mean:g})")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    with open(args.path) as handle:
        data = json.load(handle)
    traces = data.get("traces", []) if isinstance(data, dict) else data
    if args.app:
        traces = [
            trace for trace in traces
            if any(span.get("origin_app") == args.app
                   for span in trace.get("spans", []))
        ]
    if args.limit:
        traces = traces[-args.limit:]
    if not traces:
        print("no traces in snapshot (was tracing sampled at 0?)")
        return 1
    for trace in traces:
        print(render_trace_tree(trace))
        print()
    return 0


def _cmd_prom(args: argparse.Namespace) -> int:
    if args.demo:
        metrics = _build_demo_snapshot(
            args.packets, trace_sample=0.0, max_traces=0
        )["metrics"]
    else:
        metrics = _load_metrics(args.input)
    text = render_prometheus(metrics)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}: {len(text.splitlines())} lines")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.obsv", description=__doc__.splitlines()[0]
    )
    commands = parser.add_subparsers(dest="command", required=True)

    dump = commands.add_parser(
        "dump", help="run the demo topology and dump its snapshot as JSON"
    )
    dump.add_argument("--packets", type=int, default=500)
    dump.add_argument("--trace-sample", type=float, default=0.05,
                      help="trace sampling rate in [0,1]; 0 disables")
    dump.add_argument("--max-traces", type=int, default=8)
    dump.add_argument("--output", help="write JSON here instead of stdout")
    dump.set_defaults(func=_cmd_dump)

    diff = commands.add_parser("diff", help="delta between two dumps")
    diff.add_argument("before")
    diff.add_argument("after")
    diff.set_defaults(func=_cmd_diff)

    trace = commands.add_parser(
        "trace", help="pretty-print the trace trees inside a dump"
    )
    trace.add_argument("path")
    trace.add_argument("--limit", type=int, default=0,
                       help="show only the most recent N traces")
    trace.add_argument("--app", default="",
                       help="only traces touching this application's blocks")
    trace.set_defaults(func=_cmd_trace)

    prom = commands.add_parser(
        "prom", help="render metrics as Prometheus exposition text"
    )
    source = prom.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", "-i",
                        help="metrics JSON (a dump or a bare snapshot)")
    source.add_argument("--demo", action="store_true",
                        help="run the demo topology and render its metrics")
    prom.add_argument("--packets", type=int, default=500,
                      help="demo traffic volume (with --demo)")
    prom.add_argument("--output", "-o",
                      help="write exposition text here instead of stdout")
    prom.set_defaults(func=_cmd_prom)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # e.g. piped into head
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
