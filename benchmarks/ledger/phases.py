"""The two timed phases — packets and control operations — and their oracles.

Both phases are one driving thread in a closed loop with one operation
in flight: the next batch (round, small op) is issued only when the
previous one has returned. Oracle work happens between timed spans,
never inside one; a mismatch is a failed operation, not a crash.

Every timing is reported from the **quietest window**: the fastest pass,
the window of 256 batches with the lowest median (p95), the fastest
deploy round, the round with the lowest median round trip. The box this
runs on is a shared VM whose neighbours slow it by 20-100% for seconds to
minutes at a time; such noise only ever adds to a latency, so the
quietest window is the closest view of what the code itself costs, and
it is the estimator that repeats: over ten runs the fastest deploy round
spread 5% (17% through a noisy spell) where the median round spread 8%
(42%).
"""

from __future__ import annotations

import collections
import functools
import gc
import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.controller.journal import StateJournal
from repro.core.graph import ProcessingGraph, canonical_graph_digest
from repro.net.packet import Packet
from repro.obi.translation import build_engine
from repro.protocol.codec import decode_message, encode_message
from repro.protocol.messages import SetProcessingGraphRequest

from benchmarks.ledger.spec import BATCH, PUBLISH_EVERY
from benchmarks.ledger.stack import Stack, instrument_control, instrument_dataplane
from benchmarks.ledger.trace import Recorder, traced_packet_class

_now = time.perf_counter_ns

#: Batches per window: the p95 of 256 samples has twelve beyond it.
WINDOW = 256


#: What :func:`_timed` returns in place of a value when the call raised.
FAILED = object()


def _timed(rec: Recorder | None, op: str, call: Callable[[], Any]) -> tuple[int, Any]:
    """Time one operation (under a root span when tracing); an exception
    is a failed operation, not a crash."""
    root = rec.begin_op(rec.name_id(op)) if rec is not None else None
    start = _now()
    try:
        value = call()
    except Exception:  # noqa: BLE001 — counted by the caller, the run goes on
        value = FAILED
    end = _now()
    if root is not None:
        rec.exit(root, end)
    return end - start, value


def percentile(sorted_values: list[float], share: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, int(share * len(sorted_values))))
    return sorted_values[rank]


# ----------------------------------------------------------------------
# Packets
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    traced: bool
    packets: int = 0
    failed: int = 0
    #: Sum of the timed spans (batches and publishes), not the wall time
    #: of the loop: oracle hashing runs between spans.
    timed_ns: int = 0
    batch_ns: list[int] = field(default_factory=list)
    publish_ns: list[int] = field(default_factory=list)
    digest: str = ""
    head_keys: list[tuple] = field(default_factory=list)
    alerts_raised: int = 0
    hops: int = 0


def _effects(outcome: Any, sink: Any) -> tuple:
    """Fold one outcome's observable behaviour into the pass digest."""
    key = outcome.effects_key()
    for device, data in key[0]:
        sink.update(device.encode())
        sink.update(data)
    sink.update(repr(key[1:]).encode())
    return key


class PacketLoop:
    """Offers the stack's pass, 32 fresh packets at a time."""

    def __init__(self, stack: Stack, oracle_packets: int) -> None:
        self.stack = stack
        frames = stack.frames
        self.batches = [
            frames[start:start + BATCH] for start in range(0, len(frames), BATCH)
        ]
        self.head_batches = min(len(self.batches), -(-oracle_packets // BATCH))

    def run_pass(self, rec: Recorder | None = None, keep_head: bool = False) -> PassResult:
        obi = self.stack.dp
        result = PassResult(traced=rec is not None)
        packet_cls: Callable[..., Packet] = Packet
        if rec is not None:
            instrument_dataplane(self.stack, rec)
            packet_cls = traced_packet_class(rec, "net.packet.parse")
        sink = hashlib.sha256()
        inject, publish = obi.inject_batch, obi.publish_telemetry
        try:
            for index, frames in enumerate(self.batches):
                elapsed, outcomes = _timed(
                    rec, "bench.driver.batch",
                    lambda: inject([packet_cls(data=f) for f in frames]),
                )
                if outcomes is FAILED:
                    outcomes = []
                result.batch_ns.append(elapsed)
                result.timed_ns += elapsed
                result.packets += len(frames)
                result.failed += len(frames) - len(outcomes)
                keep = keep_head and index < self.head_batches
                for outcome in outcomes:
                    key = _effects(outcome, sink)
                    result.alerts_raised += len(outcome.alerts)
                    result.hops += len(outcome.path)
                    if keep:
                        result.head_keys.append(key)
                if index % PUBLISH_EVERY == PUBLISH_EVERY - 1:
                    elapsed, ack = _timed(rec, "bench.driver.publish", publish)
                    result.failed += ack is FAILED
                    result.publish_ns.append(elapsed)
                    result.timed_ns += elapsed
        finally:
            if rec is not None:
                rec.uninstall()
        result.digest = sink.hexdigest()
        return result


@dataclass
class DataplaneResult:
    passes: list[PassResult] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    #: Counts read at the phase's boundaries, summed over its slices.
    raw: collections.Counter = field(default_factory=collections.Counter)

    def counters(self) -> dict[str, float]:
        raw = self.raw
        lookups = raw["hits"] + raw["misses"] + raw["uncacheable_hits"]
        packets = raw["packets"] or 1
        return {
            "hit_ratio": raw["hits"] / lookups if lookups else 0.0,
            "uncacheable_ratio": raw["uncacheable_hits"] / lookups if lookups else 0.0,
            "installs_per_pkt": raw["misses"] / packets,
            "evictions_per_pkt": raw["evictions"] / packets,
            "hops_per_pkt": raw["hops"] / packets,
            "alerts_raised": raw["alerts_raised"],
            "alerts_sent": raw["alerts_sent"],
            "alert_coalesce_ratio": (
                raw["alerts_sent"] / raw["alerts_raised"]
                if raw["alerts_raised"] else 0.0
            ),
            "records_per_publish": (
                raw["records"] / raw["publishes"] if raw["publishes"] else 0.0
            ),
        }

    def _timed(self, traced: bool) -> list[PassResult]:
        return [p for p in self.passes if p.traced == traced]

    def pps(self, traced: bool = False) -> float:
        """The fastest pass: packets over the pass's timed spans."""
        return max(
            (p.packets / (p.timed_ns / 1e9) for p in self._timed(traced)),
            default=0.0,
        )

    def window_us(self, share: float) -> list[float]:
        """The percentile of each consecutive window of ``WINDOW`` batches
        of the untraced passes (of all of them, if they do not fill one)."""
        pool = [ns for p in self._timed(False) for ns in p.batch_ns]
        windows = [
            sorted(pool[start:start + WINDOW])
            for start in range(0, len(pool) - WINDOW + 1, WINDOW)
        ] or [sorted(pool)]
        return [percentile(window, share) / 1e3 for window in windows]

    def batch_samples(self) -> int:
        return sum(len(p.batch_ns) for p in self._timed(False))


def _cache_counts(obi: Any) -> dict[str, int]:
    cache = obi.flow_cache
    stats = cache.stats() if cache is not None else {}
    return {
        key: int(stats.get(key, 0))
        for key in ("hits", "misses", "uncacheable_hits", "evictions")
    }


def run_dataplane(
    stack: Stack,
    seconds: float,
    oracle_packets: int,
    rec: Recorder | None,
    warm_up: bool,
    reference_digest: str = "",
    result: DataplaneResult | None = None,
) -> DataplaneResult:
    """Timed passes for ``seconds`` (at least three), then the oracle.

    With a recorder, traced and untraced passes alternate, so the traced
    run carries its own untraced baseline (``trace.overhead_ratio``).
    ``reference_digest`` is the digest of an earlier pass over the same
    schedule (the set-up's warm-up pass), if there was one. Passing the
    ``result`` of an earlier slice continues it.
    """
    loop = PacketLoop(stack, oracle_packets)
    obi = stack.dp
    result = result or DataplaneResult()
    if warm_up:
        gc.collect()
        warm_digest = loop.run_pass().digest
        reference_digest = reference_digest or warm_digest
    before = _cache_counts(obi)
    offered_before = obi.packets_offered
    alerts_before = obi.alerts_sent
    records_before = obi.telemetry.records_sent
    deadline = time.monotonic() + seconds
    head_keys: list[tuple] = []
    passes: list[PassResult] = []
    minimum = 4 if rec is not None else 3
    while len(passes) < minimum or time.monotonic() < deadline:
        gc.collect()
        traced = rec is not None and len(passes) % 2 == 1
        outcome = loop.run_pass(rec if traced else None, keep_head=not head_keys)
        head_keys = head_keys or outcome.head_keys
        passes.append(outcome)
    after = _cache_counts(obi)
    packets = sum(p.packets for p in passes)
    result.passes += passes
    result.attempted += packets
    result.failed += sum(p.failed for p in passes)

    # Oracle 1: every pass over the same frames has the same effects.
    reference_digest = reference_digest or result.passes[0].digest
    for outcome in passes:
        if outcome.digest != reference_digest:
            result.failed += outcome.packets
            result.notes.append("pass digest differs from the first pass")
    # Oracle 2: the first packets equal a cache-less interpreter's.
    result.failed += _check_interpreter(stack, loop, head_keys, result.notes)
    # Oracle 3: the OBI counted every packet offered, and the controller's
    # folded telemetry accounts for exactly those packets and for the
    # alerts the OBI counted as sent.
    uncounted = abs(obi.packets_offered - offered_before - packets)
    if uncounted:
        result.notes.append(f"{uncounted} packets offered but not counted by the OBI")
    result.failed += uncounted + _check_telemetry(stack, result.notes)

    result.raw.update({key: after[key] - before[key] for key in after})
    result.raw.update({
        "packets": packets,
        "hops": sum(p.hops for p in passes),
        "alerts_raised": sum(p.alerts_raised for p in passes),
        "alerts_sent": obi.alerts_sent - alerts_before,
        "records": obi.telemetry.records_sent - records_before,
        "publishes": sum(len(p.publish_ns) for p in passes),
    })
    return result


def _check_interpreter(
    stack: Stack, loop: PacketLoop, head_keys: list[tuple], notes: list[str]
) -> int:
    graph = stack.dp.graph
    if graph is None:
        notes.append("no graph deployed on the data-plane OBI")
        return len(head_keys) or 1
    engine = build_engine(graph, flow_cache=None)
    mismatches, index = 0, 0
    for frames in loop.batches[:loop.head_batches]:
        for frame in frames:
            if index >= len(head_keys):
                break
            if engine.process(Packet(data=frame)).effects_key() != head_keys[index]:
                mismatches += 1
            index += 1
    if mismatches:
        notes.append(f"{mismatches} packets differ from the cache-less interpreter")
    return mismatches


def _check_telemetry(stack: Stack, notes: list[str]) -> int:
    obi = stack.dp
    snapshot = stack.controller.telemetry_snapshot(
        obi.config.obi_id, include_traces=False
    )
    if snapshot is None:
        notes.append("no telemetry snapshot for the data-plane OBI")
        return 1
    counters = snapshot.metrics.get("counters", {})

    def folded(name: str) -> int:
        return int(sum(
            value for key, value in counters.items()
            if key == name or key.startswith(name + "{")
        ))

    wrong = 0
    for name, expected in (
        ("obi_packets_offered_total", obi.packets_offered),
        ("obi_alerts_sent_total", obi.alerts_sent),
    ):
        seen = folded(name)
        if seen != expected:
            wrong += 1
            notes.append(f"telemetry {name}={seen}, OBI counted {expected}")
    return wrong


# ----------------------------------------------------------------------
# Control operations
# ----------------------------------------------------------------------
@dataclass
class Round:
    traced: bool
    deploy_ns: int
    converged: bool
    smallop_ns: list[int]
    smallop_failed: int
    pushes: int = 0
    pushes_unchanged: int = 0
    merges: int = 0
    #: Merges during the small operations (the design says none).
    merges_smallops: int = 0
    journal_fsyncs: int = 0
    journal_bytes: int = 0
    #: Replica timings taken after the round on the messages it sent.
    replica: dict[str, float] = field(default_factory=dict)


@dataclass
class ControlResult:
    rounds: list[Round] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def _of(self, traced: bool) -> list[Round]:
        return [r for r in self.rounds if r.traced == traced]

    def deploy_ms(self, traced: bool = False) -> float:
        """The fastest register-to-converged round."""
        return min((r.deploy_ns for r in self._of(traced)), default=0) / 1e6

    def round_rtt_ms(self) -> list[float]:
        """Each untraced round's median small-operation round trip."""
        return [
            statistics.median(r.smallop_ns) / 1e6
            for r in self._of(False) if r.smallop_ns
        ]

    def smallop_p99_ms(self) -> float:
        pool = sorted(ns for r in self._of(False) for ns in r.smallop_ns)
        return percentile(pool, 0.99) / 1e6

    def smallop_samples(self) -> int:
        return sum(len(r.smallop_ns) for r in self._of(False))


def _replica(
    messages: list[SetProcessingGraphRequest], small: list[tuple[Any, Any]]
) -> dict[str, float]:
    """Time, on the round's own messages, the module-level functions no
    instance rebinding can reach: digest, codec and ``build_engine``.

    One measurement per distinct graph, multiplied by how often it was
    pushed; ``small`` holds (request, response) pairs of small operations.
    These are replicas run *after* the round, not spans; the ledger
    subtracts them from the self time of the span they ran in.
    """
    totals = {"digest_ms": 0.0, "encode_ms": 0.0, "decode_ms": 0.0,
              "build_ms": 0.0, "bytes": 0.0, "smallop_codec_us": 0.0}
    start = _now()
    for pair in small:
        for message in pair:
            decode_message(encode_message(message))
    if small:
        totals["smallop_codec_us"] = (_now() - start) / 1e3 / len(small)
    by_digest: dict[str, tuple[SetProcessingGraphRequest, int]] = {}
    for message in messages:
        known = by_digest.get(message.graph_digest)
        by_digest[message.graph_digest] = (message, (known[1] if known else 0) + 1)
    for message, count in by_digest.values():
        start = _now()
        canonical_graph_digest(message.graph)
        digest = _now() - start
        start = _now()
        payload = encode_message(message)
        encode = _now() - start
        start = _now()
        decode_message(payload)
        decode = _now() - start
        graph = ProcessingGraph.from_dict(message.graph)
        start = _now()
        build_engine(graph)
        build = _now() - start
        # The controller digests what it sends and the OBI what it got.
        totals["digest_ms"] += 2 * count * digest / 1e6
        totals["encode_ms"] += count * encode / 1e6
        totals["decode_ms"] += count * decode / 1e6
        totals["build_ms"] += count * build / 1e6
        totals["bytes"] += count * len(payload)
    return totals


class _Tally:
    """Counts a traced round's pushes and journal bytes where the work
    happens — at the channel, at the journal — and keeps the messages for
    the replica timings."""

    def __init__(self) -> None:
        self.pushed: list[SetProcessingGraphRequest] = []
        self.small: list[tuple[Any, Any]] = []
        self.unchanged = 0
        self.journal_bytes = 0

    def install(self, stack: Stack, rec: Recorder) -> None:
        controller = stack.controller
        for obi in stack.obis:
            handle = controller.obis[obi.config.obi_id]
            rec.rebind(
                handle.channel, "request",
                functools.partial(self._request, handle, handle.channel.request),
            )
        if controller.journal is not None:
            rec.rebind(
                controller.journal, "append",
                functools.partial(self._append, controller.journal.append),
            )

    def _request(self, handle: Any, request: Any, message: Any, *args: Any, **kw: Any) -> Any:
        if isinstance(message, SetProcessingGraphRequest):
            self.pushed.append(message)
            self.unchanged += message.graph_digest == handle.reported_digest
            return request(message, *args, **kw)
        response = request(message, *args, **kw)
        if len(self.small) < 64:
            self.small.append((message, response))
        return response

    def _append(self, append: Any, record: dict) -> None:
        # The file shrinks when the journal compacts itself, so bytes are
        # counted as they are appended, not read off the file.
        self.journal_bytes += len(json.dumps(record, separators=(",", ":"))) + 1
        append(record)


def run_round(stack: Stack, index: int, smallops: int, rec: Recorder | None) -> Round:
    """One round: untimed reset, timed register-to-converged, small ops."""
    controller = stack.controller
    journal = controller.journal
    app = stack.deploy_app(index)
    if app.name in controller.applications:
        controller.unregister_application(app.name)
    gc.collect()
    tally = _Tally()
    if rec is not None:
        instrument_control(stack, rec)
        tally.install(stack, rec)
    merges_before = rec.count("core.merge") if rec is not None else 0
    fsyncs_before = journal.fsyncs if journal is not None else 0

    def deploy() -> bool:
        controller.register_application(app)
        return stack.converged()

    try:
        elapsed, converged = _timed(rec, "controller.obc.deploy", deploy)
        result = Round(
            traced=rec is not None, deploy_ns=elapsed, converged=converged is True,
            smallop_ns=[], smallop_failed=0,
            pushes=len(tally.pushed), pushes_unchanged=tally.unchanged,
            merges=(rec.count("core.merge") - merges_before) if rec else 0,
            journal_fsyncs=(journal.fsyncs - fsyncs_before) if journal else 0,
            journal_bytes=tally.journal_bytes,
        )
        block = f"{stack.base_app.name}_read"
        for _sweep in range(max(1, smallops // (3 * len(stack.obis)))):
            for obi in stack.obis:
                obi_id = obi.config.obi_id
                for op in (
                    lambda: controller.poll_stats(obi_id) is not None,
                    lambda: obi.send_keepalive() is None,
                    lambda: controller.app_read(
                        stack.base_app, obi_id, block, "count"
                    ).ok,
                ):
                    elapsed, ok = _timed(rec, "bench.driver.smallop", op)
                    result.smallop_ns.append(elapsed)
                    result.smallop_failed += ok is not True
        if rec is not None:
            result.merges_smallops = (
                rec.count("core.merge") - merges_before - result.merges
            )
    finally:
        if rec is not None:
            rec.uninstall()
    if rec is not None:
        result.replica = _replica(tally.pushed, tally.small)
    return result


def run_control(
    stack: Stack,
    seconds: float,
    smallops: int,
    rec: Recorder | None,
    result: ControlResult | None = None,
) -> ControlResult:
    """Deploy rounds for ``seconds`` (at least three untraced). Passing
    the ``result`` of an earlier slice continues it."""
    result = result or ControlResult()
    first = len(result.rounds)
    deadline = time.monotonic() + seconds
    minimum = 4 if rec is not None else 3
    while len(result.rounds) - first < minimum or time.monotonic() < deadline:
        index = len(result.rounds)
        traced = rec is not None and index % 2 == 1
        result.rounds.append(
            run_round(stack, index, smallops, rec if traced else None)
        )
    for outcome in result.rounds[first:]:
        result.attempted += 1 + len(outcome.smallop_ns)
        result.failed += (not outcome.converged) + outcome.smallop_failed
        if not outcome.converged:
            result.notes.append("a deploy round did not converge on every OBI")
    result.failed += _check_journal(stack, result.notes)
    return result


def _check_journal(stack: Stack, notes: list[str]) -> int:
    """At exit, replaying the journal must reproduce live intent."""
    controller = stack.controller
    if controller.journal is None:
        return 0
    controller.journal.flush()
    replayed = StateJournal.replay(controller.journal.path).state
    live_apps = {
        name: {"priority": app.priority}
        for name, app in controller.applications.items()
    }
    live_digests = {
        obi_id: handle.intended_digest for obi_id, handle in controller.obis.items()
    }
    replayed_digests = {
        obi_id: entry.get("digest", "") for obi_id, entry in replayed.obis.items()
    }
    wrong = 0
    if replayed.apps != live_apps:
        wrong += 1
        notes.append("journal replay disagrees with live applications")
    if replayed_digests != live_digests:
        wrong += 1
        notes.append("journal replay disagrees with live intended digests")
    if replayed.generation != controller.generation:
        wrong += 1
        notes.append("journal replay disagrees with the live generation")
    return wrong
