"""TelemetryBus: folding, dedup, watches, filters, callbacks."""

from repro.protocol.messages import TelemetryStream
from repro.telemetry.bus import TelemetryBus, TopicFilter, _record_apps
from repro.telemetry.records import (
    alert_record,
    baseline_record,
    metrics_delta_record,
    trace_record,
)


def _seq(record, seq):
    record["seq"] = seq
    return record


def _stream(records, obi_id="o1", lost=0, through=None):
    through = through if through is not None else max(
        (r["seq"] for r in records), default=0
    )
    return TelemetryStream(obi_id=obi_id, subscriber="controller",
                           records=records, lost=lost, through_seq=through)


def _baseline(seq=1, counters=None, graph_version=1):
    record = baseline_record(
        {"counters": counters or {"c": 1}, "gauges": {}, "histograms": {}},
        graph_version,
    )
    record["meta"] = {"graph_version": graph_version}
    return _seq(record, seq)


class TestFolding:
    def test_baseline_then_delta_folds_to_absolute_values(self):
        bus = TelemetryBus()
        bus.apply_stream(_stream([_baseline(1, {"c": 1})]))
        delta = metrics_delta_record(
            {"counters": {"c": 1}}, {"counters": {"c": 5}}
        )
        bus.apply_stream(_stream([_seq(delta, 2)]))
        state = bus.state("o1")
        assert state["metrics"]["counters"] == {"c": 5}
        assert state["last_seq"] == 2
        assert bus.records_folded == 2

    def test_duplicate_seqs_counted_not_refolded(self):
        bus = TelemetryBus()
        alert = _seq(alert_record({"origin_app": "fw", "message": "m"}), 2)
        bus.apply_stream(_stream([_baseline(1), alert]))
        bus.apply_stream(_stream([alert]))  # at-least-once redelivery
        state = bus.state("o1")
        assert len(state["alerts"]) == 1
        assert state["duplicates"] == 1
        assert bus.duplicates == 1

    def test_through_seq_advances_past_filtered_records(self):
        bus = TelemetryBus()
        bus.apply_stream(_stream([_baseline(1)], through=4))
        assert bus.last_seq("o1") == 4

    def test_lost_is_accounted(self):
        bus = TelemetryBus()
        bus.apply_stream(_stream([_baseline(5)], lost=3))
        assert bus.state("o1")["lost_total"] == 3
        assert bus.lost_total == 3

    def test_trace_retention_bounded(self):
        bus = TelemetryBus(keep_traces=2)
        records = [
            _seq(trace_record({"seq": i, "spans": []}), i) for i in range(1, 5)
        ]
        bus.apply_stream(_stream(records))
        traces = bus.state("o1")["traces"]
        assert [t["seq"] for t in traces] == [3, 4]

    def test_reset_to_zero_discards_state(self):
        bus = TelemetryBus()
        bus.apply_stream(_stream([_baseline(1, {"c": 9})]))
        bus.reset("o1")
        assert bus.last_seq("o1") == 0
        assert bus.state("o1")["metrics"]["counters"] == {}

    def test_reset_to_cursor_rewinds_watermark_only(self):
        bus = TelemetryBus()
        bus.apply_stream(_stream([_baseline(1, {"c": 9}), _seq(
            metrics_delta_record({}, {"counters": {"c": 10}}), 2)]))
        bus.reset("o1", cursor=1)
        assert bus.last_seq("o1") == 1
        assert bus.state("o1")["metrics"]["counters"] == {"c": 10}

    def test_snapshot_response_from_folded_state(self):
        bus = TelemetryBus()
        records = [
            _baseline(1, {"c": 3}),
            _seq(trace_record({"seq": 1, "spans": []}), 2),
        ]
        stream = _stream(records)
        stream.records[0]["meta"] = {
            "graph_version": 7, "packets_seen": 100,
            "packets_sampled": 4, "sample_rate": 0.04,
        }
        bus.apply_stream(stream)
        response = bus.snapshot_response("o1")
        assert response.graph_version == 7
        assert response.metrics["counters"] == {"c": 3}
        assert response.packets_seen == 100
        assert response.sample_rate == 0.04
        assert len(response.traces) == 1
        assert bus.snapshot_response("nobody") is None


class TestTopicFilter:
    def test_topic_scoping(self):
        event = {"obi_id": "o", "segment": "", "topic": "alerts",
                 "record": alert_record({"origin_app": "fw"})}
        assert TopicFilter(topics=["alerts"]).matches(event)
        assert not TopicFilter(topics=["metrics"]).matches(event)

    def test_obi_scoping(self):
        event = {"obi_id": "o2", "segment": "", "topic": "metrics",
                 "record": {"kind": "metrics"}}
        assert TopicFilter(obi_ids=["o2"]).matches(event)
        assert not TopicFilter(obi_ids=["o1"]).matches(event)

    def test_segment_subtree_matching(self):
        def event(segment):
            return {"obi_id": "o", "segment": segment, "topic": "metrics",
                    "record": {"kind": "metrics"}}
        scoped = TopicFilter(segments=["core/east"])
        assert scoped.matches(event("core/east"))
        assert scoped.matches(event("core/east/leaf1"))
        assert not scoped.matches(event("core/eastern"))
        assert not scoped.matches(event("core"))

    def test_app_filter_matches_alerts_and_traces_only(self):
        wanted = TopicFilter(apps=["fw"])
        alert = {"obi_id": "o", "segment": "", "topic": "alerts",
                 "record": alert_record({"origin_app": "fw"})}
        trace = {"obi_id": "o", "segment": "", "topic": "traces",
                 "record": trace_record(
                     {"spans": [{"origin_app": "fw"}, {"origin_app": "ips"}]})}
        metrics = {"obi_id": "o", "segment": "", "topic": "metrics",
                   "record": {"kind": "metrics", "counters": {}}}
        assert wanted.matches(alert)
        assert wanted.matches(trace)
        assert not wanted.matches(metrics)  # no app attribution
        assert not TopicFilter(apps=["dpi"]).matches(alert)

    def test_record_apps_extraction(self):
        assert _record_apps(alert_record({"origin_app": "fw"})) == {"fw"}
        assert _record_apps(trace_record(
            {"spans": [{"origin_app": "a"}, {}]})) == {"a"}
        assert _record_apps({"kind": "baseline"}) == set()


class TestWatch:
    def test_watch_receives_matching_events(self):
        bus = TelemetryBus()
        watch = bus.watch(topics=["alerts"])
        bus.apply_stream(_stream([
            _baseline(1),
            _seq(alert_record({"origin_app": "fw", "message": "hit"}), 2),
        ]), segment="corp")
        events = watch.take()
        assert len(events) == 1
        assert events[0]["topic"] == "alerts"
        assert events[0]["segment"] == "corp"
        assert events[0]["seq"] == 2

    def test_overflow_sheds_new_events_and_counts(self):
        bus = TelemetryBus()
        watch = bus.watch(max_pending=2)
        records = [_baseline(1)] + [
            _seq(alert_record({"origin_app": "fw"}), i) for i in range(2, 6)
        ]
        bus.apply_stream(_stream(records))
        assert len(watch) == 2
        assert watch.dropped == 3
        # Retained history is the contiguous oldest prefix.
        assert [e["seq"] for e in watch] == [1, 2]

    def test_take_limit_and_iteration_drain(self):
        bus = TelemetryBus()
        watch = bus.watch()
        bus.apply_stream(_stream([
            _baseline(1), _seq(alert_record({"origin_app": "a"}), 2),
        ]))
        assert len(watch.take(1)) == 1
        assert [e["seq"] for e in watch] == [2]
        assert len(watch) == 0

    def test_closed_watch_detached(self):
        bus = TelemetryBus()
        watch = bus.watch()
        watch.close()
        bus.apply_stream(_stream([_baseline(1)]))
        assert len(watch) == 0

    def test_callback_subscribe_and_unsubscribe(self):
        bus = TelemetryBus()
        seen = []
        unsubscribe = bus.subscribe(seen.append, obi_ids=["o1"])
        bus.apply_stream(_stream([_baseline(1)]))
        bus.apply_stream(_stream([_baseline(1)], obi_id="other"))
        assert [e["obi_id"] for e in seen] == ["o1"]
        unsubscribe()
        bus.apply_stream(_stream([
            _seq(alert_record({"origin_app": "x"}), 2)]))
        assert len(seen) == 1
