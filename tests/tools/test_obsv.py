"""``repro.tools.obsv``: dump, diff, trace and the Prometheus exporter."""

import json

import pytest

from repro.observability.metrics import render_prometheus
from repro.tools.obsv import main

SNAPSHOT = {
    "counters": {
        "engine_packets_total": 42,
        "alerts{app=fw}": 3,
    },
    "gauges": {"obi_graph_version": 2.0},
    "histograms": {
        "dispatch_seconds": {
            "boundaries": [0.001, 0.01],
            "counts": [5, 2, 1],
            "count": 8,
            "sum": 0.25,
        },
    },
}


@pytest.fixture(scope="module")
def dumps(tmp_path_factory):
    """Two demo dumps: 40 packets all traced, then 80 packets untraced."""
    root = tmp_path_factory.mktemp("obsv")
    small, large = root / "small.json", root / "large.json"
    assert main(["dump", "--packets", "40", "--trace-sample", "1.0",
                 "--max-traces", "2", "--output", str(small)]) == 0
    assert main(["dump", "--packets", "80", "--trace-sample", "0",
                 "--output", str(large)]) == 0
    return small, large


class TestDump:
    def test_writes_a_snapshot_response(self, dumps):
        snapshot = json.loads(dumps[0].read_text())
        assert snapshot["obi_id"] == "obi-1"
        assert snapshot["metrics"]["counters"]["engine_packets_total"] == 40
        assert len(snapshot["traces"]) == 2

    def test_stdout_without_output(self, capsys):
        assert main(["dump", "--packets", "5", "--trace-sample", "0"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["metrics"]["counters"]["engine_packets_total"] == 5


class TestDiff:
    def test_counter_deltas(self, dumps, capsys):
        assert main(["diff", str(dumps[0]), str(dumps[1])]) == 0
        out = capsys.readouterr().out
        assert "counter    engine_packets_total  +40" in out

    def test_identical_dumps_have_no_changes(self, dumps, capsys):
        assert main(["diff", str(dumps[0]), str(dumps[0])]) == 0
        assert capsys.readouterr().out == "no changes\n"


class TestTrace:
    def test_renders_span_trees_tagged_by_app(self, dumps, capsys):
        assert main(["trace", str(dumps[0]), "--limit", "1",
                     "--app", "fw"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("packet pkt#")
        assert any("[fw]" in line for line in lines[1:])

    def test_no_traces_is_an_error(self, dumps, capsys):
        assert main(["trace", str(dumps[1])]) == 1
        assert "no traces" in capsys.readouterr().out


class TestPrometheusRendering:
    def test_counters_and_gauges_are_single_samples(self):
        text = render_prometheus(SNAPSHOT)
        assert "engine_packets_total 42" in text
        assert "obi_graph_version 2" in text

    def test_registry_labels_become_prometheus_labels(self):
        text = render_prometheus(SNAPSHOT)
        assert 'alerts{app="fw"} 3' in text

    def test_histogram_expands_to_cumulative_buckets(self):
        lines = render_prometheus(SNAPSHOT).splitlines()
        buckets = [l for l in lines if l.startswith("dispatch_seconds_bucket")]
        assert buckets == [
            'dispatch_seconds_bucket{le="0.001"} 5',
            'dispatch_seconds_bucket{le="0.01"} 7',
            'dispatch_seconds_bucket{le="+Inf"} 8',
        ]
        assert "dispatch_seconds_count 8" in lines
        assert "dispatch_seconds_sum 0.25" in lines

    def test_type_headers_emitted_once_per_family(self):
        text = render_prometheus(SNAPSHOT)
        assert text.count("# TYPE engine_packets_total counter") == 1
        assert "# TYPE obi_graph_version gauge" in text
        assert "# TYPE dispatch_seconds histogram" in text

    def test_empty_sections_render_cleanly(self):
        assert render_prometheus({}) == "\n"


class TestProm:
    def test_input_mode_accepts_obsv_dump_shape(self, tmp_path, capsys):
        dump = tmp_path / "snap.json"
        dump.write_text(json.dumps({"obi_id": "o1", "metrics": SNAPSHOT}))
        assert main(["prom", "--input", str(dump)]) == 0
        out = capsys.readouterr().out
        assert "engine_packets_total 42" in out

    def test_output_file(self, tmp_path, capsys):
        dump = tmp_path / "snap.json"
        dump.write_text(json.dumps(SNAPSHOT))
        target = tmp_path / "metrics.prom"
        assert main(["prom", "-i", str(dump), "-o", str(target)]) == 0
        assert "engine_packets_total 42" in target.read_text()
        assert "wrote" in capsys.readouterr().out

    def test_demo_mode_exports_live_topology(self, capsys):
        assert main(["prom", "--demo", "--packets", "50"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE engine_packets_total counter" in out
        assert "engine_packets_total 50" in out

    def test_requires_a_source(self):
        with pytest.raises(SystemExit):
            main(["prom"])
