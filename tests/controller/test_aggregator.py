"""Graph aggregation tests."""

import pytest

from repro.controller.aggregator import GraphAggregator, SweepApplications
from repro.controller.apps import AppStatement, FunctionApplication
from repro.controller.segments import SegmentHierarchy
from tests.conftest import build_firewall_graph, build_ips_graph


def _app(name, graph, segment="", priority=100, mergeable=True, obi_id=None):
    return FunctionApplication(
        name, lambda: [AppStatement(graph=graph, segment=segment, obi_id=obi_id)],
        priority=priority, mergeable=mergeable,
    )


def _selected(aggregator, apps, obi_id, segment):
    """Names of the applications whose statements apply, in chain order."""
    swept = SweepApplications(apps)
    return [
        swept.statements[index][0].name
        for index in swept.applicable(obi_id, segment, aggregator.hierarchy)
    ]


@pytest.fixture
def aggregator():
    hierarchy = SegmentHierarchy()
    hierarchy.add("corp/eng")
    hierarchy.add("corp/sales")
    return GraphAggregator(hierarchy)


class TestSelection:
    def test_segment_scoping(self, aggregator):
        apps = [
            _app("eng-fw", build_firewall_graph("engfw"), segment="corp/eng"),
            _app("sales-fw", build_firewall_graph("salesfw"), segment="corp/sales"),
            _app("corp-ips", build_ips_graph("corpips"), segment="corp"),
        ]
        assert _selected(aggregator, apps, "obi-1", "corp/eng") == [
            "corp-ips", "eng-fw"
        ]

    def test_obi_pinning(self, aggregator):
        apps = [
            _app("pinned", build_firewall_graph("p"), obi_id="obi-7"),
        ]
        assert _selected(aggregator, apps, "obi-7", "anywhere")
        assert not _selected(aggregator, apps, "obi-8", "anywhere")

    def test_priority_orders_chain(self, aggregator):
        apps = [
            _app("second", build_ips_graph("i"), priority=20),
            _app("first", build_firewall_graph("f"), priority=10),
        ]
        assert _selected(aggregator, apps, "o", "corp") == ["first", "second"]

    def test_priority_tie_breaks_by_name(self, aggregator):
        apps = [
            _app("zeta", build_firewall_graph("z"), priority=10),
            _app("alpha", build_firewall_graph("a"), priority=10),
        ]
        assert _selected(aggregator, apps, "o", "") == ["alpha", "zeta"]


class TestAggregation:
    def test_nothing_applicable_returns_none(self, aggregator):
        apps = [_app("x", build_firewall_graph("x"), segment="corp/eng")]
        assert aggregator.aggregate(apps, "o", "corp/sales") is None

    def test_mergeable_apps_fully_merge(self, aggregator):
        apps = [
            _app("fw", build_firewall_graph("f"), priority=1),
            _app("ips", build_ips_graph("i"), priority=2),
        ]
        result = aggregator.aggregate(apps, "o", "corp")
        assert result is not None
        hc = [b for b in result.graph.blocks.values() if b.type == "HeaderClassifier"]
        assert len(hc) == 1
        assert result.app_names == ["fw", "ips"]
        assert not result.used_naive

    def test_non_mergeable_app_chained_naively(self, aggregator):
        """Apps marked volatile (paper §3.4) keep their own classifiers."""
        apps = [
            _app("fw", build_firewall_graph("f"), priority=1),
            _app("volatile", build_firewall_graph("v"), priority=2, mergeable=False),
        ]
        result = aggregator.aggregate(apps, "o", "corp")
        hc = [b for b in result.graph.blocks.values() if b.type == "HeaderClassifier"]
        assert len(hc) == 2

    def test_mergeable_runs_around_volatile_app(self, aggregator):
        apps = [
            _app("a", build_firewall_graph("a"), priority=1),
            _app("v", build_firewall_graph("v"), priority=2, mergeable=False),
            _app("b", build_firewall_graph("b"), priority=3),
            _app("c", build_firewall_graph("c"), priority=4),
        ]
        result = aggregator.aggregate(apps, "o", "corp")
        # b and c merge together; a and v stay separate: 3 classifiers.
        hc = [b for b in result.graph.blocks.values() if b.type == "HeaderClassifier"]
        assert len(hc) == 3

    def test_deployed_graph_is_copy(self, aggregator):
        graph = build_firewall_graph("f")
        apps = [_app("fw", graph)]
        result = aggregator.aggregate(apps, "o", "")
        result.graph.remove_block(next(iter(result.graph.blocks)))
        assert len(graph.blocks) == 5  # original untouched

