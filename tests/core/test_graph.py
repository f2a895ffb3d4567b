"""ProcessingGraph structure, validation, and metrics tests."""

import json

import pytest

from repro.core.blocks import Block
from repro.core.classify.header import HeaderRuleSet, json_default
from repro.core.classify.rules import HeaderRule, PortRange, Prefix
from repro.core.graph import (
    Connector,
    GraphValidationError,
    ProcessingGraph,
    canonical_graph_digest,
)
from tests.conftest import build_firewall_graph


def _linear_graph():
    graph = ProcessingGraph("linear")
    read = Block("FromDevice", name="r", config={"devname": "in"})
    counter = Block("Counter", name="c")
    out = Block("ToDevice", name="o", config={"devname": "out"})
    graph.chain(read, counter, out)
    return graph


class TestConstruction:
    def test_chain_builds_line(self):
        graph = _linear_graph()
        assert graph.successors("r") == ["c"]
        assert graph.successors("c") == ["o"]
        assert graph.diameter() == 3

    def test_duplicate_block_rejected(self):
        graph = ProcessingGraph()
        graph.add_block(Block("Counter", name="x"))
        with pytest.raises(GraphValidationError):
            graph.add_block(Block("Counter", name="x"))

    def test_connect_unknown_block_rejected(self):
        graph = ProcessingGraph()
        graph.add_block(Block("Counter", name="x"))
        with pytest.raises(GraphValidationError):
            graph.connect("x", "ghost")

    def test_remove_block_drops_connectors(self):
        graph = _linear_graph()
        graph.remove_block("c")
        assert graph.connectors == []
        assert "c" not in graph.blocks

    def test_remove_connector(self):
        graph = _linear_graph()
        connector = graph.out_connectors("r")[0]
        graph.remove_connector(connector)
        assert graph.successors("r") == []


class TestTopology:
    def test_roots_and_leaves(self, firewall_graph):
        assert firewall_graph.roots() == ["fw_read"]
        assert set(firewall_graph.leaves()) == {"fw_drop", "fw_out"}

    def test_entry_point_single(self, firewall_graph):
        assert firewall_graph.entry_point() == "fw_read"

    def test_entry_point_rejects_multiple_roots(self):
        graph = ProcessingGraph()
        graph.add_block(Block("FromDevice", name="a", config={"devname": "x"}))
        graph.add_block(Block("FromDevice", name="b", config={"devname": "y"}))
        with pytest.raises(GraphValidationError):
            graph.entry_point()

    def test_topological_order(self, firewall_graph):
        order = firewall_graph.topological_order()
        assert order.index("fw_read") < order.index("fw_hc")
        assert order.index("fw_hc") < order.index("fw_alert")
        assert order.index("fw_alert") < order.index("fw_out")

    def test_cycle_detected(self):
        graph = ProcessingGraph()
        a = Block("Counter", name="a")
        b = Block("Counter", name="b")
        graph.add_blocks([a, b])
        graph.connect(a, b)
        graph.connect(b, a)
        with pytest.raises(GraphValidationError):
            graph.topological_order()

    def test_successor_on_port(self, firewall_graph):
        assert firewall_graph.successor_on_port("fw_hc", 0) == "fw_drop"
        assert firewall_graph.successor_on_port("fw_hc", 1) == "fw_alert"
        assert firewall_graph.successor_on_port("fw_hc", 9) is None

    def test_iter_paths(self, firewall_graph):
        paths = sorted(tuple(p) for p in firewall_graph.iter_paths())
        assert ("fw_read", "fw_hc", "fw_drop") in paths
        assert ("fw_read", "fw_hc", "fw_alert", "fw_out") in paths
        assert ("fw_read", "fw_hc", "fw_out") in paths

    def test_diameter_counts_blocks(self, firewall_graph):
        assert firewall_graph.diameter() == 4  # read, hc, alert, out

    def test_is_tree(self, firewall_graph):
        # fw_out has two in-edges -> not a tree.
        assert not firewall_graph.is_tree()
        assert _linear_graph().is_tree()


class TestValidation:
    def test_valid_graph_passes(self, firewall_graph):
        firewall_graph.validate()

    def test_port_out_of_range_rejected(self):
        graph = _linear_graph()
        graph._add_connector(Connector(src="c", src_port=5, dst="o"))
        with pytest.raises(GraphValidationError):
            graph.validate()

    def test_duplicate_port_rejected(self):
        graph = ProcessingGraph()
        read = Block("FromDevice", name="r", config={"devname": "in"})
        a = Block("Counter", name="a")
        b = Block("Counter", name="b")
        graph.add_blocks([read, a, b])
        graph.connect(read, a, 0)
        graph.connect(read, b, 0)
        with pytest.raises(GraphValidationError):
            graph.validate()

    def test_sink_with_output_rejected(self):
        graph = ProcessingGraph()
        drop = Block("Discard", name="d")
        counter = Block("Counter", name="c")
        graph.add_blocks([drop, counter])
        graph.connect(drop, counter)
        with pytest.raises(GraphValidationError):
            graph.validate()


class TestCopyAndSerialize:
    def test_copy_preserves_structure(self, firewall_graph):
        copy = firewall_graph.copy()
        assert set(copy.blocks) == set(firewall_graph.blocks)
        assert len(copy.connectors) == len(firewall_graph.connectors)
        # Mutating the copy leaves the original intact.
        copy.remove_block("fw_alert")
        assert "fw_alert" in firewall_graph.blocks

    def test_copy_with_rename(self, firewall_graph):
        renamed = firewall_graph.copy(rename=True)
        assert set(renamed.blocks).isdisjoint(set(firewall_graph.blocks))
        assert renamed.diameter() == firewall_graph.diameter()

    def test_dict_roundtrip(self, firewall_graph):
        again = ProcessingGraph.from_dict(firewall_graph.to_dict())
        assert set(again.blocks) == set(firewall_graph.blocks)
        assert again.diameter() == firewall_graph.diameter()
        again.validate()

    def test_digest_of_rule_values_equals_digest_of_rule_dicts(self, firewall_graph):
        """The same graph built from rule dicts (the fixture) and from rule
        values digests alike, and so does its exported dict form."""
        from_values = firewall_graph.copy()
        from_values.blocks["fw_hc"].config["rules"] = HeaderRuleSet((
            HeaderRule(src=Prefix.parse("10.0.0.0/8"),
                       dst_port=PortRange.exact(23), port=0),
            HeaderRule(dst_port=PortRange.exact(22), port=1),
        ), default_port=2)
        exported = json.loads(json.dumps(firewall_graph.to_dict(), default=json_default))
        assert isinstance(exported["blocks"][1]["config"]["rules"][0], dict)
        assert (
            from_values.digest() == firewall_graph.digest()
            == canonical_graph_digest(exported)
        )

    def test_classifiers_listing(self, firewall_graph):
        assert [b.name for b in firewall_graph.classifiers()] == ["fw_hc"]


def test_fixture_graphs_are_figures_2a_2b(firewall_graph, ips_graph):
    """Sanity-pin the canonical fixtures to the paper's figures."""
    assert firewall_graph.diameter() == 4
    assert ips_graph.diameter() == 5
    ips_graph.validate()
