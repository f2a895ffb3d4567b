"""Control-level graph optimizer tests (paper §6)."""

import pytest

from repro.controller.optimizer import optimize_graph
from repro.core.blocks import Block
from repro.core.graph import ProcessingGraph
from repro.net.builder import make_tcp_packet
from repro.obi.translation import build_engine


def _line(*mid_blocks):
    graph = ProcessingGraph("g")
    read = Block("FromDevice", name="read", config={"devname": "in"})
    out = Block("ToDevice", name="out", config={"devname": "out"})
    chain = [read, *mid_blocks, out]
    graph.add_blocks(chain)
    for src, dst in zip(chain, chain[1:]):
        graph.connect(src, dst, 0)
    graph.validate()
    return graph


class TestNoopElision:
    @pytest.mark.parametrize("block", [
        Block("SetMetadata", name="m", config={"values": {}}),
        Block("HeaderPayloadRewriter", name="p", config={"substitutions": []}),
        Block("DelayShaper", name="d", config={"delay": 0.0}),
        Block("NetworkHeaderFieldRewriter", name="w", config={"fields": {}}),
    ], ids=lambda b: b.type)
    def test_noop_removed(self, block):
        graph = _line(block)
        report = optimize_graph(graph)
        assert report.noop_blocks_removed == 1
        assert block.name not in graph.blocks
        assert graph.successors("read") == ["out"]

    def test_meaningful_blocks_kept(self):
        block = Block("SetMetadata", name="m", config={"values": {"k": 1}})
        graph = _line(block)
        report = optimize_graph(graph)
        assert report.noop_blocks_removed == 0
        assert "m" in graph.blocks

    def test_chain_of_noops_fully_elided(self):
        graph = _line(
            Block("SetMetadata", name="m1", config={"values": {}}),
            Block("DelayShaper", name="d1", config={"delay": 0}),
            Block("SetMetadata", name="m2", config={"values": {}}),
        )
        report = optimize_graph(graph)
        assert report.noop_blocks_removed == 3
        assert graph.successors("read") == ["out"]


class TestTrivialClassifier:
    def test_ruleless_classifier_elided(self):
        graph = ProcessingGraph("g")
        read = Block("FromDevice", name="read", config={"devname": "in"})
        classify = Block("HeaderClassifier", name="hc",
                         config={"rules": [], "default_port": 0})
        out = Block("ToDevice", name="out", config={"devname": "out"})
        graph.add_blocks([read, classify, out])
        graph.connect(read, classify)
        graph.connect(classify, out, 0)
        report = optimize_graph(graph)
        assert report.trivial_classifiers_removed == 1
        assert graph.successors("read") == ["out"]

    def test_classifier_with_rules_kept(self):
        graph = ProcessingGraph("g")
        read = Block("FromDevice", name="read", config={"devname": "in"})
        classify = Block("HeaderClassifier", name="hc",
                         config={"rules": [{"dst_port": 80, "port": 1}],
                                 "default_port": 0})
        out = Block("ToDevice", name="out", config={"devname": "out"})
        drop = Block("Discard", name="drop")
        graph.add_blocks([read, classify, out, drop])
        graph.connect(read, classify)
        graph.connect(classify, out, 0)
        graph.connect(classify, drop, 1)
        report = optimize_graph(graph)
        assert report.trivial_classifiers_removed == 0
        assert "hc" in graph.blocks


class TestRulePruning:
    def test_shadowed_rules_pruned(self):
        graph = ProcessingGraph("g")
        read = Block("FromDevice", name="read", config={"devname": "in"})
        classify = Block("HeaderClassifier", name="hc", config={
            "rules": [
                {"src_ip": "10.0.0.0/8", "port": 1},
                {"src_ip": "10.1.0.0/16", "port": 1},   # shadowed
                {"src_ip": "10.0.0.0/8", "port": 1},    # duplicate
            ],
            "default_port": 0,
        })
        out = Block("ToDevice", name="out", config={"devname": "out"})
        drop = Block("Discard", name="drop")
        graph.add_blocks([read, classify, out, drop])
        graph.connect(read, classify)
        graph.connect(classify, out, 0)
        graph.connect(classify, drop, 1)
        report = optimize_graph(graph)
        assert report.rules_pruned == 2
        assert len(graph.blocks["hc"].config["rules"]) == 1


class TestDeadPruning:
    def test_dead_port_subtree_removed(self):
        graph = ProcessingGraph("g")
        read = Block("FromDevice", name="read", config={"devname": "in"})
        classify = Block("HeaderClassifier", name="hc", config={
            "rules": [{"dst_port": 80, "port": 1}], "default_port": 0,
        })
        out = Block("ToDevice", name="out", config={"devname": "out"})
        drop = Block("Discard", name="drop")
        dead = Block("Alert", name="dead_alert", config={"message": "never"})
        dead_out = Block("ToDevice", name="dead_out", config={"devname": "x"})
        graph.add_blocks([read, classify, out, drop, dead, dead_out])
        graph.connect(read, classify)
        graph.connect(classify, out, 0)
        graph.connect(classify, drop, 1)
        # Wire a port no rule maps to: nothing can ever reach it.
        graph.connect(classify, dead, 2)
        graph.connect(dead, dead_out, 0)
        report = optimize_graph(graph)
        assert report.dead_blocks_removed == 2
        assert "dead_alert" not in graph.blocks
        assert "dead_out" not in graph.blocks

    def test_optimizer_preserves_semantics(self):
        graph = ProcessingGraph("g")
        read = Block("FromDevice", name="read", config={"devname": "in"})
        noop = Block("SetMetadata", name="noop", config={"values": {}})
        classify = Block("HeaderClassifier", name="hc", config={
            "rules": [
                {"dst_port": 22, "port": 1},
                {"dst_port": 22, "port": 0},  # shadowed
            ],
            "default_port": 0,
        })
        out = Block("ToDevice", name="out", config={"devname": "out"})
        drop = Block("Discard", name="drop")
        graph.add_blocks([read, noop, classify, out, drop])
        graph.connect(read, noop)
        graph.connect(noop, classify)
        graph.connect(classify, out, 0)
        graph.connect(classify, drop, 1)

        packets = [
            make_tcp_packet("1.1.1.1", "2.2.2.2", 5, 22),
            make_tcp_packet("1.1.1.1", "2.2.2.2", 5, 80),
        ]
        before_engine = build_engine(graph.copy(rename=True))
        before = [before_engine.process(p.clone()).effects_key() for p in packets]

        report = optimize_graph(graph)
        assert report.total_changes > 0
        after_engine = build_engine(graph.copy(rename=True))
        after = [after_engine.process(p.clone()).effects_key() for p in packets]
        assert before == after
