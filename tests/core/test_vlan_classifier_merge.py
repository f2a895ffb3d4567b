"""VlanClassifier is the second mergeable classifier type (paper §2.2.1:
"classifier blocks of the same type can support merging")."""

from repro.core.blocks import Block
from repro.core.classify.header import HeaderRuleSet
from repro.core.graph import ProcessingGraph
from repro.core.merge import merge_graphs, naive_merge
from repro.net.builder import make_tcp_packet
from repro.obi.elements.classifiers import VlanClassifierElement
from repro.obi.translation import build_engine


def _vlan_nf(name, vlan_to_alert):
    graph = ProcessingGraph(name)
    read = Block("FromDevice", name=f"{name}_read", config={"devname": "in"})
    classify = Block("VlanClassifier", name=f"{name}_vc", config={
        "rules": [{"vlan": vlan_to_alert, "port": 1}],
        "default_port": 0,
    }, origin_app=name)
    alert = Block("Alert", name=f"{name}_alert",
                  config={"message": f"{name}:tenant"}, origin_app=name)
    out = Block("ToDevice", name=f"{name}_out", config={"devname": "out"})
    graph.add_blocks([read, classify, alert, out])
    graph.connect(read, classify)
    graph.connect(classify, out, 0)
    graph.connect(classify, alert, 1)
    graph.connect(alert, out)
    graph.validate()
    return graph


class TestVlanClassifierMerge:
    def test_two_vlan_classifiers_merge_to_one(self):
        result = merge_graphs([_vlan_nf("a", 10), _vlan_nf("b", 20)])
        vlan_classifiers = [
            block for block in result.graph.blocks.values()
            if block.type == "VlanClassifier"
        ]
        assert len(vlan_classifiers) == 1
        assert result.compression.classifier_merges >= 1
        rules = vlan_classifiers[0].config["rules"]
        assert isinstance(rules, HeaderRuleSet)
        assert [rule.vlan for rule in rules] == [10, 20]

    def test_vlan_rules_are_first_match_up_to_a_catch_all(self):
        element = VlanClassifierElement("vc", {"rules": HeaderRuleSet.parse(
            [{"vlan": 5, "port": 1}, {"vlan": 5, "port": 4},
             {"port": 2}, {"vlan": 7, "port": 3}],
        )})

        def port(vlan):
            packet = make_tcp_packet("1.1.1.1", "2.2.2.2", 5, 80, vlan=vlan)
            return element.process(packet)[0][0]

        assert [port(5), port(7), port(None)] == [1, 2, 2]

    def test_merged_semantics_equal_sequential(self):
        graphs = [_vlan_nf("a", 10), _vlan_nf("b", 20)]
        merged = merge_graphs(graphs).graph
        naive = naive_merge(graphs)
        merged_engine = build_engine(merged.copy(rename=True))
        naive_engine = build_engine(naive.copy(rename=True))
        for vlan in (None, 10, 20, 30):
            packet = make_tcp_packet("1.1.1.1", "2.2.2.2", 5, 80, vlan=vlan)
            merged_outcome = merged_engine.process(packet.clone())
            naive_outcome = naive_engine.process(packet.clone())
            assert merged_outcome.effects_key() == naive_outcome.effects_key(), vlan

    def test_merged_vlan_rules_route_both_tenants(self):
        merged = merge_graphs([_vlan_nf("a", 10), _vlan_nf("b", 20)]).graph
        engine = build_engine(merged.copy(rename=True))
        tenant_a = engine.process(make_tcp_packet("1.1.1.1", "2.2.2.2", 5, 80, vlan=10))
        tenant_b = engine.process(make_tcp_packet("1.1.1.1", "2.2.2.2", 5, 80, vlan=20))
        untagged = engine.process(make_tcp_packet("1.1.1.1", "2.2.2.2", 5, 80))
        assert [a.message for a in tenant_a.alerts] == ["a:tenant"]
        assert [a.message for a in tenant_b.alerts] == ["b:tenant"]
        assert not untagged.alerts

    def test_vlan_and_header_classifiers_do_not_cross_merge(self):
        """Different classifier types never merge with each other."""
        header_nf = ProcessingGraph("h")
        read = Block("FromDevice", name="h_read", config={"devname": "in"})
        classify = Block("HeaderClassifier", name="h_hc", config={
            "rules": [{"dst_port": 80, "port": 1}], "default_port": 0,
        })
        out = Block("ToDevice", name="h_out", config={"devname": "out"})
        drop = Block("Discard", name="h_drop")
        header_nf.add_blocks([read, classify, out, drop])
        header_nf.connect(read, classify)
        header_nf.connect(classify, out, 0)
        header_nf.connect(classify, drop, 1)

        result = merge_graphs([header_nf, _vlan_nf("v", 10)])
        types = [block.type for block in result.graph.blocks.values()]
        assert types.count("HeaderClassifier") == 1
        assert types.count("VlanClassifier") >= 1
