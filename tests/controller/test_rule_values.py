"""Rules are values: parsed where dicts enter, shared, serialised once.

A classifier's rules cross the program as one immutable
:class:`HeaderRuleSet`; only the codec and the graph digest turn them
back into dicts. These tests count that work on a real deploy, and pin
the digests of two small merges so the value form provably changes no
deployed graph.
"""

from unittest import mock

import pytest

from repro.apps.firewall import FirewallApp, parse_firewall_rules
from repro.apps.ips import IpsApp, parse_snort_rules
from repro.bootstrap import connect_inproc, connect_obi_rest, serve_controller_rest
from repro.controller.aggregator import GraphAggregator
from repro.controller.obc import OpenBoxController
from repro.controller.segments import SegmentHierarchy
from repro.core.classify.header import HeaderRuleSet
from repro.core.classify.rules import HeaderRule
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.sim.rulesets import (
    SNORT_VARIABLES,
    generate_firewall_rules,
    generate_snort_web_rules,
)


def _firewall(name, count, seed, priority):
    rules = parse_firewall_rules(generate_firewall_rules(count, seed=seed))
    return FirewallApp(name, rules, alert_only=True, priority=priority)


def _ips():
    rules = parse_snort_rules(generate_snort_web_rules(12, seed=3), SNORT_VARIABLES)
    return IpsApp("ips", rules, priority=30)


def _shipped_rules(obi):
    return sum(
        len(block.config["rules"]) for block in obi.graph.blocks.values()
        if block.type == "HeaderClassifier"
    )


class _Work:
    """Counts rule parses, rule serialisations and prune passes."""

    def __enter__(self):
        self._patches = [
            mock.patch.object(HeaderRule, "from_dict", wraps=HeaderRule.from_dict),
            mock.patch.object(
                HeaderRule, "to_dict", autospec=True, side_effect=HeaderRule.to_dict
            ),
            mock.patch.object(
                HeaderRuleSet, "prune_shadowed", autospec=True,
                side_effect=HeaderRuleSet.prune_shadowed,
            ),
        ]
        self.from_dict, self.to_dict, self.prunes = (
            patch.start() for patch in self._patches
        )
        return self

    def __exit__(self, *exc):
        for patch in self._patches:
            patch.stop()


class TestGoldenDigests:
    """Digests of the deployable graphs, recorded before rules were values."""

    @pytest.mark.parametrize("apps, digest", [
        (
            lambda: [_firewall("fw1", 40, 1, 10), _firewall("fw2", 40, 2, 20)],
            "sha256:f7d5c3af35e445f76de95b2b9f6ddf204212d7a6523301ef0fb761d1a2e0e283",
        ),
        (
            lambda: [_firewall("fw1", 40, 1, 10), _ips()],
            "sha256:65c11722b277a953ba96079cbed4b6d3f560d08b83c9ab9fd434250c1e1ecca3",
        ),
    ], ids=["fw+fw", "fw+ips"])
    def test_merge_digest_is_pinned(self, apps, digest):
        result = GraphAggregator(SegmentHierarchy()).aggregate(apps(), "obi", "")
        assert result.graph.digest() == digest


class TestDeployWork:
    def test_inproc_deploy_parses_nothing_and_prunes_once_per_merge(self):
        controller = OpenBoxController()
        obi = OpenBoxInstance(ObiConfig(obi_id="obi", segment=""))
        connect_inproc(controller, obi)
        controller.register_application(_firewall("fw1", 200, 1, 10))
        with _Work() as work:
            controller.register_application(_firewall("fw2", 200, 101, 20))
        merges = sum(
            result.compression.classifier_merges
            for result in controller.obis["obi"].deployed.merge_results
        )
        assert merges >= 1
        assert work.from_dict.call_count == 0
        assert 0 < work.to_dict.call_count <= _shipped_rules(obi)
        assert work.prunes.call_count == merges

    def test_rest_deploy_parses_each_received_rule_once(self):
        controller = OpenBoxController()
        controller_endpoint = serve_controller_rest(controller)
        obi = OpenBoxInstance(ObiConfig(obi_id="obi", segment=""))
        obi_endpoint, _upstream = connect_obi_rest(obi, controller_endpoint.url)
        try:
            controller.register_application(_firewall("fw1", 200, 1, 10))
            with _Work() as work:
                controller.register_application(_firewall("fw2", 200, 101, 20))
            received = _shipped_rules(obi)
            assert received > 0
            assert work.from_dict.call_count == received
            assert work.to_dict.call_count <= received
        finally:
            obi_endpoint.close()
            controller_endpoint.close()
