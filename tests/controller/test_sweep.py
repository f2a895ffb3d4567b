"""The fleet sweep: shared merges, skipped pushes, isolated failures."""

import pytest

from repro.apps.firewall import FirewallApp, parse_firewall_rules
from repro.bootstrap import connect_inproc
from repro.chaos.storage import FaultyStorage
from repro.controller.apps import AppStatement, FunctionApplication
from repro.controller.journal import StateJournal
from repro.controller.obc import OpenBoxController
from repro.controller.reconcile import AntiEntropyLoop
from repro.core.classify.rules import PortRange, Prefix
from repro.net.builder import make_tcp_packet
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.protocol.codec import PROTOCOL_VERSION
from repro.protocol.errors import ErrorCode, ProtocolError
from repro.protocol.messages import Hello, KeepAlive
from tests.conftest import build_firewall_graph, build_ips_graph
from tests.controller.test_failover import _attach, _RejectingChannel

RULES = "deny tcp 10.0.0.0/8 any any 22\nallow any any any any any\n"


def _firewall(name="fw", **kwargs):
    return FirewallApp(name, parse_firewall_rules(RULES), **kwargs)


def _connect(controller, obi_id, segment):
    obi = OpenBoxInstance(ObiConfig(obi_id=obi_id, segment=segment))
    connect_inproc(controller, obi)
    return obi


def _classifier_rules(obi):
    return [
        block.config["rules"] for block in obi.graph.blocks.values()
        if block.type == "HeaderClassifier"
    ]


class _CountingFirewall(FirewallApp):
    calls = 0

    def statements(self):
        self.calls += 1
        return super().statements()


@pytest.fixture
def fleet(tmp_path):
    """Journaled controller, a network-wide firewall, two ``corp`` OBIs
    and one ``dmz`` OBI whose flow cache is warm."""
    journal = StateJournal(tmp_path / "obc.journal", fsync_every=1)
    controller = OpenBoxController(journal=journal)
    for segment in ("corp", "dmz"):
        controller.segments.add(segment)
    controller.register_application(_firewall("gateway", priority=10))
    obis = {
        obi_id: _connect(controller, obi_id, segment)
        for obi_id, segment in (
            ("corp-1", "corp"), ("corp-2", "corp"), ("dmz-1", "dmz"),
        )
    }
    for port in range(4000, 4008):
        obis["dmz-1"].process_packet(
            make_tcp_packet("44.0.0.1", "192.168.0.9", port, 443)
        )
    assert len(obis["dmz-1"].flow_cache) > 0
    return controller, obis


class TestSharing:
    def test_statements_run_once_per_sweep_and_again_on_the_next(self):
        controller = OpenBoxController()
        obis = [_connect(controller, f"obi-{i}", "corp") for i in range(3)]
        app = _CountingFirewall("fw", parse_firewall_rules(RULES))
        controller.register_application(app)

        before = app.calls
        controller.redeploy_all()
        assert app.calls == before + 1

        # Mutated between sweeps: the next sweep asks again and deploys
        # the new graph — nothing of the previous sweep is served.
        app.rules = parse_firewall_rules("deny udp any any any 53\n" + RULES)
        versions = [obi.graph_version for obi in obis]
        controller.redeploy_all()
        assert app.calls == before + 2
        assert [obi.graph_version for obi in obis] == [v + 1 for v in versions]
        for obi in obis:
            assert _classifier_rules(obi)[0].rules[0].dst_port == PortRange(53, 53)

    def test_equal_applicable_lists_share_one_result(self, fleet):
        controller, _obis = fleet
        controller.register_application(
            _firewall("department", segment="corp", priority=20)
        )
        handles = controller.obis
        assert handles["corp-1"].deployed is handles["corp-2"].deployed
        assert handles["corp-1"].deployed is not handles["dmz-1"].deployed
        assert handles["corp-1"].deployed.app_names == ["gateway", "department"]
        assert handles["dmz-1"].deployed.app_names == ["gateway"]

    @pytest.mark.parametrize("mergeable", [True, False])
    @pytest.mark.parametrize("with_second_app", [True, False])
    def test_deployed_graphs_never_alias_a_statement_graph(
        self, mergeable, with_second_app
    ):
        own = [build_firewall_graph("fw")]
        apps = [FunctionApplication(
            "fw", lambda: [AppStatement(graph=own[0])],
            priority=1, mergeable=mergeable,
        )]
        if with_second_app:
            own.append(build_ips_graph("ips"))
            apps.append(FunctionApplication(
                "ips", lambda: [AppStatement(graph=own[1])], priority=2,
            ))
        controller = OpenBoxController()
        for index in range(2):
            _connect(controller, f"obi-{index}", "corp")
        for app in apps:
            controller.register_application(app)
        own_blocks = {
            id(block) for graph in own for block in graph.blocks.values()
        }
        own_configs = {
            id(block.config) for graph in own for block in graph.blocks.values()
        }
        for handle in controller.obis.values():
            deployed = handle.deployed
            reachable = [deployed.graph] + [
                result.graph for result in deployed.merge_results
            ]
            for graph in reachable:
                assert all(graph is not mine for mine in own)
                for block in graph.blocks.values():
                    assert id(block) not in own_blocks
                    assert id(block.config) not in own_configs


class TestSkippedPush:
    def test_unaffected_obi_is_left_alone(self, fleet):
        controller, obis = fleet
        dmz, handle = obis["dmz-1"], controller.obis["dmz-1"]
        engine, version = dmz.engine, dmz.graph_version
        cached = len(dmz.flow_cache)
        generation, deployed = handle.generation, handle.deployed
        deploys = controller._m_deploys.value
        records_before = len(list(StateJournal.read_records(controller.journal.path)))

        controller.register_application(
            _firewall("department", segment="corp", priority=20)
        )

        # The two ``corp`` OBIs were pushed; the ``dmz`` one kept its
        # engine, its warm flow cache and its element state.
        assert controller._m_deploys.value == deploys + 2
        assert obis["corp-1"].graph_version == obis["corp-2"].graph_version == 2
        assert dmz.engine is engine and dmz.graph_version == version
        assert len(dmz.flow_cache) == cached
        assert handle.generation == generation and handle.deployed is deployed
        new_records = list(
            StateJournal.read_records(controller.journal.path)
        )[records_before:]
        assert sorted(
            record["obi_id"] for record in new_records if record["rec"] == "deploy"
        ) == ["corp-1", "corp-2"]
        # Journal and anti-entropy agree nothing is outstanding.
        replayed = StateJournal.replay(controller.journal.path).state
        assert {
            obi_id: entry["digest"] for obi_id, entry in replayed.obis.items()
        } == {
            obi_id: h.intended_digest for obi_id, h in controller.obis.items()
        }
        loop = AntiEntropyLoop(controller)
        assert loop.converged()
        report = loop.reconcile()
        assert report.all_converged and len(report.converged) == 3

    def test_merged_run_beside_a_volatile_app_is_recognised_as_unchanged(self):
        # The naive chain renames the merged run's synthesized classifier
        # but keeps the gensym it was born with as origin_block; digests
        # of two merges of the same inputs must still agree, or every
        # sweep re-pushes and anti-entropy never converges.
        controller = OpenBoxController()
        obi = _connect(controller, "obi-1", "corp")
        for priority, (name, build, mergeable) in enumerate((
            ("volatile", build_firewall_graph, False),
            ("fw", build_firewall_graph, True),
            ("ips", build_ips_graph, True),
        )):
            controller.register_application(FunctionApplication(
                name, lambda name=name, build=build: [
                    AppStatement(graph=build(name))
                ],
                priority=priority, mergeable=mergeable,
            ))
        version = obi.graph_version
        controller.redeploy_all()
        loop = AntiEntropyLoop(controller)
        assert loop.converged()
        assert loop.reconcile().converged == ["obi-1"]
        assert obi.graph_version == version

    def test_stale_reported_digest_is_pushed(self, fleet):
        controller, obis = fleet
        dmz = obis["dmz-1"]
        version = dmz.graph_version
        controller.handle_message(KeepAlive(
            obi_id="dmz-1", graph_digest="sha256:something-else",
            graph_version=version,
        ))
        controller.redeploy_all()
        assert dmz.graph_version == version + 1
        assert obis["corp-1"].graph_version == 1  # still converged: skipped
        assert controller.obis["dmz-1"].reported_digest == dmz.graph_digest

    def test_explicit_deploy_always_pushes(self, fleet):
        controller, obis = fleet
        version = obis["dmz-1"].graph_version
        assert controller.reconcile_obi("dmz-1") == "converged"
        assert obis["dmz-1"].graph_version == version
        assert controller.deploy("dmz-1") is controller.obis["dmz-1"].deployed
        assert obis["dmz-1"].graph_version == version + 1

    def test_degraded_controller_still_fences(self, tmp_path):
        storage = FaultyStorage()
        journal = StateJournal(tmp_path / "obc.journal", fsync_every=1,
                               storage=storage)
        controller = OpenBoxController(journal=journal)
        controller.register_application(_firewall("gateway"))
        obi = _connect(controller, "obi-1", "corp")
        version = obi.graph_version
        storage.fail_fsync(error="ENOSPC")
        controller.auto_deploy = False
        controller.register_application(_firewall("second", priority=20))
        assert controller.degraded
        with pytest.raises(ProtocolError) as excinfo:
            controller.redeploy_all()
        assert excinfo.value.code == ErrorCode.DEGRADED
        assert obi.graph_version == version
        # With nothing to push there is nothing to fence.
        controller.unregister_application("second")
        controller.redeploy_all()
        assert obi.graph_version == version


class TestFailureIsolation:
    def test_redeploy_app_reaches_obis_behind_a_channelless_one(self):
        controller = OpenBoxController()
        # Hello'd but not yet dialed back: first in ``controller.obis``.
        controller.handle_message(
            Hello(obi_id="ghost", segment="corp", version=PROTOCOL_VERSION)
        )
        live = [_connect(controller, f"obi-{i}", "corp") for i in range(2)]
        app = _firewall()
        controller.register_application(app)
        generations = [controller.obis[o.config.obi_id].generation for o in live]

        app.block_source("9.9.9.0/24")  # update_logic -> redeploy_app

        assert [
            controller.obis[o.config.obi_id].generation for o in live
        ] == [g + 1 for g in generations]
        for obi in live:
            assert _classifier_rules(obi)[0].rules[0].src == Prefix.parse("9.9.9.0/24")
        assert controller.obis["ghost"].deployed is None
        assert controller.failed_deployments == 0

    def test_redeploy_app_isolates_a_rejecting_obi(self):
        controller = OpenBoxController(auto_deploy=False)
        _attach(controller, "bad-obi", _RejectingChannel())
        good = _connect(controller, "good-obi", "corp")
        app = _firewall()
        controller.register_application(app)
        app.update_logic()  # must not raise: the good OBI deployed
        assert good.graph_version == 1
        assert controller.failed_deployments == 1
        assert controller.consecutive_deploy_failures == {"bad-obi": 1}

    def test_redeploy_app_touches_only_the_obis_it_applies_to(self, fleet):
        controller, obis = fleet
        department = _firewall("department", segment="corp", priority=20)
        controller.register_application(department)
        # Make the dmz OBI look stale: an app-scoped sweep still skips it.
        controller.obis["dmz-1"].reported_digest = "sha256:stale"
        department.block_source("9.9.9.0/24")
        assert obis["corp-1"].graph_version == obis["corp-2"].graph_version == 3
        assert obis["dmz-1"].graph_version == 1

    def test_app_refused_by_every_obi_it_applies_to_raises(self):
        controller = OpenBoxController(auto_deploy=False)
        for segment in ("corp", "dmz"):
            controller.segments.add(segment)
        healthy = _connect(controller, "dmz-1", "dmz")
        bad = _RejectingChannel()
        _attach(controller, "corp-1", bad)
        controller.register_application(_firewall("gateway"))
        controller.redeploy_all()  # dmz accepts: one bad OBI is not fatal
        assert healthy.graph_version == 1 and bad.requests == 1

        controller.register_application(
            _firewall("department", segment="corp", priority=20)
        )
        # Only ``corp-1`` is affected and it refuses: the unchanged dmz
        # OBI accepting a re-push must not mask that.
        with pytest.raises(ProtocolError) as excinfo:
            controller.redeploy_all()
        assert excinfo.value.code == ErrorCode.INVALID_GRAPH
        assert healthy.graph_version == 1 and bad.requests == 2

    def test_superseded_controller_sweeps_nothing(self, fleet):
        controller, obis = fleet
        controller.superseded = True
        with pytest.raises(ProtocolError) as excinfo:
            controller.register_application(
                _firewall("department", segment="corp", priority=20)
            )
        assert excinfo.value.code == ErrorCode.STALE_GENERATION
        assert all(obi.graph_version == 1 for obi in obis.values())
