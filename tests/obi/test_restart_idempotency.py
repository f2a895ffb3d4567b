"""Xid dedup and two-phase deploy idempotency across an OBI restart.

The protocol's retry safety rests on receiver-side xid deduplication
(PROTOCOL.md §6). A restarted OBI is a fresh process with an *empty*
dedup cache, so these tests pin the contract around that boundary: a
replayed deploy is harmless before the restart (cache hit) and harmless
after it (re-applying the same graph converges on the same digest).
"""

from repro.bootstrap import connect_inproc, reconnect_inproc
from repro.controller.obc import OpenBoxController
from repro.core.graph import canonical_graph_digest
from repro.net.builder import make_tcp_packet
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.protocol.errors import ErrorCode
from repro.protocol.messages import (
    ErrorMessage,
    ReadRequest,
    SetProcessingGraphRequest,
    SetProcessingGraphResponse,
    WriteRequest,
)
from tests.conftest import build_firewall_graph, build_ips_graph


def deployed_obi(obi_id="o1"):
    controller = OpenBoxController()
    obi = OpenBoxInstance(ObiConfig(obi_id=obi_id, segment="corp"))
    pair = connect_inproc(controller, obi)
    request = SetProcessingGraphRequest(graph=build_firewall_graph().to_dict())
    response = controller.send(obi_id, request)
    assert isinstance(response, SetProcessingGraphResponse) and response.ok
    return controller, obi, pair, request


class TestDedupBeforeRestart:
    def test_replayed_deploy_hits_cache(self):
        _, obi, _, request = deployed_obi()
        version = obi.graph_version
        replay = obi.handle_message(request)
        assert isinstance(replay, SetProcessingGraphResponse)
        assert replay.graph_version == version  # cached, not re-applied
        assert obi.graph_version == version
        assert obi.duplicate_requests == 1

    def test_cached_response_is_the_original_object_fields(self):
        _, obi, _, request = deployed_obi()
        first = obi.handle_message(request)
        second = obi.handle_message(request)
        assert second.xid == first.xid
        assert second.graph_digest == first.graph_digest

    def test_late_duplicate_of_a_refused_request_stays_refused(self):
        # The controller recorded the write as failed; a late duplicate
        # must not apply it against the graph deployed in between.
        controller, obi, _, _ = deployed_obi()
        stamp = controller.generation
        write = WriteRequest(
            block="ips_read", handle="reset_counts", value=None, epoch=stamp
        )
        refused = obi.handle_message(write)
        assert isinstance(refused, ErrorMessage)
        assert refused.code == ErrorCode.UNKNOWN_BLOCK
        obi.handle_message(SetProcessingGraphRequest(
            graph=build_ips_graph().to_dict(), epoch=stamp
        ))
        obi.inject(make_tcp_packet("10.0.0.1", "10.0.0.2", 1234, 80))
        assert obi.handle_message(write) is refused
        assert obi.duplicate_requests == 1
        count = obi.handle_message(
            ReadRequest(block="ips_read", handle="count", epoch=stamp)
        )
        assert count.value == 1


class TestDedupAcrossRestart:
    def restart(self, obi_id="o1"):
        """A new process at the same identity: fresh instance, no cache."""
        return OpenBoxInstance(ObiConfig(obi_id=obi_id, segment="corp"))

    def test_replay_after_restart_reapplies_but_converges(self):
        _, old_obi, _, request = deployed_obi()
        fresh = self.restart()
        assert fresh.duplicate_requests == 0
        response = fresh.handle_message(request)
        # The cache is gone, so the request is applied (version 1 on the
        # fresh instance) — but applying the same graph lands on the
        # same canonical digest: idempotent where it matters.
        assert isinstance(response, SetProcessingGraphResponse) and response.ok
        assert fresh.graph_version == 1
        assert fresh.graph_digest == old_obi.graph_digest
        # And the *second* replay on the fresh instance hits its cache.
        again = fresh.handle_message(request)
        assert again.graph_version == 1
        assert fresh.duplicate_requests == 1

    def test_controller_redeploys_restarted_obi_once(self):
        controller = OpenBoxController()
        from repro.controller.apps import AppStatement, FunctionApplication
        controller.register_application(FunctionApplication(
            "fw", lambda: [AppStatement(graph=build_firewall_graph("fw"))],
            priority=1,
        ))
        obi = OpenBoxInstance(ObiConfig(obi_id="o1", segment="corp"))
        connect_inproc(controller, obi)
        intended = controller.obis["o1"].intended_digest
        assert obi.graph_version == 1

        # OBI process dies (the failover loop forgets it) and comes back
        # empty; reconciliation sees the blank digest and pushes once.
        controller.disconnect_obi("o1")
        fresh = OpenBoxInstance(ObiConfig(obi_id="o1", segment="corp"))
        connect_inproc(controller, fresh)
        assert fresh.graph_version == 1
        assert fresh.graph_digest == intended
        assert controller.obis["o1"].reported_digest == intended

        # Another reconcile round is a no-op: digests already converged.
        controller.reconcile_obi("o1")
        assert fresh.graph_version == 1

    def test_two_phase_apply_still_guards_after_restart(self):
        _, _, _, request = deployed_obi()
        fresh = self.restart()
        assert isinstance(
            fresh.handle_message(request), SetProcessingGraphResponse
        )
        good_version = fresh.graph_version
        bad = build_ips_graph().to_dict()
        bad["connectors"].append({"src": "ghost", "src_port": 0,
                                  "dst": "also-ghost"})
        response = fresh.handle_message(
            SetProcessingGraphRequest(graph=bad, epoch=request.epoch)
        )
        assert isinstance(response, ErrorMessage)
        # Rollback: the restarted instance keeps serving the good graph.
        assert fresh.graph_version == good_version
        assert fresh.graph_rollbacks == 1

    def test_reconnect_replays_hello_idempotently(self):
        controller, obi, pair, _ = deployed_obi()
        digest = obi.graph_digest
        # The same OBI re-Hellos (e.g. after a transport blip) — the
        # controller rebuilds the handle without losing deploy state.
        reconnect_inproc(controller, obi, pair)
        handle = controller.obis["o1"]
        assert handle.reported_digest == digest
        assert obi.graph_digest == digest
        assert obi.graph_version == 1


class TestDigestEquivalence:
    def test_same_graph_same_digest_across_instances(self):
        a = build_firewall_graph().to_dict()
        b = build_firewall_graph().to_dict()
        assert canonical_graph_digest(a) == canonical_graph_digest(b)

    def test_different_graphs_different_digests(self):
        assert canonical_graph_digest(build_firewall_graph().to_dict()) != \
            canonical_graph_digest(build_ips_graph().to_dict())

    def test_digest_ignores_gensym_block_names(self):
        graph = build_firewall_graph().to_dict()
        renamed = {
            "name": graph["name"],
            "blocks": [
                {**block, "name": f"x_{index + 40}"}
                for index, block in enumerate(graph["blocks"])
            ],
            "connectors": list(graph["connectors"]),
        }
        mapping = {old["name"]: new["name"] for old, new in
                   zip(graph["blocks"], renamed["blocks"])}
        renamed["connectors"] = [
            {**c, "src": mapping[c["src"]], "dst": mapping[c["dst"]]}
            for c in graph["connectors"]
        ]
        # Same structure under different labels — the situation a
        # recovered controller's re-aggregation produces — must digest
        # identically, or anti-entropy would churn the data plane.
        assert canonical_graph_digest(graph) == canonical_graph_digest(renamed)

    def test_digest_ignores_the_gensym_origin_of_a_synthesized_block(self):
        # A block the merge synthesized (no origin_app) records the
        # gensym name it was born with as its origin_block; an owned
        # block's origin_block is the application's own name for it.
        def graph(synthesized_origin, owned_origin):
            data = build_firewall_graph().to_dict()
            assert "origin_app" not in data["blocks"][2]
            data["blocks"][2]["origin_block"] = synthesized_origin
            data["blocks"][3]["origin_block"] = owned_origin
            return data

        assert canonical_graph_digest(graph("discard_17", "fw_alert")) == \
            canonical_graph_digest(graph("discard_99", "fw_alert"))
        assert canonical_graph_digest(graph("discard_17", "fw_alert")) != \
            canonical_graph_digest(graph("discard_17", "fw_other"))

    def test_digest_sees_config_changes(self):
        graph = build_firewall_graph().to_dict()
        changed = build_firewall_graph().to_dict()
        changed["blocks"][1]["config"]["default_port"] = 1
        assert canonical_graph_digest(graph) != canonical_graph_digest(changed)
