"""Controller crash recovery from the journal (PROTOCOL.md §10).

A journaled controller is abandoned without ``close()`` — the SIGKILL
model — and a fresh one is rebuilt with ``OpenBoxController.recover``.
These tests pin down what recovery must restore (generation fencing,
segments, per-OBI intent, the xid watermark) and how reconnecting OBIs
re-acquire their pre-crash identity.
"""

import pytest

from repro.bootstrap import connect_inproc, reconnect_inproc
from repro.controller.apps import AppStatement, FunctionApplication
from repro.controller.journal import StateJournal
from repro.controller.obc import OpenBoxController
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.protocol.messages import next_xid
from tests.conftest import build_firewall_graph, build_ips_graph


def _fw_app(name="fw", segment="", priority=1):
    return FunctionApplication(
        name,
        lambda: [AppStatement(graph=build_firewall_graph(name), segment=segment)],
        priority=priority,
    )


def _ips_app(name="ips", segment="", priority=2):
    return FunctionApplication(
        name,
        lambda: [AppStatement(graph=build_ips_graph(name), segment=segment)],
        priority=priority,
    )


def journaled_controller(tmp_path, **kwargs):
    path = tmp_path / "obc.journal"
    journal = StateJournal(path, fsync_every=1)
    return OpenBoxController(journal=journal, **kwargs), str(path)


class TestRecoveredState:
    def crash_and_recover(self, tmp_path, applications=()):
        controller, path = journaled_controller(tmp_path)
        controller.register_application(_fw_app())
        obi = OpenBoxInstance(ObiConfig(obi_id="obi-1", segment="corp"))
        pair = connect_inproc(controller, obi)
        digest = controller.obis["obi-1"].intended_digest
        assert digest.startswith("sha256:")
        # SIGKILL: no close(), the object is simply abandoned.
        recovered = OpenBoxController.recover(path, applications=applications)
        return controller, recovered, obi, pair, digest

    def test_generation_bumped_past_journal(self, tmp_path):
        old, recovered, *_ = self.crash_and_recover(tmp_path, [_fw_app()])
        assert recovered.generation == old.generation + 1

    def test_generation_fenced_durably_before_contact(self, tmp_path):
        _, recovered, *_ = self.crash_and_recover(tmp_path, [_fw_app()])
        path = recovered.journal.path
        # A second crash right now must still replay the new generation.
        state = StateJournal.replay(path).state
        assert state.generation == recovered.generation

    def test_segments_restored(self, tmp_path):
        _, recovered, *_ = self.crash_and_recover(tmp_path, [_fw_app()])
        assert recovered.segments.exists("corp")

    def test_expected_obis_capture_pre_crash_intent(self, tmp_path):
        _, recovered, _, _, digest = self.crash_and_recover(
            tmp_path, [_fw_app()]
        )
        assert recovered.expected_obis["obi-1"]["digest"] == digest
        assert recovered.expected_obis["obi-1"]["segment"] == "corp"
        assert recovered.expected_obis["obi-1"]["graph_version"] >= 1

    def test_xid_allocator_advances_past_watermark(self, tmp_path):
        _, recovered, *_ = self.crash_and_recover(tmp_path, [_fw_app()])
        watermark = recovered.recovered_from.state.xid_high
        assert watermark > 0
        # A recovered controller must never re-issue an xid a peer may
        # still hold in its dedup cache.
        assert next_xid() > watermark

    def test_apps_reregistered_without_deploying(self, tmp_path):
        _, recovered, *_ = self.crash_and_recover(tmp_path, [_fw_app()])
        assert "fw" in recovered.applications
        assert recovered.obis == {}  # nobody contacted yet
        assert recovered.auto_deploy  # restored after re-registration

    def test_missing_application_warns(self, tmp_path):
        _, recovered, *_ = self.crash_and_recover(tmp_path, applications=())
        assert any("'fw'" in w for w in recovered.recovery_warnings)

    def test_extra_application_warns(self, tmp_path):
        _, recovered, *_ = self.crash_and_recover(
            tmp_path, [_fw_app(), _ips_app()]
        )
        assert any("'ips'" in w for w in recovered.recovery_warnings)

    def test_truncated_journal_warns_but_recovers(self, tmp_path):
        controller, path = journaled_controller(tmp_path)
        controller.register_application(_fw_app())
        with open(path, "ab") as handle:
            handle.write(b'{"rec": "deploy", "obi_id"')  # torn mid-write
        recovered = OpenBoxController.recover(path, applications=[_fw_app()])
        assert recovered.recovered_from.truncated
        assert any("longest valid prefix" in w
                   for w in recovered.recovery_warnings)
        assert "fw" in recovered.applications


class TestReHello:
    def test_rehello_adopts_journaled_intent(self, tmp_path):
        controller, path = journaled_controller(tmp_path)
        controller.register_application(_fw_app())
        obi = OpenBoxInstance(ObiConfig(obi_id="obi-1", segment="corp"))
        pair = connect_inproc(controller, obi)
        digest = controller.obis["obi-1"].intended_digest
        version = obi.graph_version

        recovered = OpenBoxController.recover(path, applications=[_fw_app()])
        reconnect_inproc(recovered, obi, pair)

        handle = recovered.obis["obi-1"]
        # The OBI kept its graph; the recovered controller adopted it
        # instead of re-pushing (no duplicate deploy side effects).
        assert handle.intended_digest == digest
        assert handle.reported_digest == digest
        assert handle.deployed is not None
        assert obi.graph_version == version
        assert "obi-1" not in recovered.expected_obis
        # The OBI learned and obeys the new fencing generation.
        assert obi.highest_controller_generation == recovered.generation

    def test_handles_reach_the_adopted_graph(self, tmp_path):
        # The recovered controller re-derives intent in a process whose
        # block gensym counter has moved on; the names it addresses must
        # still be the names the OBI runs.
        controller, path = journaled_controller(tmp_path)
        controller.register_application(_fw_app())
        obi = OpenBoxInstance(ObiConfig(obi_id="obi-1", segment="corp"))
        pair = connect_inproc(controller, obi)
        version = obi.graph_version

        recovered = OpenBoxController.recover(path, applications=[_fw_app()])
        reconnect_inproc(recovered, obi, pair)
        assert obi.graph_version == version  # adopted, no push

        app = recovered.applications["fw"]
        read = recovered.app_read(app, "obi-1", "fw_hc", "match_counts")
        assert read.ok, read.errors
        written = recovered.app_write(app, "obi-1", "fw_alert", "reset_counts", None)
        assert written.ok, written.errors
        assert obi.graph_version == version

    def test_recovery_survives_a_second_crash(self, tmp_path):
        controller, path = journaled_controller(tmp_path)
        controller.register_application(_fw_app())
        obi = OpenBoxInstance(ObiConfig(obi_id="obi-1", segment="corp"))
        pair = connect_inproc(controller, obi)

        first = OpenBoxController.recover(path, applications=[_fw_app()])
        reconnect_inproc(first, obi, pair)
        second = OpenBoxController.recover(path, applications=[_fw_app()])
        assert second.generation == first.generation + 1
        reconnect_inproc(second, obi, pair)
        assert second.obis["obi-1"].deployed is not None
        assert obi.highest_controller_generation == second.generation

    def test_fresh_journaled_controller_claims_generation_one(self, tmp_path):
        controller, path = journaled_controller(tmp_path)
        assert StateJournal.replay(path).state.generation == 1

    def test_stale_predecessor_is_fenced_after_recovery(self, tmp_path):
        from repro.protocol.errors import ErrorCode, ProtocolError

        controller, path = journaled_controller(tmp_path)
        controller.register_application(_fw_app())
        obi = OpenBoxInstance(ObiConfig(obi_id="obi-1", segment="corp"))
        pair = connect_inproc(controller, obi)

        recovered = OpenBoxController.recover(path, applications=[_fw_app()])
        reconnect_inproc(recovered, obi, pair)

        # The pre-crash controller object is still live (a partitioned,
        # not dead, predecessor) and tries to push: the OBI fences it.
        controller.auto_deploy = False
        controller.register_application(_ips_app())
        with pytest.raises(ProtocolError) as excinfo:
            controller.deploy("obi-1")
        assert excinfo.value.code == ErrorCode.STALE_GENERATION
        assert controller.superseded
        assert obi.stale_generation_rejections == 1
