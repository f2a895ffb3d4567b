"""Journal streaming to hot standbys: cursors, snapshots, fencing,
takeover (PROTOCOL.md §12)."""

import pytest

from repro.bootstrap import connect_inproc, reconnect_inproc
from repro.controller.journal import JournalCursor, StateJournal
from repro.controller.lease import InProcLeaseStore, LeaseManager
from repro.controller.obc import OpenBoxController
from repro.controller.replication import ReplicationHub, StandbyController
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.protocol.errors import ErrorCode
from repro.protocol.messages import ErrorMessage, JournalStream, LeaseAnnounce, ReplicaAck
from repro.transport.inproc import InProcPair
from tests.conftest import FakeClock, build_firewall_graph
from tests.controller.test_recovery import _fw_app, _ips_app


def make_leader(tmp_path, clock=None, fsync_every=1, compact_every=256):
    return OpenBoxController(
        clock=clock or FakeClock(),
        journal=StateJournal(
            str(tmp_path / "leader.journal"),
            fsync_every=fsync_every,
            compact_every=compact_every,
        ),
    )


def link_standby(hub, standby):
    """Wire a standby's handler to the hub over an in-process pair."""
    pair = InProcPair("leader", f"standby:{standby.replica_id}")
    pair.right.set_handler(standby.handle_message)
    hub.attach(standby.replica_id, pair.left)
    return pair


class TestJournalCursors:
    def test_null_cursor_takes_snapshot_path(self, tmp_path):
        journal = StateJournal(str(tmp_path / "j"), fsync_every=1)
        journal.append({"rec": "generation", "generation": 1})
        batch = journal.read_since(JournalCursor())
        assert batch.snapshot
        assert len(batch.records) == 1
        assert batch.cursor == journal.cursor()

    def test_caught_up_cursor_yields_empty_delta(self, tmp_path):
        journal = StateJournal(str(tmp_path / "j"), fsync_every=1)
        journal.append({"rec": "generation", "generation": 1})
        cursor = journal.cursor()
        batch = journal.read_since(cursor)
        assert not batch.snapshot and batch.records == []

    def test_delta_contains_only_the_suffix(self, tmp_path):
        journal = StateJournal(str(tmp_path / "j"), fsync_every=1)
        journal.append({"rec": "generation", "generation": 1})
        cursor = journal.cursor()
        journal.append({"rec": "segment", "path": "corp"})
        journal.append({"rec": "app", "op": "register", "name": "fw"})
        batch = journal.read_since(cursor)
        assert not batch.snapshot
        assert [r["rec"] for r in batch.records] == ["segment", "app"]

    def test_compaction_invalidates_old_cursors(self, tmp_path):
        journal = StateJournal(str(tmp_path / "j"), fsync_every=1)
        journal.append({"rec": "generation", "generation": 1})
        stale = journal.cursor()
        journal.compact(StateJournal.replay(journal.path).state)
        assert journal.segment == stale.segment + 1
        batch = journal.read_since(stale)
        assert batch.snapshot
        assert batch.records[0]["rec"] == "snapshot"

    def test_segment_number_survives_reopen(self, tmp_path):
        journal = StateJournal(str(tmp_path / "j"), fsync_every=1)
        journal.append({"rec": "generation", "generation": 1})
        journal.compact(StateJournal.replay(journal.path).state)
        journal.append({"rec": "segment", "path": "corp"})
        cursor = journal.cursor()
        journal.close()
        reopened = StateJournal(str(tmp_path / "j"), fsync_every=1)
        assert reopened.cursor() == cursor


class TestReplicationStream:
    def test_first_sync_ships_snapshot_then_deltas(self, tmp_path):
        leader = make_leader(tmp_path)
        hub = ReplicationHub(leader, leader_id="c1")
        standby = StandbyController("r1", tmp_path / "replica.journal")
        link_standby(hub, standby)

        leader.register_application(_fw_app())
        assert hub.sync() == ["r1"]
        assert standby.snapshots_received == 1
        assert standby.state().apps == {"fw": {"priority": 1}}

        leader.register_application(_ips_app())
        assert hub.sync() == ["r1"]
        assert standby.snapshots_received == 1  # second round was a delta
        assert set(standby.state().apps) == {"fw", "ips"}
        assert hub.lag("r1") == 0

    def test_replica_journal_mirrors_leader_cursor(self, tmp_path):
        leader = make_leader(tmp_path)
        hub = ReplicationHub(leader, leader_id="c1")
        standby = StandbyController("r1", tmp_path / "replica.journal")
        link_standby(hub, standby)
        leader.register_application(_fw_app())
        hub.sync()
        assert standby.cursor() == leader.journal.cursor()

    def test_leader_compaction_triggers_snapshot_catchup(self, tmp_path):
        leader = make_leader(tmp_path)
        hub = ReplicationHub(leader, leader_id="c1")
        standby = StandbyController("r1", tmp_path / "replica.journal")
        link_standby(hub, standby)
        hub.sync()
        for app in (_fw_app(), _ips_app()):
            leader.register_application(app)
        leader.journal.compact(leader._journal_state())
        assert leader.journal.compactions >= 1
        hub.sync()
        assert standby.snapshots_received >= 2  # initial + post-compaction
        assert standby.state().generation == leader.generation
        assert set(standby.state().apps) == {"fw", "ips"}

    def test_retried_stream_is_deduplicated_by_xid(self, tmp_path):
        standby = StandbyController("r1", tmp_path / "replica.journal")
        stream = JournalStream(
            leader_id="c1", epoch=1, snapshot=True, segment=0, offset=1,
            records=[{"rec": "generation", "generation": 1}],
        )
        first = standby.handle_message(stream)
        again = standby.handle_message(stream)
        assert isinstance(first, ReplicaAck)
        assert again == first
        assert standby.duplicate_streams == 1
        assert standby.records_applied == 1

    def test_stale_epoch_stream_is_fenced(self, tmp_path):
        standby = StandbyController("r1", tmp_path / "replica.journal")
        standby.handle_message(JournalStream(
            leader_id="c2", epoch=5, snapshot=True, segment=0, offset=1,
            records=[{"rec": "generation", "generation": 5}],
        ))
        rejection = standby.handle_message(JournalStream(
            leader_id="c1", epoch=3, snapshot=True, segment=0, offset=1,
            records=[{"rec": "generation", "generation": 3}],
        ))
        assert isinstance(rejection, ErrorMessage)
        assert rejection.code == ErrorCode.STALE_GENERATION
        assert standby.stale_streams_rejected == 1
        # The replica journal still encodes the newer leader's state.
        assert standby.state().generation == 5

    def test_stale_rejection_flips_leader_superseded(self, tmp_path):
        new_dir = tmp_path / "new"
        new_dir.mkdir()
        usurper = make_leader(new_dir)
        usurper.generation = 9
        ghost = make_leader(tmp_path)
        hub = ReplicationHub(ghost, leader_id="ghost")
        standby = StandbyController("r1", tmp_path / "replica.journal")
        link_standby(hub, standby)
        # The standby hears from the newer leader first...
        usurper_hub = ReplicationHub(usurper, leader_id="usurper")
        usurper_hub.attach("r1", next(iter(hub.replicas.values())).channel)
        usurper_hub.sync()
        # ...so the ghost's stream bounces, and the bounce demotes it.
        assert hub.sync() == []
        assert ghost.superseded
        # A superseded leader streams nothing at all afterwards.
        assert hub.sync() == []

    def test_higher_epoch_ack_demotes_leader(self, tmp_path):
        leader = make_leader(tmp_path)
        hub = ReplicationHub(leader, leader_id="c1")
        standby = StandbyController("r1", tmp_path / "replica.journal")
        link_standby(hub, standby)
        standby.highest_epoch = 7  # witnessed a newer leader out of band
        hub.sync()
        assert leader.superseded

    def test_lease_announce_updates_standby_view(self, tmp_path):
        standby = StandbyController("r1", tmp_path / "replica.journal")
        ack = standby.handle_message(LeaseAnnounce(
            leader_id="c1", epoch=2, lease_remaining=7.5,
            endpoints=["c1:6633", "c2:6633"],
        ))
        assert isinstance(ack, ReplicaAck) and ack.epoch == 2
        assert standby.leader_id == "c1"
        assert standby.endpoints == ["c1:6633", "c2:6633"]
        stale = standby.handle_message(LeaseAnnounce(leader_id="c0", epoch=1))
        assert isinstance(stale, ErrorMessage)
        assert stale.code == ErrorCode.STALE_GENERATION

    def test_announce_reaches_standbys_and_obis(self, tmp_path):
        clock = FakeClock()
        leader = make_leader(tmp_path, clock=clock)
        obi = OpenBoxInstance(
            ObiConfig(obi_id="obi-1", segment="corp"), clock=clock
        )
        connect_inproc(leader, obi)
        hub = ReplicationHub(
            leader, leader_id="c1", endpoints=["c1:6633", "c2:6633"]
        )
        standby = StandbyController("r1", tmp_path / "replica.journal")
        link_standby(hub, standby)
        heard = hub.announce(lease_remaining=5.0)
        assert set(heard) == {"r1", "obi-1"}
        assert obi.announced_leader == "c1"
        assert obi.config.controller_endpoints == ["c1:6633", "c2:6633"]


class TestTakeover:
    def _replicated_standby(self, tmp_path):
        clock = FakeClock()
        leader = make_leader(tmp_path, clock=clock)
        obi = OpenBoxInstance(
            ObiConfig(obi_id="obi-1", segment="corp"), clock=clock
        )
        pair = connect_inproc(leader, obi)
        leader.register_application(_fw_app())
        hub = ReplicationHub(leader, leader_id="c1")
        standby = StandbyController(
            "r1", tmp_path / "replica.journal", clock=clock
        )
        link_standby(hub, standby)
        hub.sync()
        return leader, obi, pair, standby, clock

    def test_takeover_recovers_state_and_adopts_epoch(self, tmp_path):
        leader, obi, pair, standby, clock = self._replicated_standby(tmp_path)
        store = InProcLeaseStore()
        store.acquire("c1", ttl=10.0, now=0.0)
        lease = store.acquire("r1", ttl=10.0, now=11.0)  # epoch 2

        promoted = standby.take_over(lease, applications=[_fw_app()])
        assert promoted.generation >= lease.epoch
        assert promoted.generation > leader.generation
        assert "fw" in promoted.applications
        assert "obi-1" in promoted.expected_obis
        # The epoch is already durable: a re-replay sees it.
        assert StateJournal.replay(standby.path).state.generation == \
            promoted.generation

    def test_handles_reach_the_adopted_graph_after_takeover(self, tmp_path):
        leader, obi, pair, standby, clock = self._replicated_standby(tmp_path)
        version = obi.graph_version
        store = InProcLeaseStore()
        lease = store.acquire("r1", ttl=10.0, now=0.0)
        promoted = standby.take_over(lease, applications=[_fw_app()])
        reconnect_inproc(promoted, obi, pair)
        assert obi.graph_version == version  # adopted, no push

        app = promoted.applications["fw"]
        read = promoted.app_read(app, "obi-1", "fw_hc", "match_counts")
        assert read.ok, read.errors
        written = promoted.app_write(app, "obi-1", "fw_alert", "reset_counts", None)
        assert written.ok, written.errors
        assert obi.graph_version == version

    def test_takeover_with_stale_epoch_refused(self, tmp_path):
        _, _, _, standby, _ = self._replicated_standby(tmp_path)
        standby.highest_epoch = 50
        store = InProcLeaseStore()
        lease = store.acquire("r1", ttl=10.0, now=0.0)  # epoch 1 < 50
        with pytest.raises(ValueError):
            standby.take_over(lease)

    def test_promoted_standby_fences_late_streams(self, tmp_path):
        leader, obi, pair, standby, clock = self._replicated_standby(tmp_path)
        store = InProcLeaseStore()
        lease = store.acquire("r1", ttl=10.0, now=0.0)
        standby.take_over(lease, applications=[_fw_app()])
        late = standby.handle_message(JournalStream(
            leader_id="c1", epoch=1, snapshot=False, segment=0, offset=9,
            records=[{"rec": "segment", "path": "dmz"}],
        ))
        assert isinstance(late, ErrorMessage)
        assert late.code == ErrorCode.STALE_GENERATION

    def test_standby_restart_keeps_epoch_fence(self, tmp_path):
        leader, obi, pair, standby, clock = self._replicated_standby(tmp_path)
        # The stream carried the leader's generation; a restarted
        # standby re-derives its fence from the replica journal.
        witnessed = standby.highest_epoch
        standby.journal.close()
        reborn = StandbyController("r1", standby.path)
        assert reborn.highest_epoch == leader.generation == witnessed
