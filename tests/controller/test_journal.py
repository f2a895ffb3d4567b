"""StateJournal unit + fuzz tests (PROTOCOL.md §10).

The journal is the controller's crash-consistency layer: append-only
JSON lines with batched fsync, periodic atomic compaction, and a replay
that folds the longest valid prefix — duplicate records folding
idempotently, a torn tail never poisoning what came before it.
"""

import json
import os
import random

import pytest

from repro.controller.journal import JournalError, JournalState, StateJournal


def make_journal(tmp_path, **kwargs):
    return StateJournal(tmp_path / "obc.journal", **kwargs)


def sample_records():
    return [
        {"rec": "generation", "generation": 1},
        {"rec": "app", "op": "register", "name": "fw", "priority": 1},
        {"rec": "app", "op": "register", "name": "ips", "priority": 2},
        {"rec": "segment", "path": "corp"},
        {"rec": "obi", "obi_id": "obi-1", "segment": "corp",
         "callback_url": "http://127.0.0.1:9/cb", "xid_high": 4},
        {"rec": "deploy", "obi_id": "obi-1", "digest": "sha256:aa",
         "graph_version": 1, "xid_high": 9},
    ]


class TestReplayRoundTrip:
    def test_append_then_replay(self, tmp_path):
        journal = make_journal(tmp_path, fsync_every=1)
        for record in sample_records():
            journal.append(record)
        journal.close()
        result = StateJournal.replay(journal.path)
        assert not result.truncated
        assert result.records == len(sample_records())
        state = result.state
        assert state.generation == 1
        assert state.apps == {"fw": {"priority": 1}, "ips": {"priority": 2}}
        assert state.segments == ["corp"]
        assert state.obis["obi-1"]["digest"] == "sha256:aa"
        assert state.obis["obi-1"]["graph_version"] == 1
        assert state.obis["obi-1"]["callback_url"] == "http://127.0.0.1:9/cb"
        assert state.xid_high == 9

    def test_missing_file_replays_empty(self, tmp_path):
        result = StateJournal.replay(tmp_path / "nonexistent.journal")
        assert result.records == 0
        assert not result.truncated
        assert result.state.generation == 0

    def test_unregister_and_forget_fold(self, tmp_path):
        journal = make_journal(tmp_path, fsync_every=1)
        for record in sample_records():
            journal.append(record)
        journal.append({"rec": "app", "op": "unregister", "name": "ips"})
        journal.append({"rec": "obi_forgotten", "obi_id": "obi-1"})
        journal.close()
        state = StateJournal.replay(journal.path).state
        assert state.apps == {"fw": {"priority": 1}}
        assert state.obis == {}

    def test_duplicate_records_fold_idempotently(self, tmp_path):
        # A crash between apply and fsync can replay a whole batch: the
        # journal is an at-least-once log and the fold must not care.
        journal = make_journal(tmp_path, fsync_every=1)
        for record in sample_records() + sample_records():
            journal.append(record)
        journal.close()
        state = StateJournal.replay(journal.path).state
        assert state.segments == ["corp"]  # not ["corp", "corp"]
        assert state.apps == {"fw": {"priority": 1}, "ips": {"priority": 2}}
        assert state.obis["obi-1"]["graph_version"] == 1

    def test_later_deploy_overwrites_earlier(self, tmp_path):
        journal = make_journal(tmp_path, fsync_every=1)
        journal.append({"rec": "deploy", "obi_id": "o", "digest": "sha256:aa",
                        "graph_version": 1})
        journal.append({"rec": "deploy", "obi_id": "o", "digest": "sha256:bb",
                        "graph_version": 2})
        journal.close()
        state = StateJournal.replay(journal.path).state
        assert state.obis["o"]["digest"] == "sha256:bb"
        assert state.obis["o"]["graph_version"] == 2

    def test_generation_and_xid_high_are_monotonic(self, tmp_path):
        journal = make_journal(tmp_path, fsync_every=1)
        journal.append({"rec": "generation", "generation": 5, "xid_high": 100})
        # A duplicated older record must not roll either watermark back.
        journal.append({"rec": "generation", "generation": 3, "xid_high": 40})
        journal.close()
        state = StateJournal.replay(journal.path).state
        assert state.generation == 5
        assert state.xid_high == 100


class TestTornTail:
    def write_then_corrupt(self, tmp_path, mutate):
        journal = make_journal(tmp_path, fsync_every=1)
        for record in sample_records():
            journal.append(record)
        journal.close()
        with open(journal.path, "rb") as handle:
            data = handle.read()
        with open(journal.path, "wb") as handle:
            handle.write(mutate(data))
        return journal.path

    def test_truncated_last_line_recovers_prefix(self, tmp_path):
        # A crash mid-write leaves half a line; everything before it
        # must still replay.
        path = self.write_then_corrupt(tmp_path, lambda data: data[:-20])
        result = StateJournal.replay(path)
        assert result.truncated
        assert result.records == len(sample_records()) - 1
        assert result.state.apps == {"fw": {"priority": 1},
                                     "ips": {"priority": 2}}

    def test_corrupt_last_line_recovers_prefix(self, tmp_path):
        def scribble(data):
            lines = data.splitlines(keepends=True)
            lines[-1] = b'{"rec": "deploy", "obi_id": \xff\xfe garbage\n'
            return b"".join(lines)

        result = StateJournal.replay(self.write_then_corrupt(tmp_path, scribble))
        assert result.truncated
        assert result.bad_line
        assert result.records == len(sample_records()) - 1

    def test_valid_json_that_is_not_a_record_stops_replay(self, tmp_path):
        path = self.write_then_corrupt(
            tmp_path, lambda data: data + b'["not", "a", "record"]\n'
        )
        result = StateJournal.replay(path)
        assert result.truncated
        assert result.records == len(sample_records())

    def test_read_records_stops_at_first_bad_line(self, tmp_path):
        path = self.write_then_corrupt(tmp_path, lambda data: data + b"junk\n")
        records = list(StateJournal.read_records(path))
        assert len(records) == len(sample_records())

    def test_fuzz_random_tail_corruption(self, tmp_path):
        # Whatever a crash does to the tail bytes, replay never raises
        # and never loses the records before the damage.
        rng = random.Random(1337)
        base = make_journal(tmp_path, fsync_every=1)
        for record in sample_records():
            base.append(record)
        base.close()
        with open(base.path, "rb") as handle:
            pristine = handle.read()
        lines = pristine.splitlines(keepends=True)
        intact_prefix = b"".join(lines[:-1])
        for trial in range(50):
            tail = bytearray(lines[-1])
            for _ in range(rng.randint(1, 8)):
                tail[rng.randrange(len(tail))] = rng.randrange(256)
            with open(base.path, "wb") as handle:
                handle.write(intact_prefix + bytes(tail))
            result = StateJournal.replay(base.path)
            # The tail either survived the scribbling as valid JSON or
            # replay stopped there; the prefix is always recovered.
            assert result.records >= len(sample_records()) - 1, trial
            assert result.state.apps["fw"] == {"priority": 1}


class TestDurabilityBatching:
    def test_fsync_batching(self, tmp_path):
        journal = make_journal(tmp_path, fsync_every=4)
        for index in range(8):
            journal.append({"rec": "segment", "path": f"s{index}"})
        assert journal.fsyncs == 2
        journal.append({"rec": "segment", "path": "tail"})
        assert journal.fsyncs == 2  # buffered, below the batch threshold
        journal.flush()
        assert journal.fsyncs == 3
        journal.flush()  # nothing unsynced: no extra fsync counted
        assert journal.fsyncs == 3
        journal.close()

    def test_append_after_close_raises(self, tmp_path):
        journal = make_journal(tmp_path, fsync_every=1)
        journal.close()
        with pytest.raises(JournalError):
            journal.append({"rec": "segment", "path": "x"})

    def test_bad_tuning_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            make_journal(tmp_path, fsync_every=0)
        with pytest.raises(ValueError):
            make_journal(tmp_path, compact_every=0)


class TestCompaction:
    def state_of(self, records):
        state = JournalState()
        for record in records:
            state.apply(record)
        return state

    def test_compaction_preserves_state_and_shrinks_file(self, tmp_path):
        journal = make_journal(tmp_path, fsync_every=1, compact_every=4)
        split = {"sw_obi_ids": ["sw-1", "sw-2"], "classifier": None,
                 "spi": 3, "trunk_device": "sfc0"}
        records = [{"rec": "split", "hw_obi_id": "hw", **split}] + [
            {"rec": "segment", "path": f"seg-{index}"} for index in range(10)
        ]
        applied = []
        for record in records:
            journal.append(record)
            applied.append(record)
            journal.maybe_compact(self.state_of(applied))
        assert journal.compactions == 2
        journal.close()
        with open(journal.path, encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
        assert lines[0]["rec"] == "snapshot"
        assert len(lines) < 10
        state = StateJournal.replay(journal.path).state
        assert state.segments == [f"seg-{i}" for i in range(10)]
        assert state.splits == {"hw": split}

    def test_compaction_leaves_no_temp_file(self, tmp_path):
        journal = make_journal(tmp_path, fsync_every=1)
        journal.append({"rec": "generation", "generation": 3})
        journal.compact(self.state_of([{"rec": "generation", "generation": 3}]))
        journal.close()
        assert not os.path.exists(journal.path + ".compact")
        assert StateJournal.replay(journal.path).state.generation == 3

    def test_appends_after_compaction_land_in_new_tail(self, tmp_path):
        journal = make_journal(tmp_path, fsync_every=1)
        journal.append({"rec": "app", "op": "register", "name": "fw",
                        "priority": 1})
        journal.compact(self.state_of(
            [{"rec": "app", "op": "register", "name": "fw", "priority": 1}]
        ))
        journal.append({"rec": "app", "op": "register", "name": "ips",
                        "priority": 2})
        journal.close()
        state = StateJournal.replay(journal.path).state
        assert set(state.apps) == {"fw", "ips"}
