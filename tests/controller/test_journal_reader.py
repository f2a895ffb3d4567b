"""Differential test for the one journal line scanner.

``StateJournal.replay`` and ``flowstate.load_checkpoint`` used to carry
their own copies of the longest-valid-prefix JSON-lines loop; both are
now folds over ``StateJournal.read_records``. The copies below are the
loops as they stood before that, kept here as the reference: on every
corrupt-file shape the folds must report exactly what the references do.
"""

import json

import pytest

from repro.controller.journal import JournalState, ReplayResult, StateJournal
from repro.obi.flowstate import CheckpointRestore, _entry_key, load_checkpoint


def reference_replay(path):
    state = JournalState()
    result = ReplayResult(state=state)
    try:
        handle = open(path, "r", encoding="utf-8", errors="replace")
    except FileNotFoundError:
        return result
    with handle:
        for line in handle:
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped)
                if not isinstance(record, dict) or "rec" not in record:
                    raise ValueError("not a journal record")
            except ValueError:
                result.truncated = True
                result.bad_line = stripped[:120]
                break
            state.apply(record)
            result.records += 1
    return result


def reference_load_checkpoint(path):
    result = CheckpointRestore()
    by_key = {}
    try:
        handle = open(path, "r", encoding="utf-8", errors="replace")
    except FileNotFoundError:
        return result
    with handle:
        for line in handle:
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped)
                if not isinstance(record, dict) or "rec" not in record:
                    raise ValueError("not a journal record")
            except ValueError:
                result.truncated = True
                break
            kind = record.get("rec")
            try:
                if kind == "snapshot":
                    state = record.get("state", {})
                    result.generation = max(
                        result.generation, int(state.get("generation", 0))
                    )
                    by_key = {
                        _entry_key(entry): entry
                        for entry in state.get("entries", [])
                    }
                elif kind == "flow":
                    entry = record["entry"]
                    by_key[_entry_key(entry)] = entry
                elif kind == "flow_gone":
                    by_key.pop(_entry_key({"key": record["key"]}), None)
                elif kind == "state_generation":
                    result.generation = max(
                        result.generation, int(record.get("generation", 0))
                    )
            except (KeyError, TypeError, ValueError):
                result.truncated = True
                break
            result.records += 1
    result.entries = list(by_key.values())
    return result


def _line(record):
    return (json.dumps(record, separators=(",", ":")) + "\n").encode()


def _flow(port, **extra):
    key = {"src_ip": 1, "dst_ip": 2, "src_port": port, "dst_port": 80, "proto": 6}
    return {"key": key, "session": {"verdict": "ok"}, **extra}


CONTROLLER_LINES = [
    _line({"rec": "generation", "generation": 3}),
    _line({"rec": "app", "op": "register", "name": "fw", "priority": 10}),
    _line({"rec": "segment", "path": "corp/eng"}),
    _line({"rec": "obi", "obi_id": "o1", "segment": "corp/eng", "xid_high": 41}),
    _line({"rec": "deploy", "obi_id": "o1", "digest": "abc", "graph_version": 2}),
]
CHECKPOINT_LINES = [
    _line({"rec": "snapshot", "state": {"generation": 2, "entries": [_flow(1000)]}}),
    _line({"rec": "flow", "entry": _flow(1001)}),
    _line({"rec": "state_generation", "generation": 5}),
    _line({"rec": "flow_gone", "key": _flow(1000)["key"]}),
    _line({"rec": "flow", "entry": _flow(1002)}),
]


def _corruptions(lines):
    """name -> file bytes (None = no file), one per way a journal goes bad."""
    return {
        "clean": b"".join(lines),
        "blank_lines": b"\n".join(lines) + b"\n\n",
        "torn_last_line": b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2],
        "non_json_middle": b"".join(lines[:2]) + b"{not json\n" + b"".join(lines[2:]),
        "json_non_dict": b"".join(lines[:3]) + b"[1,2,3]\n" + b"".join(lines[3:]),
        "record_without_rec": (
            b"".join(lines[:1]) + _line({"op": "register"}) + b"".join(lines[1:])
        ),
        "undecodable_bytes": b"".join(lines[:4]) + b"\xff\xfe\x00garbage\n" + lines[4],
        "long_bad_line": b"".join(lines[:2]) + b"x" * 500 + b"\n",
        "empty": b"",
        "missing": None,
    }


CASES = sorted(_corruptions(CONTROLLER_LINES))


def _write(tmp_path, blob):
    path = tmp_path / "journal"
    if blob is not None:
        path.write_bytes(blob)
    return path


@pytest.mark.parametrize("case", CASES)
def test_replay_matches_reference(tmp_path, case):
    path = _write(tmp_path, _corruptions(CONTROLLER_LINES)[case])
    got, want = StateJournal.replay(path), reference_replay(path)
    assert (got.records, got.truncated, got.bad_line) == (
        want.records, want.truncated, want.bad_line
    )
    assert got.state.to_dict() == want.state.to_dict()
    # The scanner itself yields exactly the folded prefix.
    assert len(list(StateJournal.read_records(path))) == want.records


@pytest.mark.parametrize("case", CASES)
def test_load_checkpoint_matches_reference(tmp_path, case):
    path = _write(tmp_path, _corruptions(CHECKPOINT_LINES)[case])
    got, want = load_checkpoint(path), reference_load_checkpoint(path)
    assert (got.records, got.truncated, got.generation, got.entries) == (
        want.records, want.truncated, want.generation, want.entries
    )


def test_load_checkpoint_stops_at_a_record_it_cannot_fold(tmp_path):
    """A well-formed line with a malformed payload ends the prefix too."""
    blob = b"".join(CHECKPOINT_LINES[:2]) + _line({"rec": "flow"}) + CHECKPOINT_LINES[4]
    path = _write(tmp_path, blob)
    got, want = load_checkpoint(path), reference_load_checkpoint(path)
    assert got.truncated and got.records == 2
    assert (got.records, got.truncated, got.entries) == (
        want.records, want.truncated, want.entries
    )
