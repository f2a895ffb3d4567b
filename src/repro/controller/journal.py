"""Durable controller state: write-ahead journal + compacted snapshots.

The paper's controller is *logically centralized* (§4.2), which is only
viable if it can die and come back without taking the data plane with
it. This module gives the controller a crash-consistent persistence
layer with two halves:

* an **append-only JSON-lines journal**: every state mutation (app
  registration, segment discovery, OBI connection, successful deploy,
  split declaration, generation bump) is one self-describing record.
  Appends are batched to ``fsync`` every ``fsync_every`` records — the
  classic WAL throughput/durability trade, tunable down to 1 for strict
  durability;
* **periodic compacted snapshots**: after ``compact_every`` appends the
  whole logical state is rewritten as a single ``snapshot`` record into
  a fresh file, atomically swapped in with ``os.replace``, so the
  journal never grows without bound and replay cost stays O(state),
  not O(history).

Replay is deliberately forgiving (the fuzz suite exercises this):

* a **truncated or corrupt tail** (half-written last line after a
  crash) stops replay at the longest valid prefix — everything before
  it is recovered;
* **duplicate records** (a crash between apply and fsync can replay a
  batch) fold idempotently — registering the same app or segment twice
  is a no-op, a deploy record overwrites the previous intent for that
  OBI.

What is journaled is *intent*, not mechanism: per-OBI the canonical
digest of the intended graph plus its version epoch — enough for the
anti-entropy loop to tell a converged OBI from a stale one without
reserializing whole graphs into the log. Transaction-id high-watermarks
ride along so a recovered controller never re-issues an xid a peer may
still hold in its dedup cache, and the **controller generation** (bumped
and flushed durably on every recovery, before any message is sent) is
what lets OBIs fence off a stale predecessor (split-brain guard).
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from repro.durable import LOCAL, Storage


@dataclass
class JournalState:
    """The logical controller state a journal encodes.

    This is the fold of a snapshot record plus every tail record after
    it; :meth:`StateJournal.replay` produces one and recovery consumes
    it. All values are plain JSON types.
    """

    #: Monotonically increasing controller generation (split-brain guard).
    generation: int = 0
    #: Registered application name -> {"priority": int}.
    apps: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: Known segment paths, in discovery order.
    segments: list[str] = field(default_factory=list)
    #: obi_id -> {"segment", "callback_url", "digest", "graph_version"}.
    obis: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: hardware obi_id -> {"sw_obi_ids", "classifier", "spi", "trunk_device"}.
    splits: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: Highest transaction id known to have been allocated.
    xid_high: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "generation": self.generation,
            "apps": self.apps,
            "segments": list(self.segments),
            "obis": self.obis,
            "splits": self.splits,
            "xid_high": self.xid_high,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "JournalState":
        state = cls()
        state.generation = int(data.get("generation", 0))
        state.apps = {
            str(name): dict(info)
            for name, info in dict(data.get("apps", {})).items()
        }
        state.segments = [str(path) for path in data.get("segments", [])]
        state.obis = {
            str(obi_id): dict(info)
            for obi_id, info in dict(data.get("obis", {})).items()
        }
        state.splits = {
            str(hw_obi_id): dict(split)
            for hw_obi_id, split in dict(data.get("splits", {})).items()
        }
        state.xid_high = int(data.get("xid_high", 0))
        return state

    # -- record folding -------------------------------------------------
    def apply(self, record: dict[str, Any]) -> None:
        """Fold one journal record into the state (idempotent)."""
        kind = record.get("rec")
        if kind == "snapshot":
            replacement = JournalState.from_dict(record.get("state", {}))
            self.__dict__.update(replacement.__dict__)
        elif kind == "generation":
            self.generation = max(self.generation, int(record.get("generation", 0)))
        elif kind == "app":
            name = str(record.get("name", ""))
            if record.get("op") == "unregister":
                self.apps.pop(name, None)
            elif name:
                self.apps[name] = {"priority": int(record.get("priority", 100))}
        elif kind == "segment":
            path = str(record.get("path", ""))
            if path and path not in self.segments:
                self.segments.append(path)
        elif kind == "obi":
            obi_id = str(record.get("obi_id", ""))
            if obi_id:
                entry = self.obis.setdefault(
                    obi_id, {"segment": "", "callback_url": "",
                             "digest": "", "graph_version": 0},
                )
                entry["segment"] = str(record.get("segment", entry["segment"]))
                if record.get("callback_url"):
                    entry["callback_url"] = str(record["callback_url"])
        elif kind == "obi_forgotten":
            self.obis.pop(str(record.get("obi_id", "")), None)
        elif kind == "deploy":
            obi_id = str(record.get("obi_id", ""))
            if obi_id:
                entry = self.obis.setdefault(
                    obi_id, {"segment": "", "callback_url": "",
                             "digest": "", "graph_version": 0},
                )
                entry["digest"] = str(record.get("digest", ""))
                entry["graph_version"] = int(record.get("graph_version", 0))
        elif kind == "split":
            hw_obi_id = str(record.get("hw_obi_id", ""))
            if hw_obi_id:
                self.splits[hw_obi_id] = {
                    "sw_obi_ids": [str(o) for o in record.get("sw_obi_ids", [])],
                    "classifier": record.get("classifier"),
                    "spi": int(record.get("spi", 1)),
                    "trunk_device": str(record.get("trunk_device", "sfc0")),
                }
        # Any record may carry an xid high-watermark piggyback.
        if "xid_high" in record:
            self.xid_high = max(self.xid_high, int(record["xid_high"]))


@dataclass(frozen=True)
class JournalCursor:
    """A replication position: (segment, record offset within it).

    A journal's **segment** is its compaction incarnation: every
    :meth:`StateJournal.compact` rewrites the file and bumps the segment
    number, invalidating record offsets taken against the previous file.
    A follower whose cursor names an older segment cannot be served a
    delta — the bytes it was tailing no longer exist — so it is caught
    up with a **snapshot**: the entire current file (whose first record
    is a state snapshot) plus a fresh cursor. ``segment`` -1 is the
    null cursor ("never synced"), which always takes the snapshot path.
    """

    segment: int = -1
    offset: int = 0

    def to_dict(self) -> dict[str, int]:
        return {"segment": self.segment, "offset": self.offset}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "JournalCursor":
        return cls(
            segment=int(data.get("segment", -1)),
            offset=int(data.get("offset", 0)),
        )


@dataclass
class StreamBatch:
    """What :meth:`StateJournal.read_since` produced for one follower."""

    #: Records after the cursor (or the whole file on a snapshot).
    records: list[dict[str, Any]] = field(default_factory=list)
    #: Position after applying :attr:`records`.
    cursor: JournalCursor = field(default_factory=JournalCursor)
    #: True when the batch replaces the follower's journal wholesale
    #: (cursor named a compacted-away segment, or was the null cursor).
    snapshot: bool = False


@dataclass
class ReplayResult:
    """What :meth:`StateJournal.replay` reconstructed."""

    state: JournalState
    #: Records folded into the state.
    records: int = 0
    #: True when replay stopped early at a corrupt/truncated line; the
    #: state is the fold of the longest valid prefix.
    truncated: bool = False
    #: The offending line (repr-safe excerpt), for diagnostics.
    bad_line: str = ""


def replace_journal(
    storage: Storage,
    path: str,
    tmp_path: str,
    records: Iterable[dict[str, Any]],
    before_replace: Callable[[], None] | None = None,
) -> None:
    """Replace the JSON-lines file at ``path`` with ``records``, atomically.

    The records go to ``tmp_path``, are fsynced, and are ``replace``d
    over ``path`` — a crash at any point leaves either the old file or
    the new one, never a torn mix. ``before_replace`` runs just before
    the swap (callers close their handle on the old file there). On an
    ``OSError`` anywhere the temp file is removed and the error
    propagates with ``path`` untouched.
    """
    try:
        with storage.open(tmp_path, "w") as tmp:
            for record in records:
                tmp.write(json.dumps(record, separators=(",", ":")) + "\n")
            storage.fsync(tmp)
        if before_replace is not None:
            before_replace()
        storage.replace(tmp_path, path)
    except OSError:
        storage.remove(tmp_path)
        raise


class JournalError(Exception):
    """Raised for misuse (e.g. appending to a closed journal)."""


class StateJournal:
    """Append-only, fsync-batched, self-compacting JSON-lines journal."""

    def __init__(
        self,
        path: str | os.PathLike[str],
        fsync_every: int = 8,
        compact_every: int = 256,
        storage: Storage | None = None,
    ) -> None:
        if fsync_every < 1:
            raise ValueError("fsync_every must be >= 1")
        if compact_every < 1:
            raise ValueError("compact_every must be >= 1")
        self.path = os.fspath(path)
        self.fsync_every = fsync_every
        self.compact_every = compact_every
        #: Durable-storage backend; every write-side syscall goes through
        #: it so the chaos engine can inject ENOSPC/EIO/lying fsyncs.
        self.storage = storage or LOCAL
        # A crash mid-compact can leave the snapshot temp file behind;
        # the journal itself is intact (the replace never happened), so
        # the stale attempt is simply discarded.
        self.storage.remove(self.path + ".compact")
        # Learn the replication position of an existing file before
        # opening it for append: the segment number rides in the head
        # snapshot record (compaction incarnation), and the offset is
        # the count of valid records already present. Journal files are
        # compaction-bounded, so this scan is O(state), not O(history).
        self.segment = 0
        self.record_count = 0
        for record in self.read_records(self.path):
            if self.record_count == 0 and record.get("rec") == "snapshot":
                self.segment = int(record.get("segment", 0))
            self.record_count += 1
        self._file = self.storage.open(self.path, "a")
        self._unsynced = 0
        self._appends_since_compact = 0
        self.appended = 0
        self.fsyncs = 0
        #: Failed append writes / failed fsyncs (storage refused); the
        #: affected records were never counted as present or durable.
        self.append_failures = 0
        self.sync_failures = 0
        self.compactions = 0
        #: Fresh segments started by :meth:`rebuild` (degraded-mode resume).
        self.rebuilds = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, record: dict[str, Any]) -> None:
        """Append one record; durable after at most ``fsync_every`` appends."""
        if self._closed:
            raise JournalError("journal is closed")
        try:
            self._file.write(json.dumps(record, separators=(",", ":")) + "\n")
        except (OSError, ValueError):
            # The record may be absent or torn on disk; replay's
            # longest-valid-prefix tolerance absorbs either form. It is
            # NOT counted into record_count — replication cursors must
            # only ever count records that parse.
            self.append_failures += 1
            raise
        self.appended += 1
        self.record_count += 1
        self._unsynced += 1
        self._appends_since_compact += 1
        if self._unsynced >= self.fsync_every:
            self.flush()

    def flush(self) -> None:
        """Force buffered appends to stable storage (fsync).

        Durability accounting is honest: ``_unsynced`` is only reset —
        and ``fsyncs`` only incremented — after the fsync *succeeded*.
        A refused barrier re-surfaces on the next flush instead of
        silently marking the batch durable.
        """
        if self._closed:
            return
        try:
            self.storage.fsync(self._file)
        except OSError:
            self.sync_failures += 1
            raise
        if self._unsynced:
            self.fsyncs += 1
        self._unsynced = 0

    @property
    def should_compact(self) -> bool:
        return self._appends_since_compact >= self.compact_every

    def compact(self, state: JournalState) -> None:
        """Rewrite the journal as one snapshot record, atomically."""
        if self._closed:
            raise JournalError("journal is closed")
        # Everything the snapshot summarizes must be durable first; a
        # refused fsync aborts the compaction before any file is touched.
        self.flush()
        self._rewrite(state)
        self.compactions += 1

    def _rewrite(self, state: JournalState) -> None:
        """Swap a one-snapshot segment over the journal (:func:`replace_journal`).

        Failure anywhere leaves the old journal authoritative: the
        append handle is made usable again and the error surfaces
        un-counted (segment and record_count describe the file that
        still exists). Offsets taken against the old file become
        meaningless: followers behind it catch up via the snapshot path.
        """
        try:
            replace_journal(
                self.storage, self.path, self.path + ".compact",
                [{"rec": "snapshot", "state": state.to_dict(),
                  "segment": self.segment + 1}],
                before_replace=self._close_file,
            )
        except OSError:
            if getattr(self._file, "closed", False):
                with contextlib.suppress(OSError):
                    self._file = self.storage.open(self.path, "a")
            raise
        self._file = self.storage.open(self.path, "a")
        self._appends_since_compact = 0
        self._unsynced = 0
        self.segment += 1
        self.record_count = 1

    def _close_file(self) -> None:
        with contextlib.suppress(OSError, ValueError):
            self._file.close()

    def maybe_compact(self, state: JournalState) -> bool:
        """Compact if the tail has grown past ``compact_every`` appends."""
        if self.should_compact:
            self.compact(state)
            return True
        return False

    def rebuild(self, state: JournalState) -> None:
        """Start a fresh fsync'd segment from ``state`` (degraded resume).

        Unlike :meth:`compact`, the current journal tail is *not*
        flushed first — after a storage outage the tail is known-stale
        (appends were dropped while degraded) and the broken handle may
        not even accept a flush. The in-memory ``state`` is the
        authority; it is swapped atomically over the stale journal.
        """
        if self._closed:
            raise JournalError("journal is closed")
        self._rewrite(state)
        self.rebuilds += 1

    def close(self) -> None:
        if not self._closed:
            # Best-effort durability on the way out: a dying disk must
            # not leave the handle open/leaked behind a raised flush.
            with contextlib.suppress(OSError):
                self.flush()
            self._close_file()
            self._closed = True

    # ------------------------------------------------------------------
    # Streaming replication (PROTOCOL.md §12)
    # ------------------------------------------------------------------
    def cursor(self) -> JournalCursor:
        """The current end-of-journal position (for a caught-up follower)."""
        return JournalCursor(segment=self.segment, offset=self.record_count)

    def read_since(self, cursor: JournalCursor) -> StreamBatch:
        """Records a follower at ``cursor`` is missing.

        Durability before visibility: the journal is flushed first, so a
        record a follower acknowledges can never be one the leader would
        lose in a crash (the replica would otherwise be *ahead* of its
        leader's own disk). A cursor from a compacted-away segment (or
        the null cursor) takes the catch-up snapshot path: the whole
        current file, flagged so the follower replaces its copy instead
        of appending.
        """
        if self._closed:
            raise JournalError("journal is closed")
        self.flush()
        records = list(self.read_records(self.path))
        if cursor.segment != self.segment or cursor.offset > len(records):
            return StreamBatch(
                records=records,
                cursor=JournalCursor(self.segment, len(records)),
                snapshot=True,
            )
        return StreamBatch(
            records=records[cursor.offset:],
            cursor=JournalCursor(self.segment, len(records)),
            snapshot=False,
        )

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @staticmethod
    def read_records(path: str | os.PathLike[str]) -> "RecordScan":
        """The valid records of ``path`` up to the first corrupt line."""
        return RecordScan(path)

    @classmethod
    def replay(cls, path: str | os.PathLike[str]) -> ReplayResult:
        """Fold snapshot + tail into a :class:`JournalState`.

        Stops at the first invalid line (longest-valid-prefix recovery);
        duplicate records fold idempotently, so an at-least-once writer
        is safe.
        """
        state = JournalState()
        result = ReplayResult(state=state)
        scan = cls.read_records(path)
        for record in scan:
            state.apply(record)
            result.records += 1
        result.truncated, result.bad_line = scan.truncated, scan.bad_line
        return result


class RecordScan:
    """The one JSON-lines scanner every journal reader folds over.

    Iterating yields each record (a dict carrying ``rec``) of the
    longest valid prefix; blank lines are skipped and a missing file is
    empty. The scan stops at the first line that is not such a record —
    a torn tail, foreign bytes, valid JSON of the wrong shape — and
    then says so: ``truncated`` is set and ``bad_line`` holds a
    120-character excerpt of the offender.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = os.fspath(path)
        self.truncated = False
        self.bad_line = ""

    def __iter__(self) -> Iterator[dict[str, Any]]:
        self.truncated, self.bad_line = False, ""
        try:
            # A torn tail may hold arbitrary bytes; decode errors become
            # replacement characters, which fail JSON parsing and stop
            # the scan like any other corruption (instead of raising).
            handle = open(self.path, "r", encoding="utf-8", errors="replace")
        except FileNotFoundError:
            return
        with handle:
            for line in handle:
                stripped = line.strip()
                if not stripped:
                    continue
                try:
                    record = json.loads(stripped)
                except ValueError:
                    record = None
                if not isinstance(record, dict) or "rec" not in record:
                    self.truncated = True
                    self.bad_line = stripped[:120]
                    return
                yield record
