"""Controller replication: journal streaming to hot standbys (§12).

PR 5's crash recovery rebuilt a controller from its *local* journal —
fine when the host survives, useless when it does not. This module
replicates the journal to standby controllers while the leader is
alive, so leadership can move in seconds instead of waiting for a
human and a disk:

* the **leader** runs a :class:`ReplicationHub` that tails its own
  :class:`~repro.controller.journal.StateJournal` with segment-offset
  cursors (:meth:`StateJournal.read_since`) and ships deltas as
  ``JournalStream`` messages — or a full catch-up **snapshot** when a
  replica's cursor predates a compaction;
* each **standby** runs a :class:`StandbyController`: not a live
  controller at all, but a journal sink that fsyncs every streamed
  record into its own local journal file and acks durable progress
  with ``ReplicaAck``. The standby holds no OBI connections, pushes
  nothing, and answers nothing but the replication protocol — it
  cannot split the brain because it has no mouth;
* on failover (the incumbent's lease expired — see
  :mod:`repro.controller.lease`), :meth:`StandbyController.take_over`
  turns the replica journal into a live controller via the *existing*
  :meth:`OpenBoxController.recover` path, then durably adopts the new
  lease epoch as its controller generation **before any OBI contact**
  — the same fencing OBIs already enforce, now minted by the lease
  store instead of a local counter.

Epoch fencing runs in both directions: a stream stamped with an epoch
below the replica's high-water mark is rejected ``stale_generation``
(a deposed leader must not overwrite its likely successor's journal),
and a ``ReplicaAck`` carrying a higher epoch than the leader's own
tells the leader it has been superseded without waiting for an OBI to
say so.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, ClassVar

from repro.controller.journal import (
    JournalCursor,
    JournalState,
    StateJournal,
    replace_journal,
)
from repro.durable import LOCAL, Storage
from repro.protocol.dispatch import Handlers, ResponseCache, serve
from repro.protocol.errors import ErrorCode
from repro.protocol.messages import (
    ErrorMessage,
    JournalStream,
    LeaseAnnounce,
    Message,
    ReplicaAck,
)
from repro.transport.base import ChannelClosed

if TYPE_CHECKING:  # pragma: no cover
    from repro.controller.lease import Lease
    from repro.controller.obc import OpenBoxController


@dataclass
class ReplicaLink:
    """The leader's bookkeeping for one attached standby."""

    replica_id: str
    channel: Any
    #: Highest cursor the replica has durably acknowledged.
    cursor: JournalCursor = field(default_factory=JournalCursor)
    #: Streams shipped / acks received / send failures, for lag views.
    streams_sent: int = 0
    acks: int = 0
    failures: int = 0


class ReplicationHub:
    """Leader-side journal streaming to attached standbys.

    Drive :meth:`sync` from the orchestration tick (wired there by
    default): each call flushes the leader journal, computes every
    replica's missing suffix from its acknowledged cursor, and ships
    it. Failures are absorbed — a slow or dead replica never blocks
    the control loop; it just falls behind and is caught up (by delta
    or snapshot) when reachable again.
    """

    def __init__(
        self,
        controller: "OpenBoxController",
        leader_id: str = "leader",
        endpoints: list[str] | None = None,
    ) -> None:
        if controller.journal is None:
            raise ValueError("replication requires a journaled controller")
        self.controller = controller
        self.leader_id = leader_id
        #: Ordered controller endpoints advertised in LeaseAnnounce —
        #: the re-homing dial list OBIs fall back on at failover.
        self.endpoints = list(endpoints or [])
        self.replicas: dict[str, ReplicaLink] = {}

    # ------------------------------------------------------------------
    def attach(self, replica_id: str, channel: Any) -> ReplicaLink:
        """Register a standby; first sync ships a full snapshot."""
        link = ReplicaLink(replica_id=replica_id, channel=channel)
        self.replicas[replica_id] = link
        return link

    def lag(self, replica_id: str) -> int:
        """Records the replica trails the leader journal by (same
        segment), or -1 when it needs a snapshot catch-up."""
        link = self.replicas.get(replica_id)
        journal = self.controller.journal
        if link is None or journal is None:
            return -1
        if link.cursor.segment != journal.segment:
            return -1
        return max(journal.record_count - link.cursor.offset, 0)

    def sync(self, replica_id: str | None = None) -> list[str]:
        """Stream pending records; returns the replicas that acked.

        A deposed leader (``superseded``) streams nothing — its journal
        must not overwrite a successor's replica. A *degraded* leader
        (journal storage refusing writes) streams nothing either: the
        on-disk journal is known-stale, and ``read_since`` could not
        flush it anyway; replicas catch up via the snapshot path once
        the journal is rebuilt.
        """
        if self.controller.superseded or self.controller.journal is None:
            return []
        if self.controller.degraded:
            return []
        acked: list[str] = []
        targets = (
            [self.replicas[replica_id]]
            if replica_id is not None and replica_id in self.replicas
            else list(self.replicas.values())
        )
        for link in targets:
            try:
                batch = self.controller.journal.read_since(link.cursor)
            except OSError as exc:
                # The leader's own disk refused the pre-stream flush:
                # same condition _journal sheds on — degrade, stop.
                self.controller._enter_degraded(str(exc))
                return acked
            if not batch.records and not batch.snapshot:
                acked.append(link.replica_id)  # already caught up
                continue
            stream = JournalStream(
                leader_id=self.leader_id,
                snapshot=batch.snapshot,
                segment=batch.cursor.segment,
                offset=batch.cursor.offset,
                records=batch.records,
            )
            try:
                # A ReplicaAck above our epoch, or a stale_generation
                # refusal, marks us superseded right there in ``send``.
                response = self.controller.send(link, stream)
            except ChannelClosed:
                link.failures += 1
                continue
            link.streams_sent += 1
            if isinstance(response, ReplicaAck):
                link.cursor = JournalCursor(response.segment, response.offset)
                link.acks += 1
                acked.append(link.replica_id)
            else:
                link.failures += 1
        return acked

    def announce(self, lease_remaining: float = 0.0) -> list[str]:
        """Send LeaseAnnounce (leadership + re-homing endpoints) to
        every standby and every connected OBI; returns who heard it."""
        heard: list[str] = []
        message_of = lambda: LeaseAnnounce(  # noqa: E731 - fresh xid per send
            leader_id=self.leader_id,
            epoch=self.controller.generation,
            lease_remaining=lease_remaining,
            endpoints=list(self.endpoints),
        )
        for link in self.replicas.values():
            try:
                link.channel.notify(message_of())
            except ChannelClosed:
                link.failures += 1
                continue
            heard.append(link.replica_id)
        for obi_id, handle in list(self.controller.obis.items()):
            if handle.channel is None:
                continue
            try:
                handle.channel.notify(message_of())
            except ChannelClosed:
                continue
            heard.append(obi_id)
        return heard


class StandbyController:
    """A hot standby: a durable, fenced sink for the leader's journal.

    Wire ``handle_message`` as the channel handler on the standby's
    endpoint. Every ``JournalStream`` batch is fsynced into the local
    replica journal before it is acked (``fsync_every=1``: an acked
    record is never lost), duplicates from retried streams are absorbed
    by xid dedup, and stale-epoch streams are fenced. At failover,
    :meth:`take_over` promotes the replica journal into a live
    controller through ``OpenBoxController.recover``.
    """

    def __init__(
        self,
        replica_id: str,
        journal_path: str | os.PathLike[str],
        clock: Callable[[], float] | None = None,
        storage: Storage | None = None,
    ) -> None:
        self.replica_id = replica_id
        self.path = os.fspath(journal_path)
        self.clock = clock
        self.storage = storage or LOCAL
        # A crash mid-catch-up can leave the snapshot temp file behind;
        # the replica journal itself is intact (the replace never
        # happened), so the stale attempt is discarded.
        self.storage.remove(self.path + ".catchup")
        self.journal = StateJournal(
            self.path, fsync_every=1, storage=self.storage
        )
        #: Highest leader epoch witnessed on the stream; the fence.
        self.highest_epoch = 0
        # A replica journal inherited from a previous run already
        # encodes the epoch fence: restore it so a deposed leader
        # cannot stream to a freshly restarted standby.
        replayed = StateJournal.replay(self.path)
        if replayed.records:
            self.highest_epoch = replayed.state.generation
        self.leader_id = ""
        self.endpoints: list[str] = []
        self.records_applied = 0
        self.snapshots_received = 0
        self.streams_received = 0
        self.stale_streams_rejected = 0
        self.duplicate_streams = 0
        #: Streams refused because the replica's own disk failed.
        self.storage_failures = 0
        self._responses = ResponseCache(64)
        self.promoted = False

    # ------------------------------------------------------------------
    def state(self) -> JournalState:
        """The logical controller state the replica currently encodes."""
        return StateJournal.replay(self.path).state

    def cursor(self) -> JournalCursor:
        return self.journal.cursor()

    # ------------------------------------------------------------------
    def _replace_journal(self, records: list[dict[str, Any]]) -> None:
        """Snapshot catch-up: atomically replace the replica journal.

        Failure anywhere leaves the old replica journal authoritative:
        the temp attempt is removed, the journal handle reopened, and
        the error propagates so the stream is *not* acked (the leader
        retries the snapshot later).
        """
        self.journal.close()
        try:
            replace_journal(
                self.storage, self.path, self.path + ".catchup", records
            )
        finally:
            self.journal = StateJournal(
                self.path, fsync_every=1, storage=self.storage
            )

    def _ack(self, xid: int) -> ReplicaAck:
        cursor = self.journal.cursor()
        return ReplicaAck(
            xid=xid,
            replica_id=self.replica_id,
            epoch=self.highest_epoch,
            segment=cursor.segment,
            offset=cursor.offset,
        )

    def handle_message(self, message: Message) -> Message | None:
        """Replication protocol endpoint: fence, dedup, :data:`HANDLERS`.

        The fence comes before dedup, exactly like the OBI's generation
        guard: a message below the highest epoch witnessed is a deposed
        leader's (its xids belong to a dead number space), and once
        promoted the replica journal belongs to a live controller, so
        every later message is refused.
        """
        if self.promoted or message.epoch < self.highest_epoch:
            self.stale_streams_rejected += 1
            return ErrorMessage(
                xid=message.xid,
                code=ErrorCode.STALE_GENERATION,
                detail=f"epoch {message.epoch} refused: replica "
                       f"{self.replica_id!r} has witnessed {self.highest_epoch}"
                       + (" and was promoted" if self.promoted else ""),
            )
        self.highest_epoch = message.epoch
        cached = self._responses.get(message.xid)
        if cached is not None:
            self.duplicate_streams += 1
            return cached
        response = serve(self, self.HANDLERS, message)
        if not isinstance(response, ErrorMessage):  # see _apply_stream
            self._responses.put(message.xid, response)
        return response

    def _lease_announce(self, message: LeaseAnnounce) -> Message:
        self.leader_id = message.leader_id
        if message.endpoints:
            self.endpoints = list(message.endpoints)
        return self._ack(message.xid)

    def _apply_stream(self, stream: JournalStream) -> Message:
        if stream.leader_id:
            self.leader_id = stream.leader_id
        self.streams_received += 1
        try:
            if stream.snapshot:
                self._replace_journal(stream.records)
                self.snapshots_received += 1
            else:
                for record in stream.records:
                    self.journal.append(record)
                self.journal.flush()
        except OSError as exc:
            # Replica storage refused: the batch is NOT acked (the
            # cursor the leader holds stays put and the records are
            # re-streamed later). Not cached either — a retry of this
            # xid must retry the write, not replay the refusal.
            self.storage_failures += 1
            return ErrorMessage(
                xid=stream.xid,
                code=ErrorCode.INTERNAL_ERROR,
                detail=f"replica storage failed: {exc}",
            )
        self.records_applied += len(stream.records)
        return self._ack(stream.xid)

    #: The replication protocol a standby serves: message class -> handler.
    HANDLERS: ClassVar[Handlers] = {
        LeaseAnnounce: _lease_announce,
        JournalStream: _apply_stream,
    }

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------
    def take_over(
        self,
        lease: "Lease",
        applications: list | tuple = (),
        **recover_kwargs: Any,
    ) -> "OpenBoxController":
        """Promote the replica journal into a live controller.

        Preconditions are the caller's lease discipline: ``lease`` must
        be a grant from the store (only possible after the incumbent's
        lease expired). Recovery replays the replica journal (PR 5's
        longest-valid-prefix machinery, unchanged), then the lease
        epoch is journaled durably as the controller generation —
        **before any OBI contact** — so every southbound message the
        new leader ever sends is fenced above the old leader's.
        """
        from repro.controller.obc import OpenBoxController

        if lease.epoch < self.highest_epoch:
            raise ValueError(
                f"refusing takeover with stale epoch {lease.epoch}: replica "
                f"has witnessed {self.highest_epoch}"
            )
        self.journal.close()
        controller = OpenBoxController.recover(
            self.path,
            applications=applications,
            clock=recover_kwargs.pop("clock", self.clock),
            **recover_kwargs,
        )
        controller.adopt_epoch(lease.epoch)
        self.promoted = True
        self.highest_epoch = max(self.highest_epoch, lease.epoch)
        return controller
