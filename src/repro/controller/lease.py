"""Lease-based controller leadership with epoch fencing (PROTOCOL.md §12).

The paper's controller is logically centralized (§4.2); PR 5 made one
instance crash-safe, but nothing prevented *two* instances from both
believing they own the fleet. This module supplies the missing
arbitration: a **lease** — time-bounded exclusive leadership granted by
a pluggable store — plus a monotonic **epoch** minted by the store on
every change of ownership.

The epoch is the fencing token. For lease-managed controllers it *is*
the controller generation that rides on the envelope of every
southbound and replication message (``Message.epoch``): OBIs and
standby replicas reject anything
stamped with an epoch below the highest they have witnessed, so a
deposed leader — even one that never noticed losing its lease — can
never have a write accepted anywhere that matters.

Safety does not depend on clocks being synchronized between
controllers: only the *store* evaluates expiry, against whatever clock
the caller passes (tests drive a fake clock; a real deployment would
back :class:`LeaseStore` with etcd/ZooKeeper, whose server evaluates
TTLs). A leader partitioned from the store simply fails to renew —
modeled by :meth:`InProcLeaseStore.partition` raising
:class:`LeaseUnavailable` — and its lease lapses in absentia; its
stale epoch then does the actual fencing.

Liveness rule (the classic one): a standby may take over only after
the incumbent's lease has **expired** at the store, never merely when
the incumbent looks slow. The takeover mints epoch+1, and the new
leader journals that epoch durably *before* contacting any OBI
(:meth:`repro.controller.obc.OpenBoxController.adopt_epoch`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


class LeaseUnavailable(Exception):
    """The lease store could not be reached (partition, crash)."""


@dataclass(frozen=True)
class Lease:
    """One grant of leadership: who, under which epoch, until when."""

    owner: str
    #: Monotonic fencing token, bumped by the store on every change of
    #: ownership (never on renewal).
    epoch: int
    #: Expiry instant on the *store's* clock.
    expires_at: float


class LeaseStore:
    """Pluggable leadership arbiter.

    Implementations must guarantee: at most one unexpired lease exists
    at a time, and epochs are strictly monotonic across acquisitions.
    All methods take ``now`` explicitly — the store's notion of time is
    the only one that matters, and injecting it keeps tests
    deterministic.
    """

    def acquire(self, owner: str, ttl: float, now: float) -> Lease | None:
        """Grant ``owner`` the lease iff none is currently valid.

        Returns the (new-epoch) lease, the owner's existing lease if it
        already holds one, or None when another owner's lease is live.
        """
        raise NotImplementedError

    def renew(self, owner: str, ttl: float, now: float) -> Lease | None:
        """Extend ``owner``'s unexpired lease (same epoch), else None."""
        raise NotImplementedError

    def peek(self, now: float) -> Lease | None:
        """The currently valid lease, if any (expired ones are None)."""
        raise NotImplementedError

    def release(self, owner: str, now: float) -> bool:
        """Voluntarily drop ``owner``'s lease (clean shutdown handoff)."""
        raise NotImplementedError


class InProcLeaseStore(LeaseStore):
    """Deterministic single-process lease store.

    The reference implementation the chaos suite arbitrates with: no
    threads, no wall clock, and an explicit :meth:`partition` switch
    per owner so tests can model a leader that is alive but cut off
    from the store (every call raises :class:`LeaseUnavailable` while
    partitioned — the leader cannot renew *and* cannot observe who
    holds the lease now).
    """

    def __init__(self) -> None:
        self._lease: Lease | None = None
        self._epoch = 0
        self._partitioned: set[str] = set()
        self.acquisitions = 0
        self.renewals = 0
        self.rejected = 0

    # -- chaos controls -------------------------------------------------
    def partition(self, owner: str) -> None:
        """Cut ``owner`` off from the store (its calls start raising)."""
        self._partitioned.add(owner)

    def heal(self, owner: str) -> None:
        self._partitioned.discard(owner)

    def _check_reachable(self, owner: str) -> None:
        if owner in self._partitioned:
            raise LeaseUnavailable(f"{owner!r} is partitioned from the lease store")

    # -- LeaseStore -----------------------------------------------------
    def acquire(self, owner: str, ttl: float, now: float) -> Lease | None:
        self._check_reachable(owner)
        current = self._lease
        if current is not None and current.expires_at > now:
            if current.owner == owner:
                return current
            self.rejected += 1
            return None
        self._epoch += 1
        self._lease = Lease(owner=owner, epoch=self._epoch, expires_at=now + ttl)
        self.acquisitions += 1
        return self._lease

    def renew(self, owner: str, ttl: float, now: float) -> Lease | None:
        self._check_reachable(owner)
        current = self._lease
        if current is None or current.owner != owner or current.expires_at <= now:
            # An expired lease cannot be renewed, only re-acquired —
            # re-acquisition mints a fresh epoch, which is what keeps a
            # slow leader from resurrecting its old fencing token.
            return None
        self._lease = Lease(owner=owner, epoch=current.epoch, expires_at=now + ttl)
        self.renewals += 1
        return self._lease

    def peek(self, now: float) -> Lease | None:
        current = self._lease
        if current is None or current.expires_at <= now:
            return None
        return current

    def release(self, owner: str, now: float) -> bool:
        self._check_reachable(owner)
        current = self._lease
        if current is not None and current.owner == owner:
            self._lease = None
            return True
        return False


class LeaseManager:
    """One controller's view of the leadership lease.

    Drive :meth:`tick` periodically (the orchestration loop does):
    while leading it renews; while following it attempts acquisition,
    which only succeeds once the incumbent's lease has expired at the
    store. Store unreachability (partition) is absorbed — the manager
    reports not-leader and counts the failure, it never raises into
    the control loop.
    """

    def __init__(
        self,
        owner: str,
        store: LeaseStore,
        ttl: float = 30.0,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if ttl <= 0:
            raise ValueError("ttl must be > 0")
        self.owner = owner
        self.store = store
        self.ttl = ttl
        self.clock = clock
        self.lease: Lease | None = None
        self.acquisitions = 0
        self.renewals = 0
        #: Times leadership was observably lost (held, then gone).
        self.losses = 0
        self.store_failures = 0

    def _now(self, now: float | None) -> float:
        if now is not None:
            return now
        if self.clock is None:
            raise ValueError("no clock configured; pass now= explicitly")
        return self.clock()

    def is_leader(self, now: float | None = None) -> bool:
        """Locally-held lease still unexpired? (No store round trip —
        this is the cheap check the hot path may make between ticks.)"""
        lease = self.lease
        return lease is not None and lease.expires_at > self._now(now)

    @property
    def epoch(self) -> int:
        """Epoch of the currently held lease (0 when not leading)."""
        return self.lease.epoch if self.lease is not None else 0

    def tick(self, now: float | None = None) -> Lease | None:
        """Renew-or-acquire; returns the held lease or None."""
        moment = self._now(now)
        held_before = self.lease is not None
        try:
            if self.lease is not None:
                renewed = self.store.renew(self.owner, self.ttl, moment)
                if renewed is not None:
                    self.lease = renewed
                    self.renewals += 1
                    return renewed
                # Couldn't renew: the lease lapsed (and someone else may
                # own a newer epoch). Fall through to an acquire attempt.
                self.lease = None
            acquired = self.store.acquire(self.owner, self.ttl, moment)
        except LeaseUnavailable:
            self.store_failures += 1
            if self.lease is not None:
                # Keep the lease object until it expires on its own:
                # being partitioned from the store does not instantly
                # end a still-valid grant — but it will lapse, and
                # without renewal this manager demotes itself then.
                if self.lease.expires_at <= moment:
                    self.lease = None
                    self.losses += 1
                return self.lease
            return None
        if acquired is not None:
            if self.lease is None or acquired.epoch != self.lease.epoch:
                self.acquisitions += 1
            self.lease = acquired
            return acquired
        if held_before:
            self.losses += 1
        self.lease = None
        return None

    def release(self, now: float | None = None) -> None:
        """Voluntarily hand the lease back (clean shutdown)."""
        moment = self._now(now)
        if self.lease is not None:
            try:
                self.store.release(self.owner, moment)
            except LeaseUnavailable:
                self.store_failures += 1
            self.lease = None
