"""Blocking lock acquisition on top of the event-driven lock manager.

:class:`~repro.locking.manager.LockManager` is deliberately passive: a
request either is granted or joins a FIFO queue, and releases report which
queued requests became grantable.  :class:`BlockingLockManager` turns that
interface into what OS threads need — ``acquire`` blocks the calling thread
on a condition variable until its queued request is granted, the per-request
timeout expires, or a deadlock detector marks the transaction as a victim.

All inner lock-manager state is guarded by one mutex; the condition variable
shares it, so waiters re-check their state atomically with every grant and
doom decision.  Deadlock detection itself lives in
:class:`~repro.engine.detector.DeadlockDetector`, which calls :meth:`detect`
periodically (and immediately after any request blocks, via the
``on_block`` hook).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Hashable, Mapping

from repro.errors import DeadlockError, LockTimeoutError
from repro.locking.deadlock import choose_victim, find_cycle
from repro.locking.manager import (  # noqa: F401 - USE_DEFAULT_TIMEOUT re-exported
    USE_DEFAULT_TIMEOUT,
    LockManager,
    Mode,
    Resource,
    TxnId,
)


class BlockingLockManager:
    """Condition-variable blocking, timeouts and victim abort for one protocol.

    One instance wraps one :class:`LockManager` and serves every worker
    thread of one :class:`~repro.engine.engine.Engine`.  A transaction must
    only ever be driven from one thread at a time (the session contract), but
    any number of transactions may block concurrently.
    """

    def __init__(self, inner: LockManager, *,
                 default_timeout: float | None = None,
                 victim_key: Callable[[TxnId], Hashable] | None = None) -> None:
        self._inner = inner
        self._mutex = threading.Lock()
        self._changed = threading.Condition(self._mutex)
        #: Deadlock victims not yet aborted: txn -> the cycle it was on.
        self._doomed: dict[TxnId, tuple[TxnId, ...]] = {}
        self._default_timeout = default_timeout
        #: Age order used by :meth:`detect` to pick victims; ``None`` compares
        #: raw identifiers.  The engine passes the original begin timestamp so
        #: retried incarnations keep their seniority (wait-die style).
        self.victim_key = victim_key
        #: Called (outside any lock decision, but under the mutex is avoided)
        #: whenever a request starts waiting; the engine wires it to the
        #: deadlock detector's nudge so cycles are found promptly.
        self.on_block: Callable[[], None] | None = None
        #: Per-resource contention: resource -> [blocked requests, seconds
        #: spent blocked].  Only requests that actually waited are counted,
        #: whatever their outcome (grant, timeout or victim abort) — the
        #: blocked time is real contention either way.
        self._contention: dict[Resource, list[float]] = {}
        #: Victims this manager has doomed (its own detector passes and
        #: cross-shard dooms both count).
        self._victims = 0

    # -- acquiring -------------------------------------------------------------

    def acquire(self, txn: TxnId, resource: Resource, mode: Mode,
                timeout: float | None | object = USE_DEFAULT_TIMEOUT,
                trace: object = None) -> float:
        """Block until ``txn`` holds ``mode`` on ``resource``.

        Returns the seconds spent blocked (``0.0`` on an immediate grant).

        ``trace`` is an opaque trace context accepted for signature parity
        with the remote shard handle (the sharded front passes it through
        uniformly).  A local acquire has no RPC hop to annotate — the
        engine's own lock span covers it — so it is ignored here.

        Timeout contract: ``None`` waits forever; a positive timeout bounds
        the wait; a timeout of **zero or less is a deterministic try-lock** —
        an incompatible resource raises :class:`LockTimeoutError` immediately
        and the probe leaves no queuing side effects (the momentary queue
        entry is withdrawn before the manager's mutex is released, so no
        other thread can ever observe it, block behind it, or wait for a
        wakeup because of it).

        Raises:
            LockTimeoutError: the request stayed queued past ``timeout``
                seconds (the manager's default when not given), or the
                resource was busy and the timeout was non-positive.  The
                queued request is withdrawn; locks already held are
                untouched.
            DeadlockError: the deadlock detector chose ``txn`` as a victim
                while it was waiting (or before it could even queue).  The
                caller must abort the transaction.
        """
        if timeout is USE_DEFAULT_TIMEOUT:
            timeout = self._default_timeout
        with self._mutex:
            self._ensure_not_doomed(txn)
            outcome = self._inner.request(txn, resource, mode)
            if outcome.granted:
                return 0.0
            if timeout is not None and timeout <= 0:
                # Fail-fast try-lock: withdraw atomically with the probe.
                self._withdraw(txn, resource, mode)
                raise LockTimeoutError(
                    f"transaction {txn} could not try-lock {resource!r} in "
                    f"mode {mode!r} (timeout={timeout}); held by "
                    f"{outcome.blockers}", holders=outcome.blockers,
                    waited=0.0)
        if self.on_block is not None:
            self.on_block()
        started = time.monotonic()
        deadline = None if timeout is None else started + timeout
        with self._mutex:
            while True:
                if txn in self._doomed:
                    self._withdraw(txn, resource, mode)
                    self._note_wait(resource, time.monotonic() - started)
                    self._raise_doomed(txn, waited=time.monotonic() - started)
                if self._inner.holds(txn, resource, mode):
                    waited = time.monotonic() - started
                    self._note_wait(resource, waited)
                    return waited
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self._withdraw(txn, resource, mode)
                        holders = tuple(self._inner.holders(resource))
                        self._note_wait(resource, time.monotonic() - started)
                        raise LockTimeoutError(
                            f"transaction {txn} timed out after {timeout}s "
                            f"waiting for {resource!r} in mode {mode!r}; "
                            f"held by {holders}", holders=holders,
                            waited=time.monotonic() - started)
                self._changed.wait(remaining)

    # -- releasing -------------------------------------------------------------

    def release_all(self, txn: TxnId) -> None:
        """Release every lock of ``txn``, clear its doom flag, and wake the
        waiters when the release granted one of them its lock.

        A release that promoted nobody changed nothing a blocked thread is
        waiting to see (grants, dooms and deadlines are the only wake-up
        reasons), so it wakes no one.
        """
        with self._mutex:
            promoted = self._inner.release_all(txn)
            self._doomed.pop(txn, None)
            if promoted:
                self._changed.notify_all()

    # -- deadlock detection ----------------------------------------------------

    def detect(self) -> tuple[TxnId, ...]:
        """Find deadlock cycles and doom one victim per cycle.

        The victim of each cycle is the youngest transaction on it, where
        "youngest" is decided by :attr:`victim_key` (largest identifier when
        unset — identifiers are allocated monotonically), matching the
        simulator's policy.  Transactions already doomed are excluded from
        the waits-for graph: they are about to abort, which breaks any cycle
        through them.  Returns the newly doomed victims.
        """
        with self._mutex:
            edges = {waiter: targets
                     for waiter, targets in self._inner.waits_for_edges().items()
                     if waiter not in self._doomed}
            victims: list[TxnId] = []
            while True:
                cycle = find_cycle(edges)
                if not cycle:
                    break
                victim = choose_victim(cycle, self.victim_key)
                self._doomed[victim] = tuple(cycle)
                victims.append(victim)
                edges.pop(victim, None)
            if victims:
                self._victims += len(victims)
                self._changed.notify_all()
            return tuple(victims)

    # -- cross-shard coordination ----------------------------------------------
    #
    # A sharded front-end (repro.sharding.locks.ShardedLockFront) runs cycle
    # detection over the *union* of many managers' waits-for graphs and then
    # dooms the victims in every shard.  These two methods are the pieces
    # detect() is made of, exposed so the coordinator can interleave them.

    def collect_edges(self) -> dict[TxnId, set[TxnId]]:
        """This manager's waits-for edges, minus transactions already doomed."""
        with self._mutex:
            return {waiter: set(targets)
                    for waiter, targets in self._inner.waits_for_edges().items()
                    if waiter not in self._doomed}

    def doom(self, victims: Mapping[TxnId, tuple[TxnId, ...]]) -> tuple[TxnId, ...]:
        """Doom those of ``victims`` (txn -> cycle) that are *waiting here*.

        A cross-shard coordinator chooses victims from a union snapshot
        assembled outside any shard mutex, so a chosen victim may have been
        granted — or have committed — by the time the doom arrives.  Only
        transactions with a queued request in this shard are marked: they
        will wake, withdraw and abort.  A victim that no longer waits
        anywhere had its cycle resolve on its own, and skipping it is what
        keeps a stale doom flag from outliving the transaction (identifiers
        are never reused, so nobody would ever clear it).

        Returns the victims actually marked here, so the coordinator can
        attribute deadlock victims to shards.
        """
        if not victims:
            return ()
        with self._mutex:
            blocked = self._inner.blocked_transactions()
            relevant = {txn: cycle for txn, cycle in victims.items()
                        if txn in blocked}
            if relevant:
                self._doomed.update(relevant)
                self._victims += len(relevant)
                self._changed.notify_all()
            return tuple(relevant)

    # -- introspection ---------------------------------------------------------

    @property
    def inner(self) -> LockManager:
        """The wrapped event-driven lock manager (tests, metrics)."""
        return self._inner

    def holds(self, txn: TxnId, resource: Resource, mode: Mode | None = None) -> bool:
        """Whether ``txn`` currently holds (that mode of) ``resource``."""
        with self._mutex:
            return self._inner.holds(txn, resource, mode)

    def waiting(self, resource: Resource) -> tuple[tuple[TxnId, Mode], ...]:
        """Queued requests on ``resource`` in FIFO order."""
        with self._mutex:
            return self._inner.waiting(resource)

    def doomed_transactions(self) -> frozenset[TxnId]:
        """Victims chosen by the detector that have not yet aborted."""
        with self._mutex:
            return frozenset(self._doomed)

    @property
    def victims_doomed(self) -> int:
        """Deadlock victims ever doomed through this manager."""
        with self._mutex:
            return self._victims

    def hot_resources(self, top: int = 8) -> list[tuple[Resource, int, float]]:
        """The ``top`` most contended resources as ``(resource, waits,
        wait_seconds)``, sorted by total blocked time."""
        with self._mutex:
            entries = [(resource, int(tally[0]), tally[1])
                       for resource, tally in self._contention.items()]
        entries.sort(key=lambda entry: entry[2], reverse=True)
        return entries[:top]

    # -- internals -------------------------------------------------------------

    def _note_wait(self, resource: Resource, waited: float) -> None:
        """Attribute one blocked request to ``resource`` (mutex held)."""
        if waited <= 0.0:
            return
        tally = self._contention.get(resource)
        if tally is None:
            self._contention[resource] = [1, waited]
        else:
            tally[0] += 1
            tally[1] += waited

    def _withdraw(self, txn: TxnId, resource: Resource, mode: Mode) -> None:
        promoted = self._inner.cancel(txn, resource, mode)
        if promoted:
            self._changed.notify_all()

    def _ensure_not_doomed(self, txn: TxnId) -> None:
        if txn in self._doomed:
            self._raise_doomed(txn)

    def _raise_doomed(self, txn: TxnId, waited: float = 0.0) -> None:
        cycle = self._doomed[txn]
        raise DeadlockError(
            f"transaction {txn} was chosen as the deadlock victim of the "
            f"cycle {cycle}", victim=txn, cycle=cycle, waited=waited)
