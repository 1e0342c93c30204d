"""The lock manager.

One :class:`LockManager` instance serves one concurrency-control protocol.
It knows nothing about what modes *mean*: compatibility is delegated to a
callable ``compatible(resource, held_mode, requested_mode)`` supplied by the
protocol, which is how the paper's per-class commutativity tables, classical
read/write locks and multigranularity class locks all share the same
machinery.  This mirrors the paper's point that once access vectors have been
translated into access modes, "run-time checking of commutativity is as
efficient as for compatibility": the callable fills one conflict bitmap row
per (resource, mode) the first time the mode is seen there, and an
uncontended grant afterwards is a single ``granted_mask & conflict[mode]``
test, done inline in :meth:`LockManager.request`.

The manager is event-driven rather than thread-blocking: a request either is
granted immediately or joins a FIFO wait queue, and :meth:`release_all`
reports which queued requests became grantable.  The discrete-event simulator
and the (single-threaded) transaction manager both build on this interface.

Nothing on the transaction path walks the lock table.  Two per-transaction
indexes name the resources a transaction has state on: the *hold index*
(``txn -> resources`` in hold order, filled by every grant) and the *waiter
index* (``txn -> {resource: its queued requests}``, filled when
:meth:`LockManager.request` queues, emptied request by request as
:meth:`LockManager.cancel`, a try-lock's withdrawal or a promotion takes one
out of its queue).  :meth:`LockManager.release_all` pops both entries of the
finishing transaction and visits only those resources;
:meth:`LockManager.blocked_transactions` and
:meth:`LockManager.waits_for_edges` read the waiter index alone.  Resource
entries themselves are never dropped — an entry carries the resource's
conflict bitmaps, which would otherwise be re-derived from the compatibility
callable on every grant — so the table is bounded by the store, and each
entry is stamped with its table position to keep promotion in table order
without a scan.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable

from repro.errors import LockConflictError

#: A lockable resource: any hashable value.  Protocols use tuples whose first
#: element names the granule kind, e.g. ``("instance", oid)`` or
#: ``("class", "c2")``.
Resource = Hashable
#: A lock mode: any hashable value (a method name, ``"R"``, a
#: :class:`~repro.locking.modes.ClassLockMode`, ...).
Mode = Hashable
#: Transaction identifier.
TxnId = int

CompatibilityFn = Callable[[Resource, Mode, Mode], bool]

#: Sentinel meaning "use the manager's default timeout" — distinct from
#: ``None``, which means "wait forever".  Defined here (the lowest layer)
#: so that blocking front-ends in :mod:`repro.engine` and
#: :mod:`repro.sharding` can share it without importing each other.
USE_DEFAULT_TIMEOUT = object()


def frozen(cls: type, **fields: Any) -> Any:
    """``cls(**fields)`` for a frozen dataclass given every field, built in
    under half the time of its generated ``__init__`` (one
    ``object.__setattr__`` per field).  For the per-operation objects of
    the uncontended path: a grant's outcome, a template's plan."""
    instance = object.__new__(cls)
    instance.__dict__.update(fields)
    return instance


class RequestStatus(enum.Enum):
    """Outcome of a lock request."""

    GRANTED = "granted"
    WAITING = "waiting"


@dataclass(frozen=True)
class LockRequestOutcome:
    """What happened to a lock request."""

    status: RequestStatus
    resource: Resource
    mode: Mode
    txn: TxnId
    #: Transactions whose held locks block this request (empty when granted).
    blockers: tuple[TxnId, ...] = ()

    @property
    def granted(self) -> bool:
        """``True`` when the lock was granted immediately."""
        return self.status is RequestStatus.GRANTED


@dataclass
class LockManagerStats:
    """Counters accumulated by the lock manager (reset with ``reset``)."""

    requests: int = 0
    grants: int = 0
    waits: int = 0
    upgrades: int = 0
    redundant: int = 0
    #: Admission checks answered by the per-resource conflict bitmap.
    mask_checks: int = 0
    #: Bitmap checks that admitted the request without scanning holders.
    fast_grants: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        self.requests = 0
        self.grants = 0
        self.waits = 0
        self.upgrades = 0
        self.redundant = 0
        self.mask_checks = 0
        self.fast_grants = 0


@dataclass
class _WaitingRequest:
    txn: TxnId
    mode: Mode


@dataclass
class _ResourceEntry:
    #: Rank of the resource in the lock table (entries are never dropped, so
    #: this is its insertion order); sorts indexed resources in table order.
    position: int
    #: Modes held per transaction (a transaction may hold several modes).
    holders: dict[TxnId, list[Mode]] = field(default_factory=dict)
    #: FIFO queue of waiting requests.
    queue: list[_WaitingRequest] = field(default_factory=list)
    #: Bit index lazily assigned to each mode ever seen on this resource.
    mode_bits: dict[Mode, int] = field(default_factory=dict)
    #: Directed conflict masks: ``conflict[m]`` has the bit of every held
    #: mode that blocks a new request of ``m``.
    conflict: dict[Mode, int] = field(default_factory=dict)
    #: OR of the bits of every currently granted mode.
    granted_mask: int = 0
    #: Number of outstanding grants per bit (maintains ``granted_mask``).
    grant_counts: dict[int, int] = field(default_factory=dict)


class LockManager:
    """Tracks granted locks and wait queues for one protocol.

    Admission runs through precomputed per-resource conflict bitmaps:
    every mode seen on a resource gets a bit index, conflict rows are
    filled once from the protocol's compatibility callable, and the
    steady-state check is ``granted_mask & conflict[mode] == 0``; holders
    are only scanned to name the blockers of a request the bitmap refused
    (or when the requester already holds the resource).  The uncontended
    grant — requester holds nothing on the resource, nobody queues there,
    the mode is registered and the test passes — is that one test and the
    grant, inline in :meth:`request`; conversions, queued resources and
    first-seen modes take the full path.

    Release, cancellation and the deadlock detector's two queries cost in
    proportion to what the transactions involved hold and wait for, never
    to the size of the table (see the module docstring for the indexes).
    """

    def __init__(self, compatible: CompatibilityFn) -> None:
        self._compatible = compatible
        self._entries: dict[Resource, _ResourceEntry] = {}
        #: The hold index: resources each transaction holds, in hold order.
        self._held_by_txn: dict[TxnId, dict[Resource, None]] = {}
        #: The waiter index: every queued request, by transaction then
        #: resource (FIFO within one resource).  No empty value is kept at
        #: either level, so its keys are exactly the blocked transactions.
        self._queued_by_txn: dict[TxnId, dict[Resource, list[_WaitingRequest]]] = {}
        self.stats = LockManagerStats()

    # -- requesting -----------------------------------------------------------

    def request(self, txn: TxnId, resource: Resource, mode: Mode) -> LockRequestOutcome:
        """Request ``mode`` on ``resource`` for transaction ``txn``.

        The request is granted when the mode is compatible with every mode
        held by *other* transactions on the resource.  Re-requesting a mode
        the transaction already holds is counted as redundant and granted
        immediately; adding a *different* mode to an already-held resource is
        counted as an upgrade (lock escalation when the new mode is more
        exclusive).
        """
        stats = self.stats
        stats.requests += 1
        entry = self._entries.get(resource)
        if entry is None:
            entry = self._entries[resource] = _ResourceEntry(len(self._entries))
        holders = entry.holders
        already_held = holders.get(txn)

        if already_held is None and not entry.queue:
            # The uncontended grant: a registered mode whose conflict row
            # misses every granted bit is one test and one grant.
            row = entry.conflict.get(mode)
            if row is not None and entry.granted_mask & row == 0:
                stats.mask_checks += 1
                stats.fast_grants += 1
                stats.grants += 1
                holders[txn] = [mode]
                held = self._held_by_txn.get(txn)
                if held is None:
                    held = self._held_by_txn[txn] = {}
                held[resource] = None
                bit = entry.mode_bits[mode]
                counts = entry.grant_counts
                counts[bit] = counts.get(bit, 0) + 1
                entry.granted_mask |= bit
                return frozen(LockRequestOutcome, status=RequestStatus.GRANTED,
                              resource=resource, mode=mode, txn=txn,
                              blockers=())
        already_held = already_held or ()

        if mode in already_held:
            self.stats.redundant += 1
            self.stats.grants += 1
            return LockRequestOutcome(RequestStatus.GRANTED, resource, mode, txn)

        blockers = self._blockers(entry, txn, resource, mode)
        queue_blocks = self._queue_blocks(entry, txn, resource, mode)
        if not blockers and not queue_blocks:
            if already_held:
                self.stats.upgrades += 1
            self._grant(entry, txn, resource, mode)
            self.stats.grants += 1
            return LockRequestOutcome(RequestStatus.GRANTED, resource, mode, txn)

        waiting = _WaitingRequest(txn=txn, mode=mode)
        entry.queue.append(waiting)
        self._queued_by_txn.setdefault(txn, {}).setdefault(resource, []).append(waiting)
        self.stats.waits += 1
        return LockRequestOutcome(RequestStatus.WAITING, resource, mode, txn,
                                  blockers=tuple(blockers))

    def acquire(self, txn: TxnId, resource: Resource, mode: Mode) -> None:
        """Like :meth:`request` but raises instead of queueing.

        This is the interface used by the non-simulated transaction manager,
        where a conflict is surfaced immediately as
        :class:`~repro.errors.LockConflictError`.
        """
        outcome = self.request(txn, resource, mode)
        if not outcome.granted:
            self._remove_from_queue(resource, txn, mode)
            raise LockConflictError(
                f"transaction {txn} cannot lock {resource!r} in mode {mode!r}; "
                f"held by {outcome.blockers}", holders=outcome.blockers)

    # -- releasing -------------------------------------------------------------

    def release_all(self, txn: TxnId) -> list[LockRequestOutcome]:
        """Release every lock held by ``txn`` and drop its queued requests.

        Returns the outcomes of the queued requests of *other* transactions
        that became grantable, in grant order (the caller resumes them).
        """
        held = self._held_by_txn.pop(txn, ())
        touched: list[Resource] = list(held)
        for resource in touched:
            entry = self._entries[resource]
            released = entry.holders.pop(txn, None)
            if released:
                self._retire_modes(entry, released)
        # Drop this transaction's own waiting requests.  Resources where it
        # was merely queued must be promoted too: removing a waiter can
        # unblock requests that were queued behind it for fairness.
        queued = self._queued_by_txn.pop(txn, None)
        if queued:
            entries = self._entries
            for resource in queued:
                entry = entries[resource]
                entry.queue = [w for w in entry.queue if w.txn != txn]
            touched.extend(sorted((r for r in queued if r not in held),
                                  key=lambda r: entries[r].position))
        return self._promote(touched)

    def cancel(self, txn: TxnId, resource: Resource, mode: Mode) -> list[LockRequestOutcome]:
        """Withdraw one queued request of ``txn`` without touching held locks.

        Used by blocking front-ends when a wait is abandoned (timeout, victim
        abort).  Removing a waiter can unblock requests that were queued
        behind it for fairness, so the resource is re-promoted; the outcomes
        of newly grantable requests are returned exactly as for
        :meth:`release_all`.
        """
        self._remove_from_queue(resource, txn, mode)
        return self._promote([resource])

    def _promote(self, resources: Iterable[Resource]) -> list[LockRequestOutcome]:
        granted: list[LockRequestOutcome] = []
        for resource in resources:
            entry = self._entries.get(resource)
            if entry is None or not entry.queue:
                continue
            still_waiting: list[_WaitingRequest] = []
            for waiting in entry.queue:
                blockers = self._blockers(entry, waiting.txn, resource, waiting.mode)
                if blockers:
                    still_waiting.append(waiting)
                    continue
                self._grant(entry, waiting.txn, resource, waiting.mode)
                self._unindex(waiting, resource)
                self.stats.grants += 1
                granted.append(LockRequestOutcome(RequestStatus.GRANTED, resource,
                                                  waiting.mode, waiting.txn))
            entry.queue = still_waiting
        return granted

    # -- introspection -----------------------------------------------------------

    def holders(self, resource: Resource) -> dict[TxnId, tuple[Mode, ...]]:
        """Modes currently held on ``resource``, per transaction."""
        entry = self._entries.get(resource)
        if entry is None:
            return {}
        return {txn: tuple(modes) for txn, modes in entry.holders.items()}

    def waiting(self, resource: Resource) -> tuple[tuple[TxnId, Mode], ...]:
        """Queued requests on ``resource`` in FIFO order."""
        entry = self._entries.get(resource)
        if entry is None:
            return ()
        return tuple((w.txn, w.mode) for w in entry.queue)

    def locks_of(self, txn: TxnId) -> dict[Resource, tuple[Mode, ...]]:
        """Every lock held by ``txn``."""
        held = self._held_by_txn.get(txn, ())
        result: dict[Resource, tuple[Mode, ...]] = {}
        for resource in held:
            entry = self._entries.get(resource)
            if entry and txn in entry.holders:
                result[resource] = tuple(entry.holders[txn])
        return result

    def holds(self, txn: TxnId, resource: Resource, mode: Mode | None = None) -> bool:
        """Whether ``txn`` holds (that mode of) a lock on ``resource``."""
        entry = self._entries.get(resource)
        if entry is None or txn not in entry.holders:
            return False
        if mode is None:
            return True
        return mode in entry.holders[txn]

    def waits_for_edges(self) -> dict[TxnId, set[TxnId]]:
        """The waits-for relation induced by the current queues.

        A waiter points at every transaction holding an incompatible mode on
        the resource it is queued for, and at every *earlier* waiter whose
        queued mode conflicts with its own (the FIFO fairness rule makes the
        later request wait for the earlier one to be granted and released).
        """
        edges: dict[TxnId, set[TxnId]] = {}
        entries = self._entries
        contended = {resource for queued in self._queued_by_txn.values()
                     for resource in queued}
        for resource in sorted(contended, key=lambda r: entries[r].position):
            entry = entries[resource]
            for position, waiting in enumerate(entry.queue):
                blockers = set(self._blockers(entry, waiting.txn, resource, waiting.mode))
                for earlier in entry.queue[:position]:
                    if earlier.txn != waiting.txn and \
                            not self._compatible(resource, earlier.mode, waiting.mode):
                        blockers.add(earlier.txn)
                if blockers:
                    edges.setdefault(waiting.txn, set()).update(blockers)
        return edges

    def blocked_transactions(self) -> frozenset[TxnId]:
        """Transactions with at least one queued (not yet granted) request."""
        return frozenset(self._queued_by_txn)

    # -- internals ---------------------------------------------------------------

    def _blockers(self, entry: _ResourceEntry, txn: TxnId, resource: Resource,
                  mode: Mode) -> list[TxnId]:
        if txn not in entry.holders:
            # Fast path: every holder is another transaction, so a clear
            # intersection between the granted mask and this mode's conflict
            # row means there is nothing to scan for.
            self.stats.mask_checks += 1
            row = entry.conflict.get(mode)
            if row is None:
                row = self._register_mode(entry, resource, mode)
            if entry.granted_mask & row == 0:
                self.stats.fast_grants += 1
                return []
        blockers = []
        for holder, modes in entry.holders.items():
            if holder == txn:
                continue
            if any(not self._compatible(resource, held, mode) for held in modes):
                blockers.append(holder)
        return blockers

    def _queue_blocks(self, entry: _ResourceEntry, txn: TxnId, resource: Resource,
                      mode: Mode) -> bool:
        """FIFO fairness: a new request waits behind conflicting queued ones.

        A transaction that already holds a lock on the resource bypasses the
        queue (conversion requests jump ahead, the standard treatment that
        keeps upgrades from deadlocking behind newcomers).
        """
        if not entry.queue or txn in entry.holders:
            return False
        return any(not self._compatible(resource, waiting.mode, mode)
                   for waiting in entry.queue if waiting.txn != txn)

    def _grant(self, entry: _ResourceEntry, txn: TxnId, resource: Resource,
               mode: Mode) -> None:
        entry.holders.setdefault(txn, []).append(mode)
        held = self._held_by_txn.get(txn)
        if held is None:
            held = self._held_by_txn[txn] = {}
        held[resource] = None
        bit = entry.mode_bits.get(mode)
        if bit is None:
            self._register_mode(entry, resource, mode)
            bit = entry.mode_bits[mode]
        entry.grant_counts[bit] = entry.grant_counts.get(bit, 0) + 1
        entry.granted_mask |= bit

    def _register_mode(self, entry: _ResourceEntry, resource: Resource,
                       mode: Mode) -> int:
        """Assign ``mode`` a bit on this resource and fill its conflict row.

        Compatibility is directed (``compatible(resource, held, requested)``),
        so registering a new mode both builds its own row and extends the
        rows of every previously seen mode.
        """
        bit = 1 << len(entry.mode_bits)
        entry.mode_bits[mode] = bit
        row = 0 if self._probe_compatible(resource, mode, mode) else bit
        for other, other_bit in entry.mode_bits.items():
            if other == mode:
                continue
            if not self._probe_compatible(resource, other, mode):
                row |= other_bit
            if not self._probe_compatible(resource, mode, other):
                entry.conflict[other] |= bit
        entry.conflict[mode] = row
        return row

    def _probe_compatible(self, resource: Resource, held: Mode, requested: Mode) -> bool:
        try:
            return bool(self._compatible(resource, held, requested))
        except Exception:
            # Unknown mode/resource pairs must keep surfacing their real
            # error on the slow path (as the scan-based manager did); the
            # mask merely records a conservative conflict.
            return False

    def _retire_modes(self, entry: _ResourceEntry, modes: Iterable[Mode]) -> None:
        for mode in modes:
            bit = entry.mode_bits.get(mode)
            if bit is None:
                continue
            remaining = entry.grant_counts.get(bit, 0) - 1
            if remaining > 0:
                entry.grant_counts[bit] = remaining
            else:
                entry.grant_counts.pop(bit, None)
                entry.granted_mask &= ~bit

    def _remove_from_queue(self, resource: Resource, txn: TxnId, mode: Mode) -> None:
        entry = self._entries.get(resource)
        if entry is None:
            return
        for position, waiting in enumerate(entry.queue):
            if waiting.txn == txn and waiting.mode == mode:
                del entry.queue[position]
                self._unindex(waiting, resource)
                return

    def _unindex(self, waiting: _WaitingRequest, resource: Resource) -> None:
        """Take one request that just left ``resource``'s queue out of the
        waiter index."""
        queued = self._queued_by_txn[waiting.txn]
        requests = queued[resource]
        requests.remove(waiting)
        if not requests:
            del queued[resource]
            if not queued:
                del self._queued_by_txn[waiting.txn]
