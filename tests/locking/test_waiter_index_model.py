"""Model-based equivalence: the indexed lock manager against a table scan.

The oracle below is the whole-table-scan ``LockManager`` exactly as it stood
before the waiter index (``release_all``, ``waits_for_edges`` and
``blocked_transactions`` iterate every entry of the lock table).  It lives
here, and only here, as the reference: both managers are driven with the
same seeded stream of ``request`` / ``acquire`` (conflict and withdrawal) /
``cancel`` / ``release_all`` over a handful of resources, transactions and a
directed compatibility function, and after **every** step must agree on the
outcomes returned (in order), ``holders()``, ``waiting()``, ``locks_of()``,
``blocked_transactions()``, the ordered ``waits_for_edges()``, the counters,
and the invariant *waiter index == what a scan of the queues finds*.
Promotion order, try-lock withdrawal and the upgrade bypass are all
observable through those, so a drift in any of them fails here.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable

import pytest

from repro.errors import LockConflictError
from repro.locking import manager as indexed
from repro.locking.manager import (
    CompatibilityFn,
    LockManagerStats,
    LockRequestOutcome,
    Mode,
    RequestStatus,
    Resource,
    TxnId,
)

# -- the oracle: the scan-based manager, verbatim --------------------------------


@dataclass
class _WaitingRequest:
    txn: TxnId
    mode: Mode


@dataclass
class _ResourceEntry:
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
    (or when the requester already holds the resource).
    """

    def __init__(self, compatible: CompatibilityFn) -> None:
        self._compatible = compatible
        self._entries: dict[Resource, _ResourceEntry] = {}
        self._held_by_txn: dict[TxnId, OrderedDict[Resource, None]] = {}
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
        self.stats.requests += 1
        entry = self._entries.setdefault(resource, _ResourceEntry())
        already_held = entry.holders.get(txn, [])

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

        entry.queue.append(_WaitingRequest(txn=txn, mode=mode))
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
        held = self._held_by_txn.pop(txn, OrderedDict())
        touched: list[Resource] = list(held)
        for resource in touched:
            entry = self._entries.get(resource)
            if entry is not None:
                released = entry.holders.pop(txn, None)
                if released:
                    self._retire_modes(entry, released)
        # Drop this transaction's own waiting requests everywhere.  Resources
        # where it was merely queued must be promoted too: removing a waiter
        # can unblock requests that were queued behind it for fairness.
        for resource, entry in self._entries.items():
            remaining = [w for w in entry.queue if w.txn != txn]
            if len(remaining) != len(entry.queue):
                entry.queue = remaining
                if resource not in touched:
                    touched.append(resource)
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
            if entry is None:
                continue
            still_waiting: list[_WaitingRequest] = []
            for waiting in entry.queue:
                blockers = self._blockers(entry, waiting.txn, resource, waiting.mode)
                if blockers:
                    still_waiting.append(waiting)
                    continue
                self._grant(entry, waiting.txn, resource, waiting.mode)
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
        held = self._held_by_txn.get(txn, OrderedDict())
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
        for resource, entry in self._entries.items():
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
        blocked = set()
        for entry in self._entries.values():
            blocked.update(w.txn for w in entry.queue)
        return frozenset(blocked)

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
        if txn in entry.holders:
            return False
        return any(not self._compatible(resource, waiting.mode, mode)
                   for waiting in entry.queue if waiting.txn != txn)

    def _grant(self, entry: _ResourceEntry, txn: TxnId, resource: Resource,
               mode: Mode) -> None:
        entry.holders.setdefault(txn, []).append(mode)
        self._held_by_txn.setdefault(txn, OrderedDict())[resource] = None
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
                return


# -- the model -------------------------------------------------------------------

ScanLockManager = LockManager  # the oracle above; production is indexed.LockManager

RESOURCES = tuple(("instance", number) for number in range(5))
MODES = ("R", "U", "I", "W")
LIVE_TRANSACTIONS = 6
SEEDS = range(20)
STEPS = 2_000

#: ``(held, requested)`` pairs that commute.  Directed on purpose: a reader
#: lets an updater in (``R`` held, ``U`` requested) but an updater keeps new
#: readers out, so swapping the arguments anywhere changes the answer.
_COMMUTING = frozenset({("R", "R"), ("R", "U"), ("I", "I")})


def compatible(resource: Resource, held: Mode, requested: Mode) -> bool:
    if resource == RESOURCES[0] and held == requested == "I":
        return False  # per-resource tables: increments do not commute here
    return (held, requested) in _COMMUTING


def scan_of_queues(manager: indexed.LockManager) -> dict:
    found: dict = {}
    for resource, entry in manager._entries.items():
        for waiting in entry.queue:
            found.setdefault(waiting.txn, {}).setdefault(resource, []).append(waiting)
    return found


def assert_same_state(ours: indexed.LockManager, oracle: ScanLockManager,
                      transactions: Iterable[TxnId]) -> None:
    for resource in RESOURCES:
        assert ours.holders(resource) == oracle.holders(resource)
        assert list(ours.holders(resource)) == list(oracle.holders(resource))
        assert ours.waiting(resource) == oracle.waiting(resource)
    for txn in transactions:
        assert list(ours.locks_of(txn).items()) == list(oracle.locks_of(txn).items())
    assert ours.blocked_transactions() == oracle.blocked_transactions()
    assert list(ours.waits_for_edges().items()) == \
        list(oracle.waits_for_edges().items())
    assert ours.stats == oracle.stats
    index = ours._queued_by_txn
    scanned = scan_of_queues(ours)
    assert index == scanned
    for txn, queued in index.items():
        for resource, requests in queued.items():
            assert all(a is b for a, b in zip(requests, scanned[txn][resource]))


def try_acquire(manager, txn, resource, mode):
    try:
        manager.acquire(txn, resource, mode)
    except LockConflictError as error:
        return ("conflict", str(error), error.holders)
    return ("granted",)


@pytest.mark.parametrize("seed", SEEDS)
def test_indexed_manager_matches_the_table_scan_oracle(seed):
    rng = random.Random(seed)
    ours = indexed.LockManager(compatible)
    oracle = ScanLockManager(compatible)
    live = list(range(1, LIVE_TRANSACTIONS + 1))
    next_txn = LIVE_TRANSACTIONS + 1
    seen = {"waited": 0, "withdrawn": 0, "promoted": 0, "bypassed": 0}
    for _ in range(STEPS):
        txn = rng.choice(live)
        resource = rng.choice(RESOURCES)
        mode = rng.choice(MODES)
        roll = rng.random()
        if roll < 0.45:
            held_before = bool(oracle.holders(resource).get(txn))
            queue_before = oracle.waiting(resource)
            mine, theirs = ours.request(txn, resource, mode), \
                oracle.request(txn, resource, mode)
            assert mine == theirs
            seen["waited"] += not theirs.granted
            seen["bypassed"] += theirs.granted and held_before and bool(queue_before)
        elif roll < 0.65:
            mine, theirs = try_acquire(ours, txn, resource, mode), \
                try_acquire(oracle, txn, resource, mode)
            assert mine == theirs
            seen["withdrawn"] += theirs[0] == "conflict"
        elif roll < 0.75:
            queued = [(waiter, resource_, mode_) for resource_ in RESOURCES
                      for waiter, mode_ in oracle.waiting(resource_)]
            if queued and rng.random() < 0.8:
                txn, resource, mode = rng.choice(queued)
            mine, theirs = ours.cancel(txn, resource, mode), \
                oracle.cancel(txn, resource, mode)
            assert mine == theirs
            seen["promoted"] += len(theirs)
        else:
            mine, theirs = ours.release_all(txn), oracle.release_all(txn)
            assert mine == theirs
            seen["promoted"] += len(theirs)
            if rng.random() < 0.5:  # identifiers are mostly, not always, fresh
                live[live.index(txn)] = next_txn
                next_txn += 1
        assert_same_state(ours, oracle, live)
    # The stream must actually have walked the paths the test is named for.
    assert all(count > 20 for count in seen.values()), seen
