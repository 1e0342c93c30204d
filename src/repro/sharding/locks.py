"""One blocking lock manager per shard, with cross-shard deadlock detection.

:class:`ShardedLockFront` stands where a single
:class:`~repro.engine.locks.BlockingLockManager` used to stand: ``acquire``
routes each resource to its shard's manager (its own mutex, its own
condition variable), so transactions touching disjoint shards never contend
on the same mutex and a release on one shard wakes only that shard's
waiters instead of every blocked thread in the engine.

Deadlocks do not respect shard boundaries — T1 can hold a lock on shard 0
and wait on shard 1 while T2 does the reverse — so :meth:`detect` unions the
per-shard waits-for graphs before running cycle detection and keeps the
youngest-victim policy (pluggable age order via ``victim_key``).  The doom
is offered to every shard, but a shard marks only victims with a request
queued in it — a transaction is driven by one thread, so it waits in at
most one shard, and a stale victim that already moved on is skipped rather
than left with a doom flag nobody would ever clear.

The per-shard edge snapshots are taken one shard at a time, not atomically
across shards, so a cycle can be a *phantom* assembled from edges of
different instants — the classic distributed-detection caveat.  Dooming a
phantom victim would cost a needless abort-and-retry (never correctness:
aborting is always safe), so :meth:`detect` runs a **confirmation pass**: a
cycle is only doomed if it also exists in a second snapshot taken after the
first, restricted to the edges present in both.  Real deadlocks persist —
a blocked transaction stays blocked until doomed — while phantom edges
vanish between the snapshots.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Hashable, Sequence

from repro.locking.deadlock import choose_victim, find_cycle
from repro.locking.manager import USE_DEFAULT_TIMEOUT, Mode, Resource, TxnId
from repro.sharding.router import ShardRouter

if TYPE_CHECKING:  # pragma: no cover - typing only; a runtime import here
    # would close the repro.engine -> repro.sharding -> repro.engine cycle.
    from repro.engine.locks import BlockingLockManager


class ShardedLockFront:
    """Routes blocking lock traffic to per-shard managers; detects globally.

    The per-transaction touched-shard set is mutated only from the
    transaction's own session thread (single dict/set operations, atomic
    under CPython) — the same confinement contract the object store uses for
    field access — so no front-level mutex reappears on the hot path.
    """

    def __init__(self, shards: Sequence[BlockingLockManager],
                 router: ShardRouter, *,
                 victim_key: Callable[[TxnId], Hashable] | None = None) -> None:
        if len(shards) != router.num_shards:
            raise ValueError(f"router expects {router.num_shards} shards, "
                             f"got {len(shards)} lock managers")
        self._shards = tuple(shards)
        #: The one shard handle when there is one and it has no batch verb.
        self._single = (self._shards[0] if len(self._shards) == 1 and not
                        hasattr(self._shards[0], "acquire_batch") else None)
        self._router = router
        self.victim_key = victim_key
        #: Shards each live transaction has acquired (or queued) on.
        self._touched: dict[TxnId, set[int]] = {}
        #: Resource -> shard memo.  Routing is deterministic, so the cache
        #: never goes stale; a racy double-compute writes the same value.
        #: Bounded by the set of distinct resources, i.e. the store size.
        self._route_cache: dict[Resource, int] = {}
        #: Deadlock victims attributed per shard (single detector thread
        #: writes; readers take unsynchronised snapshots for reporting).
        self._victims_per_shard = [0] * len(self._shards)

    # -- acquiring -------------------------------------------------------------

    def acquire(self, txn: TxnId, resource: Resource, mode: Mode,
                timeout: float | None | object = USE_DEFAULT_TIMEOUT,
                trace: object = None) -> float:
        """Block until ``txn`` holds ``mode`` on ``resource`` (routed to its shard).

        Same contract as :meth:`BlockingLockManager.acquire`, including the
        non-positive-timeout fail-fast try-lock.  A non-``None`` ``trace``
        context is forwarded to the shard handle (a remote handle sends it
        to its worker; a local manager ignores it).
        """
        shard_id = self._route_cache.get(resource)
        if shard_id is None:
            shard_id = self._router.shard_of_resource(resource)
            self._route_cache[resource] = shard_id
        touched = self._touched.get(txn)
        if touched is None:
            touched = self._touched[txn] = set()
        touched.add(shard_id)
        if trace is None:
            return self._shards[shard_id].acquire(txn, resource, mode, timeout)
        return self._shards[shard_id].acquire(txn, resource, mode, timeout,
                                              trace=trace)

    def acquire_many(self, txn: TxnId,
                     requests: "Sequence[tuple[Resource, Mode]]",
                     timeout: float | None | object = USE_DEFAULT_TIMEOUT,
                     trace: object = None) -> list[float]:
        """Acquire a whole round of lock requests, vectored per shard.

        Requests are grouped by owning shard; a shard handle exposing
        ``acquire_batch`` (a remote worker) gets its whole group in one
        round trip, any other shard is walked request by request — the
        semantics are identical either way, including the mid-batch
        deadlock/timeout contract (earlier grants stay held for the
        caller's abort to release).  Returns seconds blocked, aligned with
        ``requests``.  Within a shard the plan's request order is kept;
        shards proceed in index order so the grouping is deterministic.
        A single shard handle without ``acquire_batch`` is walked directly,
        with nothing to group or sort.
        """
        single = self._single
        if single is not None:
            if requests and txn not in self._touched:
                self._touched[txn] = {0}
            if trace is None:
                return [single.acquire(txn, resource, mode, timeout)
                        for resource, mode in requests]
            return [single.acquire(txn, resource, mode, timeout, trace=trace)
                    for resource, mode in requests]
        groups: dict[int, list[int]] = {}
        for index, (resource, _mode) in enumerate(requests):
            shard_id = self._route_cache.get(resource)
            if shard_id is None:
                shard_id = self._router.shard_of_resource(resource)
                self._route_cache[resource] = shard_id
            groups.setdefault(shard_id, []).append(index)
        waits = [0.0] * len(requests)
        for shard_id in sorted(groups):
            self.note_touched(txn, shard_id)
            shard = self._shards[shard_id]
            indexes = groups[shard_id]
            batch = getattr(shard, "acquire_batch", None)
            if batch is not None and len(indexes) > 1:
                granted = batch(txn, [requests[index] for index in indexes],
                                timeout, trace=trace)
                for index, waited in zip(indexes, granted):
                    waits[index] = waited
                continue
            for index in indexes:
                resource, mode = requests[index]
                if trace is None:
                    waits[index] = shard.acquire(txn, resource, mode, timeout)
                else:
                    waits[index] = shard.acquire(txn, resource, mode, timeout,
                                                 trace=trace)
        return waits

    def note_touched(self, txn: TxnId, shard_id: int) -> None:
        """Record that ``txn`` holds (or is about to request) lock state on
        ``shard_id`` — the fused-execute path acquires on the worker, so the
        engine marks the shard before the RPC and ``release_all`` covers a
        mid-flight failure."""
        touched = self._touched.get(txn)
        if touched is None:
            touched = self._touched[txn] = set()
        touched.add(shard_id)

    # -- releasing -------------------------------------------------------------

    def release_all(self, txn: TxnId) -> None:
        """Release ``txn`` on every shard it touched (doom flags included).

        Untouched shards hold nothing of ``txn`` — not even a doom flag:
        :meth:`detect` offers victims to every shard, but a shard only
        marks a transaction with a request queued *in it*, and every
        acquire path marks the shard touched before it can queue there.
        """
        for shard_id in self._touched.pop(txn, ()):
            self._shards[shard_id].release_all(txn)

    def touched_shards(self, txn: TxnId) -> frozenset[int]:
        """The shards ``txn`` has lock state on (2PC participant set)."""
        return frozenset(self._touched.get(txn, ()))

    def touched_view(self, txn: TxnId) -> set[int] | None:
        """The live touched-shard set, or ``None`` — NOT to be mutated.

        The engine's commit path runs once per transaction; handing it the
        internal set spares a frozenset copy there (use
        :meth:`touched_shards` everywhere else).
        """
        return self._touched.get(txn)

    # -- deadlock detection ----------------------------------------------------

    def detect(self) -> tuple[TxnId, ...]:
        """Union the shards' waits-for graphs, doom one victim per cycle.

        A single-shard front delegates to the shard's own atomic
        :meth:`BlockingLockManager.detect` — snapshot, victim choice and
        doom under one mutex hold, exactly the PR 1 behaviour.  Across
        shards that atomicity is impossible, so a first union containing a
        cycle is re-confirmed against a second union and only the edges
        present in both are trusted (see the phantom discussion in the
        module docstring); each shard then dooms only victims still waiting
        in it.  Returns the newly doomed victims, so the background
        :class:`~repro.engine.detector.DeadlockDetector` drives either
        shape interchangeably.
        """
        if len(self._shards) == 1 and hasattr(self._shards[0], "detect"):
            # A local manager detects atomically under its own mutex.  A
            # *remote* shard handle has no detect of its own — victim choice
            # needs the engine-side age order — so it always takes the union
            # path below, which works unchanged for one shard.
            shard = self._shards[0]
            shard.victim_key = self.victim_key
            victims = shard.detect()
            self._victims_per_shard[0] += len(victims)
            return victims
        edges = self._union_edges()
        if not find_cycle(edges):
            return ()
        confirmed = self._union_edges()
        edges = {waiter: targets & confirmed.get(waiter, set())
                 for waiter, targets in edges.items()}
        victims: dict[TxnId, tuple[TxnId, ...]] = {}
        while True:
            cycle = find_cycle(edges)
            if not cycle:
                break
            victim = choose_victim(cycle, self.victim_key)
            victims[victim] = tuple(cycle)
            edges.pop(victim, None)
        if victims:
            for shard_id, shard in enumerate(self._shards):
                accepted = shard.doom(victims) or ()
                self._victims_per_shard[shard_id] += len(accepted)
        return tuple(victims)

    def _union_edges(self) -> dict[TxnId, set[TxnId]]:
        edges: dict[TxnId, set[TxnId]] = {}
        for shard in self._shards:
            for waiter, targets in shard.collect_edges().items():
                existing = edges.get(waiter)
                if existing is None:
                    edges[waiter] = targets
                else:
                    existing.update(targets)
        return edges

    # -- signalling ------------------------------------------------------------

    @property
    def on_block(self) -> Callable[[], None] | None:
        """The blocked-request hook, fanned out to every shard manager."""
        return self._shards[0].on_block

    @on_block.setter
    def on_block(self, hook: Callable[[], None] | None) -> None:
        for shard in self._shards:
            shard.on_block = hook

    # -- introspection ---------------------------------------------------------

    @property
    def shards(self) -> tuple[BlockingLockManager, ...]:
        """The per-shard blocking managers (tests, metrics)."""
        return self._shards

    @property
    def num_shards(self) -> int:
        """How many lock shards the front routes over."""
        return len(self._shards)

    @property
    def router(self) -> ShardRouter:
        """The resource router in use."""
        return self._router

    def shard_of(self, resource: Resource) -> int:
        """The shard index arbitrating ``resource``."""
        return self._router.shard_of_resource(resource)

    def holds(self, txn: TxnId, resource: Resource, mode: Mode | None = None) -> bool:
        """Whether ``txn`` currently holds (that mode of) ``resource``."""
        return self._shards[self._router.shard_of_resource(resource)].holds(
            txn, resource, mode)

    def waiting(self, resource: Resource) -> tuple[tuple[TxnId, Mode], ...]:
        """Queued requests on ``resource`` in FIFO order."""
        return self._shards[self._router.shard_of_resource(resource)].waiting(resource)

    def doomed_transactions(self) -> frozenset[TxnId]:
        """Victims chosen by the detector that have not yet aborted."""
        doomed: set[TxnId] = set()
        for shard in self._shards:
            doomed.update(shard.doomed_transactions())
        return frozenset(doomed)

    def victim_counts(self) -> tuple[int, ...]:
        """Deadlock victims attributed to each shard (the shard where the
        victim's blocked request was actually doomed)."""
        return tuple(self._victims_per_shard)
