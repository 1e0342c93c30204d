"""The sharded engine under real threads: deadlocks, ordering, conservation.

Includes the cross-shard deadlock detection test (a cycle whose edges live
in two different shards' lock managers) and the 8-thread, 4-shard
conservation stress across all five protocols.
"""

from __future__ import annotations

import queue
import random
import threading
import time

import pytest

from repro.engine import BlockingLockManager, Engine
from repro.errors import DeadlockError
from repro.locking.manager import LockManager
from repro.objects.oid import OID
from repro.sharding import HashShardRouter, ShardedLockFront, ShardedObjectStore
from repro.txn.protocols import PROTOCOLS, TAVProtocol
from repro.txn.transaction import TransactionState


def wait_until(predicate, timeout=2.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return False


def exclusive(resource, held, requested):
    return False


# -- the lock front in isolation ------------------------------------------------


def test_front_routes_and_tracks_touched_shards():
    router = HashShardRouter(2)
    front = ShardedLockFront([BlockingLockManager(LockManager(exclusive))
                              for _ in range(2)], router)
    odd = ("instance", OID("C", 1))   # shard 1
    even = ("instance", OID("C", 2))  # shard 0
    front.acquire(1, odd, "X")
    front.acquire(1, even, "X")
    assert front.touched_shards(1) == {0, 1}
    assert front.holds(1, odd, "X") and front.holds(1, even, "X")
    front.release_all(1)
    assert front.touched_shards(1) == frozenset()
    assert not front.holds(1, odd, "X")


def test_front_rejects_mismatched_shard_count():
    with pytest.raises(ValueError):
        ShardedLockFront([BlockingLockManager(LockManager(exclusive))],
                         HashShardRouter(2))


def test_cross_shard_deadlock_is_detected_from_the_union():
    """T1 waits on shard 0 for T2; T2 waits on shard 1 for T1.  Neither
    shard's local graph has a cycle — only the union does."""
    router = HashShardRouter(2)
    front = ShardedLockFront([BlockingLockManager(LockManager(exclusive))
                              for _ in range(2)], router)
    on_zero = ("instance", OID("C", 2))  # shard 0
    on_one = ("instance", OID("C", 1))   # shard 1
    front.acquire(1, on_one, "X")
    front.acquire(2, on_zero, "X")
    errors = {}

    def blocked(txn, resource):
        def run():
            try:
                front.acquire(txn, resource, "X")
            except DeadlockError as error:
                errors[txn] = error
        return run

    first = threading.Thread(target=blocked(1, on_zero))
    first.start()
    assert wait_until(lambda: front.waiting(on_zero))
    second = threading.Thread(target=blocked(2, on_one))
    second.start()
    assert wait_until(lambda: front.waiting(on_one))

    # No shard sees a cycle locally ...
    from repro.locking.deadlock import find_cycle
    for shard in front.shards:
        assert not find_cycle(shard.collect_edges())
    # ... but the union does: the youngest transaction is doomed.
    assert wait_until(lambda: bool(front.detect()) or bool(errors), timeout=5.0)
    second.join(timeout=5.0)
    assert not second.is_alive()
    assert errors[2].victim == 2
    front.release_all(2)
    first.join(timeout=5.0)
    assert not first.is_alive()
    assert front.holds(1, on_zero, "X")
    front.release_all(1)
    # Releasing only the touched shards left no doom flag behind anywhere.
    assert front.doomed_transactions() == frozenset()


# -- engine behaviour ------------------------------------------------------------


@pytest.fixture
def sharded_accounts(banking):
    store = ShardedObjectStore(banking, HashShardRouter(4))
    oids = [store.create("Account", balance=100.0, owner=f"o{i}",
                         active=True).oid for i in range(4)]
    assert len({store.shard_of(oid) for oid in oids}) == 4
    return store, oids


def test_cross_shard_engine_deadlock_resolves_by_retry(banking_compiled,
                                                       sharded_accounts):
    store, oids = sharded_accounts
    first_oid, second_oid = oids[0], oids[1]
    assert store.shard_of(first_oid) != store.shard_of(second_oid)
    barrier = threading.Barrier(2)

    def transfer(src, dst):
        def work(session):
            session.call(src, "deposit", -1)
            try:
                barrier.wait(timeout=0.5)
            except threading.BrokenBarrierError:
                pass
            session.call(dst, "deposit", 1)
        return work

    with Engine(TAVProtocol(banking_compiled, store),
                detection_interval=0.005) as engine:
        errors: list[BaseException] = []

        def run(work):
            try:
                engine.run_transaction(work)
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=run,
                                    args=(transfer(first_oid, second_oid),)),
                   threading.Thread(target=run,
                                    args=(transfer(second_oid, first_oid),))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        assert not errors
        assert engine.metrics.committed == 2
        assert engine.metrics.deadlocks >= 1
        # Every victim aborted through release_all on the shards it had
        # touched; no shard is left holding a stale doom flag.
        assert engine.lock_manager.doomed_transactions() == frozenset()
    assert sum(store.read_field(oid, "balance") for oid in oids) == 400.0


def test_victim_selection_prefers_the_youngest_origin(banking_compiled,
                                                      sharded_accounts):
    """A transaction with a *young* origin is victimised even when its raw
    txn_id is older — the wait-die rule that protects retried transactions."""
    store, oids = sharded_accounts
    a, b = oids[0], oids[1]
    with Engine(TAVProtocol(banking_compiled, store),
                detection_interval=0.005) as engine:
        young = engine.begin(origin=100)  # txn_id 1, but youngest origin
        old = engine.begin()              # txn_id 2, origin 2
        assert young.txn_id < old.txn_id
        young.call(a, "deposit", 1)
        old.call(b, "deposit", 1)
        outcome = {}

        def young_blocks():
            try:
                young.call(b, "deposit", 1)
            except DeadlockError as error:
                outcome["error"] = error
                young.abort()  # the victim's own thread aborts, freeing `old`

        thread = threading.Thread(target=young_blocks)
        thread.start()
        assert wait_until(lambda: engine.lock_manager.waiting(
            ("instance", b)) or "error" in outcome)
        try:
            old.call(a, "deposit", 1)  # completes the cycle; `young` must die
        except DeadlockError as error:  # pragma: no cover - wrong victim
            pytest.fail(f"the old-origin transaction was victimised: {error}")
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert outcome["error"].victim == young.txn_id
        old.commit()


def test_retry_carries_the_original_timestamp(banking_compiled, sharded_accounts):
    store, oids = sharded_accounts
    origins = []
    attempts = []

    def work(session):
        origins.append(session.origin)
        attempts.append(session.txn_id)
        if len(attempts) == 1:
            raise DeadlockError("synthetic victim", victim=session.txn_id)
        session.call(oids[0], "deposit", 1)

    with Engine(TAVProtocol(banking_compiled, store)) as engine:
        engine.run_transaction(work)
    assert len(attempts) == 2
    assert attempts[1] > attempts[0], "the retry is a fresh transaction"
    assert origins[0] == origins[1] == attempts[0], \
        "the retry kept the first incarnation's begin timestamp"


def test_commit_marks_committed_before_releasing_locks(banking_compiled,
                                                       sharded_accounts):
    """Regression: a racing observer must never see an ACTIVE transaction
    whose locks are already gone (writes visible, state stale)."""
    store, oids = sharded_accounts
    with Engine(TAVProtocol(banking_compiled, store)) as engine:
        session = engine.begin()
        session.call(oids[0], "deposit", 25)
        states_at_release = []
        inner_release = engine.lock_manager.release_all

        def spying_release(txn):
            states_at_release.append(session.transaction.state)
            inner_release(txn)

        engine.lock_manager.release_all = spying_release
        session.commit()
        assert states_at_release == [TransactionState.COMMITTED]


def test_abort_restores_and_marks_aborted_before_releasing(banking_compiled,
                                                           sharded_accounts):
    store, oids = sharded_accounts
    with Engine(TAVProtocol(banking_compiled, store)) as engine:
        session = engine.begin()
        session.call(oids[0], "deposit", 25)
        observed = []
        inner_release = engine.lock_manager.release_all

        def spying_release(txn):
            observed.append((session.transaction.state,
                             store.read_field(oids[0], "balance")))
            inner_release(txn)

        engine.lock_manager.release_all = spying_release
        session.abort()
        assert observed == [(TransactionState.ABORTED, 100.0)], \
            "undo must land and the state must flip before any lock release"


# -- conservation stress: 8 threads, 4 shards, all five protocols ----------------

THREADS = 8
TRANSFERS = 120
ACCOUNTS_PER_CLASS = 4


def build_sharded_store(banking) -> ShardedObjectStore:
    store = ShardedObjectStore(banking, HashShardRouter(4))
    for index in range(ACCOUNTS_PER_CLASS):
        store.create("Account", balance=1000.0, owner=f"a{index}", active=True)
        store.create("SavingsAccount", balance=1000.0, owner=f"s{index}",
                     active=True, rate=0.01)
        store.create("CheckingAccount", balance=1000.0, owner=f"c{index}",
                     active=True, overdraft_limit=100)
    return store


@pytest.mark.parametrize("protocol_name", list(PROTOCOLS))
def test_conservation_across_shards(protocol_name, banking, banking_compiled):
    protocol_class = PROTOCOLS[protocol_name]
    store = build_sharded_store(banking)
    oids = [instance.oid for instance in store]
    before = sum(store.read_field(oid, "balance") for oid in oids)

    rng = random.Random(20260729)
    transfers: "queue.SimpleQueue[tuple]" = queue.SimpleQueue()
    for _ in range(TRANSFERS):
        source, destination = rng.sample(oids, 2)
        transfers.put((source, destination, rng.randint(1, 50)))

    baseline_threads = threading.active_count()
    errors: list[BaseException] = []
    with Engine(protocol_class(banking_compiled, store),
                detection_interval=0.005, default_lock_timeout=30.0) as engine:
        assert engine.num_shards == 4

        def worker() -> None:
            while True:
                try:
                    source, destination, amount = transfers.get_nowait()
                except queue.Empty:
                    return

                def transfer(session, source=source, destination=destination,
                             amount=amount):
                    session.call(source, "deposit", -amount)
                    session.call(destination, "deposit", amount)

                try:
                    engine.run_transaction(transfer)
                except BaseException as error:  # noqa: BLE001 - surfaced below
                    errors.append(error)
                    return

        pool = [threading.Thread(target=worker, name=f"shard-stress-{index}")
                for index in range(THREADS)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=120.0)
            assert not thread.is_alive(), "a worker thread wedged"
        assert not errors, errors
        assert engine.metrics.committed == TRANSFERS
        assert engine.metrics.aborted == engine.metrics.retries
        assert engine.metrics.cross_shard_commits > 0
        assert len(engine.coordinator.decisions) >= TRANSFERS
        assert engine.lock_manager.doomed_transactions() == frozenset()
    total = sum(store.read_field(oid, "balance") for oid in oids)
    assert total == before
    assert threading.active_count() == baseline_threads, "detector thread leaked"
