"""Vectored worker RPCs: batched acquires, fused execution, deferred writes.

The worker-layer half of the round-trip elimination, tested bottom-up:

* ``AcquireBatch`` grants a whole plan round over one request;
* ``ExecuteFused`` ships plan+locks+execution in one trip, and answers a
  fallback (instead of touching off-shard state) when the plan escapes;
* the engine over worker subprocesses stays at the pinned worker-RPC counts
  per commit, sends nothing to a worker a transaction did not touch, and
  its deferred writes keep the coordinator mirror and the workers in parity
  — including under ``REPRO_SANITIZE``.
"""

from __future__ import annotations

import threading

import pytest

from repro.api.messages import request_for_operation
from repro.engine.engine import Engine
from repro.locking.modes import ClassLockMode
from repro.objects.oid import OID
from repro.sharding import rpc
from repro.sharding.router import HashShardRouter
from repro.sharding.store import ShardedObjectStore
from repro.sharding.worker import ShardWorker
from repro.schema import banking_schema
from repro.core.compiler import compile_schema
from repro.sim.workload import populate_store
from repro.txn.operations import ExtentCall, MethodCall
from repro.txn.protocols import PROTOCOLS

INSTANCES = 4
SEED = 11


@pytest.fixture()
def worker_client():
    worker = ShardWorker(shard_id=0, shards=2, protocol="tav",
                         schema="banking", instances=INSTANCES,
                         populate_seed=SEED, lock_timeout=2.0)
    thread = threading.Thread(target=worker.serve_forever, daemon=True)
    thread.start()
    client = rpc.RemoteShardClient(0, worker.address, lock_timeout=2.0)
    try:
        yield worker, client
    finally:
        client.shutdown()
        client.close()
        worker.shutdown()
        thread.join(timeout=5.0)


def account_on_shard(worker: ShardWorker, shard_id: int) -> OID:
    router = HashShardRouter(2)
    for oid in worker.store.extent("Account"):
        if router.shard_of_oid(oid) == shard_id:
            return oid
    raise AssertionError(f"no Account on shard {shard_id}")


def counted(client: rpc.RemoteShardClient) -> list[None]:
    """Wire the accounting hook to a list; ``len`` is the request count."""
    requests: list[None] = []
    client.on_request = lambda: requests.append(None)
    return requests


# -- the vectored RPCs, driven directly ---------------------------------------


def test_acquire_batch_grants_a_whole_round_in_one_request(worker_client):
    worker, client = worker_client
    oid = account_on_shard(worker, 0)
    requests = [(("class", "Account"), ClassLockMode("deposit", False)),
                (("instance", oid), "deposit")]
    issued = counted(client)
    waits = client.acquire_batch(7, requests)
    assert len(issued) == 1  # the whole round, one round trip
    assert len(waits) == len(requests)  # aligned with the requests
    assert all(waited >= 0.0 for waited in waits)
    for resource, mode in requests:
        assert client.holds(7, resource, mode)
    client.release_all(7)


def test_execute_fused_locks_and_runs_in_one_request(worker_client):
    worker, client = worker_client
    # The banking class lock lives on shard 0 under this router, so a
    # shard-0 account's whole plan stays local and the fuse can land.
    assert HashShardRouter(2).shard_of_class("Account") == 0
    oid = account_on_shard(worker, 0)
    before = worker.store.read_field(oid, "balance")
    call = request_for_operation(9, MethodCall(oid=oid, method="deposit",
                                               arguments=(25.0,)))
    issued = counted(client)
    outcome = client.execute_fused(9, call, [], [])
    assert len(issued) == 1  # plan, locks and execution, one round trip
    assert outcome.fallback is False
    assert outcome.results == [None]
    assert outcome.writes == [(oid, {"balance": before + 25.0})]
    assert worker.store.read_field(oid, "balance") == before + 25.0
    # The worker acquired the plan's locks itself and reported them.
    assert {resource for resource, _mode, _waited in outcome.resources} \
        >= {("class", "Account"), ("instance", oid)}
    assert all(waited >= 0.0 for _r, _m, waited in outcome.resources)
    # It also logged the before-image first: abort restores the balance.
    client.abort(9)
    assert worker.store.read_field(oid, "balance") == before


def test_execute_fused_falls_back_when_the_plan_escapes_the_shard(
        worker_client):
    worker, client = worker_client
    foreign = account_on_shard(worker, 1)
    before = worker.store.read_field(foreign, "balance")
    call = request_for_operation(11, MethodCall(oid=foreign, method="deposit",
                                                arguments=(25.0,)))
    outcome = client.execute_fused(11, call, [], [])
    assert outcome.fallback is True
    assert outcome.results == [] and outcome.writes == []
    # The receiver escaped before any lock was taken; nothing was touched.
    assert outcome.resources == []
    assert worker.store.read_field(foreign, "balance") == before
    client.release_all(11)


# -- the engine over worker subprocesses ---------------------------------------


def build_worker_engine(**engine_options):
    schema = banking_schema()
    compiled = compile_schema(schema)
    router = HashShardRouter(2)
    store = populate_store(schema, INSTANCES, seed=SEED,
                           store=ShardedObjectStore(schema, router))
    protocol = PROTOCOLS["tav"](compiled, store)
    engine = Engine(protocol, shard_workers=2, default_lock_timeout=5.0,
                    worker_options={"schema": "banking",
                                    "instances": INSTANCES,
                                    "populate_seed": SEED},
                    **engine_options)
    return engine, store


def split_accounts(store) -> tuple[OID, OID]:
    by_shard: dict[int, OID] = {}
    for oid in store.extent("Account"):
        by_shard.setdefault(store.router.shard_of_oid(oid), oid)
    return by_shard[0], by_shard[1]


def rpcs_for(engine, store, *operations) -> int:
    before = engine.metrics.rpc_requests
    session = engine.begin(label="measured")
    for operation in operations:
        engine.perform(session.transaction, operation)
    engine.commit(session.transaction)
    return engine.metrics.rpc_requests - before


def test_worker_rpcs_per_commit_stay_at_the_vectored_counts():
    """Absolute pins on the one surviving wire path.

    The counts are the vectored side of the last classic-vs-vectored A/B,
    taken at PR 13 before the classic wire was deleted (worker RPCs per
    commit: extent 16 -> 6, transfer 12 -> 9, single-shard 6 -> 4) — a
    change that adds a round trip to any shape fails here.
    """
    engine, store = build_worker_engine()
    try:
        a, b = split_accounts(store)
        cross = rpcs_for(engine, store,
                         ExtentCall(class_name="Account", method="deposit",
                                    arguments=(1.0,)))
        transfer = rpcs_for(
            engine, store,
            MethodCall(oid=a, method="withdraw", arguments=(5.0,)),
            MethodCall(oid=b, method="deposit", arguments=(5.0,)))
        # ``a`` shares shard 0 with the Account class lock: a true
        # single-shard commit (fused execute, prepare, commit, release).
        single = rpcs_for(engine, store,
                          MethodCall(oid=a, method="deposit",
                                     arguments=(1.0,)))
    finally:
        engine.close()
    assert cross <= 6
    assert transfer <= 9
    assert single <= 4


def test_single_shard_commit_sends_nothing_to_the_untouched_worker():
    """No request of any kind — counted or not — reaches a worker the
    transaction never touched (the per-commit ``ClearDoom`` used to)."""
    # A long detection interval keeps the detector's periodic edge
    # collection (which does visit every worker) out of the window.
    engine, store = build_worker_engine(detection_interval=3600.0)
    try:
        a, _b = split_accounts(store)
        untouched = engine.shard_clients[1]
        seen: list[str] = []
        original = untouched._call

        def recording(request, **options):
            seen.append(request.type)
            return original(request, **options)

        untouched._call = recording
        with engine.begin(label="single-shard") as session:
            session.call(a, "deposit", 1.0)
        assert engine.commit_log[-1][1] == "single-shard"
        assert seen == []
    finally:
        engine.close()


def test_deferred_writes_keep_the_mirror_and_workers_in_parity():
    engine, store = build_worker_engine()
    try:
        a, b = split_accounts(store)
        before_a = store.read_field(a, "balance")
        before_b = store.read_field(b, "balance")
        with engine.begin(label="transfer") as session:
            session.call(a, "withdraw", 10.0)
            session.call(b, "deposit", 10.0)
        state = engine.store_state()  # authoritative: the workers' partitions
        assert state[str(a)]["balance"] == before_a - 10.0
        assert state[str(b)]["balance"] == before_b + 10.0
        assert store.read_field(a, "balance") == before_a - 10.0
        assert store.read_field(b, "balance") == before_b + 10.0
        # An aborted transaction's buffered writes never reach the workers,
        # and the mirror rolls back to parity.
        session = engine.begin(label="doomed")
        engine.perform(session.transaction,
                       MethodCall(oid=a, method="withdraw", arguments=(7.0,)))
        engine.perform(session.transaction,
                       MethodCall(oid=b, method="deposit", arguments=(7.0,)))
        engine.abort(session.transaction)
        state = engine.store_state()
        assert state[str(a)]["balance"] == before_a - 10.0
        assert state[str(b)]["balance"] == before_b + 10.0
        assert store.read_field(a, "balance") == before_a - 10.0
        assert store.read_field(b, "balance") == before_b + 10.0
    finally:
        engine.close()


def test_vectored_path_is_sanitizer_clean(monkeypatch):
    # The environment variable reaches the spawned workers, so both sides
    # of every RPC run behind their write-ahead/2PL guards.
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    engine, store = build_worker_engine(sanitize=True)
    try:
        a, b = split_accounts(store)
        with engine.begin(label="transfer") as session:
            session.call(a, "withdraw", 5.0)
            session.call(b, "deposit", 5.0)
        with engine.begin(label="sweep") as session:
            session.perform(ExtentCall(class_name="Account",
                                       method="deposit", arguments=(1.0,)))
        with engine.begin(label="single") as session:
            session.call(a, "deposit", 2.0)
        session = engine.begin(label="doomed")
        engine.perform(session.transaction,
                       MethodCall(oid=a, method="withdraw", arguments=(3.0,)))
        engine.abort(session.transaction)
        assert engine.sanitizer is not None
        assert engine.sanitizer.violations == 0
    finally:
        engine.close()
