"""Out-of-process shard participants: RPC codec, worker protocol, engine.

Three layers:

* the :mod:`repro.sharding.rpc` codecs in isolation (resources, modes, the
  default-timeout sentinel, write-plan images);
* one in-process :class:`~repro.sharding.worker.ShardWorker` served from a
  thread, driven through a real :class:`~repro.sharding.rpc.RemoteShardClient`
  socket — lock traffic, doom offers, fused execution, flushed write plans;
* ``Engine(shard_workers=2)`` over real worker subprocesses — single-shard
  and cross-shard commits, abort restoration, extent execution through the
  remote store front, a cross-process deadlock, and a threaded mini-run
  with the sequential-replay serializability check.
"""

from __future__ import annotations

import threading

import pytest

from repro.api.messages import request_for_operation
from repro.core.compiler import compile_schema
from repro.engine.engine import Engine
from repro.errors import DeadlockError, TransactionError
from repro.locking.manager import USE_DEFAULT_TIMEOUT
from repro.locking.modes import ClassLockMode
from repro.objects.oid import OID
from repro.schema import banking_schema
from repro.sharding import rpc
from repro.sharding.router import HashShardRouter
from repro.sharding.store import ShardedObjectStore
from repro.sharding.worker import ShardWorker
from repro.sim.workload import populate_store
from repro.txn.operations import MethodCall
from repro.txn.protocols import PROTOCOLS

INSTANCES = 4
SEED = 11


# -- codecs ----------------------------------------------------------------------


def test_resource_and_mode_round_trips():
    resource = ("instance", OID("Account", 7))
    assert rpc.decode_resource(rpc.encode_resource(resource)) == resource
    nested = ("field", OID("Account", 3), "balance")
    assert rpc.decode_resource(rpc.encode_resource(nested)) == nested
    assert rpc.decode_mode(rpc.encode_mode("withdraw")) == "withdraw"
    mode = ClassLockMode("deposit", hierarchical=True)
    assert rpc.decode_mode(rpc.encode_mode(mode)) == mode


def test_timeout_sentinel_round_trips():
    assert rpc.decode_timeout(rpc.encode_timeout(USE_DEFAULT_TIMEOUT)) \
        is USE_DEFAULT_TIMEOUT
    assert rpc.decode_timeout(rpc.encode_timeout(None)) is None
    assert rpc.decode_timeout(rpc.encode_timeout(1.5)) == 1.5


def test_images_round_trip():
    images = [(OID("Account", 1), ("balance",)),
              (OID("Customer", 2), ("name", "address"))]
    assert rpc.decode_images(rpc.encode_images(images)) == images


# -- one worker, served in-process, driven over a real socket --------------------


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


def shard0_accounts(worker: ShardWorker) -> list[OID]:
    router = HashShardRouter(2)
    return [oid for oid in worker.store.extent("Account")
            if router.shard_of_oid(oid) == 0]


def shard0_account(worker: ShardWorker) -> OID:
    return shard0_accounts(worker)[0]


def test_hello_reports_identity(worker_client):
    _worker, client = worker_client
    answer = client.hello()
    assert answer["shard"] == 0 and answer["shards"] == 2
    assert answer["schema"] == "banking" and answer["recovery"] is None


def test_remote_lock_traffic(worker_client):
    worker, client = worker_client
    oid = shard0_account(worker)
    resource = ("instance", oid)
    assert client.acquire(1, resource, "deposit") == 0.0
    assert client.holds(1, resource, "deposit")
    client.release_all(1)
    assert not client.holds(1, resource, "deposit")


def test_remote_doom_interrupts_a_blocked_acquire(worker_client):
    worker, client = worker_client
    oid = shard0_account(worker)
    resource = ("instance", oid)
    # deposit/withdraw on the same account do not commute (both write
    # balance), so transaction 2 blocks behind transaction 1.
    client.acquire(1, resource, "deposit")
    failures = []

    def blocked():
        other = rpc.RemoteShardClient(0, worker.address, lock_timeout=30.0)
        try:
            other.acquire(2, resource, "withdraw", 30.0)
        except DeadlockError as error:
            failures.append(error)
        finally:
            other.close()

    thread = threading.Thread(target=blocked)
    thread.start()
    deadline = threading.Event()
    for _ in range(200):
        if client.collect_edges().get(2) == {1}:
            break
        deadline.wait(0.01)
    client.doom({2: (1, 2)})
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert len(failures) == 1 and failures[0].victim == 2
    client.release_all(1)


def test_write_plan_and_shipped_execution(worker_client):
    worker, client = worker_client
    oid = shard0_account(worker)
    before = worker.store.read_field(oid, "balance")
    call = request_for_operation(9, MethodCall(oid=oid, method="deposit",
                                               arguments=(25.0,)))
    # The fused trip takes the locks the engine would have acquired before
    # shipping, so the shipped execution is legal under REPRO_SANITIZE too.
    outcome = client.execute_fused(9, call, [], [])
    assert not outcome.fallback
    assert outcome.results == [None]
    assert outcome.writes == [(oid, {"balance": before + 25.0})]
    assert outcome.images == [(oid, ("balance",))]
    assert worker.store.read_field(oid, "balance") == before + 25.0
    # The before-image was logged first, so abort restores it.
    client.abort(9)
    assert worker.store.read_field(oid, "balance") == before
    client.release_all(9)


def test_flushed_write_plan_is_logged_before_its_writes(worker_client):
    """The shipped write plan (images) and field writes that ride a fused
    execute: images logged first, writes applied, both undone by abort."""
    worker, client = worker_client
    first, second = shard0_accounts(worker)[:2]
    before_first = worker.store.read_field(first, "balance")
    before_second = worker.store.read_field(second, "balance")
    client.acquire(9, ("instance", second), "deposit")
    call = request_for_operation(9, MethodCall(oid=first, method="deposit",
                                               arguments=(25.0,)))
    outcome = client.execute_fused(
        9, call, [(second, ("balance",))],
        [(second, "balance", before_second + 1.0)])
    assert not outcome.fallback
    assert worker.store.read_field(second, "balance") == before_second + 1.0
    assert worker.store.read_field(first, "balance") == before_first + 25.0
    client.abort(9)
    assert worker.store.read_field(second, "balance") == before_second
    assert worker.store.read_field(first, "balance") == before_first
    client.release_all(9)


def test_remote_read_write_fields(worker_client):
    """A field write reaches the worker riding the prepare message and a
    snapshot reads it back."""
    worker, client = worker_client
    oid = shard0_account(worker)
    before = client.snapshot()[str(oid)]["balance"]
    client.acquire(5, ("instance", oid), "deposit")
    client.stage_prepare(5, [(oid, ("balance",))],
                         [(oid, "balance", before + 1.0)])
    client.prepare(5)
    assert worker.store.read_field(oid, "balance") == before + 1.0
    assert client.snapshot()[str(oid)]["balance"] == before + 1.0
    client.commit(5)
    client.release_all(5)
    assert client.snapshot()[str(oid)]["balance"] == before + 1.0


def test_snapshot_serves_only_the_owned_partition(worker_client):
    worker, client = worker_client
    router = HashShardRouter(2)
    snapshot = client.snapshot()
    assert snapshot  # shard 0 owns something
    for name in snapshot:
        class_name, _, number = name.partition("#")
        assert router.shard_of_oid(OID(class_name, int(number))) == 0


# -- the engine over worker subprocesses -----------------------------------------


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
    """One account per shard."""
    by_shard: dict[int, OID] = {}
    for oid in store.extent("Account"):
        by_shard.setdefault(store.router.shard_of_oid(oid), oid)
    return by_shard[0], by_shard[1]


@pytest.fixture(scope="module")
def worker_engine():
    engine, store = build_worker_engine()
    try:
        yield engine, store
    finally:
        engine.close()


def test_cross_shard_transfer_commits_everywhere(worker_engine):
    engine, store = worker_engine
    a, b = split_accounts(store)
    state = engine.store_state()
    before_a = state[str(a)]["balance"]
    before_b = state[str(b)]["balance"]
    with engine.begin(label="transfer") as session:
        session.call(a, "withdraw", 10.0)
        session.call(b, "deposit", 10.0)
    state = engine.store_state()
    assert state[str(a)]["balance"] == before_a - 10.0
    assert state[str(b)]["balance"] == before_b + 10.0
    # The mirror store tracked every write.
    assert store.read_field(a, "balance") == before_a - 10.0
    assert store.read_field(b, "balance") == before_b + 10.0


def test_cross_shard_abort_restores_both_partitions(worker_engine):
    engine, store = worker_engine
    a, b = split_accounts(store)
    state = engine.store_state()
    before_a = state[str(a)]["balance"]
    before_b = state[str(b)]["balance"]
    session = engine.begin(label="doomed")
    session.call(a, "withdraw", 5.0)
    session.call(b, "deposit", 5.0)
    session.abort()
    state = engine.store_state()
    assert state[str(a)]["balance"] == before_a
    assert state[str(b)]["balance"] == before_b
    assert store.read_field(a, "balance") == before_a
    assert store.read_field(b, "balance") == before_b


def test_extent_call_executes_across_shards(worker_engine):
    engine, store = worker_engine
    accounts = store.extent("Account")
    before = {oid: engine.store_state()[str(oid)]["balance"]
              for oid in accounts}
    with engine.begin(label="extent") as session:
        session.call_extent("Account", "deposit", 2.0)
    state = engine.store_state()
    for oid in accounts:
        assert state[str(oid)]["balance"] == before[oid] + 2.0


def test_deadlock_across_worker_processes(worker_engine):
    engine, store = worker_engine
    a, b = split_accounts(store)
    first_locked = threading.Event()
    second_locked = threading.Event()
    outcomes: dict[str, object] = {}

    def run(name, mine, theirs):
        session = engine.begin(label=name)
        try:
            session.call(mine, "withdraw", 1.0)
            (first_locked if name == "t1" else second_locked).set()
            assert (second_locked if name == "t1" else first_locked).wait(5.0)
            session.call(theirs, "deposit", 1.0)
            session.commit()
            outcomes[name] = "committed"
        except DeadlockError:
            session.abort()
            outcomes[name] = "deadlocked"

    t1 = threading.Thread(target=run, args=("t1", a, b))
    t2 = threading.Thread(target=run, args=("t2", b, a))
    t1.start(); t2.start()
    t1.join(timeout=30.0); t2.join(timeout=30.0)
    assert not t1.is_alive() and not t2.is_alive()
    assert sorted(outcomes.values()) == ["committed", "deadlocked"]
    # The victim's abort released only the workers it had touched, and
    # neither worker is left holding a stale doom flag.
    assert engine.lock_manager.doomed_transactions() == frozenset()


def test_worker_mode_refuses_structural_changes(worker_engine):
    engine, _store = worker_engine
    with pytest.raises(TransactionError):
        engine.create_instance("Account")


def test_worker_mode_rejects_custom_builtins():
    schema = banking_schema()
    compiled = compile_schema(schema)
    router = HashShardRouter(2)
    store = populate_store(schema, INSTANCES, seed=SEED,
                           store=ShardedObjectStore(schema, router))
    protocol = PROTOCOLS["tav"](compiled, store)
    with pytest.raises(ValueError):
        Engine(protocol, shard_workers=2, builtins={"limit": lambda: 5})


def test_harness_run_with_shard_workers_is_serializable():
    from repro.engine.harness import ThroughputHarness

    harness = ThroughputHarness(instances_per_class=INSTANCES)
    result = harness.run(PROTOCOLS["tav"], threads=4, transactions=20,
                         shard_workers=2, default_lock_timeout=5.0)
    assert result.shard_workers == 2 and result.shards == 2
    assert result.serializable is True
    assert not result.errors
