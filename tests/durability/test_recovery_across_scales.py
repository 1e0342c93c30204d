"""One recovery routine at every scale: the offline runner agrees with a worker.

The offline :class:`~repro.wal.recovery_runner.RecoveryRunner` over a
worker-mode durability directory and a shard worker restarted over the same
directory both rebuild the crashed shard with ``restore_snapshot`` +
``replay_shard``.  For each crash shape of ``tests/sharding/
test_worker_crash.py`` — a SIGKILL after the yes-vote with a durable commit,
presumed abort before the vote reached the coordinator, and the pure
in-doubt window — the two must recover the same partition and classify the
same transactions the same way.

The runner only reads the directory, so it runs first; the restarted worker
then rewrites the crashed shard's files as its new base.
"""

from __future__ import annotations

import pytest

from repro.api.messages import request_for_operation
from repro.core.compiler import compile_schema
from repro.engine.engine import Engine
from repro.errors import ParticipantUnavailable
from repro.schema import banking_schema
from repro.sharding import rpc
from repro.sharding import worker as worker_module
from repro.sharding.router import HashShardRouter
from repro.sharding.store import ShardedObjectStore
from repro.sim.workload import populate_store
from repro.txn.operations import MethodCall
from repro.txn.protocols import PROTOCOLS
from repro.wal.durability import Durability
from repro.wal.recovery_runner import RecoveryRunner

INSTANCES = 4
SEED = 11

#: The per-shard report fields both recoveries must agree on.
COMPARED = ("winners", "losers", "in_doubt", "undo_applied", "redo_applied")


def build_worker_engine(wal_dir):
    schema = banking_schema()
    store = populate_store(schema, INSTANCES, seed=SEED,
                           store=ShardedObjectStore(schema, HashShardRouter(2)))
    engine = Engine(PROTOCOLS["tav"](compile_schema(schema), store),
                    shard_workers=2, default_lock_timeout=5.0,
                    durability=Durability.fsynced(wal_dir),
                    worker_options={"schema": "banking",
                                    "instances": INSTANCES,
                                    "populate_seed": SEED},
                    participant_timeout=10.0)
    return engine, store


def split_accounts(store):
    by_shard = {}
    for oid in store.extent("Account"):
        by_shard.setdefault(store.router.shard_of_oid(oid), oid)
    return by_shard[0], by_shard[1]


def spawn_worker(shard_id, wal_dir):
    process, address = worker_module.spawn(
        shard_id=shard_id, shards=2, protocol="tav", schema="banking",
        instances=INSTANCES, populate_seed=SEED, lock_timeout=5.0,
        durability="fsync", wal_dir=wal_dir)
    return process, rpc.RemoteShardClient(shard_id, address)


def assert_runner_matches_restarted_worker(wal_dir, shard_id):
    """Recover offline, restart the worker, and compare the two for one shard."""
    result = RecoveryRunner(Durability.fsynced(wal_dir), banking_schema()).recover()
    # The surviving shard checkpointed its log empty when the engine closed
    # (or never had one), so the runner's report is the crashed shard's.
    assert all(not records for other, records in result.shard_records.items()
               if other != shard_id)
    assert result.shard_records[shard_id]
    offline = result.report.as_document()
    partition = {str(oid): values
                 for oid, _, values in result.store.snapshot_shard(shard_id)}
    process, client = spawn_worker(shard_id, wal_dir)
    try:
        report = client.hello()["recovery"]
        assert report is not None
        for name in COMPARED:
            assert report[name] == offline[name], name
        assert client.snapshot() == partition
    finally:
        client.shutdown()
        client.close()
        process.wait(timeout=10.0)
    return report


def test_commit_after_vote_recovers_alike(tmp_path):
    engine, store = build_worker_engine(tmp_path)
    try:
        a, b = split_accounts(store)
        engine.shard_clients[1].inject_fault("exit_after_prepare_reply")
        with engine.begin(label="doomed-after-vote") as session:
            session.call(a, "withdraw", 10.0)
            session.call(b, "deposit", 10.0)
        assert engine.backend.processes[1].wait(timeout=10.0) \
            == worker_module.FAULT_EXIT
    finally:
        engine.close()
    report = assert_runner_matches_restarted_worker(tmp_path, 1)
    assert report["winners"] and report["redo_applied"] >= 1


def test_presumed_abort_before_vote_recovers_alike(tmp_path):
    engine, store = build_worker_engine(tmp_path)
    try:
        a, b = split_accounts(store)
        engine.shard_clients[1].inject_fault("exit_before_prepare_reply")
        session = engine.begin(label="doomed-in-prepare")
        session.call(a, "withdraw", 7.0)
        session.call(b, "deposit", 7.0)
        with pytest.raises(ParticipantUnavailable):
            session.commit()
    finally:
        engine.close()
    report = assert_runner_matches_restarted_worker(tmp_path, 1)
    assert report["losers"] and report["undo_applied"] >= 1


def test_pure_in_doubt_window_recovers_alike(tmp_path):
    # No engine ever runs here: lay out the directory the runner reads.
    Durability.fsynced(tmp_path).prepare_directory(2)
    process, client = spawn_worker(0, tmp_path)
    router = HashShardRouter(2)
    replica = populate_store(banking_schema(), INSTANCES, seed=SEED)
    oid = next(o for o in replica.extent("Account")
               if router.shard_of_oid(o) == 0)
    try:
        call = request_for_operation(
            77, MethodCall(oid=oid, method="deposit", arguments=(50.0,)))
        assert not client.execute_fused(77, call, [], []).fallback
        client.inject_fault("exit_after_prepare_reply")
        client.prepare(77)
        assert process.wait(timeout=10.0) == worker_module.FAULT_EXIT
    finally:
        client.close()
    report = assert_runner_matches_restarted_worker(tmp_path, 0)
    assert report["in_doubt"] == [77] and report["undo_applied"] >= 1
