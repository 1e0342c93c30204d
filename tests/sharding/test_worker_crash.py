"""The in-doubt window across processes: SIGKILL-style worker crashes.

Extends the crash-injection style of ``tests/durability`` to the shard
workers: a worker dies (``os._exit``, no cleanup — SIGKILL semantics)
*between prepare and commit*, is restarted over the same durability
directory, and must resolve its prepared in-doubt transactions against the
coordinator's decision log with no conservation violation:

* died after the commit decision became durable → the restarted worker
  **redoes** the transaction from its own redo images;
* died before its vote reached the coordinator → the coordinator aborted;
  whether the restart finds an advisory abort record or no record at all,
  **presumed abort** undoes the prepared writes;
* the pure window — a durable PREPARED marker and *no* decision record of
  any kind — is exercised against a worker driven directly over RPC.
"""

from __future__ import annotations

import pytest

from repro.api.messages import request_for_operation
from repro.core.compiler import compile_schema
from repro.engine.engine import Engine
from repro.errors import ParticipantUnavailable
from repro.objects.oid import OID
from repro.schema import banking_schema
from repro.sharding import rpc
from repro.sharding import worker as worker_module
from repro.sharding.router import HashShardRouter
from repro.sharding.store import ShardedObjectStore
from repro.sim.workload import populate_store
from repro.txn.operations import MethodCall
from repro.txn.protocols import PROTOCOLS
from repro.wal.log import DecisionLog

INSTANCES = 4
SEED = 11


def build_worker_engine(wal_dir):
    schema = banking_schema()
    compiled = compile_schema(schema)
    router = HashShardRouter(2)
    store = populate_store(schema, INSTANCES, seed=SEED,
                           store=ShardedObjectStore(schema, router))
    protocol = PROTOCOLS["tav"](compiled, store)
    from repro.wal.durability import Durability

    engine = Engine(protocol, shard_workers=2, default_lock_timeout=5.0,
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


def restart_worker(shard_id, wal_dir):
    """Spawn a fresh worker over the crashed one's durability directory."""
    process, address = worker_module.spawn(
        shard_id=shard_id, shards=2, protocol="tav", schema="banking",
        instances=INSTANCES, populate_seed=SEED, lock_timeout=5.0,
        durability="fsync", wal_dir=wal_dir)
    client = rpc.RemoteShardClient(shard_id, address)
    return process, client


def stop_worker(process, client):
    client.shutdown()
    client.close()
    process.wait(timeout=10.0)


def test_worker_killed_after_commit_decision_redoes_on_restart(tmp_path):
    engine, store = build_worker_engine(tmp_path)
    fault_exit = None
    try:
        a, b = split_accounts(store)
        before = engine.store_state()
        total_before = (before[str(a)]["balance"] + before[str(b)]["balance"])
        # Worker 1 votes yes — durably — then dies before phase two.
        engine.shard_clients[1].inject_fault("exit_after_prepare_reply")
        with engine.begin(label="doomed-after-vote") as session:
            session.call(a, "withdraw", 10.0)
            session.call(b, "deposit", 10.0)
        # The commit stands: the decision was durable before phase two, and
        # the unreachable participant was tolerated, not fatal.
        assert engine.coordinator.unavailable_completions >= 1
        outcomes = DecisionLog.outcomes_at(tmp_path / "decisions.log")
        committed = [txn for txn, verdict in outcomes.items()
                     if verdict == "commit"]
        assert committed, "the transfer's commit record must be durable"
        survivor = engine.shard_clients[0].snapshot()
        assert survivor[str(a)]["balance"] == before[str(a)]["balance"] - 10.0
        fault_exit = engine.backend.processes[1].wait(timeout=10.0)
    finally:
        engine.close()
    assert fault_exit == worker_module.FAULT_EXIT

    process, client = restart_worker(1, tmp_path)
    try:
        report = client.hello()["recovery"]
        assert report is not None
        assert any(txn in report["winners"] for txn in committed)
        assert report["redo_applied"] >= 1
        recovered = client.snapshot()
        assert recovered[str(b)]["balance"] == before[str(b)]["balance"] + 10.0
        # Conservation across the crash: nothing created, nothing lost.
        assert survivor[str(a)]["balance"] + recovered[str(b)]["balance"] \
            == total_before
    finally:
        stop_worker(process, client)


def test_worker_killed_before_vote_reaches_coordinator_presumed_aborts(tmp_path):
    engine, store = build_worker_engine(tmp_path)
    try:
        a, b = split_accounts(store)
        before = engine.store_state()
        # Worker 1 makes its PREPARED marker durable but never answers: the
        # coordinator sees an unavailable participant and aborts everywhere.
        engine.shard_clients[1].inject_fault("exit_before_prepare_reply")
        session = engine.begin(label="doomed-in-prepare")
        session.call(a, "withdraw", 7.0)
        session.call(b, "deposit", 7.0)
        with pytest.raises(ParticipantUnavailable):
            session.commit()
        # The survivor's partition was rolled back while the locks held.
        survivor = engine.shard_clients[0].snapshot()
        assert survivor[str(a)]["balance"] == before[str(a)]["balance"]
        # The engine keeps serving single-shard work on the live shard.
        with engine.begin(label="after-the-crash") as again:
            again.call(a, "deposit", 3.0)
        assert engine.shard_clients[0].snapshot()[str(a)]["balance"] \
            == before[str(a)]["balance"] + 3.0
    finally:
        engine.close()

    process, client = restart_worker(1, tmp_path)
    try:
        report = client.hello()["recovery"]
        assert report is not None
        assert report["losers"], "the prepared transaction must be a loser"
        assert report["undo_applied"] >= 1
        recovered = client.snapshot()
        assert recovered[str(b)]["balance"] == before[str(b)]["balance"]
    finally:
        stop_worker(process, client)


def test_pure_in_doubt_window_resolved_by_presumed_abort(tmp_path):
    """A durable PREPARED marker and *no* decision record whatsoever."""
    process, address = worker_module.spawn(
        shard_id=0, shards=2, protocol="tav", schema="banking",
        instances=INSTANCES, populate_seed=SEED, lock_timeout=5.0,
        durability="fsync", wal_dir=tmp_path)
    client = rpc.RemoteShardClient(0, address)
    router = HashShardRouter(2)
    replica = populate_store(banking_schema(), INSTANCES, seed=SEED)
    oid = next(o for o in replica.extent("Account")
               if router.shard_of_oid(o) == 0)
    before = replica.read_field(oid, "balance")
    try:
        call = request_for_operation(
            77, MethodCall(oid=oid, method="deposit", arguments=(50.0,)))
        # The Account class lock and this account both live on shard 0, so
        # the fused trip plans, locks, images and runs the deposit here.
        outcome = client.execute_fused(77, call, [], [])
        assert not outcome.fallback
        assert outcome.writes == [(oid, {"balance": before + 50.0})]
        client.inject_fault("exit_after_prepare_reply")
        client.prepare(77)  # the durable yes-vote — then the worker is gone
        assert process.wait(timeout=10.0) == worker_module.FAULT_EXIT
        with pytest.raises(ParticipantUnavailable):
            client.commit(77)
    finally:
        client.close()

    process, client = restart_worker(0, tmp_path)
    try:
        report = client.hello()["recovery"]
        assert report["in_doubt"] == [77]
        assert report["prepared_in_doubt"] == [77]
        assert report["undo_applied"] >= 1
        assert client.snapshot()[str(oid)]["balance"] == before
    finally:
        stop_worker(process, client)
