"""Chaos: kill the primary mid-2PC, promote the standby, keep running.

The crash-injection style of ``tests/sharding/test_worker_crash.py``
driven through the replication subsystem: each test runs an engine with
one hot standby per shard, kills a primary at a chosen point of the
two-phase commit (``os._exit`` — SIGKILL semantics, no cleanup), promotes
the standby through :meth:`Engine.failover`, and checks that

* the in-flight transaction resolves the way presumed abort dictates
  (undone without a durable commit record, redone with one);
* conservation holds across the failover — no money created or lost;
* the *running* engine keeps serving on the promoted worker without a
  restart (re-admission re-points the shared RPC client and resyncs the
  planning mirror).

A separate test tears the standby's own replay log mid-frame and shows
the stream heals on reconnect: the standby resumes from the last valid
frame and the primary re-ships the rest, no rebase needed.
"""

from __future__ import annotations

import socket
import time

import pytest

from repro.core.compiler import compile_schema
from repro.engine.engine import Engine
from repro.errors import (
    ParticipantUnavailable,
    TransactionError,
    TwoPhaseCommitError,
)
from repro.schema import banking_schema
from repro.sharding import rpc
from repro.sharding import worker as worker_module
from repro.sharding.router import HashShardRouter
from repro.sharding.store import ShardedObjectStore
from repro.sim.workload import populate_store
from repro.txn.protocols import PROTOCOLS
from repro.wal.durability import Durability

INSTANCES = 4
SEED = 11
REPLICAS = 1


def build_replicated_engine(wal_dir, *, shards=2):
    schema = banking_schema()
    compiled = compile_schema(schema)
    router = HashShardRouter(shards)
    store = populate_store(schema, INSTANCES, seed=SEED,
                           store=ShardedObjectStore(schema, router))
    protocol = PROTOCOLS["tav"](compiled, store)
    engine = Engine(protocol, shard_workers=shards, default_lock_timeout=5.0,
                    durability=Durability.fsynced(wal_dir),
                    worker_options={"schema": "banking",
                                    "instances": INSTANCES,
                                    "populate_seed": SEED},
                    replicas=REPLICAS, participant_timeout=10.0)
    return engine, store


def split_accounts(store):
    by_shard = {}
    for oid in store.extent("Account"):
        by_shard.setdefault(store.router.shard_of_oid(oid), oid)
    return by_shard[0], by_shard[1]


def primary_process(engine, shard_id):
    # Spawn order per shard: REPLICAS standbys, then the primary.
    return engine.backend.processes[shard_id * (REPLICAS + 1) + REPLICAS]


def transfer(engine, a, b, amount):
    with engine.begin() as session:
        session.call(a, "withdraw", amount)
        session.call(b, "deposit", amount)


def total_of(state, a, b):
    return state[str(a)]["balance"] + state[str(b)]["balance"]


def wait_caught_up(engine, shard_id, timeout=10.0):
    """Block until shard's standby acked every frame the primary logged."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        entry = engine.stats()["shards"][shard_id]
        streams = entry.get("replication") or []
        if streams and all(s["synced"] and s["lag_records"] == 0
                           for s in streams):
            return
        time.sleep(0.05)
    raise AssertionError(f"shard {shard_id} standby never caught up")


def run_failover_round(tmp_path, fault, *, expect_commit):
    """Kill shard 1's primary at ``fault`` mid-2PC, fail over, verify."""
    engine, store = build_replicated_engine(tmp_path)
    try:
        a, b = split_accounts(store)
        before = engine.store_state()
        total = total_of(before, a, b)
        # Committed traffic first, so the shipped stream has history.
        for _ in range(3):
            transfer(engine, a, b, 1.0)
        wait_caught_up(engine, 1)
        committed_b = engine.store_state()[str(b)]["balance"]

        engine.shard_clients[1].inject_fault(fault)
        outcome = "committed"
        try:
            transfer(engine, a, b, 10.0)
        except (ParticipantUnavailable, TwoPhaseCommitError):
            outcome = "aborted"
        assert primary_process(engine, 1).wait(timeout=10.0) \
            == worker_module.FAULT_EXIT
        assert outcome == ("committed" if expect_commit else "aborted")

        report = engine.failover(1)
        promotion = report["promotion"]
        assert report["shard"] == 1
        # Presumed abort at promotion: with a durable commit record the
        # transfer is a winner and is redone; without one it is undone.
        if expect_commit:
            assert promotion["redo_applied"] >= 1
        after = engine.store_state()
        assert total_of(after, a, b) == total, "conservation violated"
        expected_b = committed_b + (10.0 if expect_commit else 0.0)
        assert after[str(b)]["balance"] == expected_b

        # The engine re-admitted the promoted worker without a restart:
        # cross-shard work flows through the same client objects.
        transfer(engine, a, b, 2.0)
        final = engine.store_state()
        assert total_of(final, a, b) == total
        assert final[str(b)]["balance"] == expected_b + 2.0
        stats = engine.stats()
        assert stats["failovers"] == 1
        assert stats["shards"][1]["role"] == "primary"
        # The promoted worker's shard is out of standbys now.
        with pytest.raises(TransactionError):
            engine.failover(1)
    finally:
        engine.close()


def test_kill_primary_before_prepare_promotes_and_aborts(tmp_path):
    """Death before the prepare logs anything: nothing durable, undone."""
    run_failover_round(tmp_path, "exit_before_prepare", expect_commit=False)


def test_kill_primary_after_prepare_before_decision_presumed_aborts(tmp_path):
    """Death after the durable yes-vote, before any decision: presumed
    abort must undo the prepared writes on the promoted standby."""
    run_failover_round(tmp_path, "exit_before_prepare_reply",
                       expect_commit=False)


def test_kill_primary_after_decision_redoes_on_promoted_standby(tmp_path):
    """Death after the commit decision is durable: the commit stands and
    the promoted standby redoes it from its replayed redo images."""
    run_failover_round(tmp_path, "exit_after_decision", expect_commit=True)


def test_serial_history_survives_failover(tmp_path):
    """The commit order the engine exposes stays a serial witness: every
    committed transfer's effect is present exactly once after failover."""
    engine, store = build_replicated_engine(tmp_path)
    try:
        a, b = split_accounts(store)
        start = engine.store_state()[str(b)]["balance"]
        for amount in (1.0, 2.0, 3.0):
            transfer(engine, a, b, amount)
        wait_caught_up(engine, 1)
        engine.shard_clients[1].inject_fault("exit_after_decision")
        transfer(engine, a, b, 4.0)  # decision durable, phase two lost
        engine.failover(1)
        committed = [label for _txn, label in engine.commit_log]
        assert len(committed) == 4
        assert engine.store_state()[str(b)]["balance"] \
            == start + 1.0 + 2.0 + 3.0 + 4.0
    finally:
        engine.close()


def _free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def test_torn_standby_tail_resumes_on_reconnect(tmp_path):
    """A standby killed with a torn replay-log tail heals by resumption.

    The standby restarts over its own files, reports the LSN of the intact
    prefix in the handshake, and the primary re-ships the missing frames —
    idempotently, with no rebase (the reset counter does not move).
    """
    port = _free_port()
    standby_process, standby_address = worker_module.spawn(
        shard_id=0, shards=1, schema="banking", instances=INSTANCES,
        populate_seed=SEED, durability="fsync", wal_dir=tmp_path,
        role="standby", port=port)
    primary_process_, primary_address = worker_module.spawn(
        shard_id=0, shards=1, schema="banking", instances=INSTANCES,
        populate_seed=SEED, durability="fsync", wal_dir=tmp_path,
        ship_to=[standby_address])
    primary = rpc.RemoteShardClient(0, primary_address)
    standby = rpc.RemoteShardClient(0, standby_address)

    def shipped_status():
        streams = primary.metrics_snapshot()["replication"]
        assert len(streams) == 1
        return streams[0]

    def wait_synced(timeout=10.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status = shipped_status()
            if status["synced"] and status["lag_records"] == 0:
                return status
            time.sleep(0.05)
        raise AssertionError("standby never caught up")

    try:
        from repro.api.messages import request_for_operation
        from repro.txn.operations import MethodCall

        oid = next(iter(
            o for o in populate_store(banking_schema(), INSTANCES,
                                      seed=SEED).extent("Account")))
        def commit_deposit(txn):
            call = request_for_operation(
                txn, MethodCall(oid=oid, method="deposit", arguments=(5.0,)))
            # One shard, so the fused trip plans, locks and runs it all.
            assert not primary.execute_fused(txn, call, [], []).fallback
            primary.prepare(txn)
            primary.commit(txn)
            primary.release_all(txn)

        for txn in (21, 22, 23):
            commit_deposit(txn)
        status = wait_synced()
        resets_before = status["resets"]

        # Kill the standby and tear its replay log: a torn half-frame at
        # the tail, exactly what a crash mid-append leaves behind.
        standby.close()
        standby_process.kill()
        standby_process.wait(timeout=10.0)
        wal_path = tmp_path / "shard-0.standby.wal"
        torn = wal_path.read_bytes() + b"\x2a\x00\x00\x00\x99\x99torn"
        wal_path.write_bytes(torn)

        # More committed work while the standby is down.
        for txn in (24, 25):
            commit_deposit(txn)

        # Same port, same files: the restarted standby reports the intact
        # prefix and the stream resumes — no rebase.
        standby_process, standby_address = worker_module.spawn(
            shard_id=0, shards=1, schema="banking", instances=INSTANCES,
            populate_seed=SEED, durability="fsync", wal_dir=tmp_path,
            role="standby", port=port)
        standby = rpc.RemoteShardClient(0, standby_address)
        status = wait_synced()
        assert status["resets"] == resets_before, \
            "a torn tail must resume, not rebase"
        replica = standby.metrics_snapshot()["standby"]
        assert replica["last_lsn"] == status["last_lsn"]
        assert standby.snapshot()[str(oid)]["balance"] \
            == primary.snapshot()[str(oid)]["balance"]
    finally:
        for client, process in ((standby, standby_process),
                                (primary, primary_process_)):
            try:
                client.shutdown()
                client.close()
            except Exception:
                process.kill()
            process.wait(timeout=10.0)


def test_restarted_worker_rejoins_running_engine(tmp_path):
    """Re-admission without replicas: a crashed primary restarts over its
    own durability directory and the running engine re-admits it."""
    schema = banking_schema()
    compiled = compile_schema(schema)
    router = HashShardRouter(2)
    store = populate_store(schema, INSTANCES, seed=SEED,
                           store=ShardedObjectStore(schema, router))
    protocol = PROTOCOLS["tav"](compiled, store)
    engine = Engine(protocol, shard_workers=2, default_lock_timeout=5.0,
                    durability=Durability.fsynced(tmp_path),
                    worker_options={"schema": "banking",
                                    "instances": INSTANCES,
                                    "populate_seed": SEED},
                    participant_timeout=10.0)
    try:
        a, b = split_accounts(store)
        total = total_of(engine.store_state(), a, b)
        transfer(engine, a, b, 5.0)
        engine.shard_clients[1].inject_fault("exit_after_decision")
        transfer(engine, a, b, 10.0)  # commit stands, worker dies
        engine.backend.processes[1].wait(timeout=10.0)

        process, address = worker_module.spawn(
            shard_id=1, shards=2, schema="banking", instances=INSTANCES,
            populate_seed=SEED, lock_timeout=5.0, durability="fsync",
            wal_dir=tmp_path)
        engine.backend.processes.append(process)
        answer = engine.readmit_worker(1, address=address)
        assert answer["recovery"]["redo_applied"] >= 1
        after = engine.store_state()
        assert total_of(after, a, b) == total
        transfer(engine, a, b, 1.0)
        assert total_of(engine.store_state(), a, b) == total
    finally:
        engine.close()
