"""Worker-mode ``Engine.checkpoint()``: the same shard checkpoint as in-process.

Each shard worker checkpoints its partition through
:func:`~repro.wal.checkpoint.checkpoint_shard`, so the engine reports what
the pass really did — snapshot size, records kept and dropped — and the
snapshot file carries the WAL's LSN boundary, exactly as an in-process
checkpoint does.
"""

from __future__ import annotations

from repro.core.compiler import compile_schema
from repro.engine.engine import Engine
from repro.schema import banking_schema
from repro.sharding.router import HashShardRouter
from repro.sharding.store import ShardedObjectStore
from repro.sim.workload import populate_store
from repro.txn.protocols import PROTOCOLS
from repro.wal.checkpoint import read_checkpoint_file
from repro.wal.durability import Durability
from repro.wal.log import read_stamped_records

INSTANCES = 4
SEED = 11


def test_worker_checkpoint_reports_real_counts(tmp_path):
    schema = banking_schema()
    router = HashShardRouter(2)
    store = populate_store(schema, INSTANCES, seed=SEED,
                           store=ShardedObjectStore(schema, router))
    durability = Durability.lazy(tmp_path)
    engine = Engine(PROTOCOLS["tav"](compile_schema(schema), store),
                    shard_workers=2, default_lock_timeout=5.0,
                    durability=durability,
                    worker_options={"schema": "banking",
                                    "instances": INSTANCES,
                                    "populate_seed": SEED},
                    participant_timeout=10.0)
    try:
        accounts = list(store.extent("Account"))
        for index, oid in enumerate(accounts):
            with engine.begin(label=f"transfer-{index}") as session:
                session.call(oid, "withdraw", 1.0)
                session.call(accounts[(index + 1) % len(accounts)],
                             "deposit", 1.0)
        logs = {shard_id: list(read_stamped_records(
                    durability.wal_path(shard_id)))
                for shard_id in range(2)}
        assert all(logs.values()), "every shard must have logged work"
        checkpoints = engine.checkpoint()
    finally:
        engine.close()

    assert [result.shard_id for result in checkpoints] == [0, 1]
    for result in checkpoints:
        stamped = logs[result.shard_id]
        assert result.instances == len(store.snapshot_shard(result.shard_id))
        assert result.records_kept + result.records_dropped == len(stamped)
        assert result.active == ()
        assert result.records_dropped == len(stamped)
        document = read_checkpoint_file(durability.checkpoint_path(result.shard_id))
        assert document["last_lsn"] == max(lsn for lsn, _ in stamped)
