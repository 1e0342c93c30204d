"""Round trips per transaction: what the batched wire layers actually save.

Two measurements, one document (``BENCH_roundtrips.json``):

* **client frames per transaction** — the same multi-operation transfer
  committed through the per-command socket path (Begin, one Call per
  operation, Commit: one round trip each) and as one server-side
  :class:`~repro.api.messages.RunProgram`.  The program path costs exactly
  one reply frame per transaction — O(1) in the operation count, where the
  per-command path pays ``operations + 2``;
* **worker RPC requests per cross-shard commit** — the engine's worker
  protocol (acquire batches, fused execution, deferred writes against the
  mirror), pinned at the counts it reached when the one-RPC-per-step wire
  was retired (that wire paid 16 and 12 where this one pays 6 and 9).
"""

import json
import pathlib
import time

from repro.api.client import connect
from repro.api.messages import Begin, Call, Commit
from repro.api.server import ApiServer
from repro.core.compiler import compile_schema
from repro.engine import Engine
from repro.objects import ObjectStore
from repro.schema import banking_schema
from repro.sharding.router import HashShardRouter
from repro.sharding.store import ShardedObjectStore
from repro.sim.workload import populate_store
from repro.txn.operations import ExtentCall, MethodCall
from repro.txn.protocols import PROTOCOLS, TAVProtocol

from .conftest import emit

TRANSACTIONS = 25
WORKER_TRANSACTIONS = 10
INSTANCES = 4
SEED = 11
JSON_PATH = pathlib.Path(__file__).with_name("BENCH_roundtrips.json")


def transfer_operations(first, second, operations: int) -> list[MethodCall]:
    """``operations`` balance-preserving calls alternating between accounts."""
    legs = [(first, "withdraw"), (second, "deposit")]
    return [MethodCall(oid=oid, method=method, arguments=(5.0,))
            for oid, method in (legs[i % 2] for i in range(operations))]


def measure_client_frames(banking, banking_compiled):
    """Frames per committed transaction, per-command vs program path."""
    store = ObjectStore(banking)
    store.create("Account", balance=10_000.0, owner="ada", active=True)
    store.create("Account", balance=10_000.0, owner="grace", active=True)
    first, second = store.extent("Account")
    rows = []
    with Engine(TAVProtocol(banking_compiled, store)) as engine:
        with ApiServer(engine) as server:
            with connect(server.address) as connection:
                for operations in (2, 4):
                    calls = transfer_operations(first, second, operations)
                    before = engine.metrics.frames_sent
                    started = time.perf_counter()
                    for _ in range(TRANSACTIONS):
                        begin = connection.request(Begin(label="classic"))
                        for call in calls:
                            connection.request(Call(
                                txn=begin.txn, oid=call.oid,
                                method=call.method,
                                arguments=call.arguments))
                        connection.request(Commit(txn=begin.txn))
                    elapsed = time.perf_counter() - started
                    frames = engine.metrics.frames_sent - before
                    rows.append({
                        "measure": "client_frames", "path": "per-command",
                        "operations": operations,
                        "transactions": TRANSACTIONS, "frames": frames,
                        "frames_per_txn": frames / TRANSACTIONS,
                        "commits_per_s": round(TRANSACTIONS / elapsed, 1),
                    })
                    before = engine.metrics.frames_sent
                    started = time.perf_counter()
                    for _ in range(TRANSACTIONS):
                        connection.run_program(calls, label="program")
                    elapsed = time.perf_counter() - started
                    frames = engine.metrics.frames_sent - before
                    rows.append({
                        "measure": "client_frames", "path": "program",
                        "operations": operations,
                        "transactions": TRANSACTIONS, "frames": frames,
                        "frames_per_txn": frames / TRANSACTIONS,
                        "commits_per_s": round(TRANSACTIONS / elapsed, 1),
                    })
    return rows


def worker_engine():
    schema = banking_schema()
    compiled = compile_schema(schema)
    store = populate_store(schema, INSTANCES, seed=SEED,
                           store=ShardedObjectStore(schema,
                                                    HashShardRouter(2)))
    protocol = PROTOCOLS["tav"](compiled, store)
    return Engine(protocol, shard_workers=2, default_lock_timeout=5.0,
                  worker_options={"schema": "banking",
                                  "instances": INSTANCES,
                                  "populate_seed": SEED}), store


def measure_worker_rpcs():
    """Worker RPC requests per commit, per transaction shape."""
    rows = []
    engine, store = worker_engine()
    try:
        by_shard: dict[int, object] = {}
        for oid in store.extent("Account"):
            by_shard.setdefault(store.router.shard_of_oid(oid), oid)
        first, second = by_shard[0], by_shard[1]
        shapes = {
            "cross-shard extent": [ExtentCall(class_name="Account",
                                              method="deposit",
                                              arguments=(1.0,))],
            "cross-shard transfer": transfer_operations(first, second, 2),
        }
        for shape, operations in shapes.items():
            before = engine.metrics.rpc_requests
            for _ in range(WORKER_TRANSACTIONS):
                session = engine.begin(label="measured")
                for operation in operations:
                    engine.perform(session.transaction, operation)
                engine.commit(session.transaction)
            rpcs = engine.metrics.rpc_requests - before
            rows.append({
                "measure": "worker_rpcs", "shape": shape,
                "transactions": WORKER_TRANSACTIONS, "rpcs": rpcs,
                "rpcs_per_commit": rpcs / WORKER_TRANSACTIONS,
            })
    finally:
        engine.close()
    return rows


def test_roundtrips_per_transaction(benchmark, banking, banking_compiled):
    frame_rows, rpc_rows = benchmark.pedantic(
        lambda: (measure_client_frames(banking, banking_compiled),
                 measure_worker_rpcs()),
        rounds=1, iterations=1, warmup_rounds=0)

    by_path = {(row["path"], row["operations"]): row for row in frame_rows}
    for operations in (2, 4):
        # The program path: the whole transaction in ONE reply frame,
        # independent of how many operations it runs.
        assert by_path[("program", operations)]["frames_per_txn"] == 1.0
        # The per-command path pays one round trip per command.
        assert by_path[("per-command", operations)]["frames_per_txn"] \
            == operations + 2

    rpcs_per_commit = {row["shape"]: row["rpcs_per_commit"]
                       for row in rpc_rows}
    # Deterministic counts, so pinned absolutely.  The extent: one class
    # lock, a prepare and a commit per shard, one release (its writes ride
    # the prepares).  The transfer: a fused withdraw, two acquires for the
    # cross-shard deposit, then prepare, commit and release per shard.  A
    # new round trip on either shape fails.
    assert rpcs_per_commit["cross-shard extent"] <= 6.0, rpcs_per_commit
    assert rpcs_per_commit["cross-shard transfer"] <= 9.0, rpcs_per_commit

    JSON_PATH.write_text(json.dumps({
        "benchmark": "roundtrips",
        "unit": "per_transaction",
        "config": {"transactions": TRANSACTIONS,
                   "worker_transactions": WORKER_TRANSACTIONS,
                   "operations": [2, 4], "instances": INSTANCES,
                   "seed": SEED, "shard_workers": 2},
        "summary": {
            "program_frames_per_txn": 1.0,
            "worker_rpcs_per_commit": rpcs_per_commit,
        },
        "results": frame_rows + rpc_rows,
    }, indent=1) + "\n", encoding="utf-8")

    lines = ["path         ops  frames/txn  commits/s"]
    for row in frame_rows:
        lines.append(f"{row['path']:<12} {row['operations']:>3}  "
                     f"{row['frames_per_txn']:>10.2f}  "
                     f"{row['commits_per_s']:>9.1f}")
    lines.append("")
    lines.append("shape                 rpcs/commit")
    for row in rpc_rows:
        lines.append(f"{row['shape']:<21} {row['rpcs_per_commit']:>11.1f}")
    emit("Round trips per transaction: program path frames and worker "
         "RPCs per commit", "\n".join(lines))
