"""Replicated banking: hot standbys, a killed primary, and live failover.

Three acts:

1. ``Engine(shard_workers=2, replicas=1)`` spawns, per shard, a *standby*
   worker process and then a primary that ships every appended WAL frame
   to it (LSN-stamped, over the same RPC wire 2PC uses).  Teller threads
   run cross-shard transfers while the standbys replay the stream in the
   background; the per-shard replication lag is read from the same
   ``stats()`` surface the ``Stats`` command renders.
2. Shard 1's primary is killed *after the commit decision is durable but
   before phase two reaches it* — the worst spot.  ``Engine.failover(1)``
   promotes the standby: it resolves the in-flight transaction against
   the coordinator's decision log (commit record → redo; none → presumed
   abort), flips to primary, and the *running* engine re-admits it —
   same client objects, planning mirror resynced from a shard snapshot,
   no restart.
3. The audit: every committed transfer's effect is present exactly once
   on the promoted worker, money is conserved, and the engine keeps
   serving — a transfer after failover lands on the new primary.

Run with::

    python examples/replicated_banking.py
"""

import random
import tempfile
import threading
import time
from pathlib import Path

from repro.core.compiler import compile_schema
from repro.engine import Engine
from repro.errors import DeadlockError
from repro.schema import banking_schema
from repro.sharding.router import HashShardRouter
from repro.sharding.store import ShardedObjectStore
from repro.sharding.worker import FAULT_EXIT
from repro.sim.workload import populate_store
from repro.txn.protocols import TAVProtocol
from repro.wal import Durability

TELLERS = 4
TRANSFERS_PER_TELLER = 10
INSTANCES_PER_CLASS = 4
SEED = 11
REPLICAS = 1


def total_balance(snapshot) -> float:
    return sum(values["balance"] for values in snapshot.values()
               if "balance" in values)


def print_replication(engine) -> None:
    for entry in engine.stats()["shards"]:
        for stream in entry.get("replication") or ():
            state = "synced" if stream["synced"] else "catching up"
            print(f"  shard {entry['shard']} -> {stream['target']}: "
                  f"{state}, acked lsn {stream['acked_lsn']}/"
                  f"{stream['last_lsn']}, lag {stream['lag_records']} "
                  f"record(s)")


def wait_caught_up(engine, timeout=10.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        entries = engine.stats()["shards"]
        streams = [stream for entry in entries
                   for stream in entry.get("replication") or ()]
        if streams and all(s["synced"] and s["lag_records"] == 0
                           for s in streams):
            return
        time.sleep(0.05)
    raise SystemExit("standbys never caught up")


def main() -> None:
    schema = banking_schema()
    compiled = compile_schema(schema)
    router = HashShardRouter(2)
    mirror = populate_store(schema, INSTANCES_PER_CLASS, seed=SEED,
                            store=ShardedObjectStore(schema, router))
    accounts = list(mirror.extent("Account"))
    wal_dir = Path(tempfile.mkdtemp(prefix="repro-replicated-"))

    print("act 1: one hot standby per shard, WAL frames shipped live ...")
    engine = Engine(TAVProtocol(compiled, mirror), shard_workers=2,
                    default_lock_timeout=5.0,
                    durability=Durability.fsynced(wal_dir),
                    worker_options={"schema": "banking",
                                    "instances": INSTANCES_PER_CLASS,
                                    "populate_seed": SEED},
                    replicas=REPLICAS, participant_timeout=10.0)
    try:
        before = total_balance(engine.store_state())
        print(f"  {len(accounts)} accounts, 2 primaries + 2 standbys, "
              f"{before:.2f} in total")

        deadlocks = 0

        def teller(index: int) -> None:
            nonlocal deadlocks
            rng = random.Random(1000 + index)
            for _ in range(TRANSFERS_PER_TELLER):
                debit, credit = rng.sample(accounts, 2)
                amount = round(rng.uniform(1.0, 10.0), 2)

                def transfer(session):
                    session.call(debit, "withdraw", amount)
                    session.call(credit, "deposit", amount)

                try:
                    engine.run_transaction(transfer, label=f"teller-{index}")
                except DeadlockError:
                    deadlocks += 1

        threads = [threading.Thread(target=teller, args=(index,))
                   for index in range(TELLERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        committed = engine.metrics.committed
        print(f"  {committed} transfers committed "
              f"({engine.metrics.deadlocks} deadlocks broken); "
              f"replication streams after the burst:")
        wait_caught_up(engine)
        print_replication(engine)

        print("\nact 2: killing shard 1's primary after the commit decision,")
        print("       before phase two — then promoting its standby ...")
        a = next(oid for oid in accounts if router.shard_of_oid(oid) == 0)
        b = next(oid for oid in accounts if router.shard_of_oid(oid) == 1)
        engine.shard_clients[1].inject_fault("exit_after_decision")
        with engine.begin(label="fatal-transfer") as session:
            session.call(a, "withdraw", 10.0)
            session.call(b, "deposit", 10.0)
        primary = engine.backend.processes[1 * (REPLICAS + 1) + REPLICAS]
        assert primary.wait(timeout=10.0) == FAULT_EXIT
        print("  the decision log made the commit durable; the primary died")

        report = engine.failover(1)
        promotion = report["promotion"]
        host, port = engine.shard_clients[1].address
        print(f"  standby promoted at {host}:{port}: "
              f"{len(promotion['winners'])} winner(s) redone, "
              f"{len(promotion['losers'])} loser(s) undone "
              f"(presumed abort), mirror resynced, engine still running")

        print("\nact 3: the audit, on the promoted worker ...")
        after = total_balance(engine.store_state())
        print(f"  total across both shards: {after:.2f} "
              f"(started with {before:.2f})")
        if abs(after - before) > 1e-6:
            raise SystemExit("conservation violated!")
        engine.run_transaction(
            lambda session: (session.call(a, "withdraw", 1.0),
                             session.call(b, "deposit", 1.0)),
            label="post-failover")
        stats = engine.stats()
        roles = {entry["shard"]: entry["role"] for entry in stats["shards"]}
        print(f"  post-failover transfer committed; roles now {roles}, "
              f"failovers recorded: {stats['failovers']}")
        print("  money conserved through kill and failover ✔")
    finally:
        engine.close()


if __name__ == "__main__":
    main()
