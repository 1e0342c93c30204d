"""The lock-free snapshot path for declared read-only transactions.

``begin(read_only=True)`` is a promise the engine both exploits and
enforces: every operation runs against a shared committed-state copy with
zero lock acquisitions and zero undo images, a write attempt is refused
outright, and the copy excludes other transactions' unfinished in-flight
writes.
"""

from __future__ import annotations

import pytest

from repro.core import compile_schema
from repro.engine import Engine
from repro.errors import TransactionError
from repro.objects import ObjectStore
from repro.schema.examples import banking_schema, order_entry_schema
from repro.sim.workload import populate_store
from repro.txn.protocols import TAVProtocol


@pytest.fixture
def engine_setup():
    schema = order_entry_schema()
    compiled = compile_schema(schema)
    store = populate_store(schema, {"Warehouse": 1, "Stock": 2}, seed=3)
    engine = Engine(TAVProtocol(compiled, store))
    yield engine, store
    engine.close()


def _lock_requests(engine) -> int:
    return sum(manager.inner.stats.requests
               for manager in engine.lock_manager.shards)


def test_read_only_transactions_acquire_zero_locks(engine_setup):
    engine, store = engine_setup
    warehouse = store.extent("Warehouse")[0]
    stock = store.extent("Stock")[0]
    before = _lock_requests(engine)
    session = engine.begin(read_only=True)
    session.call(warehouse, "activity_report")
    session.call(stock, "stock_level")
    session.commit()
    assert _lock_requests(engine) == before
    assert engine.metrics.snapshot_reads == 2


def test_read_only_write_attempts_are_refused(engine_setup):
    engine, store = engine_setup
    stock = store.extent("Stock")[0]
    session = engine.begin(read_only=True)
    with pytest.raises(TransactionError, match="read-only"):
        session.call(stock, "take_stock", 5)
    # The refusal corrupted nothing: the live store is untouched and an
    # ordinary transaction still works.
    quantity = store.read_field(stock, "quantity")
    writer = engine.begin()
    writer.call(stock, "take_stock", 5)
    writer.commit()
    assert store.read_field(stock, "quantity") == quantity - 5


@pytest.mark.parametrize(
    "class_name, method, arguments, field, delta, report, column",
    [("Warehouse", "note_order", (), "orders", 1,
      "activity_report", -1),  # "name ytd orders"
     ("Stock", "take_stock", (7,), "quantity", -7,
      "stock_level", 1)],  # "item quantity sold"
    ids=["note_order", "take_stock"])
def test_snapshot_excludes_in_flight_locked_writes(engine_setup, class_name,
                                                   method, arguments, field,
                                                   delta, report, column):
    """The snapshot builder rolls in-flight writes back to their
    before-images, so a read-only report never shows half a sale."""
    engine, store = engine_setup
    target = store.extent(class_name)[0]
    base = store.read_field(target, field)
    writer = engine.begin()
    writer.call(target, method, *arguments)  # uncommitted
    assert store.read_field(target, field) == base + delta  # dirty, live

    reader = engine.begin(read_only=True)
    shown = reader.call(target, report)
    reader.commit()
    assert shown.split()[column] == str(base)

    writer.commit()
    after = engine.begin(read_only=True)
    final = after.call(target, report)
    after.commit()
    assert final.split()[column] == str(base + delta)


def test_snapshot_is_shared_between_commits_and_refreshed_after(engine_setup):
    engine, store = engine_setup
    warehouse = store.extent("Warehouse")[0]
    first = engine.begin(read_only=True)
    first.call(warehouse, "activity_report")
    first.commit()
    cached = engine._snapshot_cache
    second = engine.begin(read_only=True)
    second.call(warehouse, "activity_report")
    second.commit()
    assert engine._snapshot_cache is cached  # same point, same copy

    writer = engine.begin()
    writer.call(warehouse, "note_order")
    writer.commit()
    third = engine.begin(read_only=True)
    third.call(warehouse, "activity_report")
    third.commit()
    assert engine._snapshot_cache is not cached  # new commit, new copy


def test_read_only_commit_short_circuits_the_commit_log(engine_setup):
    """A transaction that touched nothing writable leaves no commit-log
    entry — sequential-replay verification must not try to replay it."""
    engine, store = engine_setup
    warehouse = store.extent("Warehouse")[0]
    session = engine.begin(read_only=True, label="just-looking")
    session.call(warehouse, "activity_report")
    session.commit()
    assert "just-looking" not in [label for _, label in engine.commit_log]


def test_read_only_transaction_reads_one_snapshot_across_commits():
    """Read skew: a transfer committing between two reads of one read-only
    transaction must not show it half: A before the transfer and B after
    it sum to 210, which no serial order produces."""
    schema = banking_schema()
    store = ObjectStore(schema)
    first = store.create("Account", owner="a", balance=100.0).oid
    second = store.create("Account", owner="b", balance=100.0).oid
    with Engine(TAVProtocol(compile_schema(schema), store)) as engine:
        reader = engine.begin(read_only=True)
        seen_first = reader.call(first, "balance_report")

        transfer = engine.begin()
        transfer.call(first, "withdraw", 10.0)
        transfer.call(second, "deposit", 10.0)
        transfer.commit()

        seen_second = reader.call(second, "balance_report")
        reader.commit()
        assert (seen_first, seen_second) == ("a 100.0", "b 100.0")
        # The pinned snapshot was dropped with the transaction; the next
        # reader sees the transfer.
        assert reader.transaction.snapshot is None
        after = engine.begin(read_only=True)
        assert after.call(second, "balance_report") == "b 110.0"
        after.abort()
        assert after.transaction.snapshot is None
