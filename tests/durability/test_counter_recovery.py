"""Hot counter updates through crash, checkpoint and recovery.

The order-entry methods are counter updates (``f := f ± delta``) that run
under ordinary locking, so their durability is the images of every other
write: a TAV-projected before-image appended before the store write, an
after-image at prepare, and recovery that installs images only — losers'
before-images newest first, then winners' after-images oldest first.
These tests crash a durable engine at each interesting point and rebuild
from the durability directory alone.
"""

from __future__ import annotations

import pytest

from repro.core import compile_schema
from repro.engine import Engine
from repro.schema.examples import order_entry_schema
from repro.sharding import ClassShardRouter, ShardedObjectStore
from repro.txn.protocols import TAVProtocol
from repro.wal import Durability, RecoveryRunner


@pytest.fixture
def durable_counters(tmp_path):
    """A two-shard durable engine over one warehouse and one stock."""
    schema = order_entry_schema()
    compiled = compile_schema(schema)
    router = ClassShardRouter(2, {"Warehouse": 0, "Stock": 1})
    store = ShardedObjectStore(schema, router)
    warehouse = store.create("Warehouse", name="west", ytd=0.0, orders=0)
    stock = store.create("Stock", item="widget", quantity=100, sold=0)
    durability = Durability.lazy(tmp_path / "wal")
    engine = Engine(TAVProtocol(compiled, store), durability=durability)
    yield engine, schema, router, durability, warehouse.oid, stock.oid
    engine.close()


def _recover(durability, schema, router):
    return RecoveryRunner(durability, schema, router=router).recover()


def _sale(engine, warehouse, stock, amount, count, label=""):
    session = engine.begin(label=label)
    session.call(warehouse, "record_sale", amount)
    session.call(stock, "take_stock", count)
    session.call(stock, "record_sold", count)
    session.commit()
    return session


def test_committed_counter_updates_are_redone_from_the_wal(durable_counters):
    engine, schema, router, durability, warehouse, stock = durable_counters
    session = _sale(engine, warehouse, stock, 50.0, 30, label="sale")
    engine.close()  # crash: no checkpoint since construction

    result = _recover(durability, schema, router)
    assert result.store.read_field(warehouse, "ytd") == 50.0
    assert result.store.read_field(stock, "quantity") == 70
    assert result.store.read_field(stock, "sold") == 30
    assert session.txn_id in result.report.winners
    assert result.report.redo_applied > 0


def test_in_flight_counter_updates_are_presumed_aborted(durable_counters):
    """A crashed transaction's applied-but-undecided update is undone by
    restoring its before-image.  The checkpoint lands *while the update is
    applied*, so the snapshot contains it and only the kept before-image
    explains it: the case the checkpoint's pending set exists for."""
    engine, schema, router, durability, warehouse, stock = durable_counters
    _sale(engine, warehouse, stock, 50.0, 30, label="good")
    dangling = engine.begin(label="crashed-mid-flight")
    dangling.call(stock, "take_stock", 25)  # applied, never commits
    engine.checkpoint()  # fuzzy: snapshots the half-done transaction
    engine.close()

    result = _recover(durability, schema, router)
    assert result.store.read_field(stock, "quantity") == 70  # only the sale
    assert dangling.txn_id not in result.report.winners
    assert result.report.undo_applied > 0
    assert RecoveryRunner.presumed_abort_violations(result) == []


def test_checkpoint_boundary_neither_loses_nor_repeats_an_update(durable_counters):
    """An update committed before the checkpoint is inside the snapshot;
    one committed after it is redone — never both, never neither."""
    engine, schema, router, durability, warehouse, stock = durable_counters
    _sale(engine, warehouse, stock, 10.0, 10, label="before-ckpt")
    engine.checkpoint()
    _sale(engine, warehouse, stock, 20.0, 5, label="after-ckpt")
    engine.close()

    result = _recover(durability, schema, router)
    assert result.store.read_field(warehouse, "ytd") == 30.0
    assert result.store.read_field(stock, "quantity") == 85
    assert result.store.read_field(stock, "sold") == 15


def test_runtime_abort_then_crash_recovers_the_restored_value(durable_counters):
    """A transaction aborted at run time is a loser under replay: its
    before-image is restored again, landing on the value the abort left."""
    engine, schema, router, durability, warehouse, stock = durable_counters
    session = engine.begin(label="change-of-heart")
    session.call(stock, "take_stock", 40)
    session.abort()
    engine.close()

    result = _recover(durability, schema, router)
    assert result.store.read_field(stock, "quantity") == 100
    assert session.txn_id not in result.report.winners
    assert RecoveryRunner.presumed_abort_violations(result) == []


def test_abort_then_checkpoint_keeps_the_reverted_value(durable_counters):
    """The snapshot captures the store *after* undo; recovery must not
    lose the reverted value or the sale that followed it."""
    engine, schema, router, durability, warehouse, stock = durable_counters
    session = engine.begin(label="aborted-before-ckpt")
    session.call(stock, "take_stock", 40)
    session.abort()
    engine.checkpoint()
    _sale(engine, warehouse, stock, 5.0, 5, label="after")
    engine.close()

    result = _recover(durability, schema, router)
    assert result.store.read_field(stock, "quantity") == 95
    assert result.store.read_field(stock, "sold") == 5
