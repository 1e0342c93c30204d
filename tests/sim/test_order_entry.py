"""The TPC-C-style order-entry scenario and its conservation invariant.

Sequential replay proves the committed schedule was *serializable*; the
conservation check proves no units were lost or duplicated along the way —
a replica faithfully replaying lost updates would lose them identically,
so the invariant catches a failure class replay alone cannot.  The
concurrency tests here run the scenario under the plan cache, snapshot
reads and the runtime sanitizer at once, across every protocol.
"""

from __future__ import annotations

import pytest

from repro.engine import ThroughputHarness
from repro.schema.examples import order_entry_schema
from repro.sim.order_entry import (
    conservation_violations,
    conserved_totals,
    order_entry_specs,
)
from repro.sim.workload import populate_store
from repro.txn.operations import MethodCall
from repro.txn.protocols import PROTOCOLS

POPULATION = {"Warehouse": 1, "Stock": 4}


@pytest.fixture
def store():
    return populate_store(order_entry_schema(), POPULATION, seed=11)


def test_specs_are_deterministic(store):
    assert order_entry_specs(store, 20, seed=5) == \
        order_entry_specs(store, 20, seed=5)
    assert order_entry_specs(store, 20, seed=5) != \
        order_entry_specs(store, 20, seed=6)


def test_every_sale_conserves_by_construction(store):
    """Each take_stock(count) pairs with a record_sold of the same count on
    the same stock item — the structural fact the invariant rides on."""
    for spec in order_entry_specs(store, 50, seed=5):
        assert not spec.read_only
        moved: dict[object, int] = {}
        for operation in spec.operations:
            assert isinstance(operation, MethodCall)
            if operation.method == "take_stock":
                moved[operation.oid] = moved.get(operation.oid, 0) \
                    - operation.arguments[0]
            elif operation.method == "record_sold":
                moved[operation.oid] = moved.get(operation.oid, 0) \
                    + operation.arguments[0]
        assert all(net == 0 for net in moved.values())


def test_read_mix_specs_are_read_only_queries(store):
    specs = order_entry_specs(store, 60, read_mix=0.5, seed=5)
    queries = [spec for spec in specs if spec.read_only]
    assert 0 < len(queries) < len(specs)
    for spec in queries:
        assert {operation.method for operation in spec.operations} <= \
            {"activity_report", "stock_level"}


def test_conserved_totals_and_violations(store):
    state = {str(oid): {"item": "x", "quantity": 10, "sold": 2}
             for oid in store.extent("Stock")}
    state["Warehouse#1"] = {"name": "w", "ytd": 0.0, "orders": 0}
    totals = conserved_totals(state)
    assert set(totals) == {str(oid) for oid in store.extent("Stock")}
    assert all(total == 12 for total in totals.values())
    assert conservation_violations(state, state) == []

    drifted = {oid: dict(values) for oid, values in state.items()}
    leaked = str(store.extent("Stock")[0])
    drifted[leaked]["sold"] = 5  # 3 units appeared from nowhere
    gone = str(store.extent("Stock")[1])
    del drifted[gone]
    violations = conservation_violations(state, drifted)
    assert any("drifted" in violation and leaked in violation
               for violation in violations)
    assert any("disappeared" in violation and gone in violation
               for violation in violations)


@pytest.mark.parametrize("protocol_name", sorted(PROTOCOLS))
def test_scenario_is_serializable_and_conserving_under_every_protocol(
        protocol_name):
    """Plan cache + snapshot reads + sanitizer + the scenario, per protocol: the
    committed schedule replays serializably and no stock units leak."""
    harness = ThroughputHarness(
        order_entry_schema(), instances_per_class=POPULATION,
        spec_maker=lambda store, count: order_entry_specs(
            store, count, read_mix=0.2, seed=17))
    result = harness.run(PROTOCOLS[protocol_name], threads=4, transactions=48,
                         default_lock_timeout=10.0,
                         sanitize=True, invariant=conservation_violations)
    assert result.serializable is True
    assert result.errors == ()
    assert result.invariant_violations == ()
    assert result.sanitizer_violations == 0
    assert result.metrics.snapshot_reads > 0
