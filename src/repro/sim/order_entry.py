"""A TPC-C-style order-entry scenario over :func:`order_entry_schema`.

The scenario is a hot-counter workload under ordinary locking:

* **Sale transactions** hammer a handful of ``Warehouse`` counters
  (``record_sale``/``note_order``) and pair a ``Stock.take_stock(count)``
  with a ``Stock.record_sold(count)`` of the *same* count — every method a
  counter update that reads and writes its field, so concurrent sales of
  one item conflict on its instance lock and serialise.
* **Query transactions** (``activity_report``/``stock_level``) are marked
  ``read_only=True`` so drivers route them down the engine's lock-free
  snapshot path.

Because each sale moves ``count`` units from ``quantity`` to ``sold`` on
one ``Stock``, the sum ``quantity + sold`` is *conserved* per stock item no
matter which subset of transactions commits, or in which serialisation
order.  That gives the sequential-replay verifier a second, workload-level
invariant: :func:`conservation_violations` compares the totals of the initial and
final store states and returns every stock item whose units leaked.  A
non-empty answer means lost or duplicated updates — exactly the failure a
broken undo or a non-serializable schedule would produce.
"""

from __future__ import annotations

import random
from typing import Any, Mapping

from repro.errors import SimulationError
from repro.objects.store import ObjectStore
from repro.sim.workload import TransactionSpec
from repro.txn.operations import MethodCall

#: Field pairs whose per-instance sum every sale conserves.
CONSERVED_FIELDS: Mapping[str, tuple[str, ...]] = {"Stock": ("quantity", "sold")}


def order_entry_specs(store: ObjectStore, transactions: int, *,
                      read_mix: float = 0.0, seed: int = 17,
                      items_per_sale: int = 2) -> list[TransactionSpec]:
    """A deterministic order-entry mix over a populated order-entry store.

    Each sale picks one warehouse and ``items_per_sale`` stock items, posts
    the sale amount to the warehouse counters, and moves a random ``count``
    of units from each item's ``quantity`` to its ``sold`` — conserving
    ``quantity + sold``.  With probability ``read_mix`` a transaction is
    instead a read-only query (``read_only=True``) over the same instances.
    """
    rng = random.Random(seed)
    warehouses = store.extent("Warehouse")
    stocks = store.extent("Stock")
    if not warehouses or not stocks:
        raise SimulationError("the order-entry scenario needs at least one "
                              "Warehouse and one Stock instance")
    specs: list[TransactionSpec] = []
    for index in range(transactions):
        label = f"order-{index}"
        warehouse = rng.choice(warehouses)
        if read_mix and rng.random() < read_mix:
            picked = rng.sample(stocks, min(items_per_sale, len(stocks)))
            operations = [MethodCall(oid=warehouse, method="activity_report")]
            operations += [MethodCall(oid=stock, method="stock_level")
                           for stock in picked]
            specs.append(TransactionSpec(operations=tuple(operations),
                                         label=label, read_only=True))
            continue
        amount = float(rng.randint(1, 500))
        operations = [
            MethodCall(oid=warehouse, method="record_sale",
                       arguments=(amount,)),
            MethodCall(oid=warehouse, method="note_order"),
        ]
        for stock in rng.sample(stocks, min(items_per_sale, len(stocks))):
            count = rng.randint(1, 10)
            operations.append(MethodCall(oid=stock, method="take_stock",
                                         arguments=(count,)))
            operations.append(MethodCall(oid=stock, method="record_sold",
                                         arguments=(count,)))
        specs.append(TransactionSpec(operations=tuple(operations),
                                     label=label))
    return specs


def conserved_totals(state: Mapping[str, Mapping[str, Any]]) -> dict[str, int]:
    """Per-instance conserved sums of a ``store_state()``-style snapshot."""
    totals: dict[str, int] = {}
    for oid, values in state.items():
        for class_name, fields in CONSERVED_FIELDS.items():
            if oid.startswith(f"{class_name}#") and all(
                    name in values for name in fields):
                totals[oid] = sum(values[name] for name in fields)
    return totals


def conservation_violations(
        initial: Mapping[str, Mapping[str, Any]],
        final: Mapping[str, Mapping[str, Any]]) -> list[str]:
    """Stock items whose ``quantity + sold`` changed between two states.

    Every committed (or aborted-and-undone) sale conserves the sum, so any
    difference is a lost or duplicated update — the signature of a broken
    undo or a non-serializable schedule.  Returns human-readable
    descriptions, one per leaking instance; empty means the invariant held.
    """
    before = conserved_totals(initial)
    after = conserved_totals(final)
    violations = []
    for oid in sorted(before):
        if oid not in after:
            violations.append(f"{oid}: instance disappeared")
        elif before[oid] != after[oid]:
            violations.append(f"{oid}: quantity+sold drifted "
                              f"{before[oid]} -> {after[oid]}")
    return violations
