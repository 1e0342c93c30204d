"""The planning entry point: compiled templates first, the planner otherwise.

``PlanCache`` keeps its name (the benchmark rig builds and times it) but
memoises nothing: a ``MethodCall`` without external sends is planned by
substituting its OID into the template its protocol compiled at
construction — final, equal to a fresh ``protocol.plan()`` — and every
other operation goes to ``protocol.plan()``.  Nothing is keyed per OID, so
nothing grows with the store, and a population change invalidates only the
engine's read-only snapshot copy, never a plan.
"""

from __future__ import annotations

import pytest

from repro.core import compile_schema
from repro.engine import Engine
from repro.schema.examples import order_entry_schema
from repro.sim.workload import populate_store
from repro.txn.operations import ExtentCall, MethodCall
from repro.txn.plan_cache import PlanCache
from repro.txn.protocols import RWInstanceProtocol, TAVProtocol


@pytest.fixture
def setup():
    schema = order_entry_schema()
    compiled = compile_schema(schema)
    store = populate_store(schema, {"Warehouse": 2, "Stock": 3}, seed=7)
    return schema, compiled, store


def _sale(store, amount=10.0):
    return MethodCall(oid=store.extent("Warehouse")[0], method="record_sale",
                      arguments=(amount,))


def test_method_calls_are_planned_from_templates(setup):
    """Every call is a template hit — the first one too, whatever the
    argument values or their types — and equals a fresh plan."""
    _, compiled, store = setup
    protocol = TAVProtocol(compiled, store)
    cache = PlanCache(protocol)
    operations = [_sale(store, 10.0), _sale(store, 99), _sale(store, "x")]

    planned = [cache.plan(operation) for operation in operations]
    assert [final for _plan, final in planned] == [True, True, True]
    for (plan, _final), operation in zip(planned, operations):
        fresh = protocol.plan(operation)
        assert (plan.requests, plan.control_points, plan.receivers) == \
            (fresh.requests, fresh.control_points, fresh.receivers)
        assert protocol.undo_projections(plan) == \
            protocol.undo_projections(fresh)
    assert cache.stats.hits == 3 and cache.stats.misses == 0
    assert cache.stats.hit_rate == 1.0


def test_same_argument_shape_shares_one_entry(setup):
    """One template per (class, method): calls on different instances with
    any arguments share its class-lock request object."""
    _, compiled, store = setup
    cache = PlanCache(TAVProtocol(compiled, store))
    first, second = store.extent("Warehouse")[:2]
    plans = [cache.plan(MethodCall(oid=oid, method="record_sale",
                                   arguments=(amount,)))[0]
             for oid, amount in ((first, 1.0), (first, 2.0), (second, 3))]
    class_locks = {id(plan.requests[0]) for plan in plans}
    assert len(class_locks) == 1
    assert [plan.receivers for plan in plans] == [
        ((first, "record_sale"),), ((first, "record_sale"),),
        ((second, "record_sale"),)]


def test_shadow_run_protocols_bypass_the_cache(setup):
    """rw-instance plans come from a shadow execution: data-dependent, so
    it compiles no template and every call goes to its planner."""
    _, compiled, store = setup
    cache = PlanCache(RWInstanceProtocol(compiled, store))
    operation = _sale(store)
    _, final_first = cache.plan(operation)
    _, final_second = cache.plan(operation)
    assert (final_first, final_second) == (False, False)
    assert cache.stats.misses == 2 and cache.stats.hits == 0
    assert cache.stats.as_dict()["plan_cache_uncacheable"] == 2


def test_planning_keeps_no_per_oid_state(setup):
    """No memo, no cap, no wholesale clear: planning every instance twice
    leaves the entry point exactly as it was built."""
    _, compiled, store = setup
    cache = PlanCache(TAVProtocol(compiled, store))
    with pytest.raises(TypeError):
        PlanCache(TAVProtocol(compiled, store), max_entries=2)
    state = dict(vars(cache))
    for _ in range(2):
        for oid in store.extent("Stock"):
            plan, final = cache.plan(MethodCall(oid=oid, method="stock_level"))
            assert final and plan.receivers == ((oid, "stock_level"),)
    assert vars(cache).keys() == state.keys()
    assert not any(isinstance(value, dict) for value in vars(cache).values())
    assert not hasattr(cache, "invalidate")


def test_engine_plans_through_the_cache(setup):
    _, compiled, store = setup
    with Engine(TAVProtocol(compiled, store)) as engine:
        warehouse = store.extent("Warehouse")[0]
        for _ in range(5):
            session = engine.begin()
            session.call(warehouse, "record_sale", 5.0)
            session.commit()
        # Once per locked operation: no refresh round for a final plan.
        assert engine.plan_cache.stats.hits == 5
        assert engine.plan_cache.stats.misses == 0
        assert engine.metrics.plan_cache_hits == 5
        assert engine.metrics.plan_cache_hit_rate == 1.0
        assert set(engine.stats()["plan_cache"]) == {
            "plan_cache_hits", "plan_cache_misses", "plan_cache_uncacheable",
            "plan_cache_hit_rate"}


def test_invalidate_drops_entries_and_counts(setup):
    """A population change drops the one cached entry left — the read-only
    snapshot copy — and counts a structural epoch; planning is untouched."""
    _, compiled, store = setup
    with Engine(TAVProtocol(compiled, store)) as engine:
        scan = ExtentCall(class_name="Stock", method="stock_level")
        first = engine.begin(read_only=True)
        assert len(first.perform(scan)) == 3
        first.commit()
        assert engine._snapshot_cache is not None
        epoch = engine._structural_epoch

        engine.delete_instance(store.extent("Stock")[0])
        assert engine._snapshot_cache is None
        assert engine._structural_epoch == epoch + 1

        second = engine.begin(read_only=True)
        assert len(second.perform(scan)) == len(store.extent("Stock")) == 2
        second.commit()
        # Snapshot reads take no locks, so nothing was planned.
        assert (engine.metrics.plan_cache_hits,
                engine.metrics.plan_cache_misses) == (0, 0)


def test_create_instance_invalidates_and_extent_plans_see_newcomers(setup):
    """``create_instance`` invalidates the snapshot copy but no plan:
    extent plans read the extent fresh on every call, and a new instance
    is planned from its class's template at once."""
    _, compiled, store = setup
    with Engine(TAVProtocol(compiled, store)) as engine:
        scan = ExtentCall(class_name="Stock", method="stock_level")
        session = engine.begin()
        session.perform(scan)
        session.commit()
        epoch = engine._structural_epoch

        created = engine.create_instance("Stock", item="widget", quantity=5,
                                         sold=0)
        assert engine._structural_epoch == epoch + 1

        reader = engine.begin()
        results = reader.perform(scan)
        assert reader.perform(MethodCall(oid=created.oid,
                                         method="stock_level")) == ["widget 5 0"]
        reader.commit()
        assert len(results) == len(store.extent("Stock")) == 4
        # The extent scan twice from the planner (one miss each, its
        # refresh uncounted), the new instance's call from its template.
        assert (engine.metrics.plan_cache_hits,
                engine.metrics.plan_cache_misses) == (1, 2)
