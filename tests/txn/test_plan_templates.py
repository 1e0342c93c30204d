"""Compiled plan templates: equal to the planner, final, and the only planner
a structural ``MethodCall`` meets after construction.

Three things are pinned.  **Equivalence**: for every example schema and 50
generated ones, under TAV and relational, every (class, method, OID) — and
every ``as_class`` view — planned from its template gives exactly what
``protocol.plan()`` gives: requests in order with their modes, control
points, receivers and undo projections.  **Tripwire**: once an engine (or a
shard worker) is built, ``protocol.plan`` can raise and a transaction of
such calls still performs, commits and aborts, planning each operation
exactly once.  **Fallback**: extent and domain scans, external sends and
unknown methods still reach ``protocol.plan``.
"""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro.api.messages import request_for_operation
from repro.core import compile_schema
from repro.engine import Engine
from repro.errors import UnknownMethodError
from repro.schema import examples
from repro.sharding import rpc
from repro.sharding.worker import ShardWorker
from repro.sim import SchemaGenerator
from repro.sim.workload import populate_store
from repro.txn.operations import DomainAllCall, ExtentCall, MethodCall
from repro.txn.protocols import RelationalProtocol, TAVProtocol

EXAMPLES = [pytest.param(getattr(examples, name), 2, id=name)
            for name in ("figure1_schema", "banking_schema",
                         "order_entry_schema", "library_schema")]
GENERATED = [pytest.param(SchemaGenerator(depth=1 + seed % 3,
                                          branching=1 + seed % 3,
                                          roots=1 + seed % 2, seed=seed).generate,
                          1, id=f"generated-{seed}")
             for seed in range(50)]


def test_templates_exist_only_for_structural_method_calls():
    schema = examples.library_schema()
    compiled = compile_schema(schema)
    store = populate_store(schema, 1, seed=1)
    protocol = TAVProtocol(compiled, store)
    member = store.extent("Member")[0]
    assert protocol.template_plan(MethodCall(oid=member, method="rename",
                                             arguments=("x",))) is not None
    assert protocol.template_plan(MethodCall(oid=member,
                                             method="checkout")) is None
    assert protocol.template_plan(MethodCall(oid=member, method="bogus")) is None
    assert protocol.template_plan(
        ExtentCall(class_name="Member", method="rename")) is None
    # A template plan is an ordinary frozen LockPlan: immutable, hashable.
    plan = protocol.template_plan(MethodCall(oid=member, method="rename"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.control_points = 0
    assert hash(plan) == hash(protocol.template_plan(
        MethodCall(oid=member, method="rename")))


@pytest.mark.parametrize("make_schema,instances", [*EXAMPLES, *GENERATED])
def test_every_template_equals_the_planner(make_schema, instances):
    schema = make_schema()
    compiled = compile_schema(schema)
    store = populate_store(schema, instances, seed=5)
    for protocol in (TAVProtocol(compiled, store),
                     RelationalProtocol(compiled, store)):
        checked = 0
        for class_name in schema.class_names:
            compiled_class = compiled.compiled_class(class_name)
            views = (None,) + schema.linearization(class_name)
            for method in compiled_class.methods:
                external = compiled_class.has_external_sends(method)
                for oid in store.extent(class_name):
                    for as_class in views:
                        operation = MethodCall(oid=oid, method=method,
                                               as_class=as_class)
                        template = protocol.template_plan(operation)
                        if external:
                            assert template is None, operation
                            continue
                        fresh = protocol.plan(operation)
                        assert template.requests == fresh.requests, operation
                        assert template.control_points == fresh.control_points
                        assert template.receivers == fresh.receivers
                        assert protocol.undo_projections(template) == \
                            protocol.undo_projections(fresh)
                        checked += 1
        assert checked > 0


# -- the tripwire -------------------------------------------------------------


def _refuse(*args, **kwargs):
    raise AssertionError("protocol.plan() reached after construction")


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture
def banking():
    schema = examples.banking_schema()
    return schema, compile_schema(schema), populate_store(schema, 3, seed=7)


def test_engine_never_replans_a_template_plan(banking, monkeypatch):
    _, compiled, store = banking
    protocol = TAVProtocol(compiled, store)
    with Engine(protocol) as engine:
        monkeypatch.setattr(protocol, "plan", _refuse)
        plans = _count_calls(monkeypatch, engine.plan_cache, "plan")
        first, second = store.extent("Account")[:2]
        savings = store.extent("SavingsAccount")[0]
        before = store.read_field(first, "balance")
        operations = [MethodCall(oid=first, method="deposit", arguments=(5.0,)),
                      MethodCall(oid=second, method="withdraw",
                                 arguments=(1.0,)),
                      MethodCall(oid=savings, method="withdraw",
                                 arguments=(1.0,), as_class="Account"),
                      MethodCall(oid=first, method="balance_report")]

        session = engine.begin()
        for operation in operations:
            session.perform(operation)
        session.commit()
        assert len(plans) == len(operations)
        assert store.read_field(first, "balance") == before + 5.0

        aborted = engine.begin()
        aborted.perform(operations[0])
        aborted.abort()
        assert len(plans) == len(operations) + 1
        assert store.read_field(first, "balance") == before + 5.0
        assert engine.metrics.plan_cache_misses == 0


def test_worker_fused_path_never_replans_a_template_plan(monkeypatch):
    worker = ShardWorker(shard_id=0, shards=1, protocol="tav",
                         schema="banking", instances=2, populate_seed=3,
                         lock_timeout=2.0)
    thread = threading.Thread(target=worker.serve_forever, daemon=True)
    thread.start()
    client = rpc.RemoteShardClient(0, worker.address, lock_timeout=2.0)
    try:
        monkeypatch.setattr(worker._protocol, "plan", _refuse)
        plans = _count_calls(monkeypatch, worker._plans, "plan")
        oid = worker.store.extent("Account")[0]
        before = worker.store.read_field(oid, "balance")
        call = request_for_operation(4, MethodCall(oid=oid, method="deposit",
                                                   arguments=(2.0,)))
        outcome = client.execute_fused(4, call, [], [])
        assert not outcome.fallback and len(plans) == 1
        assert len(outcome.resources) == 2
        assert worker.store.read_field(oid, "balance") == before + 2.0
        client.abort(4)
        client.release_all(4)
        assert worker.store.read_field(oid, "balance") == before
    finally:
        client.shutdown()
        client.close()
        worker.shutdown()
        thread.join(timeout=5.0)


# -- the fallback ---------------------------------------------------------------


def _planned_by_protocol(monkeypatch, protocol):
    return _count_calls(monkeypatch, protocol, "plan")


@pytest.mark.parametrize("operation", [
    pytest.param(ExtentCall(class_name="Account", method="balance_report"),
                 id="extent"),
    pytest.param(DomainAllCall(class_name="Account", method="balance_report"),
                 id="domain"),
])
def test_scans_still_reach_the_planner(banking, monkeypatch, operation):
    _, compiled, store = banking
    protocol = TAVProtocol(compiled, store)
    with Engine(protocol) as engine:
        planned = _planned_by_protocol(monkeypatch, protocol)
        session = engine.begin()
        results = session.perform(operation)
        session.commit()
        assert len(results) == len(operation.target_oids(store))
        # The first plan, then one refresh that found nothing to add.
        assert len(planned) == 2
        assert engine.metrics.plan_cache_misses == 1


def test_external_sends_still_reach_the_planner(monkeypatch):
    schema = examples.library_schema()
    compiled = compile_schema(schema)
    store = populate_store(schema, 2, seed=4)
    protocol = TAVProtocol(compiled, store)
    with Engine(protocol) as engine:
        planned = _planned_by_protocol(monkeypatch, protocol)
        member = store.extent("Member")[0]
        session = engine.begin()
        session.perform(MethodCall(oid=member, method="checkout"))
        session.commit()
        assert len(planned) >= 2
        assert engine.metrics.plan_cache_misses == 1


@pytest.mark.parametrize("protocol_class", [TAVProtocol, RelationalProtocol])
def test_unknown_methods_reach_the_planner_and_fail_as_before(
        banking, monkeypatch, protocol_class):
    _, compiled, store = banking
    protocol = protocol_class(compiled, store)
    with Engine(protocol) as engine:
        planned = _planned_by_protocol(monkeypatch, protocol)
        session = engine.begin()
        with pytest.raises(UnknownMethodError):
            session.perform(MethodCall(oid=store.extent("Account")[0],
                                       method="bogus"))
        session.abort()
        assert planned
