"""One transaction, one connected trace — across processes.

The acceptance test for the tracing tentpole: a cross-shard transaction
against real worker subprocesses must export a *single connected* trace
— every span carries the same trace id, every parent id resolves to
another span in the set, and the tree crosses process boundaries (the
engine's pid plus each worker's).  The span inventory covers the whole
lifecycle: root, per-command API spans, lock acquires, method execution,
per-participant prepares, the decision-log barrier, phase two, and lock
release, with the workers' own shard-side spans parented underneath.
"""

from __future__ import annotations

import json

import pytest

from repro.api.connection import InProcessConnection
from repro.core.compiler import compile_schema
from repro.engine.engine import Engine
from repro.obs.tracing import TraceContext, Tracer, new_trace_id
from repro.objects.oid import OID
from repro.schema import banking_schema
from repro.sharding.router import HashShardRouter
from repro.sharding.store import ShardedObjectStore
from repro.sim.workload import populate_store
from repro.txn.protocols import PROTOCOLS

INSTANCES = 4
SEED = 11


def build_traced_worker_engine(**tracer_options):
    schema = banking_schema()
    compiled = compile_schema(schema)
    router = HashShardRouter(2)
    store = populate_store(schema, INSTANCES, seed=SEED,
                           store=ShardedObjectStore(schema, router))
    protocol = PROTOCOLS["tav"](compiled, store)
    engine = Engine(protocol, shard_workers=2, default_lock_timeout=5.0,
                    tracer=Tracer(**tracer_options),
                    worker_options={"schema": "banking",
                                    "instances": INSTANCES,
                                    "populate_seed": SEED})
    return engine, store


def split_accounts(store) -> tuple[OID, OID]:
    by_shard: dict[int, OID] = {}
    for oid in store.extent("Account"):
        by_shard.setdefault(store.router.shard_of_oid(oid), oid)
    return by_shard[0], by_shard[1]


@pytest.fixture()
def traced_engine():
    engine, store = build_traced_worker_engine()
    try:
        yield engine, store
    finally:
        engine.close()


def test_cross_shard_commit_exports_one_connected_trace(tmp_path):
    engine, store = build_traced_worker_engine()
    try:
        a, b = split_accounts(store)
        connection = InProcessConnection(engine)
        session = connection.begin(label="transfer")
        session.call(a, "withdraw", 10.0)
        session.call(b, "deposit", 10.0)
        session.commit()

        spans = engine.collect_trace()
        assert spans

        # One trace, unique span ids, every parent resolves: connected.
        trace_ids = {span.trace_id for span in spans}
        assert len(trace_ids) == 1
        identifiers = [span.span_id for span in spans]
        assert len(identifiers) == len(set(identifiers))
        known = set(identifiers)
        orphans = [span.name for span in spans
                   if span.parent is not None and span.parent not in known]
        assert orphans == []
        roots = [span for span in spans if span.parent is None]
        assert [root.name for root in roots] == ["txn"]

        # The full lifecycle is covered, engine side and worker side.
        names = {span.name for span in spans}
        assert {"txn", "commit", "decision-barrier", "phase-two",
                "lock-release", "prepare:shard0", "prepare:shard1",
                "api:call", "api:commit"} <= names
        assert any(name.startswith("execute:") for name in names)
        assert {"shard-prepare", "shard-commit"} <= names
        # The single-shard withdraw fuses — plan, locks and execution ride
        # one worker trip — and the cross-shard deposit ships its whole
        # lock round as one batch.
        assert "execute-fused:withdraw" in names
        assert "lock-batch" in names

        # The tree crosses process boundaries: engine plus two workers.
        assert len({span.pid for span in spans}) == 3

        # Lock spans report how long the acquire actually waited — per
        # batch for a whole round, per request for a single lock.
        lock_spans = [span for span in spans
                      if span.name in ("lock", "lock-batch")]
        assert lock_spans
        assert all("waited_ms" in span.args for span in lock_spans)

        # And the whole thing lands on disk as parsable Chrome-trace JSON.
        path = tmp_path / "trace.json"
        from repro.obs.tracing import write_chrome_trace

        assert write_chrome_trace(path, spans) == len(spans)
        document = json.loads(path.read_text())
        assert document["traceEvents"]
        assert all(event["ph"] == "X" for event in document["traceEvents"])
    finally:
        engine.close()


def test_client_supplied_context_parents_the_root_span(traced_engine):
    engine, store = traced_engine
    a, _ = split_accounts(store)
    client_trace = TraceContext(trace_id=new_trace_id(), parent=777)
    connection = InProcessConnection(engine)
    session = connection.begin(label="joined", trace=client_trace)
    session.call(a, "deposit", 1.0)
    session.commit()

    spans = engine.collect_trace()
    assert {span.trace_id for span in spans} == {client_trace.trace_id}
    (root,) = [span for span in spans if span.name == "txn"]
    assert root.parent == 777


def test_sampling_traces_every_nth_transaction():
    engine, store = build_traced_worker_engine(sample_every=1_000_000)
    try:
        a, b = split_accounts(store)
        for _ in range(3):
            with engine.begin(label="maybe") as session:
                session.call(a, "withdraw", 1.0)
                session.call(b, "deposit", 1.0)
        # Only the first of the three fell on the sampling cadence; the
        # other two ran (and committed) untraced.
        roots = [span for span in engine.collect_trace()
                 if span.name == "txn"]
        assert len(roots) == 1
    finally:
        engine.close()


def test_export_trace_writes_the_collected_spans(traced_engine, tmp_path):
    engine, store = traced_engine
    a, _ = split_accounts(store)
    with engine.begin(label="single") as session:
        session.call(a, "deposit", 2.0)
    path = tmp_path / "export.json"
    events = engine.export_trace(path)
    assert events > 0
    document = json.loads(path.read_text())
    assert len(document["traceEvents"]) == events
