"""What the compiled analysis pays back at runtime, in three rows.

PR 10 moved the paper's compile-time artefacts onto the execution hot
path; this bench measures each payoff in isolation and records them to
``BENCH_plan_cache.json``:

1. **Template vs planner** — a structural ``MethodCall`` planned through
   :class:`~repro.txn.plan_cache.PlanCache` (its OID substituted into the
   template the protocol compiled at construction) versus re-running the
   TAV planner, with the ≥95% template-served floor asserted on a real
   contended order-entry run (one hot ``Warehouse``, four ``Stock`` items,
   8 threads; one count per locked operation).
2. **Bitmap admission** — the lock manager's per-resource conflict
   bitmaps (``granted_mask & conflict[mode]``) are asked and answer
   without a holder scan (the scan they replaced measured 1.71x slower in
   the last A/B, PR 13, and is gone).
3. **Snapshot vs locked reads** — an all-read-only workload served from
   the lock-free snapshot path versus the same operations through the
   locked path, plus the zero-lock-acquisition assertion on a direct
   engine.

Reading the numbers: row 1 is a microbenchmark time ratio (template
substitution over planner run), row 2 is counters, row 3 is harness
commits/sec under identical workloads.  The ratios are recorded always and
enforced under ``REPRO_BENCH_FLOORS=1`` (see ``conftest.wall_clock_floor``).
Every concurrent run is still verified serializable, and the contended run
additionally checks the ``quantity + sold`` conservation invariant.
"""

import pathlib
import time

from repro.core import compile_schema
from repro.engine import ThroughputHarness
from repro.engine.engine import Engine
from repro.engine.harness import write_bench_json
from repro.locking.manager import LockManager
from repro.objects.oid import OID
from repro.reporting import format_throughput_table
from repro.schema.examples import order_entry_schema
from repro.sim.order_entry import conservation_violations, order_entry_specs
from repro.sim.workload import TransactionSpec, populate_store
from repro.txn.operations import MethodCall
from repro.txn.plan_cache import PlanCache
from repro.txn.protocols import TAVProtocol

from .conftest import emit, wall_clock_floor

THREADS = 8
TRANSACTIONS = 240
#: One hot warehouse: every sale updates its counters — the contended
#: hot-counter workload the template hit rate is asserted on.
POPULATION = {"Warehouse": 1, "Stock": 4}
PLAN_ROUNDS = 3000
LOCK_ROUNDS = 3000
JSON_PATH = pathlib.Path(__file__).with_name("BENCH_plan_cache.json")


def _order_entry_harness(read_mix: float = 0.0) -> ThroughputHarness:
    return ThroughputHarness(
        order_entry_schema(), instances_per_class=POPULATION,
        spec_maker=lambda store, count: order_entry_specs(
            store, count, read_mix=read_mix, seed=17))


def _time_planning() -> tuple[float, float, float]:
    """(planner seconds, template seconds, template-served share)."""
    schema = order_entry_schema()
    compiled = compile_schema(schema)
    store = populate_store(schema, POPULATION, seed=11)
    protocol = TAVProtocol(compiled, store)
    operation = MethodCall(oid=store.extent("Warehouse")[0],
                           method="record_sale", arguments=(10.0,))

    started = time.perf_counter()
    for _ in range(PLAN_ROUNDS):
        protocol.plan(operation)
    uncached = time.perf_counter() - started

    cache = PlanCache(protocol)
    started = time.perf_counter()
    for _ in range(PLAN_ROUNDS):
        cache.plan(operation)
    cached = time.perf_counter() - started
    return uncached, cached, cache.stats.hit_rate


def _exercise_admission() -> LockManager:
    """A lock manager after ``LOCK_ROUNDS`` admissions against held locks."""
    schema = order_entry_schema()
    compiled = compile_schema(schema)
    store = populate_store(schema, POPULATION, seed=11)
    protocol = TAVProtocol(compiled, store)
    resource = ("instance", OID("Warehouse", 1))
    manager = protocol.create_lock_manager()
    # Several readers already hold the resource, so every admission has a
    # non-empty granted mask to test.
    for holder in range(2, 6):
        manager.acquire(holder, resource, "activity_report")
    for _ in range(LOCK_ROUNDS):
        manager.acquire(1, resource, "activity_report")
        manager.release_all(1)
    return manager


def run_plan_cache_grid():
    exclusive = _order_entry_harness().run(
        TAVProtocol, threads=THREADS, transactions=TRANSACTIONS,
        default_lock_timeout=10.0, invariant=conservation_violations)
    reads = _order_entry_harness(read_mix=1.0)
    # The locked baseline replays the *same* read-only operations with the
    # read_only promise stripped, so both runs do identical work and only
    # the admission path differs.
    locked_reads = reads.run(TAVProtocol, threads=THREADS,
                             transactions=TRANSACTIONS,
                             default_lock_timeout=10.0,
                             specs=[TransactionSpec(operations=spec.operations,
                                                    label=spec.label)
                                    for spec in reads.make_specs(TRANSACTIONS)])
    snapshot_reads = reads.run(TAVProtocol, threads=THREADS,
                               transactions=TRANSACTIONS,
                               default_lock_timeout=10.0)
    return exclusive, locked_reads, snapshot_reads


def test_plan_cache_payoff(benchmark):
    results = benchmark.pedantic(run_plan_cache_grid, rounds=1, iterations=1,
                                 warmup_rounds=0)
    exclusive, locked_reads, snapshot_reads = results

    for result in results:
        assert result.serializable is True, "serializability violation"
        assert result.failed_labels == ()
        assert result.errors == ()
    assert exclusive.invariant_violations == ()

    # 1. Compiled templates: substituting the OID beats re-planning, and a
    # steady-state workload run plans ≥95% of its operations from templates.
    uncached_s, cached_s, micro_hit_rate = _time_planning()
    plan_speedup = uncached_s / cached_s
    assert micro_hit_rate >= 0.95
    floors = [wall_clock_floor("uncached/cached planning time", plan_speedup,
                               low=1.5)]
    assert exclusive.metrics.plan_cache_hit_rate >= 0.95, \
        exclusive.metrics.plan_cache_hit_rate

    # 2. Bitmap admission: the mask check is asked and answers without a
    # holder scan.
    mask_manager = _exercise_admission()
    assert mask_manager.stats.mask_checks > 0
    assert mask_manager.stats.fast_grants > 0

    # 3. Snapshot reads: every read-only transaction was served from the
    # snapshot path, and a direct engine proves the path acquires no locks.
    assert snapshot_reads.metrics.snapshot_reads > 0
    assert locked_reads.metrics.snapshot_reads == 0
    snapshot_speedup = (snapshot_reads.commits_per_second
                        / locked_reads.commits_per_second)
    floors.append(wall_clock_floor("snapshot/locked read throughput",
                                   snapshot_speedup))
    _assert_zero_lock_snapshot_reads()

    write_bench_json(JSON_PATH, results, {
        "threads": THREADS, "transactions": TRANSACTIONS,
        "population": POPULATION,
        "plan_rounds": PLAN_ROUNDS, "lock_rounds": LOCK_ROUNDS,
        "cached_over_uncached_planning": round(plan_speedup, 2),
        "plan_cache_hit_rate": round(exclusive.metrics.plan_cache_hit_rate, 4),
        "bitmap_mask_checks": mask_manager.stats.mask_checks,
        "bitmap_fast_grants": mask_manager.stats.fast_grants,
        "snapshot_over_locked_reads": round(snapshot_speedup, 2),
        "floors": floors,
    }, benchmark="plan_cache")

    emit("Runtime payoff of the compiled analysis "
         f"(planning {plan_speedup:.1f}x cached, "
         f"{mask_manager.stats.fast_grants} bitmap fast grants, snapshot "
         f"reads {snapshot_speedup:.2f}x vs locked, hit rate "
         f"{exclusive.metrics.plan_cache_hit_rate:.3f})",
         format_throughput_table(results))


def _assert_zero_lock_snapshot_reads() -> None:
    """A read-only transaction acquires zero locks, on a direct engine."""
    schema = order_entry_schema()
    compiled = compile_schema(schema)
    store = populate_store(schema, POPULATION, seed=11)
    warehouse = store.extent("Warehouse")[0]
    stock = store.extent("Stock")[0]
    with Engine(TAVProtocol(compiled, store)) as engine:
        def lock_requests() -> int:
            return sum(manager.inner.stats.requests
                       for manager in engine.lock_manager.shards)

        before = lock_requests()
        session = engine.begin(read_only=True)
        engine.perform(session.transaction,
                       MethodCall(oid=warehouse, method="activity_report"))
        engine.perform(session.transaction,
                       MethodCall(oid=stock, method="stock_level"))
        engine.commit(session.transaction)
        assert lock_requests() == before, \
            "the snapshot read path acquired a lock"
        assert engine.metrics.snapshot_reads == 2
