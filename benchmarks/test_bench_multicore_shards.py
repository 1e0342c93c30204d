"""Multi-core shards: in-process sharding versus shard worker processes.

``Engine(shard_workers=N)`` puts each shard in its own OS process — its own
interpreter, its own GIL — with the coordinator routing locking, execution
and two-phase commit over the participant RPC layer.  This bench replays
the same contended banking workload under ``shards=2`` (one interpreter)
and ``shard_workers=2`` (three interpreters: coordinator + two workers) and
writes both rows to ``BENCH_multicore_shards.json``.

Reading the numbers honestly: the worker configuration pays per-operation
RPC round trips (the same loopback cost the socket transport bench
measures) and buys the right to run method bodies on multiple cores.  On a
single-CPU container there are no extra cores to buy, so the RPC tax
dominates and workers measure *slower* — exactly like ``shards=4`` measured
even with ``shards=1`` in the PR 2 bench.  The assertions therefore pin
correctness (serializability across processes, cross-shard 2PC exercised,
every transaction accounted for) and a generous floor on the worker path's
throughput rather than a speed-up this hardware cannot show; on real cores
the single-shard ``execute`` path (one round trip per operation, bodies run
worker-side) is the configuration that scales.
"""

import pathlib

from repro.engine import ThroughputHarness
from repro.engine.harness import write_bench_json
from repro.reporting import format_throughput_table
from repro.txn.protocols import TAVProtocol

from .conftest import emit, wall_clock_floor

THREADS = 8
TRANSACTIONS = 120
INSTANCES_PER_CLASS = 4
JSON_PATH = pathlib.Path(__file__).with_name("BENCH_multicore_shards.json")


def run_worker_comparison(banking, banking_compiled):
    harness = ThroughputHarness(schema=banking, compiled=banking_compiled,
                                instances_per_class=INSTANCES_PER_CLASS)
    inproc = harness.run(TAVProtocol, threads=THREADS,
                         transactions=TRANSACTIONS, shards=2,
                         default_lock_timeout=10.0)
    workers = harness.run(TAVProtocol, threads=THREADS,
                          transactions=TRANSACTIONS, shard_workers=2,
                          default_lock_timeout=10.0)
    return [inproc, workers]


def test_shard_worker_throughput(benchmark, banking, banking_compiled):
    results = benchmark.pedantic(run_worker_comparison,
                                 args=(banking, banking_compiled),
                                 rounds=1, iterations=1, warmup_rounds=0)
    inproc, workers = results

    for result in results:
        assert result.serializable is True, "serializability violation"
        assert result.errors == ()
        assert result.metrics.committed + len(result.failed_labels) \
            == TRANSACTIONS
    assert inproc.shard_workers == 0 and workers.shard_workers == 2
    assert workers.metrics.cross_shard_commits > 0, "2PC never left the process"
    # The RPC tax must stay bounded even where extra cores cannot repay it.
    ratio = workers.commits_per_second / inproc.commits_per_second
    floor = wall_clock_floor("shard_workers=2 / shards=2 throughput", ratio,
                             low=0.02)

    write_bench_json(JSON_PATH, results, {
        "threads": THREADS, "transactions": TRANSACTIONS,
        "instances": INSTANCES_PER_CLASS, "configurations":
        ["shards=2 inproc", "shard_workers=2"], "floors": [floor],
    }, benchmark="multicore_shards")
    emit(f"Shard workers vs in-process shards "
         f"({THREADS} threads, {TRANSACTIONS} transactions; "
         f"shard_workers=2 / shards=2 commits/sec ratio: {ratio:.2f})",
         format_throughput_table(results))
