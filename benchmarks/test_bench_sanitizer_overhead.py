"""What the runtime sanitizer costs: plain vs ``sanitize=True`` commits/sec.

The sanitizer checks every field access against the held locks, the
compiled TAV footprint and the undo log (see :mod:`repro.analysis`), so it
sits squarely on the execution hot path.  This bench replays the same
contended 8-thread banking workload with the sanitizer off and on, plus
one ``shard_workers=2`` smoke with the worker-side guard armed, asserts
every sanitized run reports **zero violations**, and records the
throughput ratio to ``BENCH_sanitizer_overhead.json``.

Reading the numbers: the sanitized run pays a coverage scan per field
access (held locks × resource shapes), so its commits/sec is a fraction
of the plain run's — the point of the row is to track that fraction over
time.  The assertions pin correctness (serializable, nothing failed,
zero violations) and only sanity-bound the overhead itself.
"""

import os
import pathlib

from repro.engine import ThroughputHarness
from repro.engine.harness import write_bench_json
from repro.reporting import format_throughput_table
from repro.txn.protocols import TAVProtocol

from .conftest import emit, wall_clock_floor

THREADS = 8
TRANSACTIONS = 120
INSTANCES_PER_CLASS = 4
WORKER_TRANSACTIONS = 40
JSON_PATH = pathlib.Path(__file__).with_name("BENCH_sanitizer_overhead.json")


def run_sanitizer_grid(banking, banking_compiled):
    harness = ThroughputHarness(schema=banking, compiled=banking_compiled,
                                instances_per_class=INSTANCES_PER_CLASS)
    results = [
        harness.run(TAVProtocol, threads=THREADS,
                    transactions=TRANSACTIONS, default_lock_timeout=10.0),
        harness.run(TAVProtocol, threads=THREADS,
                    transactions=TRANSACTIONS, default_lock_timeout=10.0,
                    sanitize=True),
    ]
    # The worker smoke: REPRO_SANITIZE reaches the spawned shard workers
    # through the inherited environment and arms the worker-side guard.
    os.environ["REPRO_SANITIZE"] = "1"
    try:
        results.append(harness.run(
            TAVProtocol, threads=4, transactions=WORKER_TRANSACTIONS,
            shard_workers=2, default_lock_timeout=10.0, sanitize=True))
    finally:
        del os.environ["REPRO_SANITIZE"]
    return results


def test_sanitizer_overhead(benchmark, banking, banking_compiled):
    results = benchmark.pedantic(run_sanitizer_grid,
                                 args=(banking, banking_compiled),
                                 rounds=1, iterations=1, warmup_rounds=0)
    plain, sanitized, workers = results

    for result in results:
        assert result.serializable is True, "serializability violation"
        assert result.failed_labels == ()
        assert result.errors == ()
        assert result.commits_per_second > 0
    assert plain.metrics.committed == TRANSACTIONS
    assert sanitized.metrics.committed == TRANSACTIONS
    assert workers.metrics.committed == WORKER_TRANSACTIONS

    # The whole point: the audited runs saw zero invariant violations.
    assert plain.sanitizer_violations is None
    assert sanitized.sanitizer_violations == 0
    assert workers.sanitizer_violations == 0

    ratio = sanitized.commits_per_second / plain.commits_per_second
    # The sanitizer adds per-access checking, never concurrency — slower
    # than 20x would mean an accidental O(n^2) in the coverage scan, and
    # meaningfully faster than the plain run would mean it isn't checking.
    floor = wall_clock_floor("sanitized/plain throughput", ratio,
                             low=0.05, high=1.5)

    write_bench_json(JSON_PATH, results, {
        "threads": THREADS, "transactions": TRANSACTIONS,
        "instances": INSTANCES_PER_CLASS,
        "worker_transactions": WORKER_TRANSACTIONS,
        "sanitize": [False, True, True],
        "sanitized_over_plain_throughput": ratio, "floors": [floor],
    }, benchmark="sanitizer_overhead")

    emit("Sanitizer overhead: plain vs sanitize=True plus a 2-worker smoke "
         f"({THREADS} threads, {TRANSACTIONS} transactions; "
         f"sanitized/plain throughput {ratio:.2f}x, zero violations)",
         format_throughput_table(results))
