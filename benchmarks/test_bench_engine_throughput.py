"""Wall-clock throughput — the threaded engine versus the baselines.

Unlike the other benches, which count structural metrics on the logical
clock, this one measures real commits/sec: the same seeded banking workload
replayed across OS worker threads under the paper's protocol and the
read/write instance baseline, with every run's serializability verified by a
sequential replay of its commit order.

The paper's argument carried over to wall-clock: fewer pseudo-conflicts mean
fewer blocked threads and fewer deadlock restarts, so the access-vector
protocol should commit at least as fast as the baseline on the same
hardware.
"""

from repro.engine import ThroughputHarness
from repro.reporting import format_throughput_table
from repro.txn.protocols import RWInstanceProtocol, TAVProtocol

from .conftest import emit

THREADS = 4
TRANSACTIONS = 80


def run_engine_comparison(banking, banking_compiled):
    harness = ThroughputHarness(schema=banking, compiled=banking_compiled)

    return [harness.run(protocol_class, threads=THREADS,
                        transactions=TRANSACTIONS, default_lock_timeout=10.0)
            for protocol_class in (TAVProtocol, RWInstanceProtocol)]


def test_engine_throughput_comparison(benchmark, banking, banking_compiled):
    results = benchmark.pedantic(run_engine_comparison,
                                 args=(banking, banking_compiled),
                                 rounds=1, iterations=1, warmup_rounds=0)

    for result in results:
        assert result.serializable is True, "serializability violation"
        assert result.failed_labels == ()
        assert result.metrics.committed == TRANSACTIONS

    # Which transactions deadlock here depends on how the OS schedules the
    # threads, so the abort counts are reported, not compared: the
    # no-more-aborts claim is asserted on the seeded simulator's fixed
    # schedule (test_bench_workload_comparison.py).
    emit(f"Engine throughput on the banking workload "
         f"({THREADS} threads, {TRANSACTIONS} transactions)",
         format_throughput_table(results))
