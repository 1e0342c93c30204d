"""What durability costs: off vs lazy vs fsync, at 1 and 4 shards.

The write-ahead log charges every transaction twice — undo images written
through on each store write, redo images plus a PREPARED marker flushed at
prepare — and ``fsync`` mode adds an fsync per prepare and per commit
decision on top.  This bench replays the same contended banking workload
under all three modes at ``shards`` 1 and 4 and reports the six rows side
by side, with the ``wal`` column showing log bytes per committed
transaction; the document lands in ``BENCH_wal_overhead.json`` through the
harness's :func:`~repro.engine.harness.write_bench_json` path.

Reading the numbers: ``lazy`` buys SIGKILL-crash safety for roughly the
cost of the extra write syscalls (bytes per commit are identical to
``fsync`` — the records are the same, only the barriers differ), while
``fsync`` pays real disk latency per commit, which is the first time this
engine's throughput is bounded by something other than the GIL.  The
assertions pin correctness (serializability, every transaction committed,
bytes accounted) and only sanity-bound the slowdown, which is hardware.
"""

import pathlib

from repro.engine import ThroughputHarness
from repro.engine.harness import write_bench_json
from repro.reporting import format_throughput_table
from repro.txn.protocols import TAVProtocol

from .conftest import emit, wall_clock_floor

THREADS = 8
TRANSACTIONS = 120
INSTANCES_PER_CLASS = 4  # a hot store: the WAL pays per *conflicting* commit too
JSON_PATH = pathlib.Path(__file__).with_name("BENCH_wal_overhead.json")


def run_durability_grid(banking, banking_compiled):
    harness = ThroughputHarness(schema=banking, compiled=banking_compiled,
                                instances_per_class=INSTANCES_PER_CLASS)
    return [harness.run(TAVProtocol, threads=THREADS,
                        transactions=TRANSACTIONS, shards=shards,
                        durability=durability, default_lock_timeout=10.0)
            for shards in (1, 4)
            for durability in ("off", "lazy", "fsync")]


def test_wal_overhead(benchmark, banking, banking_compiled):
    results = benchmark.pedantic(run_durability_grid,
                                 args=(banking, banking_compiled),
                                 rounds=1, iterations=1, warmup_rounds=0)

    for result in results:
        assert result.serializable is True, "serializability violation"
        assert result.failed_labels == ()
        assert result.metrics.committed == TRANSACTIONS
        if result.durability == "off":
            assert result.metrics.wal_bytes == 0
        else:
            assert result.metrics.wal_bytes > 0
            assert result.metrics.wal_bytes_per_commit > 0
        assert result.commits_per_second > 0

    by_key = {(r.shards, r.durability): r for r in results}
    # Same workload, same records: lazy and fsync write the same byte volume
    # to the logs (modulo abort/retry noise); only the barrier differs.
    for shards in (1, 4):
        lazy = by_key[(shards, "lazy")].metrics.wal_bytes
        fsynced = by_key[(shards, "fsync")].metrics.wal_bytes
        assert lazy > 0 and fsynced > 0
        assert 0.5 < fsynced / lazy < 2.0

    slowdown = {
        (shards, durability):
            by_key[(shards, durability)].commits_per_second
            / by_key[(shards, "off")].commits_per_second
        for shards in (1, 4) for durability in ("lazy", "fsync")
    }
    # Reported, never bounded: what a barrier costs is the disk's business.
    floors = [wall_clock_floor(f"{durability}/off throughput, shards={shards}",
                               ratio)
              for (shards, durability), ratio in sorted(slowdown.items())]

    write_bench_json(JSON_PATH, results, {
        "threads": THREADS, "transactions": TRANSACTIONS,
        "instances": INSTANCES_PER_CLASS, "shards": [1, 4],
        "durability": ["off", "lazy", "fsync"], "floors": floors,
    }, benchmark="wal_overhead")
    emit("WAL overhead: durability off/lazy/fsync at shards 1 and 4 "
         f"({THREADS} threads, {TRANSACTIONS} transactions; throughput vs "
         "'off' — " + ", ".join(
             f"s{shards} {durability}: {ratio:.2f}x"
             for (shards, durability), ratio in sorted(slowdown.items())) + ")",
         format_throughput_table(results))
