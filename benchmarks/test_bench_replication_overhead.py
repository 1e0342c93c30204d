"""What hot-standby replication costs the primary's commit path.

A primary shard worker ships every appended WAL frame to its standby from
a background thread fed by the append hook — the data plane never waits
for the standby, so the expected cost is the hook's queue push plus some
scheduler noise, not a round trip.  This bench replays the same contended
banking workload on the multi-core shape (``shard_workers=2``, fsync
durability) without standbys and with one standby per shard, and writes
both rows — commits/sec, p99 commit latency, and the end-of-run
steady-state replication lag — to ``BENCH_replication_overhead.json``.

The floor asserted here is the acceptance bar: with one standby per shard,
throughput stays at or above 0.7x the primary-only run.  Lag is asserted
healthy rather than zero-at-all-times: the stream is asynchronous by
design, but by the time the run ends every standby must be synced, and the
recorded lag rides into the JSON for trend tracking.
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
SHARD_WORKERS = 2
THROUGHPUT_FLOOR = 0.7
JSON_PATH = pathlib.Path(__file__).with_name("BENCH_replication_overhead.json")


def run_replication_comparison(banking, banking_compiled):
    harness = ThroughputHarness(schema=banking, compiled=banking_compiled,
                                instances_per_class=INSTANCES_PER_CLASS)
    primary_only = harness.run(TAVProtocol, threads=THREADS,
                               transactions=TRANSACTIONS,
                               shard_workers=SHARD_WORKERS,
                               durability="fsync",
                               default_lock_timeout=10.0)
    with_standby = harness.run(TAVProtocol, threads=THREADS,
                               transactions=TRANSACTIONS,
                               shard_workers=SHARD_WORKERS, replicas=1,
                               durability="fsync",
                               default_lock_timeout=10.0)
    return [primary_only, with_standby]


def test_replication_overhead(benchmark, banking, banking_compiled):
    results = benchmark.pedantic(run_replication_comparison,
                                 args=(banking, banking_compiled),
                                 rounds=1, iterations=1, warmup_rounds=0)
    primary_only, with_standby = results

    for result in results:
        assert result.serializable is True, "serializability violation"
        assert result.errors == ()
        assert result.metrics.committed + len(result.failed_labels) \
            == TRANSACTIONS
        assert result.commits_per_second > 0

    assert primary_only.replicas == 0 and primary_only.replication == ()
    assert with_standby.replicas == 1
    streams = with_standby.replication
    assert len(streams) == SHARD_WORKERS, "one stream per shard expected"
    for stream in streams:
        assert stream["healthy"] and stream["synced"], \
            f"standby stream unhealthy at end of run: {stream}"
        # Asynchronous by design, but a bounded run must end caught up.
        assert stream["lag_records"] == 0, f"standby left behind: {stream}"

    # The acceptance floor: shipping must not cost the data plane more
    # than 30% of primary-only throughput on this shape.
    ratio = (with_standby.commits_per_second
             / primary_only.commits_per_second)
    floor = wall_clock_floor("standby/primary-only throughput", ratio,
                             low=THROUGHPUT_FLOOR)

    write_bench_json(JSON_PATH, results, {
        "threads": THREADS, "transactions": TRANSACTIONS,
        "instances": INSTANCES_PER_CLASS, "shard_workers": SHARD_WORKERS,
        "replicas": [0, 1], "durability": "fsync",
        "throughput_floor": THROUGHPUT_FLOOR,
        "throughput_ratio": round(ratio, 3), "floors": [floor],
        "steady_state_lag": [
            {"shard": stream["shard"],
             "lag_records": stream["lag_records"],
             "lag_seconds": stream["lag_seconds"]}
            for stream in streams],
    }, benchmark="replication_overhead")

    p99 = {r.replicas: r.metrics.commit_percentile(0.99) * 1000.0
           for r in results}
    emit("Replication overhead: primary-only vs one hot standby per shard "
         f"(shard_workers={SHARD_WORKERS}, fsync, {THREADS} threads, "
         f"{TRANSACTIONS} transactions; throughput ratio {ratio:.2f}x, "
         f"p99 commit {p99[0]:.2f}ms -> {p99[1]:.2f}ms)",
         format_throughput_table(results))
