"""What the network front end costs: inproc vs socket commits/sec.

The API redesign makes the in-process and socket paths run the *same*
command layer — the only deltas are JSON framing, syscalls and a process
hop.  This bench replays the same contended banking workload through both
transports (the socket run spawns a ``python -m repro.api.server``
subprocess and talks real TCP over loopback) and reports the rows side by
side; the document lands in ``BENCH_transport_overhead.json``.

Reading the numbers: both transports ship each transaction as one
``RunProgram`` — one dispatch in-process, one request frame and one reply
frame over the socket — so on loopback the socket path lands within ~1.5x
of inproc instead of paying two context switches and two JSON round trips
per *operation* (the ratio was ~0.38x when every command was its own round
trip).  The point of the row is to track that
fraction over time: a framing, dispatcher or batching regression shows up
here first.  The assertions pin correctness on both paths and bound the
overhead loosely, since the exact ratio is hardware and scheduler
dependent.
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
JSON_PATH = pathlib.Path(__file__).with_name("BENCH_transport_overhead.json")


def run_transport_grid(banking, banking_compiled):
    harness = ThroughputHarness(schema=banking, compiled=banking_compiled,
                                instances_per_class=INSTANCES_PER_CLASS)
    # Every row ships each transaction as one RunProgram; the socket rows
    # add the codec, the frames and the process hop.
    return [harness.run(TAVProtocol, threads=THREADS,
                        transactions=TRANSACTIONS, shards=shards,
                        transport=transport, default_lock_timeout=10.0)
            for shards in (1, 4)
            for transport in ("inproc", "socket")]


def test_transport_overhead(benchmark, banking, banking_compiled):
    results = benchmark.pedantic(run_transport_grid,
                                 args=(banking, banking_compiled),
                                 rounds=1, iterations=1, warmup_rounds=0)

    for result in results:
        assert result.serializable is True, "serializability violation"
        assert result.failed_labels == ()
        assert result.errors == ()
        assert result.metrics.committed == TRANSACTIONS
        assert result.commits_per_second > 0

    by_key = {(r.shards, r.transport): r for r in results}
    overhead = {
        shards: (by_key[(shards, "socket")].commits_per_second
                 / by_key[(shards, "inproc")].commits_per_second)
        for shards in (1, 4)
    }
    # Loopback TCP cannot be *faster* than a direct call, and with one
    # frame per transaction the socket path stays within ~1.5x of inproc.
    # A ratio under 0.5 means the wire regressed back toward one round
    # trip per operation (~0.38 measured then) or something worse broke
    # (a sleep in the hot path, Nagle re-enabled, ...).
    floors = [wall_clock_floor(f"socket/inproc throughput, shards={shards}",
                               ratio, low=0.5, high=1.5)
              for shards, ratio in sorted(overhead.items())]

    write_bench_json(JSON_PATH, results, {
        "threads": THREADS, "transactions": TRANSACTIONS,
        "instances": INSTANCES_PER_CLASS, "shards": [1, 4],
        "transport": ["inproc", "socket"], "floors": floors,
    }, benchmark="transport_overhead")

    emit("Transport overhead: inproc vs socket at shards 1 and 4 "
         f"({THREADS} threads, {TRANSACTIONS} transactions; socket/inproc "
         "throughput — " + ", ".join(
             f"s{shards}: {ratio:.2f}x"
             for shards, ratio in sorted(overhead.items())) + ")",
         format_throughput_table(results))
