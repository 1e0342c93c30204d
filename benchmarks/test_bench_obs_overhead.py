"""What observability costs: tracing off vs sampled vs full.

The tracing design promise is "off by default, negligible when off":
with no tracer the hot path pays one ``None`` check per operation, and
``--trace-sample N`` bounds the cost when tracing is on.  This bench
replays the same contended banking workload three times — tracer absent,
sampling every 16th transaction, tracing everything — and writes the
rows to ``BENCH_obs_overhead.json`` so the overhead is tracked over
time alongside the throughput numbers.

Reading the numbers: span recording is a few dict/list operations and
two clock reads per stage, so even full tracing stays within the noise
band of a contended workload on shared CI hardware.  The assertion
bounds the *fully traced* run against the untraced one loosely (thread
scheduling jitter on this workload easily exceeds the real cost); the
JSON rows carry the exact ratio for anyone tracking the trend.
"""

import json
import pathlib

from repro.engine import ThroughputHarness
from repro.engine.harness import write_bench_json
from repro.reporting import format_throughput_table
from repro.txn.protocols import TAVProtocol

from .conftest import emit, wall_clock_floor

THREADS = 8
TRANSACTIONS = 120
INSTANCES_PER_CLASS = 4
SAMPLE_EVERY = 16
JSON_PATH = pathlib.Path(__file__).with_name("BENCH_obs_overhead.json")


def run_tracing_grid(banking, banking_compiled, trace_dir):
    harness = ThroughputHarness(schema=banking, compiled=banking_compiled,
                                instances_per_class=INSTANCES_PER_CLASS)
    off = harness.run(TAVProtocol, threads=THREADS,
                      transactions=TRANSACTIONS, shards=2,
                      default_lock_timeout=10.0)
    sampled = harness.run(TAVProtocol, threads=THREADS,
                          transactions=TRANSACTIONS, shards=2,
                          default_lock_timeout=10.0,
                          trace_path=trace_dir / "sampled.json",
                          trace_sample=SAMPLE_EVERY)
    full = harness.run(TAVProtocol, threads=THREADS,
                       transactions=TRANSACTIONS, shards=2,
                       default_lock_timeout=10.0,
                       trace_path=trace_dir / "full.json")
    return [off, sampled, full]


def test_observability_overhead(benchmark, banking, banking_compiled,
                                tmp_path):
    results = benchmark.pedantic(run_tracing_grid,
                                 args=(banking, banking_compiled, tmp_path),
                                 rounds=1, iterations=1, warmup_rounds=0)
    off, sampled, full = results

    for result in results:
        assert result.serializable is True, "serializability violation"
        assert result.errors == ()
        assert result.metrics.committed + len(result.failed_labels) \
            == TRANSACTIONS

    # The traced runs actually produced traces, scaled by the sampling.
    sampled_events = json.loads(
        (tmp_path / "sampled.json").read_text())["traceEvents"]
    full_events = json.loads(
        (tmp_path / "full.json").read_text())["traceEvents"]
    assert full_events, "full tracing recorded nothing"
    assert len(sampled_events) < len(full_events)

    # Full tracing must stay within scheduling noise of the untraced run;
    # the design target is <5% and the bound here is the loose CI-safe
    # version of that claim.
    ratio = full.commits_per_second / off.commits_per_second
    floor = wall_clock_floor("full-tracing/off throughput", ratio, low=0.5)

    write_bench_json(JSON_PATH, results, {
        "threads": THREADS, "transactions": TRANSACTIONS,
        "instances": INSTANCES_PER_CLASS, "sample_every": SAMPLE_EVERY,
        "configurations": ["tracing off", f"sampled 1/{SAMPLE_EVERY}",
                           "full tracing"],
        "full_over_off_throughput": round(ratio, 4), "floors": [floor],
        "trace_events": {"sampled": len(sampled_events),
                         "full": len(full_events)},
    }, benchmark="obs_overhead")
    emit(f"Observability overhead: tracing off vs 1/{SAMPLE_EVERY} sampled "
         f"vs full ({THREADS} threads, {TRANSACTIONS} transactions; "
         f"full/off throughput ratio: {ratio:.2f}x)",
         format_throughput_table(results))
