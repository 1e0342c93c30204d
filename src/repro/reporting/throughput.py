"""Wall-clock throughput tables for the threaded engine.

The simulator's tables count steps; these count seconds.  The column set
mirrors :meth:`repro.engine.metrics.EngineMetrics.as_row` plus the harness's
serializability verdict, so one table answers both "how fast" and "was it
still correct".
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.reporting.tables import format_records

#: Column order of the throughput table (missing columns are dropped).
#: ``durability`` names the logging mode and ``wal`` the log bytes paid per
#: committed transaction — the cost column the WAL-overhead bench compares.
#: ``transport`` names the path workers took to the engine (inproc/socket)
#: and ``overloads`` counts typed admission-control rejections they rode out.
#: ``rpcs`` counts shard-worker RPC requests and ``frames`` server reply
#: frames — the two round-trip budgets the batching work drives down.
#: ``p50_ms``/``p95_ms``/``p99_ms`` are commit-latency percentiles from the
#: engine's mergeable log-scaled histogram (see :mod:`repro.obs.histogram`).
#: ``plan_hit`` is the share of locked operations planned from a compiled
#: template, and ``snap_reads`` the read-only operations served from the
#: lock-free snapshot path — the two runtime-payoff counters.  ``invariant``
#: is the workload-level conservation verdict (order-entry scenario only).
_COLUMNS = ("protocol", "threads", "shards", "workers", "durability",
            "transport", "txns",
            "committed", "xshard", "aborted", "retries", "deadlocks",
            "timeouts", "overloads", "rpcs", "frames", "commits_per_s",
            "abort_rate", "mean_wait_ms", "p50_ms", "p95_ms", "p99_ms",
            "plan_hit_rate", "snapshot_reads", "wal",
            "elapsed_s", "serializable", "invariant")


def format_throughput_table(results: Sequence[Any]) -> str:
    """Render harness results (or equivalent dicts) as an aligned table.

    Accepts :class:`~repro.engine.harness.HarnessResult` objects, anything
    else with an ``as_row()`` method, or plain mappings.
    """
    rows: list[Mapping[str, Any]] = []
    for result in results:
        if hasattr(result, "as_row"):
            rows.append(result.as_row())
        else:
            rows.append(dict(result))
    if not rows:
        return ""
    columns = [column for column in _COLUMNS if any(column in row for row in rows)]
    return format_records(rows, columns=columns)
