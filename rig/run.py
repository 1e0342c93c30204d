"""One workload, measured: set-up, the timed run, the traced run, the gates.

:func:`run_workload` is the whole benchmark for one ``(workload, seed)``:

1. generate the specs once (``rig.generate_s``, outside everything else);
2. bring the deployment up and warm it, several times over, and keep the
   median as ``setup_s``;
3. the timed run, tracing off: throughput and exact latency percentiles,
   then the correctness gates and the public counters;
4. when per-layer metrics are wanted: a shorter traced run on a fresh
   deployment (the budget), the micro loops and the simulator count.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import time
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.core.compiler import compile_schema
from repro.schema import banking_schema
from repro.sim.simulator import Simulator
from repro.sim.workload import TransactionSpec
from repro.txn.protocols import PROTOCOLS

from rig.driver import (
    ClientRun,
    canonical,
    check_recovery,
    check_run,
    percentile,
    run_clients,
)
from rig.micro import run_micro
from rig.spans import BUDGET_LINES, SpanRecorder
from rig.workloads import (
    BY_NAME,
    CLIENTS,
    DISTINCT_SPECS,
    Deployment,
    Placement,
    Workload,
    generate_specs,
    populate,
)

#: Untimed transactions each client runs before the clock starts.
WARMUP_PER_CLIENT = 100
#: Times the deployment is brought up and warmed for the ``setup_s`` median.
SETUP_REPEATS = 3
#: The traced run lasts this share of the timed run.
TRACED_SHARE = 0.25
#: ``--smoke``: about 50 transactions per workload, no timing meaning.
SMOKE_TRANSACTIONS = 25
SMOKE_WARMUP = 2
SMOKE_SPECS = 50
#: Transactions the simulator interleaves at once for the pseudo-conflict
#: count, and how many specs it is given.
SIM_BATCH = 8
SIM_SPECS = 400

END_TO_END: dict[str, str] = {
    "commits_per_s": "1/s",
    "txn_p50_ms": "ms",
    "txn_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER: dict[str, str] = {
    "core.compile_schema_ms": "ms",
    "txn.plan_cold_us": "us",
    "txn.plan_cached_us": "us",
    "txn.undo_log_us": "us",
    "txn.plan_hit_rate": "share",
    "txn.self_ms_per_txn": "ms/txn",
    "locking.grant_us": "us",
    "locking.release_all_us": "us",
    "locking.acquires_per_txn": "1/txn",
    "locking.waits_per_txn": "1/txn",
    "locking.wait_ms_per_txn": "ms/txn",
    "locking.self_ms_per_txn": "ms/txn",
    "objects.send_us": "us",
    "objects.self_ms_per_txn": "ms/txn",
    "engine.self_ms_per_txn": "ms/txn",
    "engine.abort_rate": "share",
    "engine.retries_per_txn": "1/txn",
    "engine.deadlocks_per_kcommit": "1/kcommit",
    "engine.snapshot_reads_share": "share",
    "engine.wasted_ms_per_txn": "ms/txn",
    "api.encode_us": "us",
    "api.decode_us": "us",
    "api.ping_rtt_us": "us",
    "api.frames_per_txn": "1/txn",
    "api.dispatch_self_ms_per_txn": "ms/txn",
    "api.client_self_ms_per_txn": "ms/txn",
    "api.remote_wait_ms_per_txn": "ms/txn",
    "wal.append_us": "us",
    "wal.fsync_ms": "ms",
    "wal.bytes_per_commit": "B/commit",
    "wal.barriers_per_commit": "1/commit",
    "wal.append_ms_per_txn": "ms/txn",
    "wal.barrier_ms_per_txn": "ms/txn",
    "wal.checkpoint_ms": "ms",
    "wal.recovery_ms": "ms",
    "wal.recovery_records": "count",
    "sharding.rpc_rtt_us": "us",
    "sharding.rpcs_per_txn": "1/txn",
    "sharding.xshard_share": "share",
    "sharding.rpc_wait_ms_per_txn": "ms/txn",
    "sharding.twopc_prepare_ms_per_txn": "ms/txn",
    "sharding.twopc_decision_ms_per_txn": "ms/txn",
    "sharding.twopc_phase2_ms_per_txn": "ms/txn",
    "sharding.twopc_abort_ms_per_txn": "ms/txn",
    "replication.frames_per_commit": "1/commit",
    "replication.lag_records_end": "count",
    "replication.catchup_ms": "ms",
    "sim.pseudo_conflicts_avoided": "count",
    "client.txn_p99_ms": "ms",
    "client.samples": "count",
    "client.failed_share": "share",
    "client.other_ms_per_txn": "ms/txn",
    "client.traced_mean_ms": "ms",
    "obs.budget_coverage": "ratio",
    "obs.trace_overhead_ratio": "ratio",
    "rig.generate_s": "s",
}


def peak_rss_kb(who: int) -> int:
    """High-water resident set of this process or of its reaped children."""
    return resource.getrusage(who).ru_maxrss


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counter_metrics(before: Mapping[str, Any], after: Mapping[str, Any],
                    frames_shipped: int) -> dict[str, float]:
    """Per-layer metrics from the public counters, over the timed window."""
    def moved(name: str) -> float:
        return after["metrics"][name] - before["metrics"][name]

    def barriers(snapshot: Mapping[str, Any]) -> int:
        return snapshot["metrics"]["histograms"]["barrier"]["count"]

    commits = moved("committed")
    return {
        "txn.plan_hit_rate": _ratio(
            moved("plan_cache_hits"),
            moved("plan_cache_hits") + moved("plan_cache_misses")),
        "locking.acquires_per_txn": _ratio(moved("lock_requests"), commits),
        "locking.waits_per_txn": _ratio(moved("waits"), commits),
        "locking.wait_ms_per_txn": _ratio(moved("wait_time") * 1e3, commits),
        "engine.abort_rate": _ratio(moved("aborted"),
                                    commits + moved("aborted")),
        "engine.retries_per_txn": _ratio(moved("retries"), commits),
        "engine.deadlocks_per_kcommit": _ratio(moved("deadlocks") * 1e3,
                                               commits),
        "engine.snapshot_reads_share": _ratio(moved("snapshot_reads"),
                                              moved("operations")),
        "api.frames_per_txn": _ratio(moved("frames_sent"), commits),
        "wal.bytes_per_commit": _ratio(
            after["wal_bytes"] - before["wal_bytes"], commits),
        "wal.barriers_per_commit": _ratio(barriers(after) - barriers(before),
                                          commits),
        "sharding.rpcs_per_txn": _ratio(moved("rpc_requests"), commits),
        "sharding.xshard_share": _ratio(moved("cross_shard_commits"), commits),
        "replication.frames_per_commit": _ratio(frames_shipped, commits),
    }


def pseudo_conflicts_avoided(seed: int, spec_count: int = SIM_SPECS) -> float:
    """Blocked requests under ``rw-instance`` minus under ``tav``.

    The paper's Section 5 quantity on the ``inproc_hot`` specs, through the
    deterministic simulator, ``SIM_BATCH`` transactions interleaved at a
    time.  It repeats exactly for one seed.
    """
    workload = BY_NAME["inproc_hot"]
    specs = generate_specs(workload, seed, spec_count)
    compiled = compile_schema(banking_schema())
    waits = {}
    for name in ("rw-instance", "tav"):
        # One simulator per batch (it numbers transactions from 1), one
        # store throughout, so later batches see the earlier ones' writes.
        protocol = PROTOCOLS[name](compiled, populate(workload, seed))
        waits[name] = sum(
            Simulator(protocol).run(
                list(specs[start:start + SIM_BATCH])).metrics.waits
            for start in range(0, len(specs), SIM_BATCH))
    return float(waits["rw-instance"] - waits["tav"])


class WorkloadRun:
    """State shared by the phases of one ``(workload, seed)`` measurement."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 smoke: bool, directory: Path, placement: Placement) -> None:
        self.workload = workload
        self.placement = placement
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.directory = directory
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.notes: dict[str, Any] = {}
        self._deployments = 0
        self._warmup = SMOKE_WARMUP if smoke else WARMUP_PER_CLIENT
        started = time.perf_counter()
        self.specs: Sequence[TransactionSpec] = generate_specs(
            workload, seed, SMOKE_SPECS if smoke else DISTINCT_SPECS)
        self.generate_s = time.perf_counter() - started

    def _deploy(self) -> Deployment:
        self._deployments += 1
        return Deployment(self.workload, self.seed,
                          self.directory / f"wal-{self._deployments}",
                          self.placement)

    def _drive(self, deployment: Deployment, share: float = 1.0,
               before_start: Any = None) -> ClientRun:
        """``share`` of the run length (a smoke run is sized by count)."""
        if self.smoke:
            return run_clients(deployment, self.specs, warmup=self._warmup,
                               transactions=SMOKE_TRANSACTIONS,
                               before_start=before_start)
        return run_clients(deployment, self.specs, warmup=self._warmup,
                           seconds=self.seconds * share,
                           before_start=before_start)

    def _finish(self, deployment: Deployment, run: ClientRun,
                checkpoint: bool = False) -> dict[str, float]:
        """Gates, teardown and (durable shapes) recovery of one deployment."""
        self.attempted += run.attempted
        self.failed += run.failed
        metrics: dict[str, float] = {}
        try:
            final = canonical(deployment.control.store_state())
            self.problems += check_run(deployment, self.seed, self.specs, run,
                                       final)
            if checkpoint and deployment.durability is not None:
                started = time.perf_counter()
                deployment.engine.checkpoint()
                metrics["wal.checkpoint_ms"] = (
                    time.perf_counter() - started) * 1e3
        finally:
            deployment.close()
        if deployment.durability is not None and self.workload.shape == "inproc":
            started = time.perf_counter()
            problems, result = check_recovery(deployment, final)
            metrics["wal.recovery_ms"] = (time.perf_counter() - started) * 1e3
            metrics["wal.recovery_records"] = float(sum(
                len(records) for records in result.shard_records.values()))
            self.problems += problems
        return metrics

    # -- the phases -----------------------------------------------------------

    def timed(self, setups: int) -> tuple[dict[str, float], dict[str, float]]:
        """Set-up (``setups`` times), the timed run, gates and counters."""
        setup_seconds = []
        for _ in range(setups - 1):
            started = time.perf_counter()
            deployment = self._deploy()
            try:
                run = run_clients(deployment, self.specs, transactions=0,
                                  warmup=self._warmup)
                setup_seconds.append(run.started_ns / 1e9 - started)
            finally:
                deployment.close()
        started = time.perf_counter()
        deployment = self._deploy()
        before: dict[str, Any] = {}

        def streams(key: str) -> int:
            return sum(stream[key]
                       for stream in deployment.replication_streams())

        try:
            run = self._drive(deployment, before_start=lambda: before.update(
                deployment.control.metrics(),
                shipped=streams("frames_shipped")))
            setup_seconds.append(run.started_ns / 1e9 - started)
            catchup = deployment.wait_caught_up()
            after = deployment.control.metrics()
            shipped = streams("frames_shipped") - before["shipped"]
            lag = streams("lag_records")
            # Before the gates: replaying and recovering the whole run is
            # the rig's memory, not the system's.
            own_rss = peak_rss_kb(resource.RUSAGE_SELF)
        except BaseException:
            deployment.close()
            raise
        layer = self._finish(deployment, run)
        ordered = sorted(run.samples_ns)
        if not ordered:
            self.problems.append("no transaction committed in the timed run")
            ordered = [0]
        end_to_end = {
            **run.steady(),
            "setup_s": statistics.median(setup_seconds),
            # Children count once reaped, which _finish has just done.
            "peak_rss_mb": (own_rss + peak_rss_kb(resource.RUSAGE_CHILDREN))
            / 1024.0,
        }
        layer.update(counter_metrics(before, after, shipped))
        layer.update({
            "replication.lag_records_end": float(lag),
            "replication.catchup_ms": (catchup * 1e3
                                       if self.workload.replicas else 0.0),
            "client.txn_p99_ms": percentile(ordered, 0.99) / 1e6,
            "client.samples": float(len(run.samples_ns)),
            "client.failed_share": _ratio(run.failed, run.attempted),
            "rig.generate_s": self.generate_s,
        })
        return end_to_end, layer

    def traced(self, untraced_commits_per_s: float) -> dict[str, Any]:
        """The shorter run with the timing wrappers in: the layer budget."""
        deployment = self._deploy()
        try:
            with SpanRecorder() as recorder:
                run = self._drive(deployment, TRACED_SHARE)
        except BaseException:
            deployment.close()
            raise
        # The timed run's recovery replayed the whole log; this one follows
        # a checkpoint and would overwrite that number with a near-empty one.
        finished = self._finish(deployment, run, checkpoint=True)
        metrics: dict[str, Any] = {
            "wal.checkpoint_ms": finished.get("wal.checkpoint_ms", 0.0)}
        events = recorder.write_chrome_trace(
            self.directory.parent / f"trace-{self.workload.name}.json")
        budget = recorder.budget()
        for line in BUDGET_LINES:
            metrics[f"{line}_ms_per_txn"] = budget["lines"][line]
        if abs(budget["coverage"] - 1.0) > 0.01:
            self.problems.append(
                f"layer self times cover {budget['coverage']:.4f} of the "
                "client-observed latency, not 1.00 +/- 0.01")
        metrics.update({
            "engine.wasted_ms_per_txn": budget["wasted_ms"],
            "client.traced_mean_ms": budget["mean_ms"],
            "obs.budget_coverage": budget["coverage"],
            "obs.trace_overhead_ratio": _ratio(
                run.steady()["commits_per_s"], untraced_commits_per_s),
        })
        self.notes = {"spans": recorder.span_count(), "trace_events": events,
                      "missing_targets": recorder.missing}
        return metrics


def run_workload(name: str, seed: int, seconds: float, trace: int | None,
                 smoke: bool, work_root: Path) -> dict[str, Any]:
    """Measure one workload; returns the result document.

    ``trace`` 0 measures the end-to-end metrics only, 1 the per-layer
    metrics only (one set-up instead of several), ``None`` both.
    """
    workload = BY_NAME[name]
    directory = work_root / f"run-{name}-{time.time_ns()}"
    directory.mkdir(parents=True)
    try:
        with Placement() as placement:
            state = WorkloadRun(workload, seed, seconds, smoke, directory,
                                placement)
            end_to_end, layer = state.timed(
                1 if trace == 1 or smoke else SETUP_REPEATS)
            if trace != 0:
                layer.update(state.traced(end_to_end["commits_per_s"]))
                layer.update(run_micro(seed, directory, placement,
                                       calls=40 if smoke else 2000))
                layer["sim.pseudo_conflicts_avoided"] = pseudo_conflicts_avoided(
                    seed, SMOKE_SPECS if smoke else SIM_SPECS)
                # Shapes without a layer (no WAL, no workers) spend nothing
                # there.
                layer = {metric: layer.get(metric, 0.0) for metric in PER_LAYER}
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {
        "workload": name, "why": workload.why, "seed": seed,
        "seconds": seconds, "smoke": smoke, "clients": CLIENTS,
        "flush_policy": workload.flush_policy,
        "cpus": {"rig": placement.rig_cpu, "spawned": placement.spawn_cpu},
        "correct": not state.problems, "problems": state.problems,
        "attempted": state.attempted, "failed": state.failed,
        "end_to_end": end_to_end if trace != 1 else {},
        "per_layer": layer if trace != 0 else {},
        "notes": state.notes,
    }
