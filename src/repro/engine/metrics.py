"""Wall-clock metrics for the threaded execution engine.

:class:`EngineMetrics` is the real-time counterpart of
:class:`~repro.sim.metrics.SimulationMetrics`: the structural counters carry
the same names (``committed``, ``aborted``, ``deadlocks``, ``lock_requests``,
``waits``), so an engine run and a simulation of the same workload can be
laid side by side, but time is measured in seconds, not steps — the rates
(commits/sec, mean wait time) are what the paper's headline claim is about
once schedules are real.

Beyond the flat counters, every metrics object carries one
:class:`~repro.obs.histogram.LatencyHistogram` per :data:`HISTOGRAMS`
stage.  The histograms share one fixed bucket layout, so worker-process
metrics merge losslessly into the engine's cluster snapshot and the
socket harness can subtract a "before" snapshot exactly (:meth:`delta`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.obs.histogram import LatencyHistogram

#: The per-stage latency histograms every metrics object carries:
#: ``commit_latency`` (dispatcher-side, whole commit call), ``lock_wait``
#: (engine-side, blocked acquires only), ``rpc`` (participant round trips
#: net of lock-wait time) and ``barrier`` (WAL/decision-log flush+fsync).
HISTOGRAMS = ("commit_latency", "lock_wait", "rpc", "barrier")


def _new_histograms() -> dict[str, LatencyHistogram]:
    return {name: LatencyHistogram() for name in HISTOGRAMS}


@dataclass
class EngineMetrics:
    """Thread-safe counters accumulated by one :class:`Engine`.

    Worker threads update counters through the ``record_*`` methods, which
    take an internal mutex; reads of individual fields are unsynchronised
    snapshots (fine for reporting once the workload has quiesced).  The
    latency histograms carry their own finer-grained locks and are never
    touched under the counter mutex.
    """

    #: Transactions started (every retry incarnation counts).
    begun: int = 0
    #: Transactions committed.
    committed: int = 0
    #: Committed transactions whose writes/locks spanned more than one shard
    #: (these paid the full two-phase commit; always 0 with one shard).
    cross_shard_commits: int = 0
    #: Transactions aborted (victim aborts and timeout aborts both count).
    aborted: int = 0
    #: Aborted transactions that were retried by ``run_transaction``.
    retries: int = 0
    #: Victims doomed by the deadlock detector.
    deadlocks: int = 0
    #: Lock requests that expired their timeout.
    timeouts: int = 0
    #: Phase-two or abort completions that found their participant
    #: unreachable (survivable under presumed abort — the restarted worker
    #: resolves itself against the decision log — but worth watching).
    unavailable_completions: int = 0
    #: Lock requests issued through the blocking manager.
    lock_requests: int = 0
    #: Requests that blocked the calling thread.
    waits: int = 0
    #: Total seconds threads spent blocked on locks.
    wait_time: float = 0.0
    #: Operations executed successfully.
    operations: int = 0
    #: Shard-worker RPC requests issued by the coordinating engine (lock
    #: acquires, plan/execute shipments, 2PC messages — the worker-layer
    #: round-trip count the batching work optimises; 0 without workers).
    rpc_requests: int = 0
    #: Reply frames the socket server sent to clients (the client-layer
    #: round-trip count; 0 in-process).  One program is one frame however
    #: many operations it carries.
    frames_sent: int = 0
    #: Locked operations whose plan a compiled template served (final: one
    #: acquisition round, no refresh).  Counted once per locked operation.
    plan_cache_hits: int = 0
    #: Locked operations planned by ``protocol.plan()`` (data-dependent:
    #: extent/domain receivers, external sends, shadow-run protocols).
    plan_cache_misses: int = 0
    #: Read-only operations served from the lock-free snapshot path.
    snapshot_reads: int = 0
    #: Read-only operations that fell back to the locked path (worker mode).
    snapshot_fallbacks: int = 0
    #: Wall-clock seconds of the measured run (set by the harness).
    elapsed: float = 0.0
    #: Bytes appended to the write-ahead and decision logs (set by the
    #: harness from :attr:`Engine.wal_bytes_written`; 0 with durability off).
    wal_bytes: int = 0

    #: Per-stage latency histograms (see :data:`HISTOGRAMS`).
    histograms: dict[str, LatencyHistogram] = field(
        default_factory=_new_histograms, repr=False, compare=False)

    _mutex: threading.Lock = field(default_factory=threading.Lock, repr=False,
                                   compare=False)

    #: The counters that travel over the API's ``MetricsSnapshot`` control
    #: message — everything above except the mutex and the histograms
    #: (which travel under their own ``"histograms"`` key).
    _FIELDS = ("begun", "committed", "cross_shard_commits", "aborted",
               "retries", "deadlocks", "timeouts", "unavailable_completions",
               "lock_requests", "waits", "wait_time", "operations",
               "rpc_requests", "frames_sent",
               "plan_cache_hits", "plan_cache_misses",
               "snapshot_reads", "snapshot_fallbacks",
               "elapsed", "wal_bytes")

    # -- wire round trip ---------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The raw counters as one consistent, JSON-representable mapping.

        The scalar counters are read under the mutex; the nested
        ``"histograms"`` entry maps stage name to the histogram's own
        JSON-safe snapshot.
        """
        with self._mutex:
            snapshot: dict[str, Any] = {name: getattr(self, name)
                                        for name in self._FIELDS}
        snapshot["histograms"] = {name: histogram.snapshot()
                                  for name, histogram in self.histograms.items()}
        return snapshot

    @classmethod
    def from_snapshot(cls, snapshot: Mapping[str, Any]) -> "EngineMetrics":
        """Rebuild metrics from :meth:`snapshot` (the remote harness path)."""
        metrics = cls()
        for name in cls._FIELDS:
            if name in snapshot:
                setattr(metrics, name, snapshot[name])
        for name, document in dict(snapshot.get("histograms") or {}).items():
            metrics.histograms[name] = LatencyHistogram.from_snapshot(document)
        return metrics

    @classmethod
    def delta(cls, after: Mapping[str, Any],
              before: Mapping[str, Any]) -> "EngineMetrics":
        """The metrics of the interval between two snapshots.

        Scalar counters subtract; histograms subtract bucket-wise (exact
        under the shared fixed layout).  This is how the socket harness
        isolates one run against a server that may have served others.
        """
        metrics = cls.from_snapshot(after)
        for name in cls._FIELDS:
            if name in before:
                setattr(metrics, name, getattr(metrics, name) - before[name])
        for name, document in dict(before.get("histograms") or {}).items():
            if name in metrics.histograms:
                metrics.histograms[name].subtract(
                    LatencyHistogram.from_snapshot(document))
        return metrics

    # -- recording (called from worker threads) --------------------------------

    def record_begin(self) -> None:
        with self._mutex:
            self.begun += 1

    def record_commit(self, *, cross_shard: bool = False) -> None:
        with self._mutex:
            self.committed += 1
            if cross_shard:
                self.cross_shard_commits += 1

    def record_abort(self) -> None:
        with self._mutex:
            self.aborted += 1

    def record_retry(self) -> None:
        with self._mutex:
            self.retries += 1

    def record_deadlocks(self, count: int) -> None:
        with self._mutex:
            self.deadlocks += count

    def record_timeout(self) -> None:
        with self._mutex:
            self.timeouts += 1

    def record_unavailable(self) -> None:
        with self._mutex:
            self.unavailable_completions += 1

    def record_requests(self, count: int, waited: float) -> None:
        with self._mutex:
            self.lock_requests += count
            if waited > 0.0:
                self.waits += 1
                self.wait_time += waited
        if waited > 0.0:
            self.histograms["lock_wait"].record(waited)

    def record_operation(self) -> None:
        with self._mutex:
            self.operations += 1

    def record_rpc_requests(self, count: int = 1) -> None:
        with self._mutex:
            self.rpc_requests += count

    def record_frames(self, count: int = 1) -> None:
        with self._mutex:
            self.frames_sent += count

    def record_plan_cache(self, hit: bool) -> None:
        with self._mutex:
            if hit:
                self.plan_cache_hits += 1
            else:
                self.plan_cache_misses += 1

    def record_snapshot_read(self) -> None:
        with self._mutex:
            self.snapshot_reads += 1

    def record_snapshot_fallback(self) -> None:
        with self._mutex:
            self.snapshot_fallbacks += 1

    def record_latency(self, name: str, seconds: float) -> None:
        """Add one observation to the named stage histogram."""
        self.histograms[name].record(seconds)

    # -- derived rates ---------------------------------------------------------

    @property
    def commits_per_second(self) -> float:
        """Committed transactions per wall-clock second of the run."""
        if self.elapsed <= 0.0:
            return 0.0
        return self.committed / self.elapsed

    @property
    def abort_rate(self) -> float:
        """Aborted incarnations over all finished incarnations."""
        finished = self.committed + self.aborted
        if finished == 0:
            return 0.0
        return self.aborted / finished

    @property
    def mean_wait_time(self) -> float:
        """Average seconds a blocking request spent waiting."""
        if self.waits == 0:
            return 0.0
        return self.wait_time / self.waits

    @property
    def wal_bytes_per_commit(self) -> float:
        """Log bytes the durability subsystem paid per committed transaction."""
        if self.committed == 0:
            return 0.0
        return self.wal_bytes / self.committed

    @property
    def plan_cache_hit_rate(self) -> float:
        """Template-served share of locked operations (0.0 before any)."""
        lookups = self.plan_cache_hits + self.plan_cache_misses
        if lookups == 0:
            return 0.0
        return self.plan_cache_hits / lookups

    def commit_percentile(self, q: float) -> float:
        """Commit-latency percentile in seconds (0.0 before any commit)."""
        return self.histograms["commit_latency"].percentile(q)

    def as_row(self) -> dict[str, float]:
        """A flat dictionary for the reporting tables."""
        return {
            "committed": self.committed,
            "xshard": self.cross_shard_commits,
            "aborted": self.aborted,
            "retries": self.retries,
            "deadlocks": self.deadlocks,
            "timeouts": self.timeouts,
            "lock_requests": self.lock_requests,
            "waits": self.waits,
            "operations": self.operations,
            "rpcs": self.rpc_requests,
            "frames": self.frames_sent,
            "plan_hit_rate": round(self.plan_cache_hit_rate, 3),
            "snapshot_reads": self.snapshot_reads,
            "elapsed_s": round(self.elapsed, 3),
            "commits_per_s": round(self.commits_per_second, 1),
            "abort_rate": round(self.abort_rate, 3),
            "mean_wait_ms": round(self.mean_wait_time * 1000, 2),
            "p50_ms": round(self.commit_percentile(50.0) * 1000, 2),
            "p95_ms": round(self.commit_percentile(95.0) * 1000, 2),
            "p99_ms": round(self.commit_percentile(99.0) * 1000, 2),
            "wal": round(self.wal_bytes_per_commit, 1),
        }
