"""Rig-owned timing wrappers: the per-layer budget, measured from outside.

The program under test is not edited.  For the traced run the rig swaps
the callables named in :data:`TABLE` for wrappers that record one span per
call — name, start, end, parent — on a per-thread stack, and swaps them
back afterwards.  A span's *self time* is its duration minus the time its
child spans cover, so the self times of everything under one root span
partition that root exactly: summed per layer they are a budget that adds
up to the client-observed latency by construction.  Time another process
spends on a request (a shard worker, the spawned API server) is the self
time of the boundary span that waited for it.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

#: Budget line, span name, dotted path of the callable to wrap.  A budget
#: line is the per-layer metric ``<layer>.<part>_ms_per_txn`` a span's self
#: time is added to.  The first row is the root: one span per client
#: transaction, retries and backoff included.
ROOT = ("client.other", "txn",
        "repro.api.connection.TransactionRunner.run_spec")
TABLE: tuple[tuple[str, str, str], ...] = (
    ROOT,
    ("api.client_self", "request",
     "repro.api.connection.InProcessConnection.request"),
    ("api.client_self", "request", "repro.api.client.SocketConnection.request"),
    ("api.client_self", "wire.send", "repro.api.client.send_frame"),
    ("api.remote_wait", "wire.recv", "repro.api.client.recv_frame"),
    ("api.dispatch_self", "dispatch",
     "repro.api.dispatcher.Dispatcher.dispatch"),
    ("engine.self", "begin", "repro.engine.engine.Engine.begin"),
    ("engine.self", "perform", "repro.engine.engine.Engine.perform"),
    ("engine.self", "commit", "repro.engine.engine.Engine.commit"),
    ("engine.self", "abort", "repro.engine.engine.Engine.abort"),
    ("txn.self", "plan", "repro.txn.plan_cache.PlanCache.plan"),
    ("txn.self", "log_before_image",
     "repro.sharding.recovery.ShardedRecoveryManager.log_before_image"),
    ("txn.self", "undo", "repro.sharding.recovery.ShardedRecoveryManager.undo"),
    ("locking.self", "acquire",
     "repro.sharding.locks.ShardedLockFront.acquire"),
    ("locking.self", "acquire_many",
     "repro.sharding.locks.ShardedLockFront.acquire_many"),
    ("locking.self", "release_all",
     "repro.sharding.locks.ShardedLockFront.release_all"),
    ("objects.self", "send", "repro.objects.interpreter.Interpreter.send"),
    ("sharding.twopc_prepare", "prepare",
     "repro.sharding.twopc.TwoPhaseCommitCoordinator.prepare"),
    ("sharding.twopc_decision", "record_commit",
     "repro.sharding.twopc.TwoPhaseCommitCoordinator.record_commit"),
    ("sharding.twopc_decision", "wait_commit_durable",
     "repro.sharding.twopc.TwoPhaseCommitCoordinator.wait_commit_durable"),
    ("sharding.twopc_phase2", "complete_commit",
     "repro.sharding.twopc.TwoPhaseCommitCoordinator.complete_commit"),
    ("sharding.twopc_abort", "abort",
     "repro.sharding.twopc.TwoPhaseCommitCoordinator.abort"),
    ("wal.append", "wal.append", "repro.wal.log.WriteAheadLog.append"),
    ("wal.barrier", "wal.barrier", "repro.wal.log.WriteAheadLog.barrier"),
    ("wal.append", "decision.append", "repro.wal.log.DecisionLog.append"),
    ("wal.barrier", "decision.wait_durable",
     "repro.wal.log.DecisionLog.wait_durable"),
) + tuple(
    ("sharding.rpc_wait", f"rpc.{method}",
     f"repro.sharding.rpc.RemoteShardClient.{method}")
    for method in ("prepare", "commit", "abort", "acquire", "acquire_batch",
                   "release_all", "clear_doom", "write_plan", "execute",
                   "execute_fused", "read_field", "write_field"))

#: The budget lines, in table order.
BUDGET_LINES: tuple[str, ...] = tuple(dict.fromkeys(row[0] for row in TABLE))

#: Span of the table whose repeats inside one root mark aborted attempts.
_BEGIN_ROW = next(index for index, row in enumerate(TABLE)
                  if row[2].endswith("Engine.begin"))

#: Roots per thread written to the Chrome-trace file (every span is kept in
#: memory and counted in the budget; the file stays small enough to load).
CHROME_TRACE_ROOTS = 250


def _resolve(path: str) -> tuple[Any, str] | None:
    """``(owner, attribute)`` for a dotted path, or ``None`` when it is gone."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        return (owner, parts[-1]) if hasattr(owner, parts[-1]) else None
    return None


class SpanRecorder:
    """Installs the wrappers, keeps the spans, computes the budget."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._mutex = threading.Lock()
        #: One span list per thread that ran a root span.  A finished span
        #: is ``(row, start_ns, end_ns, parent_index, self_ns, label)``;
        #: list order is entry order, so a root is followed by its subtree.
        self._threads: list[list[Any]] = []
        self._patched: list[tuple[Any, str, Any]] = []
        #: Table paths that no longer resolve (reported, never a crash).
        self.missing: list[str] = []

    # -- installing ---------------------------------------------------------------

    def __enter__(self) -> "SpanRecorder":
        for row, (_line, _span, path) in enumerate(TABLE):
            target = _resolve(path)
            if target is None:
                self.missing.append(path)
                continue
            owner, name = target
            original = vars(owner).get(name) or getattr(owner, name)
            setattr(owner, name, self._wrap(original, row))
            self._patched.append((owner, name, original))
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _wrap(self, function: Callable[..., Any], row: int) -> Callable[..., Any]:
        local = self._local
        is_root = row == 0

        @functools.wraps(function)
        def timed(*args: Any, **kwargs: Any) -> Any:
            try:
                spans, stack = local.state
            except AttributeError:
                spans, stack = local.state = ([], [])
                with self._mutex:
                    self._threads.append(spans)
            if not stack and not is_root:
                # Background work (deadlock detector, group-commit flusher)
                # is nobody's transaction: not part of any client's latency.
                return function(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            frame = [index, 0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return function(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                spans[index] = (row, start, end,
                                -1 if parent is None else parent[0],
                                duration - frame[1],
                                args[1].label if is_root else None)

        return timed

    # -- reading ------------------------------------------------------------------

    def budget(self) -> dict[str, Any]:
        """Per-transaction self time by budget line, in milliseconds.

        ``lines`` maps each budget line to its mean self time per root span
        (``None`` when none of the line's targets exist any more);
        ``mean_ms`` is the mean root duration the lines add up to;
        ``coverage`` is their sum over it (1.0 up to rounding);
        ``wasted_ms`` is, per root, the time between its first and its last
        ``Engine.begin`` — attempts that ended in abort, plus backoff.
        """
        self_ns = [0] * len(TABLE)
        roots = root_ns = wasted_ns = 0
        for spans in self._threads:
            first_begin = last_begin = None
            for span in spans:
                if span is None:  # still open: the run was cut short
                    continue
                row, start, end, _parent, own, _label = span
                self_ns[row] += own
                if row == 0:
                    roots += 1
                    root_ns += end - start
                    if first_begin is not None:
                        wasted_ns += last_begin - first_begin
                    first_begin = last_begin = None
                elif row == _BEGIN_ROW:
                    if first_begin is None:
                        first_begin = start
                    last_begin = start
            if first_begin is not None:
                wasted_ns += last_begin - first_begin
        resolved = {line: False for line in BUDGET_LINES}
        totals = {line: 0 for line in BUDGET_LINES}
        for row, (line, _span, path) in enumerate(TABLE):
            totals[line] += self_ns[row]
            if path not in self.missing:
                resolved[line] = True
        per_txn = 1e6 * max(roots, 1)
        return {
            "roots": roots,
            "mean_ms": root_ns / per_txn,
            "coverage": (sum(self_ns) / root_ns) if root_ns else 0.0,
            "wasted_ms": wasted_ns / per_txn,
            "lines": {line: (totals[line] / per_txn if resolved[line] else None)
                      for line in BUDGET_LINES},
        }

    def span_count(self) -> int:
        """Spans recorded so far, over every thread."""
        return sum(len(spans) for spans in self._threads)

    def write_chrome_trace(self, path: Path) -> int:
        """Write the first roots of every thread as Chrome-trace JSON."""
        events = []
        for thread, spans in enumerate(self._threads):
            roots = 0
            label = None
            for span in spans:
                if span is None:
                    continue
                row, start, end, _parent, own, root_label = span
                if row == 0:
                    roots += 1
                    if roots > CHROME_TRACE_ROOTS:
                        break
                    label = root_label
                line, name, _path = TABLE[row]
                events.append({"name": name, "cat": line.split(".")[0],
                               "ph": "X", "pid": 1, "tid": thread,
                               "ts": start / 1000.0,
                               "dur": (end - start) / 1000.0,
                               "args": {"txn": label,
                                        "self_us": own / 1000.0}})
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        return len(events)
