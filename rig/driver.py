"""Closed-loop clients, exact latency samples and the correctness gates.

Each client is one thread with its own connection and
:class:`~repro.api.connection.TransactionRunner`: it sends its next
transaction only after the previous one was acknowledged, so a slow system
receives less load.  Latency is taken client-side, first ``Begin`` to
acknowledged commit with retries and backoff included, as raw
``perf_counter_ns`` samples in per-thread lists — no shared lock, no
histogram buckets.
"""

from __future__ import annotations

import json
import math
import statistics
import threading
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any, Callable, Sequence

from repro.api.connection import TransactionRunner
from repro.core.compiler import compile_schema
from repro.engine.harness import store_state
from repro.errors import DeadlockError, LockTimeoutError
from repro.objects.interpreter import Interpreter
from repro.schema import banking_schema
from repro.sim.workload import TransactionSpec
from repro.txn.protocols import PROTOCOLS
from repro.wal.recovery_runner import RecoveryRunner

from rig.workloads import CLIENTS, PROTOCOL, Deployment, Workload, populate

MAX_RETRIES = 20


@dataclass
class ClientRun:
    """What the clients observed between the start barrier and the deadline."""

    #: Latency of every committed transaction, nanoseconds, in finish order
    #: per client, clients concatenated.
    samples_ns: list[int] = field(default_factory=list)
    #: ``perf_counter_ns`` at which each of those transactions finished.
    finished_ns: list[int] = field(default_factory=list)
    #: Transactions that exhausted their retries or raised.
    failed: int = 0
    #: ``repr`` of every exception that was not retry exhaustion.
    errors: list[str] = field(default_factory=list)
    #: ``perf_counter_ns`` when the last warm-up transaction finished.
    started_ns: int = 0
    #: ``perf_counter_ns`` when the timed window closed: the deadline of a
    #: run bounded by time, the last commit of one bounded by count.
    ended_ns: int = 0

    @property
    def attempted(self) -> int:
        return len(self.samples_ns) + self.failed

    def steady(self) -> dict[str, float]:
        """Throughput and latency as medians over one-second slices.

        A transaction belongs to the slice it finished in (the one or two
        still in flight at the deadline belong to none).  Each slice has its
        own rate, median and 95th percentile; the run reports the median
        slice, so a burst of interference from outside — a neighbour on the
        host, a stolen CPU — moves the result only once it covers half the
        run.
        """
        window = self.ended_ns - self.started_ns
        count = max(1, round(window / 1e9))
        slices: list[list[int]] = [[] for _ in range(count)]
        for finished, latency in zip(self.finished_ns, self.samples_ns):
            index = (finished - self.started_ns) * count // max(window, 1)
            if index < count:
                slices[index].append(latency)
        filled = [sorted(samples) for samples in slices if samples] or [[0]]
        return {
            "commits_per_s": statistics.median(
                len(samples) * count * 1e9 / max(window, 1)
                for samples in slices),
            "txn_p50_ms": statistics.median(
                percentile(samples, 0.50) for samples in filled) / 1e6,
            "txn_p95_ms": statistics.median(
                percentile(samples, 0.95) for samples in filled) / 1e6,
        }


def percentile(ordered: Sequence[int], share: float) -> float:
    """Nearest-rank percentile of an ascending sample list."""
    return float(ordered[max(0, math.ceil(share * len(ordered)) - 1)])


def run_clients(deployment: Deployment, specs: Sequence[TransactionSpec], *,
                warmup: int, seconds: float | None = None,
                transactions: int | None = None,
                before_start: Callable[[], None] | None = None) -> ClientRun:
    """Warm up, then drive the deployment closed-loop and time every commit.

    Each client first runs ``warmup`` untimed transactions; when all are
    through, the clock starts and every client keeps sending until
    ``seconds`` have passed or it has sent ``transactions`` timed ones.
    Specs are cycled; every transaction gets a fresh label
    ``<spec index>.<client>.<n>`` so the commit log can be replayed.
    ``before_start`` runs between the last warm-up transaction and the
    clock starting (counter snapshots go there).
    """
    run = ClientRun()
    results: list[tuple[list[int], list[int], int, list[str]]] = []
    mutex = threading.Lock()
    deadline = [0]

    def start_clock() -> None:
        if before_start is not None:
            before_start()
        run.started_ns = perf_counter_ns()
        deadline[0] = (run.started_ns + int(seconds * 1e9)
                       if seconds is not None else 1 << 62)

    barrier = threading.Barrier(CLIENTS, action=start_clock)
    limit = transactions if transactions is not None else 1 << 62

    def client(index: int) -> None:
        try:
            drive(index)
        except BaseException:
            barrier.abort()  # never leave the other client waiting
            raise

    def drive(index: int) -> None:
        runner = TransactionRunner(deployment.connections[index],
                                   max_retries=MAX_RETRIES,
                                   seed=0xC11E47 + index)
        pipeline = deployment.pipeline
        samples: list[int] = []
        finished: list[int] = []
        failed = 0
        errors: list[str] = []
        # Clients start half a cycle apart so they do not replay the same
        # spec side by side.
        position = index * len(specs) // CLIENTS
        sent = -warmup
        while True:
            if sent == 0:
                barrier.wait()
            spec = specs[position % len(specs)]
            spec = TransactionSpec(
                operations=spec.operations, read_only=spec.read_only,
                label=f"{position % len(specs)}.{index}.{sent}")
            position += 1
            began = perf_counter_ns()
            if sent >= 0 and (began >= deadline[0] or sent >= limit):
                break
            try:
                runner.run_spec(spec, pipeline=pipeline)
            except (DeadlockError, LockTimeoutError):
                failed += 1
            except Exception as error:  # noqa: BLE001 - counted and reported
                failed += 1
                errors.append(repr(error))
            else:
                ended = perf_counter_ns()
                if sent >= 0:
                    samples.append(ended - began)
                    finished.append(ended)
            sent += 1
        with mutex:
            results.append((samples, finished, failed, errors))

    threads = [threading.Thread(target=client, args=(index,),
                                name=f"rig-client-{index}")
               for index in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for samples, finished, failed, errors in results:
        run.samples_ns.extend(samples)
        run.finished_ns.extend(finished)
        run.failed += failed
        run.errors.extend(errors)
    if len(results) != CLIENTS:
        run.errors.append(f"{CLIENTS - len(results)} client thread(s) died")
    run.ended_ns = (deadline[0] if seconds is not None
                    else max(run.finished_ns, default=run.started_ns))
    return run


# -- correctness gates (outside every timed section) ---------------------------


def canonical(state: dict[str, dict[str, Any]]) -> str:
    """A store state as comparable text (NaN-safe, unlike ``==`` on floats)."""
    return json.dumps(state, sort_keys=True, default=str)


def replay_state(workload: Workload, seed: int,
                 specs: Sequence[TransactionSpec],
                 commit_labels: Sequence[str]) -> str:
    """Final state of running the committed transactions one after another.

    The serial reference: a fresh replica of the object base, no locks, no
    undo, each committed transaction's operations executed in commit order.
    The label's first number is the spec's index.
    """
    replica = populate(workload, seed)
    protocol = PROTOCOLS[PROTOCOL](compile_schema(banking_schema()), replica)
    interpreter = Interpreter(replica)
    for label in commit_labels:
        index = int(label[:label.index(".")])
        for operation in specs[index].operations:
            protocol.execute(operation, interpreter)
    return canonical(store_state(replica))


def check_run(deployment: Deployment, seed: int,
              specs: Sequence[TransactionSpec], run: ClientRun,
              final: str) -> list[str]:
    """Gate failures of one finished run, while the deployment is still up.

    ``final`` is the canonical final store state.
    """
    problems = [f"unexpected error: {error}" for error in run.errors[:5]]
    labels = [label for _txn, label in deployment.control.commit_log()]
    if replay_state(deployment.workload, seed, specs, labels) != final:
        problems.append("sequential replay of the commit log does not "
                        "reproduce the final store state")
    for stream in deployment.replication_streams():
        if not stream["healthy"] or stream["lag_records"] != 0:
            problems.append(f"standby {stream['target']} unhealthy or lagging "
                            f"by {stream['lag_records']} records")
    return problems


def check_recovery(deployment: Deployment, final_state: str) -> tuple[list[str], Any]:
    """Recover the *closed* durability directory and compare with ``final_state``."""
    runner = RecoveryRunner(deployment.durability, banking_schema())
    result = runner.recover()
    recovered = canonical(store_state(result.store))
    problems = [] if recovered == final_state else [
        "the state recovered from the WAL differs from the final state"]
    return problems, result
