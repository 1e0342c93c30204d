"""The multi-threaded execution engine.

:class:`Engine` is the real-traffic counterpart of
:class:`~repro.txn.manager.TransactionManager`: the same protocol planning,
interpreter execution and undo-log recovery, but driven by OS threads with
*blocking* lock acquisition (:class:`~repro.engine.locks.BlockingLockManager`)
and a background deadlock detector
(:class:`~repro.engine.detector.DeadlockDetector`) instead of the
fail-fast :class:`~repro.errors.LockConflictError` behaviour.

Concurrency contract:

* one :class:`Engine` serves any number of threads;
* one :class:`~repro.engine.session.Session` (and its transaction) must be
  driven by a single thread at a time;
* strict two-phase locking — locks accumulate per transaction and are
  released only by commit or abort, so the commit order is a serialisation
  order and the engine records it (:attr:`commit_log`) for the harness's
  sequential-replay serializability check.

The engine is optionally *durable*: a :class:`~repro.wal.durability.Durability`
configuration attaches one :class:`~repro.wal.log.WriteAheadLog` per shard
(TAV-projected before-images write-through before every store write, redo
images and a PREPARED marker flushed at 2PC prepare), makes the
coordinator's decision log a durable file whose commit record remains the
serialisation point, and runs a
:class:`~repro.wal.checkpoint.CheckpointManager` that snapshots each shard
and truncates its log.  After a crash,
:class:`~repro.wal.recovery_runner.RecoveryRunner` rebuilds the committed
state with presumed abort for in-doubt transactions.

The engine is *sharded*: lock management, undo logging and (when the store
is a :class:`~repro.sharding.store.ShardedObjectStore`) the data itself are
partitioned across N shards by a :class:`~repro.sharding.router.ShardRouter`,
so unrelated transactions never touch the same mutex or condition variable.
A transaction that spans shards commits through two-phase commit
(:class:`~repro.sharding.twopc.TwoPhaseCommitCoordinator`): every touched
shard prepares its before-image log, one global commit record — appended
under the engine's commit mutex, which also orders :attr:`commit_log` —
fixes the serialisation point, and only then are the shards' undo logs
discarded and the locks released.  ``shards=1`` (the default) degenerates to
the familiar single-manager behaviour with the same code path.

Where the shards live is a *shard backend*'s business
(:mod:`repro.sharding.backends`), chosen once by the constructor:
in-process shards by default, or — ``shard_workers=N`` — one
``python -m repro.sharding.worker`` process per shard, each owning its
shard's store partition, lock manager, undo log and WAL, with locking,
execution and two-phase commit routed through the participant RPC layer
(:mod:`repro.sharding.rpc`).  The engine's own store then becomes a
*planning mirror*: single-shard operations ship to the owning worker in one
round trip (method bodies run on the worker's cores — the multi-core path)
and cross-shard operations execute here against the mirror, their writes
riding the next message to each shard.  Nothing in the transaction path
below asks which backend it got.  An unreachable worker is a typed
:class:`~repro.errors.ParticipantUnavailable`: a no vote during prepare,
a tolerated completion during phase two (the durable decision log already
fixed the outcome, and the worker finishes the transaction from it when
restarted — per-participant recovery).

The engine owns a detector thread, so it should be closed when done; it is a
context manager (``with Engine(protocol) as engine: ...``).
"""

from __future__ import annotations

import contextlib
import itertools
import random
import threading
import time
from array import array
from typing import Any, Callable, Hashable, Mapping, Sequence, TypeVar

from repro.analysis.sanitizer import (
    SanitizedStoreFront,
    Sanitizer,
    sanitize_from_env,
)
from repro.analysis.coverage import lock_covers
from repro.core.commutativity import EscrowUpdate, evaluate_escrow_delta
from repro.engine.detector import DeadlockDetector
from repro.engine.locks import USE_DEFAULT_TIMEOUT
from repro.engine.metrics import EngineMetrics
from repro.obs.tracing import Span, TraceContext, Tracer, write_chrome_trace
from repro.engine.session import Session
from repro.errors import (
    DeadlockError,
    LockTimeoutError,
    TransactionError,
    TwoPhaseCommitError,
)
from repro.locking.modes import EscrowMode
from repro.objects.interpreter import Interpreter, default_builtins
from repro.objects.oid import OID
from repro.objects.store import ObjectStore
from repro.sharding.backends import (
    LocalShardBackend,
    WorkerShardBackend,
    hot_entries,
)
from repro.sharding.locks import ShardedLockFront
from repro.sharding.recovery import ShardedRecoveryManager
from repro.sharding.router import HashShardRouter, ShardRouter
from repro.sharding.rpc import DEFAULT_PARTICIPANT_TIMEOUT, RemoteShardClient
from repro.sharding.twopc import TwoPhaseCommitCoordinator
from repro.sim.workload import TransactionSpec
from repro.txn.escrow import EscrowLedger
from repro.txn.operations import MethodCall, Operation
from repro.txn.plan_cache import PlanCache
from repro.txn.protocols.base import (
    ConcurrencyControlProtocol,
    LockPlan,
    LockRequestSpec,
)
from repro.txn.transaction import Transaction, TransactionState
from repro.wal.checkpoint import CheckpointManager, ShardCheckpoint
from repro.wal.durability import Durability
from repro.wal.log import DecisionLog, WriteAheadLog

T = TypeVar("T")

#: Bound on acquisition rounds of a data-dependent plan (a template plan is
#: final and takes one).  Each refresh only ever *adds* requests, and plans
#: are derived from a finite store, so two rounds normally reach the
#: fixpoint; the bound guards against a pathological workload growing the
#: store faster than it can be planned.
_MAX_REPLAN_ROUNDS = 16

#: The span of an untraced stage and the scope of an unsanitized operation:
#: one shared, stateless null context instead of one allocation per stage.
_NO_SCOPE = contextlib.nullcontext()


class Engine:
    """Runs transactions from many threads under strict 2PL with blocking locks."""

    def __init__(self, protocol: ConcurrencyControlProtocol, *,
                 builtins: Mapping[str, Callable[..., Any]] | None = None,
                 detection_interval: float = 0.02,
                 default_lock_timeout: float | None = None,
                 max_retries: int = 20,
                 backoff_base: float = 0.001,
                 backoff_cap: float = 0.05,
                 shards: int | None = None,
                 router: ShardRouter | None = None,
                 durability: Durability | None = None,
                 shard_workers: int | None = None,
                 worker_options: Mapping[str, Any] | None = None,
                 replicas: int = 0,
                 participant_timeout: float = DEFAULT_PARTICIPANT_TIMEOUT,
                 tracer: Tracer | None = None,
                 sanitize: bool | None = None,
                 escrow: bool = False) -> None:
        self._protocol = protocol
        self._store = protocol.store
        if sanitize is None:
            sanitize = sanitize_from_env()
        #: Runtime 2PL/write-ahead sanitizer, or ``None`` when not opted in.
        self._sanitizer: Sanitizer | None = (
            Sanitizer(protocol) if sanitize else None)
        if shard_workers is not None:
            if shard_workers < 1:
                raise ValueError(f"shard_workers must be at least 1, "
                                 f"got {shard_workers}")
            if builtins is not None:
                raise ValueError("custom builtins cannot cross the worker "
                                 "process boundary; register them in "
                                 "repro.sharding.worker instead")
            if shards is None:
                shards = shard_workers
            elif shards != shard_workers:
                raise ValueError(f"shards={shards} disagrees with "
                                 f"shard_workers={shard_workers}")
        self._router = self._resolve_router(shards, router)
        if (shard_workers is not None
                and self._router.num_shards != shard_workers):
            raise ValueError(f"shard_workers={shard_workers} disagrees with "
                             f"the router's {self._router.num_shards} shards")
        self._durability = durability if durability is not None else Durability.off()
        if replicas < 0:
            raise ValueError(f"replicas must be >= 0, got {replicas}")
        if replicas:
            if shard_workers is None:
                raise ValueError("standby replicas need shard worker mode "
                                 "(pass shard_workers)")
            if not self._durability.enabled:
                raise ValueError("standby replicas replay the WAL stream; "
                                 "run with durability lazy or fsync")
        #: Original begin timestamp per live incarnation (wait-die victim age).
        self._origins: dict[int, int] = {}
        #: Live sessions by transaction id — the registry the API dispatcher
        #: resolves command ``txn`` handles against.  Mutated by the owning
        #: session's thread only, via CPython-atomic dict operations.
        self._sessions: dict[int, Session] = {}
        self._api: Any = None
        self.metrics = EngineMetrics()
        self._decision_log: DecisionLog | None = None
        if self._durability.enabled:
            self._durability.prepare_directory(self._router.num_shards)
            self._decision_log = DecisionLog(
                self._durability.decisions_path,
                sync_on_commit=self._durability.fsync,
                group_window=self._durability.group_commit_window)
            self._decision_log.on_barrier = (
                lambda seconds: self.metrics.record_latency("barrier", seconds))
        #: Where the shards live — the only place topology is decided.  The
        #: backend owns the per-shard lock handles, undo logs, participants
        #: and logs; everything below talks to it without asking its kind.
        try:
            if shard_workers is None:
                self._backend: Any = LocalShardBackend(
                    protocol, self._router, durability=self._durability,
                    decision_log=self._decision_log,
                    default_lock_timeout=default_lock_timeout,
                    victim_key=self._victim_age, metrics=self.metrics)
            else:
                self._backend = WorkerShardBackend(
                    protocol, self._router, worker_options=worker_options,
                    replicas=int(replicas), durability=self._durability,
                    decision_log=self._decision_log,
                    default_lock_timeout=default_lock_timeout,
                    participant_timeout=participant_timeout,
                    victim_key=self._victim_age, metrics=self.metrics)
        except BaseException:
            if self._decision_log is not None:
                self._decision_log.close()
            raise
        self._locks: ShardedLockFront = self._backend.locks
        self._recovery: ShardedRecoveryManager = self._backend.recovery
        self._coordinator = TwoPhaseCommitCoordinator(
            self._backend.participants, decision_log=self._decision_log)
        #: The coordinator's tolerated-unavailable count lands in the metrics.
        self._coordinator.on_unavailable = self.metrics.record_unavailable
        execution_store: Any = self._backend.execution_store
        if self._sanitizer is not None:
            execution_store = SanitizedStoreFront(execution_store,
                                                  self._sanitizer)
        self._interpreter = Interpreter(execution_store, builtins=builtins)
        #: The builtins escrow-delta evaluation and snapshot interpreters
        #: share with the main interpreter (delta expressions may call them).
        self._builtins_arg = dict(builtins) if builtins else None
        self._merged_builtins = dict(default_builtins())
        if builtins:
            self._merged_builtins.update(builtins)
        #: Escrow admission was asked for; whether a ledger exists is the
        #: backend's call (without one, eligible requests count as fallbacks).
        self._escrow_requested = bool(escrow)
        self._escrow: EscrowLedger | None = (
            self._backend.enable_escrow(execution_store) if escrow else None)
        #: The planning entry point: compiled templates, else the planner.
        self._plans = PlanCache(protocol)
        #: Bumped by structural changes (create/delete); part of the
        #: snapshot-read cache key.
        self._structural_epoch = 0
        #: ``(key, interpreter)`` of the last built read-only snapshot.
        self._snapshot_cache: tuple[tuple[int, int], Interpreter] | None = None
        self._snapshot_mutex = threading.Lock()
        self._ids = itertools.count(1)
        self._max_retries = max_retries
        self._backoff_base = backoff_base
        self._backoff_cap = backoff_cap
        self._backoff_rng = random.Random(0x5eed)
        self._rng_mutex = threading.Lock()
        self._commit_mutex = threading.Lock()
        #: The commit log as two parallel columns — 8 bytes of id and one
        #: label reference per commit, not a tuple object each.
        self._commit_ids = array("q")
        self._commit_labels: list[str] = []
        #: Tracing: off unless a tracer is injected.  Root spans of live
        #: traced transactions, by txn id (session-thread confined).
        self._tracer = tracer
        self._traces: dict[int, Span] = {}
        self._detector = DeadlockDetector(
            self._locks, interval=detection_interval,
            on_deadlock=lambda victims: self.metrics.record_deadlocks(len(victims)))
        self._locks.on_block = self._detector.nudge
        self._closed = False
        self._detector.start()

    def _resolve_router(self, shards: int | None,
                        router: ShardRouter | None) -> ShardRouter:
        """One router for locks, undo logs and (if sharded) the store.

        A sharded store brings its own router; adopting it keeps lock and
        data placement aligned so a single-shard transaction really is
        single-shard.  Explicit ``shards``/``router`` arguments must agree
        with it (and with each other).
        """
        store_router = getattr(self._store, "router", None)
        if router is None:
            router = store_router
        elif store_router is not None and router is not store_router:
            raise ValueError("pass either a sharded store or a router, "
                             "not two different placements")
        if router is None:
            return HashShardRouter(shards if shards is not None else 1)
        if shards is not None and shards != router.num_shards:
            raise ValueError(f"shards={shards} disagrees with the router's "
                             f"{router.num_shards} shards")
        return router

    # -- topology (the backend's business) ------------------------------------------

    def failover(self, shard_id: int) -> dict[str, Any]:
        """Promote ``shard_id``'s standby and re-admit it as the primary
        (:meth:`WorkerShardBackend.failover`); returns the promotion report.

        Raises:
            TransactionError: not in worker mode, or no standby to promote.
        """
        self._ensure_open()
        return self._backend.failover(shard_id)

    def readmit_worker(self, shard_id: int,
                       address: tuple[str, int] | None = None) -> dict[str, Any]:
        """Re-admit a promoted or restarted worker into the running engine
        (:meth:`WorkerShardBackend.readmit_worker`); returns its hello."""
        self._ensure_open()
        return self._backend.readmit_worker(shard_id, address=address)

    def _touched_shards(self, txn: int) -> list[int]:
        """The shards ``txn`` locked or wrote on, sorted (2PC participant set).

        Every protocol's undo records sit on shards the transaction also
        locked (writes are always locked at instance/tuple/field granularity
        on the written instance's shard), but the union keeps the participant
        set correct for any future protocol that logs where it does not lock.
        """
        locked = self._locks.touched_view(txn)
        wrote = self._recovery.touched_view(txn)
        if not wrote:
            return sorted(locked) if locked else []
        return sorted(set().union(locked or (), wrote))

    def _victim_age(self, txn: int) -> Hashable:
        """Deadlock-victim age order: youngest *origin* first, id tie-break.

        A retried incarnation registered its first incarnation's timestamp in
        :attr:`_origins`, so it ranks as old as its original work (wait-die
        style) instead of always being the youngest — that is what stops a
        long transaction from being re-victimised on every retry.
        """
        return (self._origins.get(txn, txn), txn)

    # -- life cycle -------------------------------------------------------------

    def begin(self, label: str = "", origin: int | None = None,
              trace: object = None, *, read_only: bool = False) -> Session:
        """Start a transaction and return the session handle driving it.

        ``origin`` is the begin timestamp of the transaction's *first*
        incarnation; retrying callers pass the original so deadlock victim
        selection ranks the retry by when its work actually began
        (:meth:`run_transaction` does this automatically).  A non-``None``
        origin also marks the incarnation as a retry in the metrics — that
        is how retries driven by *remote* clients (whose retry loop runs on
        the other side of a connection) still show up in the engine's
        numbers.

        ``trace`` is an optional wire trace context from the client (a
        ``Begin`` frame's ``trace`` field): when the engine has a tracer,
        the transaction joins that trace unconditionally — whoever started
        it already made the sampling call.  Without a client context, a
        tracer samples locally (``sample_every``).
        """
        self._ensure_open()
        transaction = Transaction(txn_id=next(self._ids), origin=origin,
                                  read_only=read_only)
        self._origins[transaction.txn_id] = transaction.origin
        self.metrics.record_begin()
        if origin is not None:
            self.metrics.record_retry()
        session = Session(self, transaction, label=label)
        self._sessions[transaction.txn_id] = session
        if self._tracer is not None:
            context = TraceContext.from_wire(trace)
            if context is not None or self._tracer.should_sample():
                trace_id = (context.trace_id if context is not None
                            else self._tracer.new_trace_id())
                parent = context.parent if context is not None else None
                self._traces[transaction.txn_id] = self._tracer.begin_span(
                    "txn", trace_id, parent=parent, category="txn",
                    args={"txn": transaction.txn_id, "label": label})
        return session

    def commit(self, transaction: Transaction, label: str = "") -> None:
        """Commit through two-phase commit over the touched shards.

        Phase one prepares the before-image log of every shard the
        transaction locked or wrote on; the global commit record (and the
        :attr:`commit_log` entry — both under the commit mutex, so their
        orders agree) then fixes the serialisation point; phase two discards
        the shards' undo logs.  The transaction is marked ``COMMITTED``
        *before* any lock is released, so a racing observer can never see an
        ACTIVE transaction whose writes are already unprotected.

        Raises:
            TwoPhaseCommitError: a shard vetoed prepare.  The transaction has
                been aborted on every touched shard (all before-images
                restored) before the error propagates.
        """
        transaction.ensure_active()
        txn = transaction.txn_id
        touched = self._touched_shards(txn)
        root = self._traces.get(txn)
        if transaction.read_only and not touched:
            # Snapshot-served: no locks, no undo state, nothing to prepare
            # and no serialisation point to claim — the transaction leaves
            # no commit_log entry (sequential replay orders writers only).
            transaction.state = TransactionState.COMMITTED
            self._origins.pop(txn, None)
            self._sessions.pop(txn, None)
            self.metrics.record_commit()
            if root is not None:
                self._traces.pop(txn, None)
                self._tracer.end_span(root)
            return
        with self._maybe_span(root, "commit", "txn",
                              {"shards": list(touched)}) as commit_span:
            self._backend.stage_prepare(txn, touched)
            try:
                if commit_span is None:
                    self._coordinator.prepare(txn, touched)
                else:
                    self._coordinator.prepare(txn, touched,
                                              tracer=self._tracer,
                                              context=commit_span.context())
            except TwoPhaseCommitError:
                self.abort(transaction)
                raise
            with self._maybe_span(commit_span, "decision-barrier", "2pc"):
                with self._commit_mutex:
                    self._commit_ids.append(txn)
                    self._commit_labels.append(label or f"T{txn}")
                    self._coordinator.record_commit(txn, touched)
                # With group commit the record above is not yet fsynced; the
                # wait happens *outside* the commit mutex so concurrent
                # committers share one barrier.  Without group commit this
                # returns immediately.
                self._coordinator.wait_commit_durable()
            transaction.state = TransactionState.COMMITTED
            with self._maybe_span(commit_span, "phase-two", "2pc") as two:
                self._coordinator.complete_commit(
                    txn, touched,
                    trace=None if two is None else two.context().to_wire())
            self._backend.committed(txn)
            with self._maybe_span(commit_span, "lock-release", "lock"):
                if self._sanitizer is not None:
                    self._sanitizer.note_release(txn)
                self._locks.release_all(txn)
        self._origins.pop(txn, None)
        self._sessions.pop(txn, None)
        self.metrics.record_commit(cross_shard=len(touched) > 1)
        if root is not None:
            self._traces.pop(txn, None)
            self._tracer.end_span(root)

    def abort(self, transaction: Transaction) -> None:
        """Abort: restore before-images on every touched shard, then unlock.

        The undo runs while the locks are still held (strict 2PL — nobody
        may see the dirty values), the transaction is marked ``ABORTED``,
        and only then are the locks released and doom flags cleared,
        mirroring the commit-side ordering.
        """
        if transaction.is_finished:
            raise TransactionError(f"{transaction} is already finished")
        txn = transaction.txn_id
        touched = self._touched_shards(txn)
        root = self._traces.get(txn)
        with self._maybe_span(root, "abort", "txn",
                              {"shards": list(touched)}) as abort_span:
            self._coordinator.abort(
                txn, touched,
                trace=None if abort_span is None
                else abort_span.context().to_wire())
            self._backend.aborted(txn)
            transaction.state = TransactionState.ABORTED
            if self._sanitizer is not None:
                self._sanitizer.note_release(txn)
            self._locks.release_all(txn)
        self._origins.pop(txn, None)
        self._sessions.pop(txn, None)
        self.metrics.record_abort()
        if root is not None:
            self._traces.pop(txn, None)
            self._tracer.end_span(root)

    def close(self) -> None:
        """Stop the detector and the shard backend (checkpointer, workers,
        shard logs); close the decision log.  Idempotent."""
        if not self._closed:
            self._closed = True
            self._detector.stop()
            self._backend.close()
            if self._decision_log is not None:
                self._decision_log.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def sanitizer(self) -> Sanitizer | None:
        """The runtime sanitizer when sanitized execution is on, else ``None``.

        Stress tests assert ``engine.sanitizer.violations == 0`` after a
        sanitized run.
        """
        return self._sanitizer

    # -- executing operations ----------------------------------------------------

    def perform(self, transaction: Transaction, operation: Operation,
                timeout: float | None | object = USE_DEFAULT_TIMEOUT) -> list[Any]:
        """Plan, lock (blocking), log before-images and execute ``operation``.

        A plan served by a compiled template is final and is acquired in
        one round.  A data-dependent plan is re-derived after every batch
        of acquisitions until it stops growing, exactly like the simulator:
        data may change while the transaction is blocked, and the refreshed
        plan may need locks the stale one did not know about.

        Raises:
            DeadlockError: this transaction was chosen as a deadlock victim
                while blocked; the caller must abort it.
            LockTimeoutError: a lock request expired its timeout; the caller
                should abort (strict 2PL keeps all earlier locks).
        """
        transaction.ensure_active()
        root = self._traces.get(transaction.txn_id)
        if transaction.read_only:
            results = self._perform_snapshot(transaction, operation, root)
            if results is not None:
                return results
            # No snapshot source in this process: the ordinary locked path.
        plan, final = self._plan(operation)
        transaction.stats.control_points += plan.control_points
        if self._escrow is not None and not transaction.read_only:
            results = self._maybe_escrow(transaction, operation, plan,
                                         timeout, root)
            if results is not None:
                return results
        elif (self._escrow_requested and isinstance(operation, MethodCall)
              and self._escrow_update_for(operation) is not None):
            self.metrics.record_escrow_fallback()
        shard_id = self._backend.fused_shard(plan)
        if shard_id is not None:
            results = self._perform_fused(transaction, operation, plan,
                                          shard_id, timeout, root)
            if results is not None:
                return results
            # Fallback: the shard's replan escaped it.  Its partial
            # acquisitions were recorded; the path below re-requests them
            # (an immediate grant) and runs the operation here.
        plan = self._acquire_plan(transaction, plan, final, operation,
                                  timeout, root=root)
        projections = self._protocol.undo_projections(plan)
        for oid, fields in projections:
            self._recovery.log_before_image(transaction.txn_id, oid, fields)
        if self._sanitizer is not None:
            self._sanitizer.note_images(transaction.txn_id, projections)
            scope: Any = self._sanitizer.operation_scope(
                transaction.txn_id, plan)
        else:
            scope = _NO_SCOPE
        with self._maybe_span(root, f"execute:{operation.method}", "exec"), \
                scope, self._backend.executing(transaction.txn_id,
                                               projections):
            results = self._protocol.execute(operation, self._interpreter)
        return self._performed(transaction, operation, results)

    def _performed(self, transaction: Transaction, operation: Operation,
                   results: list[Any]) -> list[Any]:
        """Book one executed operation on the transaction and the metrics."""
        transaction.stats.operations += 1
        self.metrics.record_operation()
        transaction.executed.append(operation)
        transaction.results.extend(results)
        return results

    def _acquire_plan(self, transaction: Transaction, plan: LockPlan,
                      final: bool, operation: Operation,
                      timeout: float | None | object, *,
                      root: Span | None = None) -> LockPlan:
        """Acquire ``plan``; refresh a data-dependent one until it stops
        growing.  Returns the plan whose receivers the operation runs on."""
        acquired: set[tuple[Any, Any]] = set()
        pending = [(request.resource, request.mode) for request in plan.requests]
        for _ in range(_MAX_REPLAN_ROUNDS):
            # A whole round goes to the lock front at once: it groups the
            # requests by shard and ships each group the cheapest way the
            # shard's handle supports (one acquire-batch RPC per worker
            # shard instead of one round trip per lock).
            if pending:
                self._acquire_round(transaction, pending, timeout, root)
            if final:
                return plan
            acquired.update(pending)
            refreshed, _template = self._plans.plan(operation)
            extra = tuple(r for r in refreshed.requests
                          if (r.resource, r.mode) not in acquired)
            final = not extra
            pending = [(request.resource, request.mode) for request in extra]
            plan = LockPlan(requests=plan.requests + extra,
                            control_points=plan.control_points,
                            receivers=refreshed.receivers,
                            undo_projections=refreshed.undo_projections)
        raise TransactionError(
            f"lock plan of {operation!r} did not converge within "
            f"{_MAX_REPLAN_ROUNDS} refresh rounds")

    def _lock_failed(self, error: LockTimeoutError | DeadlockError) -> None:
        """Account a lock wait that ended in a timeout or a victim abort."""
        if isinstance(error, LockTimeoutError):
            self.metrics.record_timeout()
        self.metrics.record_requests(1, error.waited)

    def _granted(self, transaction: Transaction,
                 pairs: Sequence[tuple[Any, Any]],
                 waits: Sequence[float]) -> None:
        """Account granted ``(resource, mode)`` requests and their waits
        (metrics, stats, sanitizer) — the uncontended ones in one call."""
        blocked = [waited for waited in waits if waited > 0.0]
        transaction.stats.lock_requests += len(pairs)
        transaction.stats.waits += len(blocked)
        self.metrics.record_requests(len(pairs) - len(blocked), 0.0)
        for waited in blocked:
            self.metrics.record_requests(1, waited)
        if self._sanitizer is not None:
            for resource, mode in pairs:
                self._sanitizer.note_acquire(transaction.txn_id, resource,
                                             mode)

    def _acquire_round(self, transaction: Transaction,
                       pairs: Sequence[tuple[Any, Any]],
                       timeout: float | None | object,
                       root: Span | None) -> None:
        """One round of ``(resource, mode)`` lock requests, shipped to the
        lock front at once.

        The ``lock-batch`` span covers the whole blocking call — its
        duration *is* the round's critical-path cost — and names the
        resources; the measured wait (summed over the batch) lands in its
        args so queueing time is separable from grant overhead.  On a
        mid-batch deadlock/timeout the caller aborts, and ``release_all``
        (the front marked the shards touched before any request went out)
        frees whatever was granted.
        """
        try:
            with self._maybe_span(root, "lock-batch", "lock") as span:
                trace = None
                if span is not None:
                    span.args["resources"] = [str(resource)
                                              for resource, _mode in pairs]
                    trace = span.context().to_wire()
                waits = self._locks.acquire_many(transaction.txn_id, pairs,
                                                 timeout, trace=trace)
                if span is not None:
                    span.args["waited_ms"] = round(sum(waits) * 1000, 3)
        except (LockTimeoutError, DeadlockError) as error:
            transaction.stats.lock_requests += len(pairs)
            self._lock_failed(error)
            raise
        self._granted(transaction, pairs, waits)

    # -- the analysis's runtime payoff ---------------------------------------------

    def _plan(self, operation: Operation) -> tuple[LockPlan, bool]:
        """The operation's lock plan and whether it is final (served by a
        compiled template); counted once per locked operation."""
        plan, final = self._plans.plan(operation)
        self.metrics.record_plan_cache(final)
        return plan, final

    def _escrow_update_for(self, operation: MethodCall) -> EscrowUpdate | None:
        """The proved counter-update shape of this call, or ``None``.

        Resolved against the receiver's *proper* class — that is what the
        interpreter's late binding would execute — so a prefixed send
        (``as_class``) stays on the ordinary path.
        """
        if operation.as_class is not None:
            return None
        compiled_class = self._protocol.compiled.classes.get(
            operation.oid.class_name)
        if compiled_class is None:
            return None
        return compiled_class.escrow_update(operation.method)

    def _escrowed_plan(self, plan: LockPlan, oid: OID,
                       update: EscrowUpdate) -> LockPlan | None:
        """The plan with its write-covering requests demoted to escrow mode.

        The substitution is request-for-request on the *protocol's own*
        granules — the TAV instance lock, the relational tuple, the field
        lock — so escrow admissions conflict with ordinary work on exactly
        the resources the ordinary plan would have claimed exclusively,
        and commute only with each other (``escrow_compatible``).  A plan
        in which nothing covers the update's field (it should not exist
        for a proved update) yields ``None``: no escrow admission.
        """
        compiled = self._protocol.compiled
        schema = compiled.schema
        mode = EscrowMode(update.method, update.field)
        requests: list[LockRequestSpec] = []
        changed = False
        for request in plan.requests:
            if lock_covers(request.resource, request.mode, oid=oid,
                           class_name=oid.class_name, field=update.field,
                           is_write=True, schema=schema, compiled=compiled):
                requests.append(LockRequestSpec(resource=request.resource,
                                                mode=mode, note="escrow"))
                changed = True
            else:
                requests.append(request)
        if not changed:
            return None
        return LockPlan(requests=tuple(requests),
                        control_points=plan.control_points,
                        receivers=(), undo_projections=())

    def _maybe_escrow(self, transaction: Transaction, operation: Operation,
                      plan: LockPlan, timeout: float | None | object,
                      root: Span | None) -> list[Any] | None:
        """Admit a proved counter update under escrow locks, or ``None``.

        ``None`` means *take the ordinary path* — the fallback direction is
        always safe.  An admission acquires the substituted plan (escrow
        mode on the write-covering granules, intentions unchanged), merges
        the delta through the ledger (WAL-atomically when durable) and
        skips the interpreter entirely: the proof already reduced the
        method body to ``field += delta``.
        """
        if not isinstance(operation, MethodCall):
            return None
        update = self._escrow_update_for(operation)
        if update is None:
            return None
        oid = operation.oid
        txn = transaction.txn_id
        try:
            delta = evaluate_escrow_delta(update, tuple(operation.arguments),
                                          self._merged_builtins)
        except Exception:
            self.metrics.record_escrow_fallback()
            return None
        if any(record.oid == oid and update.field in record.values
               for record in self._recovery.log_of(txn)):
            # An ordinary write already imaged this field: abort restores
            # that image *first*, which would erase a later delta from the
            # inverse pass's baseline.  The exclusive path is safe (its new
            # image would embed any earlier deltas); the reverse order is
            # not, so it is the one we refuse.
            self.metrics.record_escrow_fallback()
            return None
        escrow_plan = self._escrowed_plan(plan, oid, update)
        if escrow_plan is None:
            self.metrics.record_escrow_fallback()
            return None
        self._acquire_round(
            transaction, [(request.resource, request.mode)
                          for request in escrow_plan.requests], timeout, root)
        if self._sanitizer is not None:
            self._sanitizer.note_images(txn, ((oid, (update.field,)),))
            scope: Any = self._sanitizer.operation_scope(txn, escrow_plan)
        else:
            scope = _NO_SCOPE
        with self._maybe_span(root, f"escrow:{operation.method}",
                              "exec"), scope:
            self._escrow.apply(txn, oid, update.field, delta)
        self.metrics.record_escrow_admit()
        return self._performed(transaction, operation, [None])

    def _perform_snapshot(self, transaction: Transaction,
                          operation: Operation,
                          root: Span | None) -> list[Any] | None:
        """Serve a read-only transaction's operation from the snapshot.

        Zero lock acquisitions, zero undo images: the operation executes
        against a committed-state copy shared by every read-only
        transaction at the same ``(commits, structural epoch)`` point.
        Returns ``None`` when the backend has no snapshot source (the
        partitions live elsewhere) — the caller falls through to the
        ordinary locked path.
        """
        if self._backend.snapshot_source is None:
            self.metrics.record_snapshot_fallback()
            return None
        interpreter = self._snapshot_interpreter()
        with self._maybe_span(root, f"snapshot:{operation.method}", "exec"):
            results = self._protocol.execute(operation, interpreter)
        self.metrics.record_snapshot_read()
        return self._performed(transaction, operation, results)

    def _snapshot_interpreter(self) -> Interpreter:
        """The cached committed-state interpreter for the current point.

        Keyed by ``(len(commit_log), structural epoch)`` — a new commit or
        a create/delete invalidates; reads between commits share one copy.
        Built under the commit mutex (no commit can land mid-copy) with
        the escrow ledger frozen (no delta can apply or revert mid-copy).
        """
        with self._snapshot_mutex:
            with self._commit_mutex:
                key = (len(self._commit_ids), self._structural_epoch)
                cached = self._snapshot_cache
                if cached is not None and cached[0] == key:
                    return cached[1]
                frozen = (self._escrow.frozen() if self._escrow is not None
                          else contextlib.nullcontext())
                with frozen:
                    snapshot = self._build_snapshot_store()
            interpreter = Interpreter(_ReadOnlyStoreFront(snapshot),
                                      builtins=self._builtins_arg)
            self._snapshot_cache = (key, interpreter)
            return interpreter

    def _build_snapshot_store(self) -> ObjectStore:
        """A committed-state copy: the live store minus unfinished writes.

        The fuzzy copy may contain values of transactions still in flight
        (or mid-abort); they are rolled back exactly the way an abort
        would — oldest before-image per cell first, then the inverse of
        every unresolved escrow delta — so the result is the state all
        decided transactions produced and nobody else touched.
        """
        snapshot = ObjectStore(self._store.schema)
        for oid, class_name, values in sorted(
                self._backend.snapshot_source.snapshot_instances(),
                key=lambda entry: entry[0].number):
            snapshot.restore_instance(oid, class_name, dict(values))
        restored: set[tuple[OID, str]] = set()
        for txn in sorted(self._recovery.pending_transactions()):
            if self._txn_settled(txn):
                continue
            for record in self._recovery.log_of(txn):
                for name, value in record.values.items():
                    cell = (record.oid, name)
                    if cell in restored or record.oid not in snapshot:
                        continue
                    restored.add(cell)
                    snapshot.get(record.oid).set(name, value)
        if self._escrow is not None:
            for txn, entries in self._escrow.all_entries().items():
                if self._txn_settled(txn):
                    continue
                for _shard, oid, field, delta in entries:
                    if oid not in snapshot:
                        continue
                    instance = snapshot.get(oid)
                    instance.set(field, instance.get(field) - delta)
        return snapshot

    def _txn_settled(self, txn: int) -> bool:
        """Whether ``txn``'s writes are decided-committed (keep them) rather
        than in flight or aborting (roll them back).  A committed-but-not-
        yet-forgotten transaction reports ``COMMITTED``; everything else —
        active, blocked, mid-abort, or already gone — rolls back, which for
        a gone transaction is vacuous (its records were discarded)."""
        session = self._sessions.get(txn)
        return (session is not None
                and session.transaction.state is TransactionState.COMMITTED)

    def _perform_fused(self, transaction: Transaction, operation: Operation,
                       plan: LockPlan, shard_id: int,
                       timeout: float | None | object,
                       root: Span | None) -> list[Any] | None:
        """Let the owning shard plan, lock and run the operation in one trip.

        Returns the results, or ``None`` when the shard answered the
        fallback reply (its replan escaped it) — either way the locks it
        granted are booked here first, so abort and the ordinary path both
        see them.
        """
        try:
            with self._maybe_span(root, f"execute-fused:{operation.method}",
                                  "exec") as span:
                outcome = self._backend.execute_fused(
                    transaction.txn_id, shard_id, operation, plan, timeout,
                    trace=None if span is None else span.context().to_wire())
        except (LockTimeoutError, DeadlockError) as error:
            self._lock_failed(error)
            raise
        self._granted(transaction,
                      [(resource, mode)
                       for resource, mode, _waited in outcome.resources],
                      [waited for _resource, _mode, waited in outcome.resources])
        if outcome.fallback:
            return None
        if self._sanitizer is not None:
            self._sanitizer.note_images(transaction.txn_id, outcome.images)
        return self._performed(transaction, operation, outcome.results)

    # -- retrying wrappers --------------------------------------------------------

    def run_transaction(self, work: Callable[[Session], T], *,
                        label: str = "",
                        max_retries: int | None = None) -> T:
        """Run ``work(session)`` transactionally with automatic retry.

        The session is committed when ``work`` returns without having
        finished it explicitly.  On :class:`DeadlockError` or
        :class:`LockTimeoutError` the transaction is aborted and retried
        after a capped exponential backoff with jitter; any other exception
        aborts and propagates.

        A retry begins a fresh transaction (a new identifier — its locks and
        undo state must not be confused with the aborted incarnation's) but
        *carries the original begin timestamp* (``origin``), and victim
        selection ranks transactions by that origin.  An aborted-and-retried
        transaction therefore keeps its seniority instead of re-entering as
        the youngest — the wait-die-style fix for retry starvation, where a
        long transaction under contention was re-victimised forever.
        """
        retries = self._max_retries if max_retries is None else max_retries
        attempt = 0
        origin: int | None = None
        while True:
            session = self.begin(label=label, origin=origin)
            origin = session.transaction.origin
            session.transaction.stats.restarts = attempt
            try:
                result = work(session)
                if session.transaction.is_active:
                    session.commit()
                return result
            except (DeadlockError, LockTimeoutError):
                self._abort_quietly(session)
                attempt += 1
                if attempt > retries:
                    raise
                # begin() counts the retry when the next incarnation passes
                # its origin — the same accounting remote retry loops get.
                time.sleep(self._backoff(attempt))
            except BaseException:
                self._abort_quietly(session)
                raise

    def run_spec(self, spec: TransactionSpec, *,
                 max_retries: int | None = None) -> list[Any]:
        """Replay one workload :class:`TransactionSpec` with retry."""

        def replay(session: Session) -> list[Any]:
            results: list[Any] = []
            for operation in spec.operations:
                results.append(session.perform(operation))
            return results

        return self.run_transaction(replay, label=spec.label,
                                    max_retries=max_retries)

    def _abort_quietly(self, session: Session) -> None:
        if not session.transaction.is_finished:
            self.abort(session.transaction)

    def _backoff(self, attempt: int) -> float:
        delay = min(self._backoff_cap, self._backoff_base * (2 ** (attempt - 1)))
        with self._rng_mutex:
            jitter = self._backoff_rng.uniform(0.5, 1.0)
        return delay * jitter

    # -- durability ---------------------------------------------------------------

    def checkpoint(self) -> list[ShardCheckpoint]:
        """Take a fuzzy checkpoint of every shard now (durability must be on).

        Raises:
            TransactionError: the engine runs without durability.
        """
        return self._backend.checkpoint()

    def create_instance(self, class_name: str, **field_values: Any) -> Any:
        """Create an instance mid-epoch, structurally durable when logging is on.

        The store creation is followed by an
        :class:`~repro.wal.records.InstanceCreated` record in the owning
        shard's WAL (barriered under ``fsync``), so recovery rebuilds the
        instance even when no checkpoint ever saw it — plain ``store.create``
        used to be durable only through the next checkpoint.

        Raises:
            TransactionError: in worker mode — the partitions live in other
                processes and the workers do not serve structural changes.
        """
        instance = self._backend.create_instance(class_name, **field_values)
        self._note_structural_change()
        return instance

    def delete_instance(self, oid: OID) -> None:
        """Delete an instance mid-epoch, structurally durable when logging is on.

        The :class:`~repro.wal.records.InstanceDeleted` record is appended
        (and barriered under ``fsync``) *before* the store mutation, so a
        crash between the two replays the delete instead of resurrecting
        the instance.

        Raises:
            TransactionError: in worker mode (see :meth:`create_instance`).
        """
        self._backend.delete_instance(oid)
        self._note_structural_change()

    def _note_structural_change(self) -> None:
        """Population changed: cached snapshots are stale."""
        with self._snapshot_mutex:
            self._structural_epoch += 1
            self._snapshot_cache = None

    @property
    def durability(self) -> Durability:
        """The durability configuration this engine runs under."""
        return self._durability

    @property
    def checkpointer(self) -> CheckpointManager | None:
        """The checkpoint manager, when durability is on."""
        return self._backend.checkpointer

    @property
    def wals(self) -> tuple[WriteAheadLog | None, ...]:
        """The per-shard write-ahead logs (``None`` entries when off)."""
        return self._backend.wals

    @property
    def wal_bytes_written(self) -> int:
        """Total bytes appended to every shard WAL plus the decision log
        (shard WALs living in worker processes are asked over RPC)."""
        total = self._backend.wal_bytes()
        if self._decision_log is not None:
            total += self._decision_log.bytes_written
        return total

    # -- observability ------------------------------------------------------------

    def _maybe_span(self, parent: Span | None, name: str, category: str,
                    args: dict[str, Any] | None = None) -> Any:
        """A tracer span parented to ``parent``, or a null context.

        The single ``parent is None`` check is the whole cost of tracing
        when it is off (or the transaction was not sampled) — every
        instrumented stage goes through here.
        """
        if parent is None:
            return _NO_SCOPE
        return self._tracer.span(name, parent.trace_id,
                                 parent=parent.span_id, category=category,
                                 args=args)

    @property
    def tracer(self) -> Tracer | None:
        """The engine's span recorder, when tracing is enabled."""
        return self._tracer

    def trace_context_for(self, txn: int) -> TraceContext | None:
        """The root-span context of ``txn``, when that transaction is traced.

        The API dispatcher uses this to parent its per-command spans to the
        transaction the command operates on.
        """
        root = self._traces.get(txn)
        return None if root is None else root.context()

    def collect_trace(self) -> list[Span]:
        """Every span recorded so far: the engine's own plus whatever the
        backend's shards recorded in their own processes."""
        spans: list[Span] = []
        if self._tracer is not None:
            spans.extend(self._tracer.spans)
        spans.extend(self._backend.drain_spans())
        return spans

    def export_trace(self, path: Any,
                     extra_spans: Sequence[Span] = ()) -> int:
        """Write the collected spans as Chrome-trace JSON; returns the event
        count.  ``extra_spans`` lets a caller (the socket server, a client
        harness) add spans recorded outside this engine."""
        spans = self.collect_trace()
        spans.extend(extra_spans)
        return write_chrome_trace(path, spans)

    def cluster_metrics(self) -> dict[str, Any]:
        """One cluster-wide metrics snapshot: :meth:`EngineMetrics.snapshot`
        with whatever the backend's shards measured out of process (worker
        WAL bytes and barrier histograms) merged in."""
        return self._backend.merge_cluster_metrics(self.metrics.snapshot())

    def stats(self, top: int = 8) -> dict[str, Any]:
        """The per-shard breakdown behind the flat metrics snapshot.

        Per shard: deadlock victims doomed there, WAL bytes, and the
        hottest resources by accumulated lock-wait time; plus the merged
        cluster-wide hot list (top ``top``), standby health and the
        coordinator's tolerated-unavailable count.
        """
        victim_counts = self._locks.victim_counts()
        per_shard, hot = self._backend.shard_stats(top, victim_counts)
        hot.sort(key=lambda entry: entry[2], reverse=True)
        return {
            "shards": per_shard,
            "replicas": self._backend.replicas,
            "failovers": self._backend.failovers,
            "standbys": self._backend.standby_stats(),
            "hot_resources": hot_entries(hot[:max(0, top)]),
            "deadlock_victims": {
                str(shard_id): count
                for shard_id, count in enumerate(victim_counts)},
            "unavailable_completions":
                self._coordinator.unavailable_completions,
            "plan_cache": self._plans.stats.as_dict(),
            "escrow": {
                "enabled": self._escrow is not None,
                "requested": self._escrow_requested,
                "applied": 0 if self._escrow is None else self._escrow.applied,
            },
        }

    # -- the command layer --------------------------------------------------------

    def store_state(self) -> dict[str, dict[str, Any]]:
        """Every live instance's fields, keyed by OID string — the ground
        truth for verification and the ``StoreState`` control plane, read
        from wherever the backend's authoritative partitions live."""
        return self._backend.store_state()

    @property
    def backend(self) -> Any:
        """The shard backend (:mod:`repro.sharding.backends`) — topology,
        worker processes and per-shard state live there."""
        return self._backend

    @property
    def shard_clients(self) -> tuple[RemoteShardClient, ...] | None:
        """The per-shard RPC clients in worker mode (``None`` otherwise)."""
        return self._backend.shard_clients

    @property
    def standby_clients(self) -> tuple[tuple[RemoteShardClient, ...], ...]:
        """Per-shard standby RPC clients (empty without replicas)."""
        return self._backend.standby_clients

    @property
    def replicas(self) -> int:
        """Standby workers per shard this engine was built with."""
        return self._backend.replicas

    @property
    def failovers(self) -> int:
        """How many standby promotions this engine has performed."""
        return self._backend.failovers

    def session_for(self, txn_id: int) -> Session | None:
        """The live session driving ``txn_id``, or ``None`` once finished.

        This is how the API dispatcher resolves the transaction handles its
        commands carry — clients reference transactions by identifier, never
        by object.
        """
        return self._sessions.get(txn_id)

    @property
    def api(self) -> Any:
        """The engine's canonical in-process API connection.

        :class:`~repro.engine.session.Session` routes every operation
        through it, so in-process callers and socket clients exercise the
        same command layer.  Created lazily (and without admission control —
        the engine never refuses its own sessions; servers put an
        :class:`~repro.api.admission.AdmissionController` in front of their
        *own* dispatcher).
        """
        if self._api is None:
            from repro.api.connection import InProcessConnection

            self._api = InProcessConnection(self)
        return self._api

    # -- introspection ------------------------------------------------------------

    @property
    def protocol(self) -> ConcurrencyControlProtocol:
        """The concurrency-control protocol in use."""
        return self._protocol

    @property
    def lock_manager(self) -> ShardedLockFront:
        """The sharded blocking lock front (tests, detector)."""
        return self._locks

    @property
    def recovery(self) -> ShardedRecoveryManager:
        """The sharded recovery manager (per-shard undo logs)."""
        return self._recovery

    @property
    def coordinator(self) -> TwoPhaseCommitCoordinator:
        """The two-phase commit coordinator (decision log, participants)."""
        return self._coordinator

    @property
    def router(self) -> ShardRouter:
        """The shard router shared by locks, undo logs and a sharded store."""
        return self._router

    @property
    def num_shards(self) -> int:
        """How many shards the engine partitions over."""
        return self._router.num_shards

    @property
    def interpreter(self) -> Interpreter:
        """The interpreter executing method bodies."""
        return self._interpreter

    @property
    def plan_cache(self) -> PlanCache:
        """The planning entry point the hot path plans through (compiled
        templates, else ``protocol.plan()``), with its counters."""
        return self._plans

    @property
    def escrow_ledger(self) -> EscrowLedger | None:
        """The escrow ledger when escrow admission is on (in-process only)."""
        return self._escrow

    @property
    def detector(self) -> DeadlockDetector:
        """The background deadlock detector."""
        return self._detector

    @property
    def commit_log(self) -> tuple[tuple[int, str], ...]:
        """``(txn_id, label)`` pairs in commit order (a serialisation order)."""
        with self._commit_mutex:
            return tuple(zip(self._commit_ids, self._commit_labels))

    def _ensure_open(self) -> None:
        if self._closed:
            raise TransactionError("the engine has been closed")


class _ReadOnlyStoreFront:
    """The store a snapshot-served read-only transaction executes against.

    Wraps the engine's committed-state copy: reads pass through, writes
    are refused — ``read_only`` is a promise the engine enforces here
    rather than trusts.  The copy is shared by every read-only transaction
    at the same snapshot point, so a successful write would corrupt them
    all; refusing is both the API contract and the cache's integrity.
    """

    def __init__(self, store: ObjectStore) -> None:
        self._store = store

    @property
    def schema(self) -> Any:
        return self._store.schema

    def __contains__(self, oid: OID) -> bool:
        return oid in self._store

    def get(self, oid: OID) -> Any:
        return self._store.get(oid)

    def read_field(self, oid: OID, field_name: str) -> Any:
        return self._store.read_field(oid, field_name)

    def write_field(self, oid: OID, field_name: str, value: Any) -> None:
        raise TransactionError(
            f"read-only transaction attempted to write {oid}.{field_name}; "
            f"begin the transaction without read_only to update")

    def __getattr__(self, name: str) -> Any:
        return getattr(self._store, name)
