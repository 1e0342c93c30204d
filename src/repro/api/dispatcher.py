"""The dispatcher: the one place where API commands meet the engine.

A :class:`Dispatcher` owns the only reference any client path has to the
:class:`~repro.engine.engine.Engine`.  Every front end — the in-process
connection, the socket server, the throughput harness — funnels typed
requests (:mod:`repro.api.messages`) into :meth:`dispatch` and gets typed
replies back; no live engine object ever crosses the API boundary.  That is
what makes the engine *servable*: a command that can be dispatched here can
be serialised, shipped over a socket, and dispatched identically on the
other side.

Thread safety: ``dispatch`` may be called from any number of threads at
once.  The engine primitives it drives are already thread-safe; the
dispatcher's own state is only the set of transactions that hold admission
slots, guarded by one small mutex.  Per-transaction sequencing (one session
is a single locus of control) remains the *caller's* contract, exactly as it
is for :class:`~repro.engine.session.Session`.

Failure model: every :class:`~repro.errors.ReproError` becomes an
:class:`~repro.api.messages.ErrorReply` (or
:class:`~repro.api.messages.Overloaded`) carrying the class's stable code —
dispatch itself only raises on programming errors.  A deadlock or lock
timeout does **not** implicitly abort the transaction: the client owns the
abort decision, exactly like an in-process caller under strict 2PL (the
socket server aborts whatever a *vanished* client left behind — see
:mod:`repro.api.server`).
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.api.admission import AdmissionController
from repro.api.messages import (
    Abort,
    AbortReply,
    Begin,
    BeginReply,
    Call,
    CallDomain,
    CallExtent,
    CallSome,
    Commit,
    CommitLog,
    CommitReply,
    Describe,
    ErrorReply,
    InfoReply,
    MetricsSnapshot,
    Ping,
    ProgramReply,
    Reply,
    Request,
    ResultReply,
    RunProgram,
    Stats,
    StoreState,
    operation_from_request,
    reply_for_error,
)
from repro.errors import ProtocolError, ReproError, TransactionError
from repro.txn.operations import Operation

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.engine.engine import Engine
    from repro.engine.session import Session


class Dispatcher:
    """Executes typed API requests against the engine it guards."""

    def __init__(self, engine: "Engine", *,
                 admission: AdmissionController | None = None,
                 info: Mapping[str, Any] | None = None) -> None:
        self._engine = engine
        self._admission = admission
        #: Extra key/values merged into the :class:`Describe` payload (the
        #: socket server adds its population parameters here so a remote
        #: harness can verify it is talking to a matching store).
        self._info = dict(info or {})
        self._mutex = threading.Lock()
        self._admitted: set[int] = set()
        self._handlers: dict[type, Callable[[Any], Reply]] = {
            Begin: self._begin,
            Call: self._call,
            CallExtent: self._call,
            CallSome: self._call,
            CallDomain: self._call,
            Commit: self._commit,
            Abort: self._abort,
            RunProgram: self._run_program,
            Describe: self._describe,
            CommitLog: self._commit_log,
            StoreState: self._store_state,
            MetricsSnapshot: self._metrics,
            Stats: self._stats,
            Ping: self._ping,
        }

    # -- the entry point --------------------------------------------------------

    def dispatch(self, request: Request) -> Reply:
        """Execute one request; failures come back as typed error replies."""
        handler = self._handlers.get(type(request))
        try:
            if handler is None:
                raise ProtocolError(
                    f"unsupported request type {type(request).__name__}")
            with self._maybe_trace(request):
                return handler(request)
        except ReproError as error:
            return reply_for_error(error)

    def _maybe_trace(self, request: Request) -> Any:
        """An ``api:<type>`` span when the request's transaction is traced.

        Commands carry transactions by id, so the span is parented to the
        engine's root span for that id; Begin (no id yet) and control-plane
        requests stay unspanned.  One ``getattr`` plus a ``None`` check is
        the whole cost with tracing off.
        """
        txn = getattr(request, "txn", None)
        tracer = getattr(self._engine, "tracer", None)
        if txn is None or tracer is None:
            return contextlib.nullcontext()
        context = self._engine.trace_context_for(txn)
        if context is None:
            return contextlib.nullcontext()
        return tracer.span(f"api:{request.type}", context.trace_id,
                           parent=context.parent, category="api",
                           args={"txn": txn})

    # -- transaction life cycle -------------------------------------------------

    def _begin(self, request: Begin) -> Reply:
        if self._admission is not None:
            self._admission.admit()
            try:
                session = self._engine.begin(
                    label=request.label, origin=request.origin,
                    trace=request.trace,
                    read_only=getattr(request, "read_only", False))
            except BaseException:
                self._admission.release()
                raise
            with self._mutex:
                self._admitted.add(session.txn_id)
        else:
            session = self._engine.begin(
                label=request.label, origin=request.origin,
                trace=request.trace,
                read_only=getattr(request, "read_only", False))
        return BeginReply(txn=session.txn_id)

    def _commit(self, request: Commit) -> Reply:
        session = self._resolve(request.txn)
        started = time.perf_counter()
        try:
            self._engine.commit(session.transaction,
                                label=request.label or session.label)
        finally:
            # A prepare veto aborts the transaction before the error
            # propagates — either way the slot is free once it is finished.
            if session.transaction.is_finished:
                self._release_slot(request.txn)
        # Only successful commits reach this line, so the histogram is
        # commit latency, not commit-attempt latency.
        self._engine.metrics.record_latency("commit_latency",
                                            time.perf_counter() - started)
        return CommitReply(txn=request.txn)

    def _abort(self, request: Abort) -> Reply:
        session = self._resolve(request.txn)
        try:
            self._engine.abort(session.transaction)
        finally:
            if session.transaction.is_finished:
                self._release_slot(request.txn)
        return AbortReply(txn=request.txn)

    def _call(self, request: Call | CallExtent | CallSome | CallDomain) -> Reply:
        session = self._resolve(request.txn)
        operation = operation_from_request(request)
        results = self._engine.perform(session.transaction, operation)
        return ResultReply(txn=request.txn, results=tuple(results))

    # -- programmed execution -----------------------------------------------------

    def _run_program(self, request: RunProgram) -> Reply:
        """Run ``Begin + operations + Commit`` server-side, with retry.

        The retry loop is the engine's own
        (:meth:`~repro.engine.engine.Engine.run_transaction`): deadlock and
        lock-timeout aborts re-begin with the first incarnation's begin
        timestamp as the wait-die ``origin``; any other failure aborts and
        answers with its typed error reply.  The program holds one
        admission slot for its whole lifetime — retries re-begin without
        re-knocking, so a retried program cannot be starved at the door it
        already passed.
        """
        engine = self._engine
        operations = request.operations
        for operation in operations:
            if not isinstance(operation, Operation):
                raise ProtocolError(f"a run_program member must be an "
                                    f"operation, got {operation!r}")

        def work(session: "Session") -> Reply:
            transaction = session.transaction
            results = tuple(tuple(engine.perform(transaction, operation))
                            for operation in operations)
            started = time.perf_counter()
            engine.commit(transaction, label=request.label)
            engine.metrics.record_latency("commit_latency",
                                          time.perf_counter() - started)
            return ProgramReply(txn=session.txn_id, results=results,
                                retries=transaction.stats.restarts)

        if self._admission is not None:
            self._admission.admit()
        try:
            return engine.run_transaction(
                work, label=request.label,
                max_retries=max(int(request.max_retries), 0),
                trace=request.trace, read_only=request.read_only)
        finally:
            if self._admission is not None:
                self._admission.release()

    # -- control plane ----------------------------------------------------------

    def _describe(self, request: Describe) -> Reply:
        protocol = self._engine.protocol
        clients = self._engine.shard_clients
        payload: dict[str, Any] = {
            "protocol": getattr(type(protocol), "name", type(protocol).__name__),
            "shards": self._engine.num_shards,
            "shard_workers": 0 if clients is None else len(clients),
            "durability": self._engine.durability.mode,
            "admission": (None if self._admission is None
                          else self._admission.limits),
        }
        payload.update(self._info)
        return InfoReply(payload=payload)

    def _commit_log(self, request: CommitLog) -> Reply:
        commits = [[txn, label] for txn, label in self._engine.commit_log]
        return InfoReply(payload={"commits": commits})

    def _store_state(self, request: StoreState) -> Reply:
        # The engine answers: in worker mode the authoritative values live
        # in the shard workers' partitions, not in the local mirror store.
        return InfoReply(payload={"instances": self._engine.store_state()})

    def _metrics(self, request: MetricsSnapshot) -> Reply:
        # cluster_metrics merges worker-side histograms and WAL bytes into
        # the engine's own snapshot, so remote harnesses see the cluster.
        return InfoReply(payload={
            "metrics": self._engine.cluster_metrics(),
            "wal_bytes": self._engine.wal_bytes_written,
        })

    def _stats(self, request: Stats) -> Reply:
        return InfoReply(payload=self._engine.stats(top=request.top))

    def _ping(self, request: Ping) -> Reply:
        return InfoReply(payload={"pong": True})

    # -- internals --------------------------------------------------------------

    def _resolve(self, txn: int) -> "Session":
        session = self._engine.session_for(txn)
        if session is None:
            raise TransactionError(
                f"transaction {txn} is unknown here or already finished")
        return session

    def _release_slot(self, txn: int) -> None:
        if self._admission is None:
            return
        with self._mutex:
            held = txn in self._admitted
            self._admitted.discard(txn)
        if held:
            self._admission.release()

    # -- introspection ----------------------------------------------------------

    @property
    def engine(self) -> "Engine":
        """The engine this dispatcher guards (server wiring, tests)."""
        return self._engine

    @property
    def admission(self) -> AdmissionController | None:
        """The admission controller in front of ``Begin``, if any."""
        return self._admission
