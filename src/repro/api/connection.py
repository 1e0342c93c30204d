"""Connections: how a client reaches a dispatcher, wherever it lives.

:class:`Connection` is the one abstract surface of the client API — a
``request(message) -> reply`` channel plus convenience sugar.  Two
implementations exist:

* :class:`InProcessConnection` — the dispatcher is called directly, no
  serialisation.  The zero-cost path: :class:`~repro.engine.session.Session`
  is a thin layer over it, so every in-process caller already speaks the
  command API.
* :class:`~repro.api.client.SocketConnection` — the same messages as
  length-prefixed JSON frames over TCP, served by
  :mod:`repro.api.server`.

On top of either, :class:`ClientSession` is the remote-capable counterpart
of :class:`~repro.engine.session.Session` (same ``call``/``call_extent``/
``call_domain``/``call_some``/``commit``/``abort`` sugar, but holding only a
transaction *identifier*), and :class:`TransactionRunner` is the
client-side counterpart of :meth:`~repro.engine.engine.Engine.run_transaction`:
automatic abort-and-retry with capped exponential backoff for deadlock
victims and lock timeouts, carrying the first incarnation's ``origin``
across retries (wait-die seniority survives the wire), and backing off on
typed :class:`~repro.api.messages.Overloaded` answers from admission
control.
"""

from __future__ import annotations

import abc
import random
import time
from typing import TYPE_CHECKING, Any, Callable, Mapping, TypeVar

from repro.api.messages import (
    Abort,
    Begin,
    BeginReply,
    CommitLog,
    Commit,
    Describe,
    InfoReply,
    MetricsSnapshot,
    Overloaded,
    Ping,
    ProgramReply,
    Reply,
    Request,
    RunProgram,
    Stats,
    StoreState,
    exception_from_reply,
    raise_if_error,
    request_for_operation,
)
from repro.errors import (
    DeadlockError,
    LockTimeoutError,
    OverloadedError,
    ProtocolError,
    TransactionError,
)
from repro.objects.oid import OID
from repro.txn.operations import Operation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.admission import AdmissionController
    from repro.api.dispatcher import Dispatcher
    from repro.engine.engine import Engine
    from repro.sim.workload import TransactionSpec

T = TypeVar("T")


class Connection(abc.ABC):
    """A request/reply channel to a dispatcher (local or remote)."""

    @abc.abstractmethod
    def request(self, message: Request) -> Reply:
        """Send one request and return its reply (blocking)."""

    def close(self) -> None:
        """Release the channel.  Idempotent; the default has nothing to do."""

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- sugar ------------------------------------------------------------------

    def begin(self, label: str = "", origin: int | None = None,
              trace: Any = None, *, read_only: bool = False) -> "ClientSession":
        """Start a transaction and return the session handle driving it.

        ``trace`` joins the transaction to a client-side trace: a
        :class:`~repro.obs.tracing.TraceContext` (or its wire dict) whose
        span becomes the parent of the engine's root span.  With
        ``read_only=True`` the engine serves the transaction from a
        committed snapshot — zero lock acquisitions, writes refused.

        Raises:
            OverloadedError: admission control refused (back off and retry).
        """
        if hasattr(trace, "to_wire"):
            trace = trace.to_wire()
        reply = raise_if_error(self.request(Begin(label=label, origin=origin,
                                                  trace=trace,
                                                  read_only=read_only)))
        if not isinstance(reply, BeginReply):
            raise ProtocolError(f"begin answered with {type(reply).__name__}")
        return ClientSession(self, reply.txn, label=label)

    def _info(self, message: Request) -> Mapping[str, Any]:
        reply = raise_if_error(self.request(message))
        if not isinstance(reply, InfoReply):
            raise ProtocolError(
                f"{type(message).__name__} answered with {type(reply).__name__}")
        return reply.payload

    def describe(self) -> Mapping[str, Any]:
        """What is served here: protocol, shards, durability, admission."""
        return self._info(Describe())

    def commit_log(self) -> list[tuple[int, str]]:
        """The ``(txn, label)`` commit log — a serialisation order."""
        return [(txn, label) for txn, label in self._info(CommitLog())["commits"]]

    def store_state(self) -> dict[str, dict[str, Any]]:
        """Snapshot of every live instance's fields (verification)."""
        return {oid: dict(values)
                for oid, values in self._info(StoreState())["instances"].items()}

    def metrics(self) -> Mapping[str, Any]:
        """The engine's raw metric counters plus WAL bytes written."""
        return self._info(MetricsSnapshot())

    def stats(self, top: int = 8) -> Mapping[str, Any]:
        """Per-shard observability: deadlock victims, WAL bytes and the
        cluster's ``top`` hottest resources by lock-wait time."""
        return self._info(Stats(top=top))

    def ping(self) -> bool:
        """Whether the other side answers."""
        return bool(self._info(Ping()).get("pong"))

    def run_program(self, operations: "list[Operation] | tuple[Operation, ...]",
                    *, label: str = "", max_retries: int = 10,
                    trace: Any = None, read_only: bool = False) -> ProgramReply:
        """Run ``Begin + operations + Commit`` as one server-side program.

        One dispatch in-process, one round trip over a socket; the
        operations travel typed and are encoded only where a socket needs
        bytes.  Deadlock/timeout retries happen on the server with the
        wait-die origin carried across incarnations.

        Raises:
            OverloadedError: admission control refused (back off and retry).
            DeadlockError, LockTimeoutError: server-side retries exhausted.
        """
        if hasattr(trace, "to_wire"):
            trace = trace.to_wire()
        program = RunProgram(operations=tuple(operations), label=label,
                             max_retries=max_retries, trace=trace,
                             read_only=read_only)
        reply = raise_if_error(self.request(program))
        if not isinstance(reply, ProgramReply):
            raise ProtocolError(
                f"run_program answered with {type(reply).__name__}")
        return reply


class InProcessConnection(Connection):
    """The dispatcher called directly — the engine's in-process front end."""

    def __init__(self, engine: "Engine | None" = None, *,
                 dispatcher: "Dispatcher | None" = None,
                 admission: "AdmissionController | None" = None) -> None:
        if dispatcher is None:
            if engine is None:
                raise ValueError("pass an engine or a dispatcher")
            from repro.api.dispatcher import Dispatcher

            dispatcher = Dispatcher(engine, admission=admission)
        elif admission is not None:
            raise ValueError("pass admission to the dispatcher, "
                             "not alongside one")
        self._dispatcher = dispatcher

    def request(self, message: Request) -> Reply:
        return self._dispatcher.dispatch(message)

    @property
    def dispatcher(self) -> "Dispatcher":
        """The dispatcher this connection feeds."""
        return self._dispatcher


class ClientSession:
    """One transaction driven over a :class:`Connection` by one thread.

    The remote-capable sibling of :class:`~repro.engine.session.Session`:
    the same operation sugar, but all it holds is the transaction
    identifier — state, locks and undo logs live with the engine behind the
    connection.  Error replies come back as the typed exceptions their
    codes name.
    """

    def __init__(self, connection: Connection, txn: int, label: str = "") -> None:
        self._connection = connection
        self._txn = txn
        self.label = label
        self._finished = False

    # -- life cycle -------------------------------------------------------------

    def commit(self) -> None:
        """Commit; on return the transaction is serialised."""
        self._request(Commit(txn=self._txn, label=self.label))
        self._finished = True

    def abort(self) -> None:
        """Abort; on return every before-image is restored."""
        self._request(Abort(txn=self._txn))
        self._finished = True

    def abort_quietly(self) -> None:
        """Abort, swallowing the already-finished answer (retry paths)."""
        if self._finished:
            return
        try:
            self.abort()
        except TransactionError:
            self._finished = True

    def __enter__(self) -> "ClientSession":
        return self

    def __exit__(self, exc_type: Any, exc: Any, traceback: Any) -> None:
        if self._finished:
            return
        if exc_type is None:
            self.commit()
        else:
            self.abort_quietly()

    # -- operations -------------------------------------------------------------

    def perform(self, operation: Operation) -> list[Any]:
        """Execute one operation and return its results."""
        reply = self._request(request_for_operation(self._txn, operation))
        return list(reply.results)

    def call(self, oid: OID, method: str, *arguments: Any,
             as_class: str | None = None) -> Any:
        """Send ``method`` to one instance within this transaction."""
        from repro.txn.operations import MethodCall

        results = self.perform(MethodCall(oid=oid, method=method,
                                          arguments=tuple(arguments),
                                          as_class=as_class))
        return results[0] if results else None

    def call_extent(self, class_name: str, method: str, *arguments: Any) -> list[Any]:
        """Send ``method`` to every proper instance of ``class_name``."""
        from repro.txn.operations import ExtentCall

        return self.perform(ExtentCall(class_name=class_name, method=method,
                                       arguments=tuple(arguments)))

    def call_domain(self, class_name: str, method: str, *arguments: Any) -> list[Any]:
        """Send ``method`` to every instance of the domain at ``class_name``."""
        from repro.txn.operations import DomainAllCall

        return self.perform(DomainAllCall(class_name=class_name, method=method,
                                          arguments=tuple(arguments)))

    def call_some(self, class_name: str, method: str, oids: tuple[OID, ...],
                  *arguments: Any) -> list[Any]:
        """Send ``method`` to chosen instances of the domain at ``class_name``."""
        from repro.txn.operations import DomainSomeCall

        return self.perform(DomainSomeCall(class_name=class_name, method=method,
                                           oids=tuple(oids),
                                           arguments=tuple(arguments)))

    # -- introspection ----------------------------------------------------------

    @property
    def txn(self) -> int:
        """The transaction identifier on the other side of the connection."""
        return self._txn

    @property
    def finished(self) -> bool:
        """Whether this handle has committed or aborted."""
        return self._finished

    def _request(self, message: Request) -> Reply:
        return raise_if_error(self._connection.request(message))

    def __str__(self) -> str:
        name = self.label or f"T{self._txn}"
        state = "finished" if self._finished else "active"
        return f"ClientSession({name}, {state})"


class TransactionRunner:
    """Client-side automatic retry over any :class:`Connection`.

    The counterpart of :meth:`~repro.engine.engine.Engine.run_transaction`
    for callers that hold a connection instead of an engine: ``work``
    runs against a fresh :class:`ClientSession`; a deadlock or lock-timeout
    answer aborts and retries after capped exponential backoff with jitter,
    re-beginning with the first incarnation's ``origin`` so the retry keeps
    its victim-selection seniority; an :class:`Overloaded` answer from
    admission control backs off (without an abort — nothing was started)
    and re-knocks, up to ``overload_retries`` times.

    One runner serves one driving thread; give each worker its own (the
    connection underneath may be shared when it is thread-safe, as the
    in-process one is — socket connections are one-per-thread).
    """

    def __init__(self, connection: Connection, *, max_retries: int = 20,
                 backoff_base: float = 0.001, backoff_cap: float = 0.05,
                 overload_retries: int = 200, seed: int = 0x5eed) -> None:
        self._connection = connection
        self._max_retries = max_retries
        self._backoff_base = backoff_base
        self._backoff_cap = backoff_cap
        self._overload_retries = overload_retries
        self._rng = random.Random(seed)
        #: Abort-and-retry rounds taken (deadlock victims, lock timeouts).
        self.retries = 0
        #: Overloaded answers received (admission back-offs).
        self.overloads = 0

    def run(self, work: Callable[[ClientSession], T], *, label: str = "",
            max_retries: int | None = None, read_only: bool = False) -> T:
        """Run ``work(session)`` transactionally with automatic retry.

        Raises:
            OverloadedError: admission refused more than ``overload_retries``
                times in a row.
            DeadlockError, LockTimeoutError: retries exhausted.
        """
        retries = self._max_retries if max_retries is None else max_retries
        attempt = 0
        overloads = 0
        origin: int | None = None
        while True:
            reply = self._connection.request(Begin(label=label, origin=origin,
                                                   read_only=read_only))
            if isinstance(reply, Overloaded):
                self.overloads += 1
                overloads += 1
                if overloads > self._overload_retries:
                    raise exception_from_reply(reply)
                time.sleep(self._backoff(overloads))
                continue
            raise_if_error(reply)
            session = ClientSession(self._connection, reply.txn, label=label)
            if origin is None:
                origin = reply.txn
            overloads = 0
            try:
                result = work(session)
                if not session.finished:
                    session.commit()
                return result
            except (DeadlockError, LockTimeoutError):
                session.abort_quietly()
                attempt += 1
                if attempt > retries:
                    raise
                self.retries += 1
                time.sleep(self._backoff(attempt))
            except BaseException:
                session.abort_quietly()
                raise

    def run_spec(self, spec: "TransactionSpec", *,
                 max_retries: int | None = None,
                 pipeline: bool = False) -> list[Any]:
        """Replay one workload :class:`TransactionSpec` as one program.

        The whole spec ships as one :class:`~repro.api.messages.RunProgram`
        — one dispatch in-process, one round trip over a socket.
        Deadlock/timeout retries run server-side (still counted in
        :attr:`retries`), and only :class:`Overloaded` answers are retried
        here, since admission refusals happen before any work starts.
        ``pipeline`` is accepted and ignored: every spec travels this one
        way, and the argument stays only for callers that still pass it.
        """
        retries = self._max_retries if max_retries is None else max_retries
        overloads = 0
        while True:
            try:
                reply = self._connection.run_program(
                    spec.operations, label=spec.label, max_retries=retries,
                    read_only=spec.read_only)
            except OverloadedError as error:
                self.overloads += 1
                overloads += 1
                if overloads > self._overload_retries:
                    raise error
                time.sleep(self._backoff(overloads))
                continue
            self.retries += reply.retries
            return [list(results) for results in reply.results]

    def _backoff(self, attempt: int) -> float:
        delay = min(self._backoff_cap, self._backoff_base * (2 ** (attempt - 1)))
        return delay * self._rng.uniform(0.5, 1.0)
