"""The client API as data: typed, JSON-serialisable requests and replies.

This module is the contract between any client and the engine.  A client —
in-process or across a socket — speaks in terms of these message types and
*only* these; the :class:`~repro.api.dispatcher.Dispatcher` on the other
side holds the sole live reference to the :class:`~repro.engine.engine.Engine`.
What used to require calling ``engine.perform(transaction, operation)`` with
shared Python objects is now seven commands:

=================  =========================================================
request            meaning
=================  =========================================================
:class:`Begin`     start a transaction (``origin`` carries retry seniority)
:class:`Call`      send a method to one instance (access kind i)
:class:`CallExtent`  send to every proper instance of a class (kind ii)
:class:`CallSome`  send to chosen instances of a domain (kind iii)
:class:`CallDomain`  send to every instance of a domain (kind iv)
:class:`Commit`    commit (the reply arrives after the serialisation point)
:class:`Abort`     abort (before-images restored, locks released)
=================  =========================================================

A client that knows its whole transaction up front sends it as one
:class:`RunProgram` instead: typed operations, begun, performed, committed
and retried server-side, one request and one reply.  Those are the two
ways in — an interactive session of the commands above, or a program —
plus a small control plane (:class:`Describe`, :class:`CommitLog`,
:class:`StoreState`, :class:`MetricsSnapshot`, :class:`Stats`,
:class:`Ping`) that the throughput harness and operational tooling use.

Failures travel as data too: :class:`ErrorReply` carries the stable
machine-readable ``code`` of the exception class (see
:func:`repro.errors.error_codes`) plus its message and structured detail, so
a client can rebuild the *typed* exception (`exception_from_reply`) — a
deadlock victim raises :class:`~repro.errors.DeadlockError` whether the
engine lives in the same process or behind a socket.  Admission-control
rejection is its own reply type, :class:`Overloaded`, because it is the one
failure a client is expected to handle by backing off rather than aborting.

Every message converts losslessly to a JSON-representable dict
(:func:`message_to_wire` / :func:`request_from_wire` /
:func:`reply_from_wire`).  OIDs — as call targets and inside argument or
result values — are encoded as the same ``{"$oid": [class, number]}``
tagged pairs the write-ahead log uses, here applied *deeply* so nested
containers round-trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields, replace
from typing import Any, Mapping

from repro.errors import (
    OverloadedError,
    ProtocolError,
    ReproError,
    error_class_for,
)
from repro.objects.oid import OID
from repro.txn.operations import (
    DomainAllCall,
    DomainSomeCall,
    ExtentCall,
    MethodCall,
    Operation,
)
# The one tagged-OID value codec of the repository — shared with the
# write-ahead log so wire frames and log files can never drift apart.
from repro.wal.records import decode_value, encode_value


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Begin:
    """Start a transaction.  ``origin`` is the first incarnation's begin
    timestamp — a retrying client passes it so deadlock-victim selection
    ranks the retry by when its work actually began (wait-die seniority).
    ``trace`` is an optional trace context (``{"t": trace_id, "p": span_id}``,
    see :mod:`repro.obs.tracing`): a traced client passes it so the engine's
    transaction spans join the client's trace."""

    label: str = ""
    origin: int | None = None
    trace: Any = None
    #: Serve this transaction from a committed snapshot: zero lock
    #: acquisitions, writes refused (in-process engines; worker-mode
    #: engines fall back to the ordinary locked path).
    read_only: bool = False

    type = "begin"
    _tuples = ()


@dataclass(frozen=True)
class Call:
    """Send ``method`` to one instance (access kind i)."""

    txn: int
    oid: OID
    method: str
    arguments: tuple[Any, ...] = ()
    as_class: str | None = None

    type = "call"
    _tuples = ("arguments",)


@dataclass(frozen=True)
class CallExtent:
    """Send ``method`` to every proper instance of a class (kind ii)."""

    txn: int
    class_name: str
    method: str
    arguments: tuple[Any, ...] = ()

    type = "call_extent"
    _tuples = ("arguments",)


@dataclass(frozen=True)
class CallSome:
    """Send ``method`` to chosen instances of a domain (kind iii)."""

    txn: int
    class_name: str
    method: str
    oids: tuple[OID, ...] = ()
    arguments: tuple[Any, ...] = ()

    type = "call_some"
    _tuples = ("oids", "arguments")


@dataclass(frozen=True)
class CallDomain:
    """Send ``method`` to every instance of a domain (kind iv)."""

    txn: int
    class_name: str
    method: str
    arguments: tuple[Any, ...] = ()

    type = "call_domain"
    _tuples = ("arguments",)


@dataclass(frozen=True)
class Commit:
    """Commit the transaction (two-phase commit over its touched shards)."""

    txn: int
    label: str = ""

    type = "commit"
    _tuples = ()


@dataclass(frozen=True)
class Abort:
    """Abort the transaction (restore before-images, release locks)."""

    txn: int

    type = "abort"
    _tuples = ()


@dataclass(frozen=True)
class RunProgram:
    """A whole transaction as one request: ``Begin + Calls + Commit``.

    ``operations`` holds typed :mod:`repro.txn.operations` operations; an
    in-process connection hands them to the dispatcher as they are.  The
    codec runs only at a socket: :func:`message_to_wire` writes each one
    as the wire form of its call request (:class:`Call`/
    :class:`CallExtent`/:class:`CallSome`/:class:`CallDomain`, with a
    placeholder ``txn`` of 0), a member that already is such a wire
    mapping is written as it stands, and :func:`request_from_wire` turns
    each member back into an operation exactly once.  The dispatcher
    begins a fresh transaction, performs the operations in order, and
    commits, all server-side, through
    :meth:`~repro.engine.engine.Engine.run_transaction`: a deadlock or
    lock-timeout abort is retried *on the server* up to ``max_retries``
    times with the first incarnation's begin timestamp carried as the
    wait-die origin, so a retry costs zero extra round trips and keeps its
    seniority.  The answer is one :class:`ProgramReply` (or a typed error
    / :class:`Overloaded`).
    """

    operations: tuple[Operation | Mapping[str, Any], ...] = ()
    label: str = ""
    max_retries: int = 10
    trace: Any = None
    #: Begin the server-side transaction read-only: served from a committed
    #: snapshot, zero lock acquisitions, writes refused.
    read_only: bool = False

    type = "run_program"
    _tuples = ("operations",)


@dataclass(frozen=True)
class Describe:
    """Ask what is being served: protocol, shards, durability, admission."""

    type = "describe"
    _tuples = ()


@dataclass(frozen=True)
class CommitLog:
    """Ask for the ``(txn, label)`` commit log (a serialisation order)."""

    type = "commit_log"
    _tuples = ()


@dataclass(frozen=True)
class StoreState:
    """Ask for a snapshot of every live instance's fields (verification)."""

    type = "store_state"
    _tuples = ()


@dataclass(frozen=True)
class MetricsSnapshot:
    """Ask for the engine's raw metric counters."""

    type = "metrics"
    _tuples = ()


@dataclass(frozen=True)
class Stats:
    """Ask for the per-shard observability breakdown: deadlock victims and
    WAL bytes per shard, plus the cluster's ``top`` lock-contention hot
    resources by accumulated wait time."""

    top: int = 8

    type = "stats"
    _tuples = ()


@dataclass(frozen=True)
class Ping:
    """Liveness probe."""

    type = "ping"
    _tuples = ()


Request = (Begin | Call | CallExtent | CallSome | CallDomain | Commit | Abort
           | RunProgram | Describe | CommitLog | StoreState | MetricsSnapshot
           | Stats | Ping)


# ---------------------------------------------------------------------------
# Replies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BeginReply:
    """The transaction is live; ``txn`` names it in every later request."""

    txn: int

    type = "begin_reply"
    _tuples = ()


@dataclass(frozen=True)
class ResultReply:
    """Results of one executed operation, in target order."""

    txn: int
    results: tuple[Any, ...] = ()

    type = "result"
    _tuples = ("results",)


@dataclass(frozen=True)
class CommitReply:
    """The commit record exists — the transaction is serialised (and, under
    a durable decision log, durable)."""

    txn: int

    type = "committed"
    _tuples = ()


@dataclass(frozen=True)
class AbortReply:
    """The transaction is aborted; every before-image is restored."""

    txn: int

    type = "aborted"
    _tuples = ()


@dataclass(frozen=True)
class ErrorReply:
    """A request failed.  ``code`` is the stable identifier of the exception
    class (:func:`repro.errors.error_codes`); ``detail`` carries its
    structured attributes (victim, cycle, holders, waited, ...)."""

    code: str
    message: str
    detail: Mapping[str, Any] = field(default_factory=dict)

    type = "error"
    _tuples = ()


@dataclass(frozen=True)
class Overloaded:
    """Admission control refused to start a transaction.

    Deliberately a reply type of its own (not just an :class:`ErrorReply`):
    overload is the one failure whose contract is *typed and immediate* —
    the server answers instead of queueing forever, and the client backs off
    and retries rather than treating it as a transaction fault.
    """

    message: str
    in_flight: int = 0
    queued: int = 0

    type = "overloaded"
    code = OverloadedError.code
    _tuples = ()


@dataclass(frozen=True)
class ProgramReply:
    """A :class:`RunProgram` committed.  ``txn`` names the incarnation that
    committed; ``results`` holds each operation's results in program order;
    ``retries`` counts the server-side abort-and-retry rounds it took."""

    txn: int
    results: tuple[Any, ...] = ()
    retries: int = 0

    type = "program_reply"
    _tuples = ("results",)


@dataclass(frozen=True)
class InfoReply:
    """Answer to a control-plane request (:class:`Describe` et al.)."""

    payload: Mapping[str, Any] = field(default_factory=dict)

    type = "info"
    _tuples = ()


Reply = (BeginReply | ResultReply | CommitReply | AbortReply | ProgramReply
         | ErrorReply | Overloaded | InfoReply)


# ---------------------------------------------------------------------------
# Operations <-> call requests
# ---------------------------------------------------------------------------


def request_for_operation(txn: int, operation: Operation) -> Request:
    """The call request equivalent to one :class:`~repro.txn.operations`
    operation — how the session sugar and spec replay enter the command
    layer."""
    if isinstance(operation, MethodCall):
        return Call(txn=txn, oid=operation.oid, method=operation.method,
                    arguments=operation.arguments, as_class=operation.as_class)
    if isinstance(operation, ExtentCall):
        return CallExtent(txn=txn, class_name=operation.class_name,
                          method=operation.method, arguments=operation.arguments)
    if isinstance(operation, DomainSomeCall):
        return CallSome(txn=txn, class_name=operation.class_name,
                        method=operation.method, oids=operation.oids,
                        arguments=operation.arguments)
    if isinstance(operation, DomainAllCall):
        return CallDomain(txn=txn, class_name=operation.class_name,
                          method=operation.method, arguments=operation.arguments)
    raise ProtocolError(f"no call request for operation {operation!r}")


def operation_from_request(request: Request) -> Operation:
    """Invert :func:`request_for_operation` (dispatcher side)."""
    if isinstance(request, Call):
        return MethodCall(oid=request.oid, method=request.method,
                          arguments=request.arguments, as_class=request.as_class)
    if isinstance(request, CallExtent):
        return ExtentCall(class_name=request.class_name, method=request.method,
                          arguments=request.arguments)
    if isinstance(request, CallSome):
        return DomainSomeCall(class_name=request.class_name,
                              method=request.method, oids=request.oids,
                              arguments=request.arguments)
    if isinstance(request, CallDomain):
        return DomainAllCall(class_name=request.class_name,
                             method=request.method, arguments=request.arguments)
    raise ProtocolError(f"{type(request).__name__} is not a call request")


# ---------------------------------------------------------------------------
# Exceptions <-> error replies
# ---------------------------------------------------------------------------

#: Structured attributes worth carrying across the wire, when present.
_DETAIL_ATTRS = ("holders", "waited", "victim", "cycle", "shard", "txn",
                 "line", "column", "in_flight", "queued",
                 "check", "resource", "held", "footprint")
#: Detail attributes whose values are tuples in the exception classes.
_TUPLE_DETAILS = frozenset({"holders", "cycle", "resource", "held",
                            "footprint"})

_MISSING = object()


def reply_for_error(error: ReproError) -> ErrorReply | Overloaded:
    """The reply that represents ``error`` on the wire."""
    if isinstance(error, OverloadedError):
        return Overloaded(message=str(error), in_flight=error.in_flight,
                          queued=error.queued)
    detail = {}
    for name in _DETAIL_ATTRS:
        # Presence, not truthiness, decides: a DeadlockError's victim=None
        # must come back as an attribute that *is* None, not be absent —
        # client code reads these fields without hasattr guards.
        value = getattr(error, name, _MISSING)
        if value is not _MISSING:
            detail[name] = value
    return ErrorReply(code=type(error).code, message=str(error), detail=detail)


def exception_from_reply(reply: ErrorReply | Overloaded) -> ReproError:
    """Rebuild the typed exception an error reply describes.

    The instance is constructed without running the subclass ``__init__``
    (signatures differ per class); the message and the structured detail are
    restored directly, so ``str(error)`` and attributes like ``victim`` or
    ``holders`` survive the round trip exactly.
    """
    if isinstance(reply, Overloaded):
        return OverloadedError(reply.message, in_flight=reply.in_flight,
                               queued=reply.queued)
    cls = error_class_for(reply.code)
    error = cls.__new__(cls)
    Exception.__init__(error, reply.message)
    for name, value in reply.detail.items():
        if name in _TUPLE_DETAILS and isinstance(value, list):
            value = tuple(value)
        setattr(error, name, value)
    return error


def raise_if_error(reply: Reply) -> Reply:
    """Raise the rebuilt exception for error replies; pass others through."""
    if isinstance(reply, (ErrorReply, Overloaded)):
        raise exception_from_reply(reply)
    return reply


# ---------------------------------------------------------------------------
# Wire form
# ---------------------------------------------------------------------------

_REQUEST_TYPES: dict[str, type] = {
    cls.type: cls for cls in (Begin, Call, CallExtent, CallSome, CallDomain,
                              Commit, Abort, RunProgram, Describe, CommitLog,
                              StoreState, MetricsSnapshot, Stats, Ping)
}
_REPLY_TYPES: dict[str, type] = {
    cls.type: cls for cls in (BeginReply, ResultReply, CommitReply, AbortReply,
                              ProgramReply, ErrorReply, Overloaded, InfoReply)
}


def message_to_wire(message: Request | Reply) -> dict[str, Any]:
    """The JSON-representable dict form of any request or reply.

    A :class:`RunProgram`'s typed operations go out as the wire form of
    their call requests (see :func:`request_for_operation`)."""
    document: dict[str, Any] = {"type": message.type}
    program = isinstance(message, RunProgram)
    for spec in dataclass_fields(message):
        value = getattr(message, spec.name)
        if program and spec.name == "operations":
            document["operations"] = [_member_to_wire(member)
                                      for member in value]
        else:
            document[spec.name] = encode_value(value)
    return document


def _member_to_wire(member: Operation | Mapping[str, Any]) -> Any:
    """One :class:`RunProgram` member in wire form: an operation as its
    call request, a member already in wire form as it stands."""
    if isinstance(member, Mapping):
        return encode_value(member)
    return message_to_wire(request_for_operation(0, member))


def decode_message(document: Mapping[str, Any], registry: Mapping[str, type],
                   what: str = "message") -> Any:
    """Rebuild a typed message from its wire dict, given a type registry.

    The generic inverse of :func:`message_to_wire`: any dataclass family
    that follows the ``type``/``_tuples`` convention can be decoded through
    it.  The shard-participant RPC layer (:mod:`repro.sharding.rpc`) reuses
    this with its own registries, so worker frames and client frames share
    one codec with the API proper.
    """
    if not isinstance(document, Mapping):
        raise ProtocolError(f"a wire {what} must be an object, "
                            f"got {type(document).__name__}")
    type_name = document.get("type")
    cls = registry.get(type_name)
    if cls is None:
        raise ProtocolError(f"unknown {what} type {type_name!r}")
    names = {spec.name for spec in dataclass_fields(cls)}
    kwargs: dict[str, Any] = {}
    for name, value in document.items():
        if name == "type":
            continue
        if name not in names:
            raise ProtocolError(f"{what} {type_name!r} has no field {name!r}")
        decoded = decode_value(value)
        if name in cls._tuples and isinstance(decoded, list):
            decoded = tuple(decoded)
        kwargs[name] = decoded
    try:
        return cls(**kwargs)
    except TypeError as error:
        raise ProtocolError(f"malformed {what} {type_name!r}: {error}") from None


def request_from_wire(document: Mapping[str, Any]) -> Request:
    """Rebuild a typed request from its wire dict (server side).

    A :class:`RunProgram` comes back holding typed operations: each member
    is decoded once, straight to the operation its call request names, and
    a member that is not a well-formed call request is a
    :class:`~repro.errors.ProtocolError` for the whole program.
    """
    if isinstance(document, Mapping) \
            and document.get("type") == RunProgram.type:
        members = document.get("operations", [])
        if not isinstance(members, list):
            raise ProtocolError("run_program operations must be a list, "
                                f"got {type(members).__name__}")
        program = decode_message({**document, "operations": ()},
                                 _REQUEST_TYPES, "request")
        return replace(program, operations=tuple(
            operation_from_request(
                decode_message(member, _REQUEST_TYPES, "program member"))
            for member in members))
    return decode_message(document, _REQUEST_TYPES, "request")


def reply_from_wire(document: Mapping[str, Any]) -> Reply:
    """Rebuild a typed reply from its wire dict (client side)."""
    return decode_message(document, _REPLY_TYPES, "reply")
