"""Shard-participant RPC: the participant protocol as framed messages.

This module is what lets a shard live in another OS process.  It defines
the worker-facing message vocabulary — prepare/commit/abort, blocking lock
traffic (single and batched), fused plan+lock+execute shipment with its
piggybacked deferred images and writes, snapshots — and
:class:`RemoteShardClient`, the coordinator-side
stub that implements three duck-typed surfaces at once:

* the :class:`~repro.sharding.participant.ParticipantClient` commit
  protocol the :class:`~repro.sharding.twopc.TwoPhaseCommitCoordinator`
  drives;
* the per-shard *lock handle* surface of
  :class:`~repro.engine.locks.BlockingLockManager` (``acquire`` /
  ``release_all`` / ``collect_edges`` / ``doom`` / ...),
  so the existing :class:`~repro.sharding.locks.ShardedLockFront` routes
  blocking lock traffic to workers without knowing they are remote — the
  cross-shard deadlock detector then unions waits-for edges *across
  processes*;
* the data plane the worker shard backend uses (fused execution, deferred
  state staged onto prepare, snapshots).

Nothing here invents a codec: values, OIDs, operations and error replies
ride the exact :mod:`repro.api.messages` machinery (tagged-OID
``encode_value``/``decode_value``, ``message_to_wire``/``decode_message``,
typed :class:`~repro.api.messages.ErrorReply` rebuilt into the *typed*
exception client-side) over the same length-prefixed frames
(:mod:`repro.api.wire`) the socket API uses.  A deadlock victim raises
:class:`~repro.errors.DeadlockError` whether its lock manager lives in this
process or behind a pipe.

Failure model: any transport failure — connect refused, timeout, stream cut
mid-frame — surfaces as :class:`~repro.errors.ParticipantUnavailable`
carrying the shard id.  The coordinator maps that onto presumed abort
(prepare) or tolerated completion (phase two); lock-maintenance calls
(release, doom) swallow it, because a dead worker's locks died with it.

Threading: one :class:`RemoteShardClient` serves every engine thread.
Requests and replies are strictly paired per socket, so the client keeps
one *thread-local* connection per worker — a session thread blocked in a
remote ``acquire`` never blocks another thread's traffic to the same shard.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Any, Hashable, Mapping, Sequence

from repro.api.messages import (
    ErrorReply,
    Overloaded,
    decode_message,
    exception_from_reply,
    message_to_wire,
)
from repro.api.wire import recv_frame, send_frame
from repro.errors import ParticipantUnavailable, ProtocolError, ReproError
from repro.locking.manager import USE_DEFAULT_TIMEOUT
from repro.locking.modes import ClassLockMode
from repro.objects.oid import OID
from repro.sharding.participant import ParticipantClient
from repro.wal.records import decode_value, encode_value

#: Default seconds a non-blocking participant RPC may take before the shard
#: counts as unavailable (prepare includes an fsync; snapshots can be large).
DEFAULT_PARTICIPANT_TIMEOUT = 30.0

#: Extra seconds granted on top of a lock timeout for the RPC round trip.
_ACQUIRE_GRACE = 10.0

_CLASS_LOCK_TAG = "$classlock"
_DEFAULT_TIMEOUT_TAG = "default"


# ---------------------------------------------------------------------------
# Resource / mode / timeout codecs
# ---------------------------------------------------------------------------


def encode_mode(mode: Hashable) -> Any:
    """A JSON-representable form of a lock mode.

    Modes are strings (``"R"``, method names, ``IS``...) except the TAV
    protocol's :class:`~repro.locking.modes.ClassLockMode` pair, which gets
    its own tag so it round-trips as the dataclass, not a list.
    """
    if isinstance(mode, ClassLockMode):
        return {_CLASS_LOCK_TAG: [mode.method, mode.hierarchical]}
    return encode_value(mode)


def decode_mode(value: Any) -> Hashable:
    """Invert :func:`encode_mode`."""
    if isinstance(value, Mapping) and set(value.keys()) == {_CLASS_LOCK_TAG}:
        method, hierarchical = value[_CLASS_LOCK_TAG]
        return ClassLockMode(method, bool(hierarchical))
    return _deep_tuple(decode_value(value))


def encode_resource(resource: Hashable) -> Any:
    """A JSON-representable form of a lock resource (tuples become lists)."""
    return encode_value(resource)


def decode_resource(value: Any) -> Hashable:
    """Invert :func:`encode_resource`, restoring hashability.

    Every protocol builds resources as (nested) tuples of scalars and OIDs;
    JSON only has lists, so decoding tuple-izes recursively.
    """
    return _deep_tuple(decode_value(value))


def _deep_tuple(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_deep_tuple(item) for item in value)
    return value


def encode_timeout(timeout: float | None | object) -> Any:
    """Wire form of an acquire timeout (the worker's-default sentinel tags)."""
    if timeout is USE_DEFAULT_TIMEOUT:
        return _DEFAULT_TIMEOUT_TAG
    return timeout


def decode_timeout(value: Any) -> float | None | object:
    """Invert :func:`encode_timeout`."""
    if value == _DEFAULT_TIMEOUT_TAG:
        return USE_DEFAULT_TIMEOUT
    return value


def encode_images(images: Sequence[tuple[OID, Sequence[str]]]) -> list:
    """Wire form of a write plan: ``(oid, projected fields)`` pairs."""
    return [[encode_value(oid), list(fields)] for oid, fields in images]


def decode_images(value: Any) -> list[tuple[OID, tuple[str, ...]]]:
    """Invert :func:`encode_images`."""
    return [(decode_value(oid), tuple(fields)) for oid, fields in value]


def encode_writes(writes: Sequence[tuple[OID, str, Any]]) -> list:
    """Wire form of buffered field writes: ``(oid, field, value)`` triples."""
    return [[encode_value(oid), field, encode_value(value)]
            for oid, field, value in writes]


def decode_writes(value: Any) -> list[tuple[OID, str, Any]]:
    """Invert :func:`encode_writes`."""
    return [(decode_value(oid), field, decode_value(item))
            for oid, field, item in value]


# ---------------------------------------------------------------------------
# The message vocabulary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Hello:
    """Identify the worker: shard id, schema, population, recovery report."""

    type = "w_hello"
    _tuples = ()


@dataclass(frozen=True)
class Acquire:
    """Block until ``txn`` holds ``mode`` on ``resource`` in this shard.

    ``trace`` is an optional trace context (``{"t": trace_id, "p":
    parent_span_id}``) — when present the worker records its own span for
    the acquire, parented into the caller's trace.  The same field, with
    the same meaning, rides every traced data-plane and 2PC request below.
    """

    txn: int
    resource: Any
    mode: Any
    timeout: Any = _DEFAULT_TIMEOUT_TAG
    trace: Any = None

    type = "w_acquire"
    _tuples = ()


@dataclass(frozen=True)
class AcquireBatch:
    """Vectored acquire: every lock request of one plan round for this shard.

    ``requests`` is a sequence of ``[resource, mode]`` pairs, acquired in
    order under the shared ``timeout``.  The whole batch costs one round
    trip instead of one per request.  On a mid-batch deadlock or timeout
    the typed error propagates and the locks granted earlier in the batch
    stay held — strict 2PL keeps them until the coordinator aborts, whose
    ``release_all`` cleans up everything this shard granted.
    """

    txn: int
    requests: Any = ()
    timeout: Any = _DEFAULT_TIMEOUT_TAG
    trace: Any = None

    type = "w_acquire_batch"
    _tuples = ()


@dataclass(frozen=True)
class ReleaseAll:
    """Release every lock of ``txn`` here; clear its doom flag."""

    txn: int

    type = "w_release_all"
    _tuples = ()


@dataclass(frozen=True)
class CollectEdges:
    """This shard's waits-for edges (minus already-doomed waiters)."""

    type = "w_collect_edges"
    _tuples = ()


@dataclass(frozen=True)
class Doom:
    """Offer deadlock victims (txn -> cycle); mark those waiting here."""

    victims: Any = ()

    type = "w_doom"
    _tuples = ()


@dataclass(frozen=True)
class Holds:
    """Whether ``txn`` holds (that mode of) ``resource`` here."""

    txn: int
    resource: Any
    mode: Any = None

    type = "w_holds"
    _tuples = ()


@dataclass(frozen=True)
class Waiting:
    """Queued requests on one resource, in FIFO order."""

    resource: Any

    type = "w_waiting"
    _tuples = ()


@dataclass(frozen=True)
class Doomed:
    """The victims chosen but not yet aborted in this shard."""

    type = "w_doomed"
    _tuples = ()


@dataclass(frozen=True)
class ExecuteFused:
    """Fused plan+execute: the worker plans, locks and runs in one trip.

    For an operation the coordinator's plan routes entirely to this shard,
    the whole plan/acquire/replan/log/execute cycle runs worker-side: the
    worker re-derives the lock plan against its own partition, acquires
    each lock locally (no per-lock RPC), refreshes the plan to its
    fixpoint, logs the before-images it computed *under those locks*, and
    executes.  The reply carries the results, the applied writes, the
    logged images and the acquired resources so the coordinator can mirror
    all of them.

    If a worker-side replan escapes the shard (a refreshed plan needing an
    off-shard resource or receiver), the worker answers a fallback reply
    listing what it already acquired and the coordinator runs the
    operation through its cross-shard path — re-acquiring a held lock is
    an immediate grant, so the duplication is harmless.

    ``operation_json`` is the JSON text of the operation's
    :mod:`repro.api.messages` call-request wire form — carried opaquely so
    the envelope codec cannot half-decode it in transit.

    ``images``/``writes`` flush what the transaction buffered for this
    shard during earlier cross-shard operations: the images are logged,
    then the writes they cover are applied (the write-ahead rule), and only
    then does the operation run — so the method bodies see this
    transaction's own prior writes.
    """

    txn: int
    operation_json: str
    images: Any = ()
    writes: Any = ()
    timeout: Any = _DEFAULT_TIMEOUT_TAG
    trace: Any = None

    type = "w_execute_fused"
    _tuples = ()


@dataclass(frozen=True)
class Prepare:
    """Phase one: durable vote for ``txn`` (redo images + PREPARED + barrier).

    ``images``/``writes`` piggyback the transaction's remaining buffered
    before-images and field writes for this shard: the worker logs the
    images, applies the writes, and only then votes — the flush costs no
    message of its own.
    """

    txn: int
    images: Any = ()
    writes: Any = ()
    trace: Any = None

    type = "w_prepare"
    _tuples = ()


@dataclass(frozen=True)
class CommitTxn:
    """Phase two: the global decision exists — discard the undo log."""

    txn: int
    trace: Any = None

    type = "w_commit"
    _tuples = ()


@dataclass(frozen=True)
class AbortTxn:
    """Restore this shard to its before-images (prepared or not)."""

    txn: int
    trace: Any = None

    type = "w_abort"
    _tuples = ()


@dataclass(frozen=True)
class Snapshot:
    """This shard's partition as ``{oid-string: field values}``."""

    type = "w_snapshot"
    _tuples = ()


@dataclass(frozen=True)
class Checkpoint:
    """Snapshot the partition to disk and truncate the shard WAL."""

    type = "w_checkpoint"
    _tuples = ()


@dataclass(frozen=True)
class Metrics:
    """The worker's local metrics: counters, histograms, WAL bytes,
    deadlock victims and its lock-contention hot list."""

    type = "w_metrics"
    _tuples = ()


@dataclass(frozen=True)
class Spans:
    """Drain the worker's recorded trace spans (they ship once)."""

    type = "w_spans"
    _tuples = ()


@dataclass(frozen=True)
class ReplHello:
    """Replication handshake: where did the standby's replay leave off?

    ``epoch`` identifies the primary incarnation doing the asking; the
    standby answers with the epoch/generation/LSN position of its replayed
    log so the shipper can resume the stream or decide to rebase.
    """

    shard_id: int
    epoch: str

    type = "w_repl_hello"
    _tuples = ()


@dataclass(frozen=True)
class ReplFrames:
    """A batch of stamped WAL frames shipped primary → standby.

    ``frames`` is ``[[lsn, record payload], ...]`` in log order, tagged with
    the primary ``epoch`` and the WAL rewrite ``generation`` they belong to;
    the standby refuses a stale tag, which is how a shipper that outlived a
    promotion or missed a checkpoint truncation learns to stop/rebase.
    """

    epoch: str
    generation: int
    frames: Any = ()

    type = "w_repl_frames"
    _tuples = ()


@dataclass(frozen=True)
class ReplReset:
    """Rebase the standby: partition snapshot + the surviving log.

    ``instances`` rides in the checkpoint document's ``instances`` shape
    (``[class, number, {field: value}]`` triples, values encoded); the
    standby installs it as its new base checkpoint and replaces its replay
    log with ``frames``.
    """

    epoch: str
    generation: int
    instances: Any = ()
    frames: Any = ()

    type = "w_repl_reset"
    _tuples = ()


@dataclass(frozen=True)
class Promote:
    """Promote a standby: presumed-abort resolution, then serve as primary."""

    type = "w_promote"
    _tuples = ()


@dataclass(frozen=True)
class Fault:
    """Test-only crash injection: die at a named point of the next prepare."""

    action: str

    type = "w_fault"
    _tuples = ()


@dataclass(frozen=True)
class Shutdown:
    """Ask the worker to close its logs and exit cleanly."""

    type = "w_shutdown"
    _tuples = ()


@dataclass(frozen=True)
class Ok:
    """The request succeeded and has no payload."""

    type = "w_ok"
    _tuples = ()


@dataclass(frozen=True)
class Waited:
    """An acquire was granted after ``waited`` seconds blocked."""

    waited: float = 0.0

    type = "w_waited"
    _tuples = ()


@dataclass(frozen=True)
class Value:
    """A single-value answer (holds probe, batch waits, accepted dooms)."""

    value: Any = None

    type = "w_value"
    _tuples = ()


@dataclass(frozen=True)
class FusedDone:
    """Answer of :class:`ExecuteFused`.

    ``resources`` lists ``[resource, mode, waited]`` for every lock the
    worker acquired, so the coordinator can note them (touched-shard
    tracking, metrics, sanitizer).  With ``fallback`` true the plan escaped
    the shard: nothing was executed, ``results``/``writes``/``images`` are
    empty, and ``resources`` holds what was acquired before the escape.
    """

    results: Any = ()
    writes: Any = ()
    images: Any = ()
    resources: Any = ()
    fallback: bool = False

    type = "w_fused_done"
    _tuples = ()


@dataclass(frozen=True)
class Info:
    """A structured answer (hello, edges, snapshots, checkpoints)."""

    payload: Mapping[str, Any] = field(default_factory=dict)

    type = "w_info"
    _tuples = ()


WorkerRequest = (Hello | Acquire | AcquireBatch | ReleaseAll | CollectEdges
                 | Doom | Holds | Waiting | Doomed | ExecuteFused | Prepare
                 | CommitTxn | AbortTxn | Snapshot | Checkpoint | Metrics
                 | Spans | ReplHello | ReplFrames | ReplReset | Promote
                 | Fault | Shutdown)
WorkerReply = Ok | Waited | Value | FusedDone | Info | ErrorReply

_REQUEST_TYPES: dict[str, type] = {
    cls.type: cls for cls in (Hello, Acquire, AcquireBatch, ReleaseAll,
                              CollectEdges, Doom, Holds, Waiting, Doomed,
                              ExecuteFused, Prepare, CommitTxn, AbortTxn,
                              Snapshot, Checkpoint, Metrics, Spans,
                              ReplHello, ReplFrames, ReplReset, Promote,
                              Fault, Shutdown)
}
_REPLY_TYPES: dict[str, type] = {
    cls.type: cls for cls in (Ok, Waited, Value, FusedDone, Info)
}
#: Failures travel exactly like API failures: a typed ErrorReply whose code
#: the client rebuilds into the right exception class.
_REPLY_TYPES[ErrorReply.type] = ErrorReply


def worker_request_from_wire(document: Mapping[str, Any]) -> WorkerRequest:
    """Rebuild a typed worker request (worker side)."""
    return decode_message(document, _REQUEST_TYPES, "worker request")


def worker_reply_from_wire(document: Mapping[str, Any]) -> WorkerReply:
    """Rebuild a typed worker reply (coordinator side)."""
    return decode_message(document, _REPLY_TYPES, "worker reply")


def encode_operation(request: Any) -> str:
    """Opaque wire text of an operation's call-request form."""
    return json.dumps(message_to_wire(request), separators=(",", ":"),
                      sort_keys=True)


# ---------------------------------------------------------------------------
# The coordinator-side stub
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FusedOutcome:
    """Decoded :class:`FusedDone`: what one fused round trip accomplished."""

    #: The plan escaped the shard; only ``resources`` is meaningful.
    fallback: bool
    #: The operation's results, in order.
    results: list
    #: ``(oid, {field: value})`` writes the worker applied (mirror these).
    writes: list
    #: ``(oid, fields)`` before-images the worker logged (mirror-log these).
    images: list
    #: ``(resource, mode, waited seconds)`` locks the worker acquired.
    resources: list


class RemoteShardClient(ParticipantClient):
    """One shard worker, as seen from the coordinator process.

    Implements the 2PC participant protocol, the per-shard lock-handle
    surface :class:`~repro.sharding.locks.ShardedLockFront` expects, and the
    worker-mode data plane — every call one framed round trip on this
    thread's connection to the worker.
    """

    def __init__(self, shard_id: int, address: tuple[str, int], *,
                 participant_timeout: float = DEFAULT_PARTICIPANT_TIMEOUT,
                 lock_timeout: float | None = None) -> None:
        self.shard_id = shard_id
        self._address = address
        self._timeout = participant_timeout
        self._lock_timeout = lock_timeout
        self._local = threading.local()
        #: Weakly held so a socket whose owning thread exited (dropping the
        #: thread-local strong reference) can be collected instead of
        #: accumulating one open descriptor per dead thread; close() walks
        #: whatever is still alive.
        self._all_connections: "weakref.WeakSet[socket.socket]" = weakref.WeakSet()
        self._conn_mutex = threading.Lock()
        self._closed = False
        #: Bumped by :meth:`retarget`; threads whose cached connection was
        #: opened under an older version reconnect (to the new address)
        #: instead of talking to a worker that no longer owns the shard.
        self._conn_version = 0
        #: Written by ShardedLockFront; never called remotely — blocked
        #: requests are found by the periodic cross-process detection pass.
        self.on_block = None
        #: ShardedLockFront's single-shard fast path consults this; the
        #: union path runs coordinator-side where the engine's age order
        #: lives, so the remote handle only stores it.
        self.victim_key = None
        #: Observability hook: called with the seconds one round trip took.
        #: Acquires report *net* transport time — elapsed minus the seconds
        #: the worker says the lock itself was waited on — so a multi-second
        #: lock wait does not masquerade as RPC latency.
        self.on_rpc = None
        #: Accounting hook: called (no arguments) once per *transaction-work*
        #: request issued — locking, data plane, 2PC.  Control and
        #: observability traffic (hello, metrics, spans, detector passes,
        #: snapshots) is excluded, so the count measures exactly the
        #: round trips the batching work optimises.
        self.on_request = None
        #: Per-transaction payloads staged by :meth:`stage_prepare`, consumed
        #: by the next :meth:`prepare` (or dropped by :meth:`abort`).  One
        #: thread drives a transaction's commit, so plain dict ops suffice.
        self._staged: dict[int, tuple[Any, Any]] = {}

    # -- the transport ----------------------------------------------------------

    def _connection(self) -> socket.socket:
        sock = getattr(self._local, "sock", None)
        if (sock is not None
                and getattr(self._local, "version", -1) != self._conn_version):
            self._drop_connection()
            sock = None
        if sock is None:
            if self._closed:
                raise ParticipantUnavailable(
                    f"shard {self.shard_id} client is closed",
                    shard=self.shard_id)
            last: OSError | None = None
            for _ in range(40):
                try:
                    sock = socket.create_connection(self._address,
                                                    timeout=self._timeout)
                    break
                except OSError as error:
                    last = error
                    time.sleep(0.05)
            else:
                raise ParticipantUnavailable(
                    f"shard {self.shard_id} worker at {self._address} is "
                    f"unreachable: {last}", shard=self.shard_id)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._local.sock = sock
            self._local.version = self._conn_version
            with self._conn_mutex:
                self._all_connections.add(sock)
        return sock

    def _drop_connection(self) -> None:
        sock = getattr(self._local, "sock", None)
        if sock is not None:
            self._local.sock = None
            with self._conn_mutex:
                self._all_connections.discard(sock)
            try:
                sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    def _call(self, request: Any, *,
              timeout: "float | None | object" = USE_DEFAULT_TIMEOUT,
              record: bool = True, count: bool = True) -> Any:
        """One request/reply round trip; typed errors re-raised.

        Successful round trips report their duration to :attr:`on_rpc`
        unless ``record`` is false (``acquire`` opts out and reports its
        net transport time itself).  Requests count toward
        :attr:`on_request` unless ``count`` is false (control and
        observability calls opt out).

        Raises:
            ParticipantUnavailable: the worker cannot be reached, timed out,
                or cut the stream mid-frame.
            ReproError: whatever typed error the worker answered with
                (deadlock, lock timeout, a prepare veto, ...).
        """
        sock = self._connection()
        if count and self.on_request is not None:
            self.on_request()
        if timeout is USE_DEFAULT_TIMEOUT:
            timeout = self._timeout
        started = time.perf_counter()
        try:
            sock.settimeout(timeout)
            send_frame(sock, message_to_wire(request))
            document = recv_frame(sock)
        except (OSError, ProtocolError) as error:
            self._drop_connection()
            raise ParticipantUnavailable(
                f"shard {self.shard_id} worker did not answer "
                f"{request.type!r}: {error}", shard=self.shard_id) from None
        if document is None:
            self._drop_connection()
            raise ParticipantUnavailable(
                f"shard {self.shard_id} worker hung up during "
                f"{request.type!r}", shard=self.shard_id)
        if record and self.on_rpc is not None:
            self.on_rpc(time.perf_counter() - started)
        reply = worker_reply_from_wire(document)
        if isinstance(reply, (ErrorReply, Overloaded)):
            raise exception_from_reply(reply)
        return reply

    def close(self) -> None:
        """Close every connection this client ever opened.  Idempotent."""
        self._closed = True
        with self._conn_mutex:
            connections = list(self._all_connections)
            self._all_connections = weakref.WeakSet()
        for sock in connections:
            try:
                sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    def retarget(self, address: tuple[str, int]) -> None:
        """Point this client at a different worker process (failover).

        The same client object is shared by the lock front, the 2PC
        coordinator and the worker-mode data plane, so swapping the address
        here re-routes *every* consumer at once — no tuples to rebuild.
        Cached per-thread connections are invalidated (each thread
        reconnects lazily to the new address) and a closed client reopens.
        """
        with self._conn_mutex:
            self._address = address
            self._closed = False
            self._conn_version += 1
            connections = list(self._all_connections)
            self._all_connections = weakref.WeakSet()
        for sock in connections:
            try:
                sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    # -- handshake / control ------------------------------------------------------

    def hello(self) -> dict[str, Any]:
        """The worker's identity document (shard, schema, recovery report)."""
        return dict(self._call(Hello(), count=False).payload)

    def checkpoint(self) -> dict[str, Any]:
        """Checkpoint the worker's partition; returns the pass's
        :class:`~repro.wal.checkpoint.ShardCheckpoint` fields."""
        return dict(self._call(Checkpoint(), count=False).payload)

    def inject_fault(self, action: str) -> None:
        """Arm test-only crash injection on the worker."""
        self._call(Fault(action=action), count=False)

    # -- replication (shipper → standby, and promotion) ---------------------------

    def repl_hello(self, shard_id: int, epoch: str) -> dict[str, Any]:
        """Ask a standby where its replay left off (resume handshake)."""
        return dict(self._call(ReplHello(shard_id=shard_id, epoch=epoch),
                               count=False).payload)

    def repl_frames(self, epoch: str, generation: int,
                    frames: Sequence[Any]) -> dict[str, Any]:
        """Ship one batch of stamped WAL frames; returns the replay position."""
        return dict(self._call(ReplFrames(epoch=epoch, generation=generation,
                                          frames=list(frames)),
                               count=False).payload)

    def repl_reset(self, epoch: str, generation: int, instances: Any,
                   frames: Sequence[Any]) -> dict[str, Any]:
        """Rebase a standby onto a snapshot + surviving log."""
        return dict(self._call(ReplReset(epoch=epoch, generation=generation,
                                         instances=instances,
                                         frames=list(frames)),
                               count=False).payload)

    def promote(self) -> dict[str, Any]:
        """Promote a standby to primary; returns its resolution report."""
        return dict(self._call(Promote(), count=False).payload)

    def shutdown(self) -> None:
        """Ask the worker to exit cleanly (tolerates an already-dead one)."""
        try:
            self._call(Shutdown(), timeout=5.0, count=False)
        except ParticipantUnavailable:
            pass

    # -- the 2PC participant protocol ---------------------------------------------

    def stage_prepare(self, txn: int,
                      images: Sequence[tuple[OID, Sequence[str]]],
                      writes: Sequence[tuple[OID, str, Any]]) -> None:
        """Stage buffered images/writes to ride the next :meth:`prepare`.

        Local bookkeeping only — no round trip.  The worker backend stages
        each touched shard's deferred state just before phase one, so the
        flush piggybacks on the prepare message.
        """
        self._staged[txn] = (encode_images(images), encode_writes(writes))

    def prepare(self, txn: int, trace: Any = None) -> None:
        images, writes = self._staged.pop(txn, ((), ()))
        self._call(Prepare(txn=txn, images=images, writes=writes, trace=trace))

    def commit(self, txn: int, trace: Any = None) -> None:
        self._call(CommitTxn(txn=txn, trace=trace))

    def abort(self, txn: int, trace: Any = None) -> None:
        self._staged.pop(txn, None)
        self._call(AbortTxn(txn=txn, trace=trace))

    # -- the lock-handle surface (ShardedLockFront duck type) ---------------------

    def _lock_rpc_timeout(self, timeout: "float | None | object",
                          locks: int = 1) -> float | None:
        """The RPC deadline of a request that blocks on ``locks`` locks.

        It tracks the lock timeout — one per lock, the worker serves them
        sequentially — plus a grace period for the round trip, so a worker
        that died *while we wait* surfaces as
        :class:`~repro.errors.ParticipantUnavailable` rather than a hang —
        unless the lock timeout is ``None`` (wait forever), where only the
        kernel noticing the dead peer ends the wait.
        """
        if timeout is USE_DEFAULT_TIMEOUT:
            timeout = self._lock_timeout
        if timeout is None:
            return None
        return max(float(timeout), 0.0) * max(1, locks) + _ACQUIRE_GRACE

    def acquire(self, txn: int, resource: Hashable, mode: Hashable,
                timeout: "float | None | object" = USE_DEFAULT_TIMEOUT,
                trace: Any = None) -> float:
        """Blocking remote acquire; returns seconds spent blocked."""
        started = time.perf_counter()
        reply = self._call(
            Acquire(txn=txn, resource=encode_resource(resource),
                    mode=encode_mode(mode), timeout=encode_timeout(timeout),
                    trace=trace),
            timeout=self._lock_rpc_timeout(timeout), record=False)
        waited = float(reply.waited)
        if self.on_rpc is not None:
            # Net transport time: the round trip minus the lock wait the
            # worker actually served — that difference is the RPC tax.
            self.on_rpc(max(0.0, time.perf_counter() - started - waited))
        return waited

    def acquire_batch(self, txn: int,
                      requests: "Sequence[tuple[Hashable, Hashable]]",
                      timeout: "float | None | object" = USE_DEFAULT_TIMEOUT,
                      trace: Any = None) -> list[float]:
        """Vectored acquire: the whole batch in one round trip.

        Returns the seconds each request spent blocked, aligned with
        ``requests``.
        """
        started = time.perf_counter()
        reply = self._call(
            AcquireBatch(txn=txn,
                         requests=[[encode_resource(resource),
                                    encode_mode(mode)]
                                   for resource, mode in requests],
                         timeout=encode_timeout(timeout), trace=trace),
            timeout=self._lock_rpc_timeout(timeout, len(requests)),
            record=False)
        waits = [float(waited) for waited in reply.value]
        if self.on_rpc is not None:
            self.on_rpc(max(0.0, time.perf_counter() - started - sum(waits)))
        return waits

    def release_all(self, txn: int) -> None:
        """Release ``txn`` everywhere in the shard (dead workers tolerated:
        their locks died with them)."""
        try:
            self._call(ReleaseAll(txn=txn))
        except ParticipantUnavailable:
            pass

    def collect_edges(self) -> dict[int, set[int]]:
        """The shard's waits-for edges (empty when the worker is gone)."""
        try:
            payload = self._call(CollectEdges(), count=False).payload
        except ParticipantUnavailable:
            return {}
        return {int(waiter): {int(target) for target in targets}
                for waiter, targets in payload.get("edges", [])}

    def doom(self, victims: Mapping[int, tuple[int, ...]]) -> tuple[int, ...]:
        """Offer victims; returns those the worker actually marked there."""
        if not victims:
            return ()
        try:
            reply = self._call(Doom(victims=[[txn, list(cycle)]
                                             for txn, cycle in victims.items()]),
                               count=False)
        except ParticipantUnavailable:
            return ()
        return tuple(int(txn) for txn in (reply.value or ()))

    def holds(self, txn: int, resource: Hashable,
              mode: Hashable | None = None) -> bool:
        reply = self._call(Holds(
            txn=txn, resource=encode_resource(resource),
            mode=None if mode is None else encode_mode(mode)), count=False)
        return bool(reply.value)

    def waiting(self, resource: Hashable) -> tuple[tuple[int, Hashable], ...]:
        """Queued requests on ``resource`` in FIFO order (introspection)."""
        queued = self._call(Waiting(resource=encode_resource(resource)),
                            count=False).value
        return tuple((int(txn), decode_mode(mode)) for txn, mode in queued)

    def doomed_transactions(self) -> frozenset[int]:
        try:
            payload = self._call(Doomed(), count=False).payload
        except ParticipantUnavailable:
            return frozenset()
        return frozenset(int(txn) for txn in payload.get("doomed", ()))

    # -- the data plane -----------------------------------------------------------

    def execute_fused(self, txn: int, operation_request: Any,
                      images: Sequence[tuple[OID, Sequence[str]]],
                      writes: Sequence[tuple[OID, str, Any]],
                      timeout: "float | None | object" = USE_DEFAULT_TIMEOUT,
                      *, expected_locks: int = 1,
                      trace: Any = None) -> "FusedOutcome":
        """Fused plan+execute: lock acquisition piggybacks on plan shipment.

        The RPC deadline budgets one lock timeout per expected lock (the
        coordinator's own plan size — the worker's replan can only grow
        it, and growth past the budget surfaces as
        :class:`~repro.errors.ParticipantUnavailable` rather than a hang).
        """
        started = time.perf_counter()
        reply = self._call(
            ExecuteFused(txn=txn,
                         operation_json=encode_operation(operation_request),
                         images=encode_images(images),
                         writes=encode_writes(writes),
                         timeout=encode_timeout(timeout), trace=trace),
            timeout=self._lock_rpc_timeout(timeout, expected_locks),
            record=False)
        resources = [(decode_resource(resource), decode_mode(mode),
                      float(waited))
                     for resource, mode, waited in reply.resources]
        if self.on_rpc is not None:
            blocked = sum(waited for _resource, _mode, waited in resources)
            self.on_rpc(max(0.0, time.perf_counter() - started - blocked))
        return FusedOutcome(
            fallback=bool(reply.fallback),
            results=list(reply.results),
            writes=[(oid, dict(values)) for oid, values in reply.writes],
            images=decode_images(reply.images),
            resources=resources)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """The worker's own partition as ``{oid-string: field values}``."""
        payload = self._call(Snapshot(), count=False).payload
        return {name: dict(values)
                for name, values in payload.get("instances", {}).items()}

    # -- observability ------------------------------------------------------------

    def metrics_snapshot(self) -> dict[str, Any]:
        """The worker's local metrics document (counters + histograms +
        WAL bytes + deadlock victims + hot resources)."""
        return dict(self._call(Metrics(), count=False).payload)

    def drain_spans(self) -> list[dict[str, Any]]:
        """Collect (and clear) the worker's recorded trace spans; a dead
        worker's spans are simply lost with it."""
        try:
            payload = self._call(Spans(), count=False).payload
        except ParticipantUnavailable:
            return []
        return [dict(span) for span in payload.get("spans", ())]

    # -- introspection ------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """Where the worker listens."""
        return self._address

    def __repr__(self) -> str:
        host, port = self._address
        return f"RemoteShardClient(shard={self.shard_id}, {host}:{port})"


def reply_for_worker_error(error: ReproError) -> ErrorReply:
    """The error reply a worker answers with (same shape as the API's)."""
    from repro.api.messages import reply_for_error

    reply = reply_for_error(error)
    if isinstance(reply, Overloaded):  # pragma: no cover - workers never overload
        reply = ErrorReply(code=error.code, message=str(error))
    return reply
