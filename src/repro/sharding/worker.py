"""The shard worker: one shard of the engine as its own OS process.

``python -m repro.sharding.worker --shard-id K --shards N ...`` owns shard
K outright: the shard's store partition, its
:class:`~repro.engine.locks.BlockingLockManager`, its undo log and its
write-ahead log all live *here*, and the coordinating engine reaches them
only through the framed participant protocol of :mod:`repro.sharding.rpc`.
That is what finally turns shard partitioning into multi-core parallelism:
each worker is a separate interpreter with its own GIL, so commuting
transactions on different shards really execute concurrently, and
``Engine(shard_workers=N)`` keeps the familiar strict-2PL / 2PC semantics
across the processes.

What a worker serves:

* **locking** — blocking ``acquire`` (the RPC blocks until granted, timed
  out, or doomed), release, and the waits-for edge collection + doom offers
  the coordinator's global deadlock detector drives;
* **the data plane** — fused ``execute``: the worker logs any before-images
  and applies any buffered writes the coordinator flushed with the request
  (write-ahead order, images first), plans and locks the operation against
  its own partition, logs the before-images it computed under those locks,
  runs the method bodies with its own interpreter, and returns the results
  plus the writes, images and locks for the coordinator to mirror;
* **two-phase commit** — ``prepare`` (redo images + PREPARED marker +
  barrier, then the yes vote), ``commit``, ``abort``, exactly the
  :class:`~repro.sharding.twopc.ShardParticipant` semantics;
* **checkpoints and snapshots** of its own partition.

Determinism contract: the worker populates the same deterministic store as
the coordinator (same schema name, instance count and seed — verified at
``hello`` time), so OIDs and extents agree across all processes without
ever shipping the store itself.  The worker holds the full populated store
but *owns* only its shard's partition: everything it serves (snapshots,
checkpoints, reads, shipped execution) concerns instances its shard owns —
other partitions go stale in this process and are never consulted.

**Per-participant recovery**: started over a directory whose
``shard-K.wal`` already exists, the worker first recovers *its own* shard
with the same two calls the offline
:class:`~repro.wal.recovery_runner.RecoveryRunner` makes per shard —
``restore_snapshot`` over its base checkpoint, then ``replay_shard``
(structural records, then undo/redo resolved against the coordinator's
durable decision log under presumed abort: an in-doubt transaction that
prepared here but has no commit record is undone; one with a commit record
is redone).  A promoted standby runs the same calls over its replica files.
The worker then writes a fresh checkpoint (``checkpoint_shard``, the one
the in-process checkpointer uses), which empties its log, and serves — no
whole-directory recovery required, which is what lets one crashed worker
rejoin while the others keep their state.

The worker never aborts transactions on client disconnect: transaction
ownership lives with the coordinating engine, whose session threads may
reach the worker over many connections.  If the coordinator dies, restart
the cluster (presumed abort resolves whatever was in flight).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import signal
import socket
import threading
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.analysis.sanitizer import WorkerStoreGuard, sanitize_from_env
from repro.api.messages import request_from_wire, operation_from_request
from repro.api.wire import recv_frame, send_frame
from repro.core.compiler import compile_schema
from repro.engine.locks import BlockingLockManager
from repro.engine.metrics import EngineMetrics
from repro.errors import (
    DeadlockError,
    LockTimeoutError,
    ProtocolError,
    ReproError,
    WALError,
)
from repro.obs.tracing import TraceContext, Tracer
from repro.objects.interpreter import ExecutionTrace, Interpreter
from repro.objects.oid import OID
from repro.objects.store import ObjectStore
from repro.core.modes import AccessMode
from repro.replication.ship import ReplicationShipper
from repro.replication.standby import StandbyReplicator
from repro.schema import banking_schema, figure1_schema, library_schema
from repro.sharding import rpc
from repro.sharding.router import HashShardRouter
from repro.sharding.twopc import ShardParticipant
from repro.sim.workload import populate_store
from repro.txn.plan_cache import PlanCache
from repro.txn.protocols import PROTOCOLS
from repro.txn.recovery import RecoveryManager
from repro.wal.checkpoint import (
    ShardCheckpoint,
    checkpoint_shard,
    encode_instances,
    read_checkpoint_file,
)
from repro.wal.log import DecisionLog, WriteAheadLog, read_records
from repro.wal.recovery_runner import ShardReplay, replay_shard, restore_snapshot

#: The deterministic schemas a worker can build by name (the coordinator and
#: every worker must name the same one — verified at ``hello`` time).
SCHEMAS: dict[str, Callable[[], Any]] = {
    "banking": banking_schema,
    "library": library_schema,
    "figure1": figure1_schema,
}

#: Exit code of a deliberately injected crash (tests assert on it).
FAULT_EXIT = 42

#: Span names for traced requests — the worker-side halves of the stages
#: the engine's spans cover from the coordinator side.
_SPAN_NAMES: dict[type, str] = {
    rpc.Acquire: "shard-acquire",
    rpc.AcquireBatch: "shard-acquire-batch",
    rpc.ExecuteFused: "shard-execute-fused",
    rpc.Prepare: "shard-prepare",
    rpc.CommitTxn: "shard-commit",
    rpc.AbortTxn: "shard-abort",
}

#: Bound on worker-side plan-refresh rounds of a fused execute — the same
#: guard the engine's ``_acquire_plan`` applies, for the same reason: each
#: round only adds requests, so two rounds normally reach the fixpoint.
_FUSED_REPLAN_ROUNDS = 16


class ShardWorker:
    """One shard's store partition, lock manager, undo log and WAL."""

    def __init__(self, *, shard_id: int, shards: int, protocol: str = "tav",
                 schema: str = "banking", instances: int = 4,
                 populate_seed: int = 11, lock_timeout: float | None = 5.0,
                 durability: str = "off", wal_dir: "str | Path | None" = None,
                 role: str = "primary",
                 ship_to: "Sequence[tuple[str, int]]" = (),
                 standby_slot: int = 0,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        if not 0 <= shard_id < shards:
            raise ValueError(f"shard-id {shard_id} outside 0..{shards - 1}")
        if schema not in SCHEMAS:
            raise ValueError(f"unknown schema {schema!r}; "
                             f"expected one of {', '.join(SCHEMAS)}")
        if role not in ("primary", "standby"):
            raise ValueError(f"unknown worker role {role!r}")
        if role == "standby" and durability == "off":
            raise WALError("a standby replays into its own WAL; "
                           "run it with --durability lazy or fsync")
        if ship_to and durability == "off":
            raise WALError("WAL shipping needs a WAL; "
                           "run the primary with --durability lazy or fsync")
        self.shard_id = shard_id
        self.role = role
        self._config = {"shard": shard_id, "shards": shards,
                        "protocol": protocol, "schema": schema,
                        "instances": instances,
                        "populate_seed": populate_seed,
                        "durability": durability}
        self._schema = SCHEMAS[schema]()
        self._compiled = compile_schema(self._schema)
        self._router = HashShardRouter(shards)
        self._store = populate_store(self._schema, instances,
                                     seed=populate_seed)
        self._protocol = PROTOCOLS[protocol](self._compiled, self._store)
        #: The fused path's planning entry point (compiled templates, else
        #: ``protocol.plan()`` and a refresh loop).
        self._plans = PlanCache(self._protocol)
        self._locks = BlockingLockManager(self._protocol.create_lock_manager(),
                                          default_timeout=lock_timeout)
        self._interpreter = Interpreter(self._store)
        #: REPRO_SANITIZE reaches workers through spawn()'s inherited
        #: environment: shipped operations then run behind a
        #: WorkerStoreGuard, and the images each txn has logged here are
        #: tracked so worker-side writes can be checked against them.
        self._sanitize = sanitize_from_env()
        self._sanitize_images: dict[int, set[tuple[OID, str]]] = {}

        self._fsync = durability == "fsync"
        self._wal: WriteAheadLog | None = None
        self._wal_path: Path | None = None
        self._ckpt_path: Path | None = None
        self._decisions_path: Path | None = None
        self._replicator: StandbyReplicator | None = None
        self._shipper: ReplicationShipper | None = None
        self._promotion_report: dict[str, Any] | None = None
        self.recovery_report: dict[str, Any] | None = None
        if durability != "off":
            if wal_dir is None:
                raise WALError(f"durability mode {durability!r} needs --wal-dir")
            root = Path(wal_dir)
            root.mkdir(parents=True, exist_ok=True)
            # A standby keeps its replica files beside the primary's under
            # distinct names — after a failover both logs coexist in the
            # shared durability directory without clobbering each other.
            # The slot keeps several standbys of one shard apart on disk.
            suffix = ".standby" if standby_slot == 0 \
                else f".standby{standby_slot}"
            prefix = (f"shard-{shard_id}" if role == "primary"
                      else f"shard-{shard_id}{suffix}")
            self._wal_path = root / f"{prefix}.wal"
            self._ckpt_path = root / f"{prefix}.ckpt"
            self._decisions_path = root / "decisions.log"
            restarted = self._wal_path.exists()
            if role == "primary" and restarted:
                self.recovery_report = self._recover_own_shard()
            self._wal = WriteAheadLog(self._wal_path,
                                      sync_on_barrier=self._fsync)
            if role == "standby":
                # Standby: the existing log is a replay stream to resume,
                # not a crash to resolve — resolution happens at promotion.
                self._replicator = StandbyReplicator(
                    shard_id=shard_id, store=self._store, wal=self._wal,
                    ckpt_path=self._ckpt_path,
                    meta_path=root / f"{prefix}.meta", fsync=self._fsync,
                    own_instances=self._own_instances)
                if restarted:
                    self.recovery_report = self._replicator.replay_existing()

        self._recovery = RecoveryManager(self._store, wal=self._wal,
                                         track_finished=False)
        if role == "primary":
            # The base checkpoint of this partition.  After a restart
            # everything the old log held is resolved (presumed abort):
            # nothing is pending yet, so the checkpoint installs the
            # recovered state and then empties the log.
            self._checkpoint()
        self._participant = ShardParticipant(shard_id, self._recovery,
                                             wal=self._wal)

        #: Local observability: the worker's own counters and latency
        #: histograms (served over the ``w_metrics`` RPC and merged into
        #: the coordinator's cluster snapshot), plus a tracer whose spans
        #: the coordinator drains over ``w_spans``.
        self._metrics = EngineMetrics()
        self._tracer = Tracer(capacity=20_000)
        if self._wal is not None:
            self._wal.on_barrier = (
                lambda seconds: self._metrics.record_latency("barrier", seconds))

        if role == "primary" and ship_to:
            assert self._wal is not None  # enforced above: shipping needs a WAL
            self._shipper = ReplicationShipper(
                shard_id=shard_id, wal=self._wal,
                # The pid distinguishes primary incarnations: a restarted
                # primary must not resume a stream its predecessor owned.
                epoch=f"pid-{os.getpid()}",
                clients=[rpc.RemoteShardClient(shard_id, (str(peer), int(p)),
                                               participant_timeout=10.0)
                         for peer, p in ship_to],
                # In the checkpoint document's shape, for a rebase.
                snapshot=lambda: encode_instances(self._partition()))
            self._shipper.start()

        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.2)
        self._address = (host, self._listener.getsockname()[1])
        self._stop = threading.Event()
        self._mutex = threading.Lock()
        self._clients: set[socket.socket] = set()
        self._fault_action: str | None = None
        self._handlers: dict[type, Callable[[Any], Any]] = {
            rpc.Hello: self._hello,
            rpc.Acquire: self._acquire,
            rpc.AcquireBatch: self._acquire_batch,
            rpc.ReleaseAll: self._release_all,
            rpc.CollectEdges: self._collect_edges,
            rpc.Doom: self._doom,
            rpc.Holds: self._holds,
            rpc.Waiting: self._waiting,
            rpc.Doomed: self._doomed,
            rpc.ExecuteFused: self._execute_fused,
            rpc.Prepare: self._prepare,
            rpc.CommitTxn: self._commit,
            rpc.AbortTxn: self._abort,
            rpc.Snapshot: self._snapshot,
            rpc.Checkpoint: self._checkpoint_request,
            rpc.Metrics: self._metrics_request,
            rpc.Spans: self._spans_request,
            rpc.ReplHello: self._repl_hello,
            rpc.ReplFrames: self._repl_frames,
            rpc.ReplReset: self._repl_reset,
            rpc.Promote: self._promote,
            rpc.Fault: self._fault,
            rpc.Shutdown: self._shutdown_request,
        }

    # -- per-participant recovery -------------------------------------------------

    def _recover_own_shard(self) -> dict[str, Any]:
        """Rebuild this shard's partition from its checkpoint + WAL.

        The same two calls the offline
        :class:`~repro.wal.recovery_runner.RecoveryRunner` makes per shard:
        :func:`~repro.wal.recovery_runner.restore_snapshot`, then
        :func:`~repro.wal.recovery_runner.replay_shard` resolved against the
        coordinator's durable decision log (a file in the shared durability
        directory) under **presumed abort**: no commit record ⇒ undo.  Only
        this shard's files are read — the other shards' state belongs to
        their own workers.
        """
        assert self._wal_path is not None
        document = read_checkpoint_file(self._ckpt_path) or {"instances": []}
        restored = restore_snapshot(self._store, document["instances"])
        replay = replay_shard(
            self._store, list(read_records(self._wal_path)),
            DecisionLog.outcomes_at(self._decisions_path),
            ShardReplay(max_number=max((oid.number for oid in restored),
                                       default=0)))
        self._store.advance_oids_past(replay.max_number)
        return {"shard": self.shard_id, "restored_instances": len(restored),
                **replay.counters()}

    # -- checkpointing ------------------------------------------------------------

    def _own_instances(self):
        return [instance for instance in self._store
                if self._router.shard_of_oid(instance.oid) == self.shard_id]

    def _partition(self) -> list[tuple[OID, str, dict[str, Any]]]:
        """This partition as ``(oid, class_name, values-copy)`` triples."""
        return [(instance.oid, instance.class_name, dict(instance.values))
                for instance in self._own_instances()]

    def _checkpoint(self) -> ShardCheckpoint | None:
        """Snapshot this partition and truncate the WAL behind it."""
        if self._wal is None or self._ckpt_path is None:
            return None
        return checkpoint_shard(self._wal, self._ckpt_path, self.shard_id,
                                self._recovery.pending_transactions,
                                self._partition, fsync=self._fsync)

    # -- replication --------------------------------------------------------------

    def _require_standby(self) -> StandbyReplicator:
        if self.role != "standby" or self._replicator is None:
            raise ProtocolError(
                f"shard {self.shard_id} worker is {self.role}, not a standby")
        return self._replicator

    def _repl_hello(self, request: rpc.ReplHello) -> rpc.Info:
        if request.shard_id != self.shard_id:
            raise ProtocolError(
                f"replication stream for shard {request.shard_id} offered "
                f"to shard {self.shard_id}")
        return rpc.Info(payload=self._require_standby().handshake(
            request.epoch))

    def _repl_frames(self, request: rpc.ReplFrames) -> rpc.Info:
        return rpc.Info(payload=self._require_standby().apply_frames(
            request.epoch, request.generation, request.frames))

    def _repl_reset(self, request: rpc.ReplReset) -> rpc.Info:
        return rpc.Info(payload=self._require_standby().reset(
            request.epoch, request.generation, request.instances,
            request.frames))

    def _promote(self, request: rpc.Promote) -> rpc.Info:
        """Promote this standby: presumed-abort resolution, then serve.

        The replayed log + checkpoint are exactly the shape
        :meth:`_recover_own_shard` consumes, so promotion *is* the shard
        replay every scale runs, against the coordinator's durable decision
        log: winners redone, everything without a commit record (including
        eagerly replayed after-images of losers) undone.  The resolved
        state then becomes the new base — fresh checkpoint, empty log — and
        the worker answers the data plane as a primary.
        Idempotent: a second promotion returns the first report.
        """
        if self._promotion_report is not None:
            return rpc.Info(payload=dict(self._promotion_report))
        self._require_standby()
        assert self._wal is not None
        with self._wal.mutex:
            report = self._recover_own_shard()
            self.role = "primary"
            # Nothing is pending on a standby: the fresh base checkpoint
            # empties the resolved log once the snapshot is installed.
            self._checkpoint()
        self._promotion_report = {"promotion": report,
                                  "shard": self.shard_id}
        return rpc.Info(payload=dict(self._promotion_report))

    # -- serving ------------------------------------------------------------------

    def serve_forever(self) -> None:
        """Accept connections until :meth:`shutdown`; one thread each."""
        workers: list[threading.Thread] = []
        while not self._stop.is_set():
            try:
                sock, _peer = self._listener.accept()
            except TimeoutError:
                continue
            except OSError:
                break
            with self._mutex:
                if self._stop.is_set():
                    sock.close()
                    break
                self._clients.add(sock)
            thread = threading.Thread(target=self._serve_connection,
                                      args=(sock,), daemon=True,
                                      name=f"repro-shard{self.shard_id}-conn")
            thread.start()
            workers.append(thread)
        self._listener.close()
        for sock in list(self._clients):
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)
            sock.close()
        for thread in workers:
            thread.join(timeout=1.0)

    def shutdown(self) -> None:
        """Stop accepting and unblock the serve loop.  Idempotent."""
        self._stop.set()

    def close(self) -> None:
        """Checkpoint (bounding the next recovery) and close the log."""
        if self._shipper is not None:
            self._shipper.stop()
        if self._wal is not None:
            if self.role == "primary":
                # An unpromoted standby must NOT checkpoint: its log is the
                # replay stream a restart resumes, not pending-txn state.
                self._checkpoint()
            self._wal.close()

    def _serve_connection(self, sock: socket.socket) -> None:
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            while True:
                document = recv_frame(sock)
                if document is None:
                    return
                post: Callable[[], None] | None = None
                try:
                    request = rpc.worker_request_from_wire(document)
                    handler = self._handlers.get(type(request))
                    if handler is None:
                        raise ProtocolError(
                            f"worker cannot serve {type(request).__name__}")
                    reply = self._handle(request, handler)
                    if isinstance(reply, tuple):
                        reply, post = reply
                except ReproError as error:
                    reply = rpc.reply_for_worker_error(error)
                except Exception as error:  # noqa: BLE001 - answer, not die
                    reply = rpc.reply_for_worker_error(
                        ReproError(f"worker internal error: {error!r}"))
                send_frame(sock, rpc.message_to_wire(reply))
                if post is not None:
                    post()
        except (ProtocolError, ConnectionError, OSError):
            return
        finally:
            with self._mutex:
                self._clients.discard(sock)
            sock.close()

    def _handle(self, request: Any, handler: Callable[[Any], Any]) -> Any:
        """Run one handler, recording a span when the request is traced.

        Untraced requests (the default) pay one ``getattr`` — the trace
        context only rides requests whose transaction is being sampled.
        The span closes whichever way the handler exits, so doomed
        acquires and prepare vetoes show up in the trace too.
        """
        context = TraceContext.from_wire(getattr(request, "trace", None))
        if context is None:
            return handler(request)
        span = self._tracer.begin_span(
            _SPAN_NAMES.get(type(request), request.type),
            context.trace_id, parent=context.parent, category="worker",
            args={"shard": self.shard_id, "txn": getattr(request, "txn", None)})
        try:
            return handler(request)
        finally:
            self._tracer.end_span(span)

    # -- handlers -----------------------------------------------------------------

    def _hello(self, request: rpc.Hello) -> rpc.Info:
        payload = dict(self._config)
        payload["recovery"] = self.recovery_report
        payload["wal_bytes"] = (0 if self._wal is None
                                else self._wal.bytes_written)
        payload["role"] = self.role
        payload["promotion"] = self._promotion_report
        return rpc.Info(payload=payload)

    def _acquire(self, request: rpc.Acquire) -> rpc.Waited:
        return rpc.Waited(waited=self._acquire_one_local(
            request.txn, rpc.decode_resource(request.resource),
            rpc.decode_mode(request.mode),
            rpc.decode_timeout(request.timeout)))

    def _acquire_one_local(self, txn: int, resource: Any, mode: Any,
                           timeout: Any) -> float:
        """One local blocking acquire with its per-request metrics, shared
        by the single, batched and fused paths."""
        try:
            waited = self._locks.acquire(txn, resource, mode, timeout)
        except LockTimeoutError as error:
            self._metrics.record_timeout()
            self._metrics.record_requests(1, error.waited)
            raise
        except DeadlockError as error:
            self._metrics.record_requests(1, error.waited)
            raise
        self._metrics.record_requests(1, waited)
        return waited

    def _acquire_batch(self, request: rpc.AcquireBatch) -> rpc.Value:
        # One message, N acquires, in order.  A mid-batch deadlock/timeout
        # propagates as the typed error; locks granted earlier in the batch
        # stay held for the coordinator's abort to release (strict 2PL).
        timeout = rpc.decode_timeout(request.timeout)
        waits = []
        for resource, mode in request.requests:
            waits.append(self._acquire_one_local(
                request.txn, rpc.decode_resource(resource),
                rpc.decode_mode(mode), timeout))
        return rpc.Value(value=waits)

    def _release_all(self, request: rpc.ReleaseAll) -> rpc.Ok:
        self._locks.release_all(request.txn)
        return rpc.Ok()

    def _collect_edges(self, request: rpc.CollectEdges) -> rpc.Info:
        edges = self._locks.collect_edges()
        return rpc.Info(payload={"edges": [[waiter, sorted(targets)]
                                           for waiter, targets in edges.items()]})

    def _doom(self, request: rpc.Doom) -> rpc.Value:
        victims = {int(txn): tuple(int(t) for t in cycle)
                   for txn, cycle in request.victims}
        accepted = self._locks.doom(victims)
        return rpc.Value(value=sorted(accepted))

    def _holds(self, request: rpc.Holds) -> rpc.Value:
        mode = None if request.mode is None else rpc.decode_mode(request.mode)
        return rpc.Value(value=self._locks.holds(
            request.txn, rpc.decode_resource(request.resource), mode))

    def _waiting(self, request: rpc.Waiting) -> rpc.Value:
        queued = self._locks.waiting(rpc.decode_resource(request.resource))
        return rpc.Value(value=[[txn, rpc.encode_mode(mode)]
                                for txn, mode in queued])

    def _doomed(self, request: rpc.Doomed) -> rpc.Info:
        return rpc.Info(payload={
            "doomed": sorted(self._locks.doomed_transactions())})

    def _note_images(self, txn: int, images) -> None:
        if not self._sanitize:
            return
        target = self._sanitize_images.setdefault(txn, set())
        for oid, fields in images:
            for field in fields:
                target.add((oid, field))

    def _log_images(self, txn: int, wire_images: Any) -> tuple:
        """Log shipped before-images (undo + WAL write-through) for ``txn``."""
        images = tuple(rpc.decode_images(wire_images))
        for oid, fields in images:
            self._recovery.log_before_image(txn, oid, fields)
        self._note_images(txn, images)
        return images

    def _apply_writes(self, txn: int, wire_writes: Any) -> None:
        """Apply buffered field writes flushed by the coordinator.

        Callers log the covering images first — the write-ahead rule holds
        for flushed writes exactly as for executed ones.  Under
        ``REPRO_SANITIZE`` every flushed write must fall inside the shipped
        image set (S3); the lock-coverage check stays coordinator-side,
        because the covering lock may be a hierarchical class lock homed on
        a different shard and so invisible to this worker's lock manager.
        """
        if not wire_writes:
            return
        writes = rpc.decode_writes(wire_writes)
        store: Any = self._store
        if self._sanitize:
            store = WorkerStoreGuard(
                self._store, locks=self._locks, txn=txn,
                allowed_writes=frozenset(self._sanitize_images.get(txn, ())),
                require_local_locks=False)
        for oid, field, value in writes:
            store.write_field(oid, field, value)

    def _run_operation(self, txn: int, operation: Any) -> tuple[list, list]:
        """Execute one operation on this partition; returns results and the
        ``[oid, {field: value}]`` writes it applied (for mirroring)."""
        trace = ExecutionTrace()
        if self._sanitize:
            guard = WorkerStoreGuard(
                self._store, locks=self._locks, txn=txn,
                allowed_writes=frozenset(self._sanitize_images.get(txn, ())))
            interpreter = Interpreter(guard)
        else:
            interpreter = self._interpreter
        results = self._protocol.execute(operation, interpreter, trace=trace)
        written: dict[OID, dict[str, Any]] = {}
        for event in trace.field_accesses:
            if event.mode is AccessMode.WRITE:
                written.setdefault(event.oid, {})[event.field] = None
        writes = []
        for oid, fields in written.items():
            instance = self._store.get(oid)
            writes.append([oid, {name: instance.get(name) for name in fields}])
        return results, writes

    def _execute_fused(self, request: rpc.ExecuteFused) -> rpc.FusedDone:
        """Fused plan+execute: plan, lock, log and run — all here.

        A template plan is final: one pass.  The coordinator only verified
        its *initial* plan routes to this shard; a data-dependent plan may
        shift while locks are awaited, so it is refreshed until it stops
        growing, every refresh is re-checked, and an escape answers a
        fallback reply instead of touching off-shard state.
        """
        txn = request.txn
        self._log_images(txn, request.images)
        self._apply_writes(txn, request.writes)
        call = request_from_wire(json.loads(request.operation_json))
        operation = operation_from_request(call)
        timeout = rpc.decode_timeout(request.timeout)
        acquired: dict[tuple[Any, Any], float] = {}

        def fallback() -> rpc.FusedDone:
            return rpc.FusedDone(fallback=True,
                                 resources=self._encode_acquired(acquired))

        plan, final = self._plans.plan(operation)
        for _ in range(_FUSED_REPLAN_ROUNDS):
            if any(self._router.shard_of_oid(oid) != self.shard_id
                   for oid, _method in plan.receivers):
                return fallback()
            for lock_request in plan.requests:
                key = (lock_request.resource, lock_request.mode)
                if key in acquired:
                    continue
                if self._router.shard_of_resource(
                        lock_request.resource) != self.shard_id:
                    return fallback()
                acquired[key] = self._acquire_one_local(
                    txn, lock_request.resource, lock_request.mode, timeout)
            if final:
                break
            plan, _template = self._plans.plan(operation)
            final = all((r.resource, r.mode) in acquired
                        for r in plan.requests)
        else:
            raise ReproError(
                f"fused lock plan of {operation!r} did not converge within "
                f"{_FUSED_REPLAN_ROUNDS} refresh rounds")
        # Before-images computed *under the held locks* — the coordinator
        # could not have known them when it shipped the operation.
        projections = tuple(self._protocol.undo_projections(plan))
        for oid, fields in projections:
            self._recovery.log_before_image(txn, oid, fields)
        self._note_images(txn, projections)
        results, writes = self._run_operation(txn, operation)
        return rpc.FusedDone(results=results, writes=writes,
                             images=rpc.encode_images(projections),
                             resources=self._encode_acquired(acquired))

    @staticmethod
    def _encode_acquired(acquired: "dict[tuple[Any, Any], float]") -> list:
        return [[rpc.encode_resource(resource), rpc.encode_mode(mode), waited]
                for (resource, mode), waited in acquired.items()]

    def _take_fault(self, *stages: str) -> "str | None":
        """Consume the injected fault action iff it belongs to this stage.

        A commit-stage fault must survive the prepare that precedes it, so
        each handler only pops the actions it owns.
        """
        if self._fault_action in stages:
            action, self._fault_action = self._fault_action, None
            return action
        return None

    def _prepare(self, request: rpc.Prepare):
        action = self._take_fault("exit_before_prepare",
                                  "exit_before_prepare_reply",
                                  "exit_after_prepare_reply")
        if action == "exit_before_prepare":
            # Die before phase one touches the log at all: nothing durable
            # exists for this transaction here, so presumed abort resolves
            # it with no undo work — the pure before-prepare crash window.
            os._exit(FAULT_EXIT)
        # Piggybacked deferred state first: log the remaining before-images,
        # apply the buffered writes they cover (write-ahead preserved), and
        # only then vote — the redo images the prepare then logs read the
        # final values these writes just installed.
        self._log_images(request.txn, request.images)
        self._apply_writes(request.txn, request.writes)
        if action == "exit_before_prepare_reply":
            # The durable yes-vote exists (redo images + PREPARED marker,
            # barriered) but the coordinator never hears it: the classic
            # prepared-in-doubt window, SIGKILL-style.
            self._participant.prepare(request.txn)
            os._exit(FAULT_EXIT)
        self._participant.prepare(request.txn)
        if action == "exit_after_prepare_reply":
            # Vote yes, then die before phase two can reach us.
            return rpc.Ok(), lambda: os._exit(FAULT_EXIT)
        return rpc.Ok()

    def _commit(self, request: rpc.CommitTxn) -> rpc.Ok:
        action = self._take_fault("exit_after_decision")
        if action == "exit_after_decision":
            # The coordinator's commit record is durable (phase two reached
            # us), but this participant dies before applying it: recovery /
            # promotion must redo the transaction from its redo images.
            os._exit(FAULT_EXIT)
        self._participant.commit(request.txn)
        self._sanitize_images.pop(request.txn, None)
        return rpc.Ok()

    def _abort(self, request: rpc.AbortTxn) -> rpc.Ok:
        self._participant.abort(request.txn)
        self._sanitize_images.pop(request.txn, None)
        return rpc.Ok()

    def _snapshot(self, request: rpc.Snapshot) -> rpc.Info:
        instances = {str(instance.oid): dict(instance.values)
                     for instance in self._own_instances()}
        return rpc.Info(payload={"instances": instances})

    def _checkpoint_request(self, request: rpc.Checkpoint) -> rpc.Info:
        checkpoint = self._checkpoint()
        return rpc.Info(payload={} if checkpoint is None
                        else dataclasses.asdict(checkpoint))

    def _metrics_request(self, request: rpc.Metrics) -> rpc.Info:
        return rpc.Info(payload={
            "metrics": self._metrics.snapshot(),
            "wal_bytes": 0 if self._wal is None else self._wal.bytes_written,
            "deadlock_victims": self._locks.victims_doomed,
            "hot_resources": [[str(resource), waits, wait_time]
                              for resource, waits, wait_time
                              in self._locks.hot_resources()],
            "role": self.role,
            # Primary side: per-standby stream health (lag in LSNs and
            # seconds).  Standby side: the replay position.
            "replication": (None if self._shipper is None
                            else self._shipper.status()),
            "standby": (None if self._replicator is None
                        else self._replicator.status()),
        })

    def _spans_request(self, request: rpc.Spans) -> rpc.Info:
        return rpc.Info(payload={
            "spans": [span.to_wire() for span in self._tracer.drain()],
            "dropped": self._tracer.dropped,
        })

    def _fault(self, request: rpc.Fault) -> rpc.Ok:
        if request.action not in ("exit_before_prepare",
                                  "exit_before_prepare_reply",
                                  "exit_after_prepare_reply",
                                  "exit_after_decision"):
            raise ProtocolError(f"unknown fault action {request.action!r}")
        self._fault_action = request.action
        return rpc.Ok()

    def _shutdown_request(self, request: rpc.Shutdown):
        return rpc.Ok(), self.shutdown

    # -- introspection ------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound."""
        return self._address

    @property
    def store(self) -> ObjectStore:
        """The worker's store (tests)."""
        return self._store

    @property
    def participant(self) -> ShardParticipant:
        """The in-process participant core (tests)."""
        return self._participant


# ---------------------------------------------------------------------------
# Spawning workers as subprocesses (engine, tests, examples)
# ---------------------------------------------------------------------------


def spawn(*, shard_id: int, shards: int, protocol: str = "tav",
          schema: str = "banking", instances: int = 4, populate_seed: int = 11,
          lock_timeout: "float | None" = 5.0, durability: str = "off",
          wal_dir: "str | Path | None" = None, role: str = "primary",
          ship_to: "Sequence[tuple[str, int]]" = (), standby_slot: int = 0,
          host: str = "127.0.0.1", port: int = 0, ready_timeout: float = 60.0):
    """Start one ``python -m repro.sharding.worker`` and wait for its port.

    Returns ``(process, (host, port))`` once the child printed its
    ``listening on`` line.  The caller owns the process.
    """
    import subprocess
    import sys

    package_root = Path(__file__).resolve().parent.parent.parent
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [str(package_root)] + ([environment["PYTHONPATH"]]
                               if environment.get("PYTHONPATH") else []))
    command = [sys.executable, "-m", "repro.sharding.worker",
               "--host", host, "--port", str(port),
               "--shard-id", str(shard_id), "--shards", str(shards),
               "--protocol", protocol, "--schema", schema,
               "--instances", str(instances),
               "--populate-seed", str(populate_seed),
               "--lock-timeout",
               "none" if lock_timeout is None else str(lock_timeout),
               "--durability", durability, "--role", role,
               "--standby-slot", str(standby_slot)]
    if wal_dir is not None:
        command += ["--wal-dir", str(wal_dir)]
    for peer, peer_port in ship_to:
        command += ["--ship-to", f"{peer}:{peer_port}"]
    process = subprocess.Popen(command, env=environment,
                               stdout=subprocess.PIPE, text=True)
    address: list[tuple[str, int]] = []
    ready = threading.Event()

    def read() -> None:
        assert process.stdout is not None
        for line in process.stdout:
            if line.startswith("listening on "):
                bound_host, _, bound_port = line.split()[-1].rpartition(":")
                address.append((bound_host, int(bound_port)))
                ready.set()
                return

    reader = threading.Thread(target=read, daemon=True,
                              name=f"repro-worker-spawn-{shard_id}")
    reader.start()
    if not ready.wait(ready_timeout):
        process.kill()
        process.wait()
        raise RuntimeError(
            f"shard worker {shard_id} never reported listening within "
            f"{ready_timeout}s (exit {process.poll()})")
    return process, address[0]


def spawn_cluster(shards: int, **options: Any) -> list[tuple[Any, tuple[str, int]]]:
    """Spawn one worker per shard; returns ``(process, address)`` per shard."""
    cluster = []
    try:
        for shard_id in range(shards):
            cluster.append(spawn(shard_id=shard_id, shards=shards, **options))
    except BaseException:
        for process, _address in cluster:
            process.kill()
            process.wait()
        raise
    return cluster


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _lock_timeout(text: str) -> float | None:
    """CLI form of the default lock timeout (``none`` = wait forever)."""
    return None if text.lower() == "none" else float(text)


def main(argv: Sequence[str] | None = None) -> int:
    """Build one shard's worker, serve it, block until SIGTERM/SIGINT."""
    from repro.wal.durability import MODES as DURABILITY_MODES

    parser = argparse.ArgumentParser(
        prog="python -m repro.sharding.worker",
        description="Serve one store shard — its partition, lock manager, "
                    "undo log and WAL — over the participant RPC protocol.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="port to bind; 0 picks a free one (default: 0)")
    parser.add_argument("--shard-id", type=int, required=True,
                        help="which shard this worker owns (0-based)")
    parser.add_argument("--shards", type=int, required=True,
                        help="total shard count of the engine")
    parser.add_argument("--protocol", default="tav", choices=list(PROTOCOLS))
    parser.add_argument("--schema", default="banking", choices=list(SCHEMAS))
    parser.add_argument("--instances", type=int, default=4,
                        help="instances per class (must match the engine)")
    parser.add_argument("--populate-seed", type=int, default=11,
                        help="store population seed (must match the engine)")
    parser.add_argument("--lock-timeout", type=_lock_timeout, default=5.0,
                        help="default per-request lock timeout in seconds, "
                             "or 'none' to wait forever (must match the "
                             "engine's default_lock_timeout)")
    parser.add_argument("--durability", choices=DURABILITY_MODES,
                        default="off")
    parser.add_argument("--wal-dir", metavar="PATH", default=None,
                        help="shared durability directory (shard-K.wal / "
                             "shard-K.ckpt live here; decisions.log is read "
                             "for per-participant recovery)")
    parser.add_argument("--role", choices=("primary", "standby"),
                        default="primary",
                        help="primary serves the data plane; standby replays "
                             "a shipped WAL stream until promoted")
    parser.add_argument("--ship-to", metavar="HOST:PORT", action="append",
                        default=[],
                        help="standby address to ship WAL frames to "
                             "(repeatable; primary role only)")
    parser.add_argument("--standby-slot", type=int, default=0,
                        help="which standby of the shard this is; keeps "
                             "several standbys' replica files apart")
    arguments = parser.parse_args(argv)

    ship_to = []
    for target in arguments.ship_to:
        peer, _, peer_port = target.rpartition(":")
        ship_to.append((peer, int(peer_port)))
    worker = ShardWorker(
        shard_id=arguments.shard_id, shards=arguments.shards,
        protocol=arguments.protocol, schema=arguments.schema,
        instances=arguments.instances, populate_seed=arguments.populate_seed,
        lock_timeout=arguments.lock_timeout, durability=arguments.durability,
        wal_dir=arguments.wal_dir, role=arguments.role, ship_to=ship_to,
        standby_slot=arguments.standby_slot,
        host=arguments.host, port=arguments.port)
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: worker.shutdown())
    if worker.recovery_report is not None:
        print("recovered " + json.dumps(worker.recovery_report,
                                        sort_keys=True), flush=True)
    host, port = worker.address
    print(f"listening on {host}:{port}", flush=True)
    try:
        worker.serve_forever()
    finally:
        worker.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
