"""Where the engine's shards live: the two shard backends.

:class:`~repro.engine.engine.Engine` runs transactions; a *shard backend*
owns everything that depends on where the shards are.  ``Engine.__init__``
builds exactly one and no engine method afterwards asks which it got (lint
rule L10 keeps it that way):

* :class:`LocalShardBackend` — the shards are objects in this interpreter:
  one :class:`~repro.engine.locks.BlockingLockManager`, undo log,
  :class:`~repro.sharding.twopc.ShardParticipant` and (when durable)
  write-ahead log per shard and the checkpointer over them;
* :class:`WorkerShardBackend` — one ``python -m repro.sharding.worker``
  process per shard (plus hot standbys) reached through
  :class:`~repro.sharding.rpc.RemoteShardClient`: spawn, handshake,
  teardown, failover, re-admission and mirror resync, and the data plane
  that keeps a transaction at one round trip per step — fused single-shard
  execution, and cross-shard execution against a mirror-backed store front
  whose before-images and writes are deferred onto the next fused execute
  or the prepare message.

There is no abstract base — the same duck-typing idiom as the lock front's
shard handles.  Both classes offer the attributes ``locks``, ``recovery``,
``participants``, ``wals``, ``checkpointer``, ``execution_store``,
``snapshot_source``, ``shard_clients``, ``standby_clients``, ``replicas``
and ``failovers``, and the methods the engine's transaction path calls
(``fused_shard``, ``executing``, ``stage_prepare``,
``committed``, ``aborted``) next to the operational ones
(``create_instance``, ``delete_instance``, ``checkpoint``, ``wal_bytes``,
``store_state``, ``shard_stats``, ``standby_stats``,
``merge_cluster_metrics``, ``drain_spans``, ``failover``,
``readmit_worker``, ``close``).  :meth:`WorkerShardBackend.execute_fused`
is only ever called with a shard :meth:`fused_shard` returned, which the
local backend never does.
"""

from __future__ import annotations

import contextlib
import signal as signal_module
import threading
from typing import (TYPE_CHECKING, Any, Callable, Hashable, Iterator, Mapping,
                    Sequence)

from repro.api.messages import request_for_operation
from repro.errors import ParticipantUnavailable, TransactionError
from repro.obs.histogram import LatencyHistogram
from repro.obs.tracing import Span
from repro.objects.oid import OID
from repro.sharding.locks import ShardedLockFront
from repro.sharding.recovery import ShardedRecoveryManager
from repro.sharding.router import ShardRouter
from repro.sharding.rpc import FusedOutcome, RemoteShardClient
from repro.sharding.twopc import ShardParticipant
from repro.txn.operations import Operation
from repro.txn.protocols.base import ConcurrencyControlProtocol, LockPlan
from repro.wal.checkpoint import CheckpointManager, ShardCheckpoint, compact_decisions
from repro.wal.durability import Durability
from repro.wal.log import DecisionLog, WriteAheadLog
from repro.wal.records import InstanceCreated, InstanceDeleted

if TYPE_CHECKING:  # pragma: no cover - typing only; see LocalShardBackend
    from repro.engine.metrics import EngineMetrics

#: Reusable no-op scope for executions that need no backend bookkeeping.
_NO_SCOPE = contextlib.nullcontext()


def hot_entries(resources: Sequence[tuple[str, int, float]]) -> list[dict]:
    """``(resource, waits, wait seconds)`` rows in their stats-document form."""
    return [{"resource": name, "waits": waits,
             "wait_time": round(wait_time, 6)}
            for name, waits, wait_time in resources]


class LocalShardBackend:
    """Every shard in this interpreter: locks, undo logs, WALs, checkpoints."""

    shard_clients = None
    standby_clients: tuple = ()
    replicas = 0
    failovers = 0

    def __init__(self, protocol: ConcurrencyControlProtocol,
                 router: ShardRouter, *, durability: Durability,
                 decision_log: DecisionLog | None,
                 default_lock_timeout: float | None,
                 victim_key: Callable[[int], Hashable],
                 metrics: "EngineMetrics") -> None:
        # Imported here: repro.engine imports this module, so a module-level
        # import would close the repro.engine -> repro.sharding cycle.
        from repro.engine.locks import BlockingLockManager

        num_shards = router.num_shards
        self._store = protocol.store
        #: Snapshot reads copy committed state from here: the store itself.
        self.snapshot_source = self._store
        self._router = router
        self.wals: tuple[WriteAheadLog | None, ...] = (None,) * num_shards
        if durability.enabled:
            self.wals = tuple(
                WriteAheadLog(durability.wal_path(shard_id),
                              sync_on_barrier=durability.fsync)
                for shard_id in range(num_shards))
            record_barrier = (
                lambda seconds: metrics.record_latency("barrier", seconds))
            for wal in self.wals:
                wal.on_barrier = record_barrier
        self.locks = ShardedLockFront(
            [BlockingLockManager(protocol.create_lock_manager(),
                                 default_timeout=default_lock_timeout)
             for _ in range(num_shards)],
            router, victim_key=victim_key)
        self.recovery = ShardedRecoveryManager(self._store, router,
                                               wals=self.wals)
        self.participants: Sequence[Any] = [
            ShardParticipant(shard_id, self.recovery.shard_manager(shard_id),
                             wal=self.wals[shard_id])
            for shard_id in range(num_shards)]
        self.checkpointer: CheckpointManager | None = None
        if durability.enabled:
            self.checkpointer = CheckpointManager(
                self._store, router, self.recovery, list(self.wals),
                durability, decision_log=decision_log)
            # The base checkpoint: instances created before the engine
            # existed (population) are durable from the very first moment —
            # the WAL only ever has to carry field updates.
            self.checkpointer.checkpoint()
            if durability.checkpoint_interval is not None:
                self.checkpointer.start(durability.checkpoint_interval)

    @property
    def execution_store(self) -> Any:
        """The store method bodies execute against: the store itself."""
        return self._store

    # -- the transaction path -----------------------------------------------------

    def fused_shard(self, plan: LockPlan) -> None:
        """No shard runs a plan on the engine's behalf: execute here."""
        return None

    def executing(self, txn: int,
                  projections: Sequence[tuple[OID, tuple[str, ...]]]) -> Any:
        """The scope one operation's method bodies run in (nothing to track)."""
        return _NO_SCOPE

    def stage_prepare(self, txn: int, touched: Sequence[int]) -> None:
        """Nothing is deferred in-process; prepare finds every write applied."""

    def committed(self, txn: int) -> None:
        """Phase two ran: the participants dropped the undo logs."""
        self.recovery.discard_tracking(txn)

    def aborted(self, txn: int) -> None:
        """The participants restored the before-images."""
        self.recovery.discard_tracking(txn)

    # -- structural changes -------------------------------------------------------

    def create_instance(self, class_name: str, **field_values: Any) -> Any:
        """Create an instance, then log it in the owning shard's WAL."""
        instance = self._store.create(class_name, **field_values)
        wal = self.wals[self._router.shard_of_oid(instance.oid)]
        if wal is not None:
            wal.append(InstanceCreated(oid=instance.oid,
                                       class_name=instance.class_name,
                                       values=dict(instance.values)))
            wal.barrier()
        return instance

    def delete_instance(self, oid: OID) -> None:
        """Log the deletion in the owning shard's WAL, then delete."""
        self._store.get(oid)  # raise before logging for an unknown OID
        wal = self.wals[self._router.shard_of_oid(oid)]
        if wal is not None:
            wal.append(InstanceDeleted(oid=oid))
            wal.barrier()
        self._store.delete(oid)

    # -- durability and observability ---------------------------------------------

    def checkpoint(self) -> list[ShardCheckpoint]:
        if self.checkpointer is None:
            raise TransactionError("the engine runs with durability off; "
                                   "there is nothing to checkpoint")
        return self.checkpointer.checkpoint()

    def wal_bytes(self) -> int:
        return sum(wal.bytes_written for wal in self.wals if wal is not None)

    def store_state(self) -> dict[str, dict[str, Any]]:
        return {str(instance.oid): dict(instance.values)
                for instance in self._store}

    def shard_stats(self, top: int, victim_counts: Sequence[int],
                    ) -> tuple[list[dict[str, Any]], list[tuple[str, int, float]]]:
        """Per-shard stats entries plus every shard's hot resources."""
        per_shard: list[dict[str, Any]] = []
        hot: list[tuple[str, int, float]] = []
        for shard_id, manager in enumerate(self.locks.shards):
            wal = self.wals[shard_id]
            resources = [(str(resource), waits, wait_time)
                         for resource, waits, wait_time
                         in manager.hot_resources(top)]
            hot.extend(resources)
            per_shard.append({
                "shard": shard_id,
                "deadlock_victims": victim_counts[shard_id],
                "wal_bytes": 0 if wal is None else wal.bytes_written,
                "hot_resources": hot_entries(resources),
            })
        return per_shard, hot

    def standby_stats(self) -> list[dict[str, Any]]:
        return []

    def merge_cluster_metrics(self, snapshot: dict[str, Any]) -> dict[str, Any]:
        """In-process the engine's own snapshot already is the cluster's."""
        return snapshot

    def drain_spans(self) -> Sequence[Span]:
        return ()

    # -- topology -----------------------------------------------------------------

    def failover(self, shard_id: int) -> dict[str, Any]:
        raise TransactionError("failover requires shard worker mode")

    def readmit_worker(self, shard_id: int,
                       address: tuple[str, int] | None = None) -> dict[str, Any]:
        raise TransactionError("worker re-admission requires shard worker mode")

    def close(self) -> None:
        if self.checkpointer is not None:
            self.checkpointer.stop()
        for wal in self.wals:
            if wal is not None:
                wal.close()


class WorkerShardBackend:
    """One worker process per shard, reached over the participant RPC layer.

    The engine's own store becomes a *planning mirror*: it is populated
    identically to the workers' partitions, and for any field a
    transaction holds a lock on, the mirror value equals the worker value
    — writers echo synchronously before their locks are released — so
    plans (which re-derive under held locks) never see stale data.
    """

    checkpointer = None
    #: No snapshot reads: the partitions live in other processes and the
    #: mirror is only guaranteed current under held locks.
    snapshot_source = None

    def __init__(self, protocol: ConcurrencyControlProtocol,
                 router: ShardRouter, *,
                 worker_options: Mapping[str, Any] | None, replicas: int,
                 durability: Durability, decision_log: DecisionLog | None,
                 default_lock_timeout: float | None,
                 participant_timeout: float,
                 victim_key: Callable[[int], Hashable],
                 metrics: "EngineMetrics") -> None:
        self._protocol = protocol
        self._store = protocol.store
        self._router = router
        self._durability = durability
        self._decision_log = decision_log
        self.wals = (None,) * router.num_shards
        #: Standby workers per shard, each continuously replaying its
        #: primary's shipped WAL stream; :meth:`failover` promotes one.
        self.replicas = replicas
        self.failovers = 0
        #: Every spawned process, standbys before their primary per shard.
        self.processes: list[Any] = []
        self._standbys: list[list[RemoteShardClient]] = []
        self._clients = tuple(self._spawn(
            worker_options, default_lock_timeout=default_lock_timeout,
            participant_timeout=participant_timeout))
        record_rpc = lambda seconds: metrics.record_latency("rpc", seconds)
        for client in self._clients:
            client.on_rpc = record_rpc
            client.on_request = metrics.record_rpc_requests
        self.participants: Sequence[Any] = self._clients
        self.locks = ShardedLockFront(list(self._clients), router,
                                      victim_key=victim_key)
        #: Mirror undo logs (no WAL — the workers own durability), so an
        #: abort restores the mirror the same way the workers restore their
        #: partitions.
        self.recovery = ShardedRecoveryManager(self._store, router, wals=None)
        self._front = _WorkerStoreFront(self._store, router)
        #: Deferred before-images per transaction per shard, flushed with
        #: the next fused execute on that shard or staged onto its prepare.
        self._deferred_images: dict[int, dict[int, list]] = {}

    # -- spawn, handshake, teardown -----------------------------------------------

    def _spawn(self, worker_options: Mapping[str, Any] | None, *,
               default_lock_timeout: float | None,
               participant_timeout: float) -> list[RemoteShardClient]:
        """Spawn one shard worker process per shard and connect clients.

        ``worker_options`` carries what cannot be derived: the
        deterministic population every worker must rebuild (``schema`` name,
        ``instances`` per class, ``populate_seed``) — it must match how the
        engine's own store was populated, or plans and partitions disagree.
        Each worker's ``hello`` answer is checked against the expectation.
        """
        from repro.sharding import worker as worker_module

        shard_workers = self._router.num_shards
        options = dict(worker_options or {})
        spawn_options = {
            "protocol": options.pop(
                "protocol", getattr(type(self._protocol), "name",
                                    type(self._protocol).__name__)),
            "schema": options.pop("schema", "banking"),
            "instances": int(options.pop("instances", 4)),
            "populate_seed": int(options.pop("populate_seed", 11)),
            # None passes through: wait-forever means the same thing on
            # both sides of the process boundary.
            "lock_timeout": options.pop("lock_timeout", default_lock_timeout),
            "durability": self._durability.mode,
        }
        if self._durability.enabled:
            spawn_options["wal_dir"] = self._durability.root
        if options:
            raise ValueError(f"unknown worker options {sorted(options)}")
        clients: list[RemoteShardClient] = []

        def connect(shard_id: int, **spawn_arguments: Any) -> RemoteShardClient:
            process, address = worker_module.spawn(
                shard_id=shard_id, shards=shard_workers, **spawn_arguments,
                **spawn_options)
            self.processes.append(process)
            return RemoteShardClient(
                shard_id, address, participant_timeout=participant_timeout,
                lock_timeout=spawn_options["lock_timeout"])

        try:
            for shard_id in range(shard_workers):
                # Standbys first: the primary's shipper wants their
                # addresses at spawn time so streaming starts immediately.
                standbys = [connect(shard_id, role="standby",
                                    standby_slot=slot)
                            for slot in range(self.replicas)]
                self._standbys.append(standbys)
                clients.append(connect(
                    shard_id,
                    ship_to=[standby.address for standby in standbys]))
            for client, role in ([(client, "primary") for client in clients]
                                 + [(standby, "standby")
                                    for shard in self._standbys
                                    for standby in shard]):
                answer = client.hello()
                for key, expected in (("shard", client.shard_id),
                                      ("shards", shard_workers),
                                      ("role", role),
                                      ("protocol", spawn_options["protocol"]),
                                      ("schema", spawn_options["schema"]),
                                      ("instances", spawn_options["instances"]),
                                      ("populate_seed",
                                       spawn_options["populate_seed"])):
                    if answer.get(key) != expected:
                        raise ValueError(
                            f"worker {client.shard_id} answered "
                            f"{key}={answer.get(key)!r}, expected "
                            f"{expected!r}")
            # The handshake above proves the workers match the *options*;
            # this proves the options match the engine's actual mirror
            # store — a mis-populated mirror would otherwise corrupt
            # silently (plans and partitions disagreeing on values).
            merged: dict[str, Any] = {}
            for client in clients:
                merged.update(client.snapshot())
            mirror = {str(instance.oid): dict(instance.values)
                      for instance in self._store}
            if merged != mirror:
                raise ValueError(
                    "the workers' partitions disagree with the engine's "
                    "store — worker_options (schema/instances/populate_seed) "
                    "must describe exactly how the engine's store was "
                    "populated")
        except BaseException:
            self._teardown(clients)
            raise
        return clients

    def _teardown(self, clients: Sequence[RemoteShardClient]) -> None:
        for client in [*clients, *(standby for standbys in self._standbys
                                   for standby in standbys)]:
            client.shutdown()
            client.close()
        self._standbys.clear()
        for process in self.processes:
            if process.poll() is None:
                process.send_signal(signal_module.SIGTERM)
        for process in self.processes:
            try:
                process.wait(timeout=10.0)
            except Exception:
                process.kill()
                process.wait()
        self.processes.clear()

    def close(self) -> None:
        self._teardown(self._clients)

    # -- failover and re-admission ------------------------------------------------

    def failover(self, shard_id: int) -> dict[str, Any]:
        """Promote ``shard_id``'s standby and re-admit it as the primary.

        The standby runs the same presumed-abort resolution crash recovery
        uses — over its own replayed log, against the coordinator's durable
        decision log, so every in-flight transaction the dead primary left
        behind is redone (durable commit record) or undone (none) — then
        flips to the primary role.  The shard's RPC client is re-pointed at
        it (coordinator, lock front and data plane all route through that
        one client object) and the planning mirror resynced from the
        promoted partition, so new work flows without an engine restart;
        transactions that lost locks with the old primary abort and retry
        through the usual machinery.

        Returns the worker's promotion report (the recovery summary).

        Raises:
            TransactionError: the shard has no standby to promote.
        """
        if not 0 <= shard_id < len(self._clients):
            raise ValueError(f"unknown shard {shard_id}")
        standbys = (self._standbys[shard_id]
                    if shard_id < len(self._standbys) else [])
        if not standbys:
            raise TransactionError(
                f"shard {shard_id} has no standby to promote")
        standby = standbys.pop(0)
        try:
            answer = standby.promote()
            address = standby.address
        finally:
            standby.close()
        self.readmit_worker(shard_id, address=address)
        self.failovers += 1
        return answer

    def readmit_worker(self, shard_id: int,
                       address: tuple[str, int] | None = None) -> dict[str, Any]:
        """Re-admit a promoted or restarted worker into the running engine.

        Retargets the shard's :class:`RemoteShardClient` when the worker
        moved (``address``), verifies the hello handshake the same way the
        original spawn did, and resyncs the planning mirror's partition
        from the worker's snapshot so plans see the recovered values.
        Returns the hello answer (which carries the recovery or promotion
        report, when there is one).
        """
        client = self._clients[shard_id]
        if address is not None:
            client.retarget((str(address[0]), int(address[1])))
        answer = client.hello()
        for key, expected in (("shard", shard_id), ("role", "primary"),
                              ("shards", len(self._clients))):
            if answer.get(key) != expected:
                raise ValueError(
                    f"re-admitted worker for shard {shard_id} answered "
                    f"{key}={answer.get(key)!r}, expected {expected!r}")
        self._resync_mirror(shard_id, client.snapshot())
        return answer

    def _resync_mirror(self, shard_id: int,
                       snapshot: Mapping[str, Mapping[str, Any]]) -> None:
        """Overwrite the mirror's partition with the worker's ground truth.

        The promoted (or recovered) partition is the authority; whatever
        the mirror held for that shard — including writes of transactions
        whose fate the failover changed — is replaced wholesale.
        """
        seen: set[OID] = set()
        for oid_text, values in snapshot.items():
            class_name, _, number = oid_text.partition("#")
            oid = OID(class_name=class_name, number=int(number))
            seen.add(oid)
            if oid in self._store:
                instance = self._store.get(oid)
                for name, value in values.items():
                    instance.set(name, value)
            else:
                self._store.restore_instance(oid, class_name, dict(values))
        for instance in list(self._store):
            if (instance.oid not in seen
                    and self._router.shard_of_oid(instance.oid) == shard_id):
                self._store.delete(instance.oid)

    @property
    def shard_clients(self) -> tuple[RemoteShardClient, ...]:
        """The per-shard primary RPC clients."""
        return self._clients

    @property
    def standby_clients(self) -> tuple[tuple[RemoteShardClient, ...], ...]:
        """Per-shard standby RPC clients; a promoted standby leaves the list."""
        return tuple(tuple(standbys) for standbys in self._standbys)

    # -- the transaction path -----------------------------------------------------

    @property
    def execution_store(self) -> Any:
        """The store cross-shard method bodies execute against."""
        return self._front

    def fused_shard(self, plan: LockPlan) -> int | None:
        """The single shard the plan routes to entirely, or ``None``.

        Both the lock resources and the receiver instances must live on one
        shard for the fused path — the worker acquires the locks itself, so
        an off-shard resource would be unservable there.
        """
        shards: set[int] = set()
        for request in plan.requests:
            shards.add(self._router.shard_of_resource(request.resource))
            if len(shards) > 1:
                return None
        for oid, _method in plan.receivers:
            shards.add(self._router.shard_of_oid(oid))
            if len(shards) > 1:
                return None
        return next(iter(shards)) if shards else None

    def execute_fused(self, txn: int, shard_id: int, operation: Operation,
                      plan: LockPlan, timeout: float | None | object,
                      trace: object = None) -> FusedOutcome:
        """Ship plan+locks+execution to the owning worker in one trip.

        The worker's grants are in the outcome either way; unless it
        answered the fallback reply (its replan escaped the shard), the
        worker-computed before-images are logged into the mirror undo log
        and the applied writes echoed — write-ahead order, like everywhere.
        """
        # Touched before the RPC: a deadlock/timeout raised mid-fused still
        # has this shard's partial grants released by the abort.
        self.locks.note_touched(txn, shard_id)
        images, writes = self._take_deferred(txn, shard_id)
        outcome = self._clients[shard_id].execute_fused(
            txn, request_for_operation(txn, operation), images, writes,
            timeout, expected_locks=len(plan.requests), trace=trace)
        if not outcome.fallback:
            for oid, fields in outcome.images:
                self.recovery.log_before_image(txn, oid, fields)
            self._mirror_writes(outcome.writes)
        return outcome

    def executing(self, txn: int,
                  projections: Sequence[tuple[OID, tuple[str, ...]]]) -> Any:
        """The scope of one operation executed here, against the mirror.

        Every operation the fused path did not run on its worker executes
        in the engine with *zero* data-plane RPCs: its before-images are
        buffered per shard (they ride that shard's next fused execute or
        its prepare), reads come from the mirror — parity under the held
        locks is the mirror invariant — and writes buffer per shard the
        same way, attributed to ``txn`` for the scope.
        """
        for oid, fields in projections:
            if fields:
                self._deferred_images.setdefault(txn, {}).setdefault(
                    self._router.shard_of_oid(oid), []).append((oid, fields))
        return self._front.transaction(txn)

    def _take_deferred(self, txn: int, shard_id: int) -> tuple[list, list]:
        """Pop this transaction's buffered images and writes for one shard."""
        images = self._deferred_images.get(txn, {}).pop(shard_id, [])
        return images, self._front.take_writes(txn, shard_id)

    def _drop_deferred(self, txn: int) -> None:
        self._deferred_images.pop(txn, None)
        self._front.drop(txn)

    def stage_prepare(self, txn: int, touched: Sequence[int]) -> None:
        """Stage remaining deferred state onto each shard's prepare message
        — local bookkeeping, zero extra round trips."""
        for shard_id in touched:
            images, writes = self._take_deferred(txn, shard_id)
            if images or writes:
                self._clients[shard_id].stage_prepare(txn, images, writes)
        # Buffered state always sits on touched shards (every write is
        # lock-covered); drop the empty bookkeeping either way.
        self._drop_deferred(txn)

    def committed(self, txn: int) -> None:
        """The workers dropped their undo logs in phase two; drop the
        mirror copies."""
        self.recovery.forget(txn)

    def aborted(self, txn: int) -> None:
        """The workers restored their partitions; restore the mirror.

        Unflushed deferred state never reached the workers, so dropping
        the buffers is the whole worker-side undo of it (the clients'
        staged payloads were cleared by their abort calls).  The caller
        still holds the transaction's locks.
        """
        self._drop_deferred(txn)
        self.recovery.undo(txn)

    def _mirror_writes(self, writes: Sequence[tuple[OID, Mapping[str, Any]]]) -> None:
        for oid, values in writes:
            instance = self._store.get(oid)
            for name, value in values.items():
                instance.set(name, value)

    # -- structural changes -------------------------------------------------------

    def create_instance(self, class_name: str, **field_values: Any) -> Any:
        raise TransactionError("shard workers do not serve mid-epoch "
                               "instance creation yet")

    def delete_instance(self, oid: OID) -> None:
        raise TransactionError("shard workers do not serve mid-epoch "
                               "instance deletion yet")

    # -- durability and observability ---------------------------------------------

    def checkpoint(self) -> list[ShardCheckpoint]:
        """Every worker checkpoints its own partition; the decision log is
        then compacted against the keep-sets they report, with the decided
        set read first (a transaction deciding concurrently is not in it
        and survives)."""
        if not self._durability.enabled:
            raise TransactionError("the engine runs with durability off; "
                                   "there is nothing to checkpoint")
        # The engine builds a decision log whenever durability is on.
        assert self._decision_log is not None
        decided = {record.txn for record in self._decision_log.decisions()}
        results = []
        for client in self._clients:
            payload = client.checkpoint()
            results.append(ShardCheckpoint(
                **{**payload, "active": tuple(payload["active"])}))
        compact_decisions(self._decision_log, decided,
                          (txn for result in results for txn in result.active))
        return results

    def wal_bytes(self) -> int:
        """The workers' WAL byte counts (a dead worker contributes nothing
        — its count died with it)."""
        total = 0
        for client in self._clients:
            try:
                total += int(client.hello().get("wal_bytes", 0))
            except ParticipantUnavailable:
                continue
        return total

    def store_state(self) -> dict[str, dict[str, Any]]:
        """The merge of every worker's *own partition* — the mirror store
        is a planning replica, not the authority."""
        merged: dict[str, dict[str, Any]] = {}
        for client in self._clients:
            merged.update(client.snapshot())
        return merged

    def shard_stats(self, top: int, victim_counts: Sequence[int],
                    ) -> tuple[list[dict[str, Any]], list[tuple[str, int, float]]]:
        """Per-shard stats from each worker's ``metrics`` RPC (an
        unreachable worker is reported, not guessed at)."""
        per_shard: list[dict[str, Any]] = []
        hot: list[tuple[str, int, float]] = []
        for shard_id, client in enumerate(self._clients):
            try:
                payload = client.metrics_snapshot()
            except ParticipantUnavailable:
                per_shard.append({"shard": shard_id, "unreachable": True})
                continue
            resources = [(str(name), int(waits), float(wait_time))
                         for name, waits, wait_time
                         in payload.get("hot_resources", ())]
            hot.extend(resources)
            entry = {
                "shard": shard_id,
                "deadlock_victims": int(payload.get(
                    "deadlock_victims", victim_counts[shard_id])),
                "wal_bytes": int(payload.get("wal_bytes", 0)),
                "hot_resources": hot_entries(resources),
                "metrics": payload.get("metrics", {}),
            }
            if payload.get("role") is not None:
                entry["role"] = payload["role"]
            # The primary's shipper view: per-standby lag (LSNs and
            # seconds), stream health, frames shipped.
            if payload.get("replication") is not None:
                entry["replication"] = payload["replication"]
            per_shard.append(entry)
        return per_shard, hot

    def standby_stats(self) -> list[dict[str, Any]]:
        health: list[dict[str, Any]] = []
        for shard_id, standbys in enumerate(self._standbys):
            for client in standbys:
                try:
                    payload = client.metrics_snapshot()
                except ParticipantUnavailable:
                    health.append({"shard": shard_id, "unreachable": True})
                    continue
                health.append({"shard": shard_id,
                               "standby": payload.get("standby")})
        return health

    def merge_cluster_metrics(self, snapshot: dict[str, Any]) -> dict[str, Any]:
        """Merge the workers' WAL byte counts and barrier histograms in.

        Fsync time paid in a worker process is commit-path cost exactly
        like fsync time paid in the engine.  Worker *lock-wait* histograms
        are NOT merged: the engine already recorded every wait via the
        acquire replies, so merging would double-count; the per-shard view
        stays available through :meth:`shard_stats`.  An unreachable worker
        contributes nothing.
        """
        merged = {name: LatencyHistogram.from_snapshot(document)
                  for name, document in snapshot["histograms"].items()}
        for client in self._clients:
            try:
                payload = client.metrics_snapshot()
            except ParticipantUnavailable:
                continue
            snapshot["wal_bytes"] += int(payload.get("wal_bytes", 0))
            barrier = payload.get("metrics", {}).get(
                "histograms", {}).get("barrier")
            if barrier:
                merged["barrier"].merge(
                    LatencyHistogram.from_snapshot(barrier))
        snapshot["histograms"] = {name: histogram.snapshot()
                                  for name, histogram in merged.items()}
        return snapshot

    def drain_spans(self) -> list[Span]:
        """Each reachable worker's recorded spans (drained — they ship once)."""
        return [Span.from_wire(document) for client in self._clients
                for document in client.drain_spans()]


class _WorkerStoreFront:
    """The store cross-shard method bodies execute against in worker mode.

    Identity questions (does the OID exist, what is its class) and reads
    are answered from the mirror — membership is fixed after population,
    and reads are sound because every field the interpreter touches is
    lock-covered and the mirror invariant (mirror value == worker value
    for any locked field) holds from the startup snapshot check onward.
    Writes go to the mirror plus a per-transaction per-shard buffer the
    backend flushes with the next fused execute on that shard or
    piggybacks on its prepare, so a cross-shard execution costs zero
    data-plane RPCs.

    Implements exactly the surface
    :class:`~repro.objects.interpreter.Interpreter` touches.
    """

    def __init__(self, mirror: Any, router: ShardRouter) -> None:
        self._mirror = mirror
        self._router = router
        #: The transaction whose cross-shard execution this thread is
        #: driving (sessions are single-threaded, so thread-local is the
        #: right confinement for the write attribution).
        self._local = threading.local()
        #: txn -> shard -> [(oid, field, value)] buffered writes.  Mutated
        #: only by the owning transaction's session thread.
        self._buffers: dict[int, dict[int, list[tuple[OID, str, Any]]]] = {}

    @contextlib.contextmanager
    def transaction(self, txn: int) -> Iterator[None]:
        """Attribute this thread's writes to ``txn`` for the scope."""
        self._local.txn = txn
        try:
            yield
        finally:
            self._local.txn = None

    @property
    def schema(self) -> Any:
        return self._mirror.schema

    def get(self, oid: OID) -> Any:
        return self._mirror.get(oid)

    def __contains__(self, oid: OID) -> bool:
        return oid in self._mirror

    def read_field(self, oid: OID, field_name: str) -> Any:
        return self._mirror.read_field(oid, field_name)

    def write_field(self, oid: OID, field_name: str, value: Any) -> None:
        txn = getattr(self._local, "txn", None)
        if txn is None:
            raise TransactionError(
                "deferred write outside a transaction scope — cross-shard "
                "execution must run under WorkerShardBackend.executing()")
        self._buffers.setdefault(txn, {}).setdefault(
            self._router.shard_of_oid(oid), []).append(
                (oid, field_name, value))
        self._mirror.write_field(oid, field_name, value)

    def take_writes(self, txn: int, shard_id: int) -> list[tuple[OID, str, Any]]:
        """Pop the buffered writes of ``txn`` destined for ``shard_id``."""
        per_shard = self._buffers.get(txn)
        if not per_shard:
            return []
        return per_shard.pop(shard_id, [])

    def drop(self, txn: int) -> None:
        """Forget every buffered write of ``txn`` (abort, or post-stage)."""
        self._buffers.pop(txn, None)
