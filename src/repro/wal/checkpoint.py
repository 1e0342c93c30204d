"""Fuzzy checkpoints: bound the write-ahead log without stopping the world.

A checkpoint makes one shard's recovery independent of most of its log: it
snapshots the shard's instances to a file and then shrinks the shard's
write-ahead log to just the records of transactions still in flight (the
active-transaction low-water mark) — everything older is either reflected
in the snapshot (committed and aborted work alike) or owned by a
transaction the rewrite carries forward.

The snapshot is *fuzzy*: it is taken under the shard's structural mutex (so
membership cannot tear) but field writes do not take that mutex, so the
image may contain uncommitted values from transactions running right
through the checkpoint.  Two orderings make that safe:

* the write-ahead rule — a before-image reaches the operating system, and
  the in-memory undo log grows, *under the WAL's append mutex and before
  the store write it covers*.  The checkpointer holds that same mutex
  across its keep-read, snapshot and rewrite, so any dirty value the
  snapshot can contain belongs to a transaction whose records are already
  in the log **and** which the keep-read sees as pending — its undo images
  are exactly what the rewrite preserves;
* install order — the new snapshot file is fsynced and renamed into place
  *before* the log is rewritten.  A crash between the two leaves a new
  snapshot with an over-complete log, and replaying too many records is
  idempotent (redo rewrites committed values with themselves, undo rewrites
  restored values with themselves); the reverse order could drop redo
  records the old snapshot still needed.

The checkpoint pass also *compacts the decision log*: once the per-shard
rewrites have run, any decided transaction that no shard WAL still mentions
is invisible to recovery (its effects are entirely inside the snapshots), so
its decision record is dead weight and is dropped.  The ordering that makes
this safe against concurrent commits is documented at
:func:`compact_decisions`.

Both halves are written once, as module functions: :func:`checkpoint_shard`
is the one shard checkpoint (the in-process :class:`CheckpointManager` runs
it per shard, a :class:`~repro.sharding.worker.ShardWorker` over its own
partition) and :func:`compact_decisions` the one compaction (the
in-process manager feeds it a scan of its WALs, the worker backend the
keep-sets its workers' checkpoints report).

:class:`CheckpointManager` also owns the optional background cadence: a
daemon thread calling :meth:`checkpoint` every ``interval`` seconds, started
by the engine when its :class:`~repro.wal.durability.Durability` asks for
one.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from repro.objects.oid import OID
from repro.wal.durability import Durability
from repro.wal.log import DecisionLog, WriteAheadLog, fsync_directory
from repro.wal.records import encode_value

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.sharding.recovery import ShardedRecoveryManager
    from repro.sharding.router import ShardRouter


@dataclass(frozen=True)
class ShardCheckpoint:
    """What one shard's checkpoint pass did."""

    shard_id: int
    instances: int
    active: tuple[int, ...]
    records_kept: int
    records_dropped: int


def write_checkpoint_file(path, shard_id: int, active: Sequence[int],
                          snapshot: Sequence[tuple[OID, str, dict[str, Any]]],
                          *, fsync: bool, last_lsn: int = 0) -> None:
    """Atomically install one shard's snapshot file (tmp + fsync + rename).

    ``last_lsn`` is the highest WAL stamp already reflected in the snapshot.
    """
    document = {
        "shard": shard_id,
        "active": sorted(active),
        "last_lsn": last_lsn,
        "max_oid": max((oid.number for oid, _, _ in snapshot), default=0),
        "instances": encode_instances(snapshot),
    }
    replacement = path.with_suffix(path.suffix + ".tmp")
    with open(replacement, "w", encoding="utf-8") as handle:
        json.dump(document, handle, separators=(",", ":"))
        handle.write("\n")
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    os.replace(replacement, path)
    if fsync:
        fsync_directory(path.parent)


def encode_instances(snapshot: Iterable[tuple[OID, str, Mapping[str, Any]]]) -> list:
    """``(oid, class_name, values)`` triples in the checkpoint document's
    ``instances`` shape — what :func:`write_checkpoint_file` persists, what
    a replication rebase ships and what
    :func:`~repro.wal.recovery_runner.restore_snapshot` reads back."""
    return [[class_name, oid.number,
             {name: encode_value(value) for name, value in values.items()}]
            for oid, class_name, values in snapshot]


def checkpoint_shard(wal: WriteAheadLog, path, shard_id: int,
                     pending: Callable[[], Iterable[int]],
                     snapshot: Callable[[], Sequence[tuple[OID, str, dict[str, Any]]]],
                     *, fsync: bool) -> ShardCheckpoint:
    """Checkpoint one shard: install its snapshot, then shrink its log.

    Runs under the WAL's append mutex.  Appends — and the in-memory log
    growth paired with them — are blocked, so the keep-read (``pending``)
    and the ``snapshot`` see one consistent world: every transaction whose
    dirty values the snapshot may contain is pending here.  The snapshot
    file carries the WAL's ``last_lsn`` as its boundary and is installed
    before the log is rewritten to the keep-set (the install order the
    module docstring argues for).
    """
    with wal.mutex:
        keep = set(pending())
        instances = snapshot()
        write_checkpoint_file(path, shard_id, keep, instances, fsync=fsync,
                              last_lsn=wal.last_lsn)
        kept, dropped = wal.rewrite(lambda record: record.txn in keep)
    return ShardCheckpoint(shard_id=shard_id, instances=len(instances),
                           active=tuple(sorted(keep)),
                           records_kept=kept, records_dropped=dropped)


def compact_decisions(decision_log: DecisionLog, decided: Iterable[int],
                      mentioned: Iterable[int]) -> int:
    """Drop decisions no shard log still mentions; returns how many went.

    The safety argument is pure ordering.  ``decided`` must be read from
    the decision log *before* the shard logs are scanned for
    ``mentioned``; only ``decided - mentioned`` is dropped.  A
    transaction's WAL records (undo images, redo images, PREPARED) are all
    appended *before* its decision exists, so:

    * a transaction deciding after ``decided`` was read is not in it — its
      commit record survives no matter what the scan sees;
    * a transaction in ``decided`` whose records are absent from every
      shard log at the scan can never gain records again (it stopped
      writing when it decided, and the scan ran *after* the decision), so
      its effects are fully inside the checkpoint snapshots — both the redo
      a commit would need and the undo a presumed abort would need are
      moot, and the decision is dead weight.

    ``mentioned`` may over-approximate (a shard's keep-set names pending
    transactions that have no records yet); that only drops less.  It is
    not consumed when nothing is decided.
    """
    droppable = set(decided)
    if droppable:
        droppable.difference_update(mentioned)
    if not droppable:
        return 0
    _kept, dropped = decision_log.compact(droppable)
    return dropped


def read_checkpoint_file(path) -> dict[str, Any] | None:
    """Load a shard's snapshot document, or ``None`` when none was taken.

    A half-written file cannot be observed (installation is an atomic
    rename), but a syntactically broken one is treated as absent rather
    than fatal — recovery then starts that shard from an empty base plus
    whatever the log still holds.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None
    except json.JSONDecodeError:  # pragma: no cover - needs disk corruption
        return None


class CheckpointManager:
    """Snapshots each shard's store and truncates the WAL behind it."""

    def __init__(self, store, router: "ShardRouter",
                 recovery: "ShardedRecoveryManager",
                 wals: Sequence[WriteAheadLog],
                 durability: Durability,
                 decision_log: "DecisionLog | None" = None) -> None:
        self._store = store
        self._router = router
        self._recovery = recovery
        self._wals = tuple(wals)
        self._durability = durability
        self._decision_log = decision_log
        self._checkpoint_mutex = threading.Lock()
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self.checkpoints_taken = 0
        #: Decision records dropped by compaction over this manager's life.
        self.decisions_dropped = 0

    # -- taking checkpoints ------------------------------------------------------

    def checkpoint(self) -> list[ShardCheckpoint]:
        """Checkpoint every shard, one at a time; returns what each did.

        Serialised against itself (a manual call racing the background
        thread just queues), never against the workload — writers only ever
        block for the duration of one shard's snapshot+rewrite.
        """
        with self._checkpoint_mutex:
            results = [self._checkpoint_shard(shard_id)
                       for shard_id in range(len(self._wals))]
            if self._decision_log is not None:
                # Decided first, then the scan, as compact_decisions needs.
                decided = {record.txn for record in self._decision_log.decisions()}
                self.decisions_dropped += compact_decisions(
                    self._decision_log, decided,
                    (record.txn for wal in self._wals for record in wal.records()))
            self.checkpoints_taken += 1
            return results

    def _checkpoint_shard(self, shard_id: int) -> ShardCheckpoint:
        manager = self._recovery.shard_manager(shard_id)
        return checkpoint_shard(self._wals[shard_id],
                                self._durability.checkpoint_path(shard_id),
                                shard_id, manager.pending_transactions,
                                lambda: self._snapshot_shard(shard_id),
                                fsync=self._durability.fsync)

    def _snapshot_shard(self, shard_id: int) -> list[tuple[OID, str, dict[str, Any]]]:
        """This shard's instances, via the store's native snapshot support.

        A :class:`~repro.sharding.store.ShardedObjectStore` snapshots one
        partition under its own mutex; a plain store (lock sharding over
        unpartitioned data) snapshots everything and filters by the router,
        so each instance still lands in exactly one shard's checkpoint.
        """
        snapshot_shard = getattr(self._store, "snapshot_shard", None)
        if snapshot_shard is not None:
            return snapshot_shard(shard_id)
        return [(oid, class_name, values)
                for oid, class_name, values in self._store.snapshot_instances()
                if self._router.shard_of_oid(oid) == shard_id]

    # -- background cadence ------------------------------------------------------

    def start(self, interval: float) -> None:
        """Run :meth:`checkpoint` every ``interval`` seconds until :meth:`stop`."""
        if self._thread is not None:
            return

        def run() -> None:
            while not self._stop.wait(interval):
                self.checkpoint()

        self._thread = threading.Thread(target=run, name="repro-checkpointer",
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop the background thread, if any.  Idempotent."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
