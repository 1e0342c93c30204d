"""The standby side of WAL shipping: continuous replay into store and log.

A standby :class:`~repro.sharding.worker.ShardWorker` owns a
:class:`StandbyReplicator`.  The primary's shipper drives it through three
RPCs:

* ``repl_hello`` — the resume handshake.  The standby answers with the
  primary epoch and rewrite generation it last replayed under and the LSN
  of the last *valid* frame in its own log.  A standby that crashed with a
  torn tail simply reports the LSN of the intact prefix — the primary
  re-ships from there, so a torn shipped stream heals on reconnect without
  a full rebase.
* ``repl_frames`` — a batch of stamped frames.  Each record is appended to
  the standby's own write-ahead log *with the primary's LSN* (write-ahead
  before apply, same as the primary) and then applied optimistically:
  after-images and structural records install immediately, before-images
  and prepared markers are log-only.  Applying redo eagerly can leave a
  loser transaction's values in the store — that is fine, because the log
  holds the matching undo images and promotion runs the same presumed-abort
  resolution crash recovery does, which undoes every transaction without a
  durable commit record.
* ``repl_reset`` — a rebase.  Sent when the primary cannot serve the
  standby's position from its current log: first contact with a fresh
  standby, a primary restart (epoch change), or a checkpoint that truncated
  the log mid-stream (rewrite generation change).  The reset carries the
  primary's partition snapshot plus the surviving log; the standby installs
  the snapshot as its new base checkpoint, replaces its own log with the
  shipped one, and resumes streaming from there.

Everything the replicator leaves on disk — ``shard-K.standby.ckpt`` plus
``shard-K.standby.wal`` — is exactly the checkpoint + log shape a shard
replay consumes, so promotion is the one recovery routine of
:mod:`repro.wal.recovery_runner` (``restore_snapshot`` + ``replay_shard``,
the same calls the offline runner and a restarted worker make) run against
the coordinator's durable decision log.  Replay here uses the same
``restore_snapshot`` and ``apply_image``, but stays optimistic: redo
installs with no outcome check, and promotion resolves.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.errors import WALError
from repro.wal.checkpoint import read_checkpoint_file, write_checkpoint_file
from repro.wal.log import WriteAheadLog
from repro.wal.records import (
    InstanceCreated,
    InstanceDeleted,
    RedoImage,
    WALRecord,
    record_from_payload,
)
from repro.wal.recovery_runner import apply_image, restore_snapshot


class StandbyReplicator:
    """Replays a primary's shipped WAL stream into this process's replica."""

    def __init__(self, *, shard_id: int, store: Any, wal: WriteAheadLog,
                 ckpt_path: Path, meta_path: Path, fsync: bool,
                 own_instances: Callable[[], list]) -> None:
        self.shard_id = shard_id
        self._store = store
        self._wal = wal
        self._ckpt_path = Path(ckpt_path)
        self._meta_path = Path(meta_path)
        self._fsync = fsync
        self._own_instances = own_instances
        self._mutex = threading.Lock()
        #: Which primary incarnation (epoch) and rewrite generation the
        #: replayed log belongs to.  Persisted beside the log so a restarted
        #: standby can resume instead of forcing a rebase.
        self._epoch: str | None = None
        self._generation = 0
        self._applied = 0
        self._resets = 0
        self._load_meta()

    # -- persistence of the (epoch, generation) position -------------------------

    def _load_meta(self) -> None:
        try:
            document = json.loads(self._meta_path.read_text(encoding="utf-8"))
        except (FileNotFoundError, json.JSONDecodeError):
            return
        self._epoch = document.get("epoch")
        self._generation = int(document.get("generation", 0))

    def _save_meta(self) -> None:
        self._meta_path.write_text(
            json.dumps({"epoch": self._epoch,
                        "generation": self._generation},
                       separators=(",", ":")) + "\n",
            encoding="utf-8")

    # -- restart ------------------------------------------------------------------

    def replay_existing(self) -> dict[str, Any]:
        """Rebuild the replica from this standby's own checkpoint + log.

        Called once at standby (re)start over files a previous incarnation
        left behind.  The log is read through the torn-tail-safe decoder, so
        a standby killed mid-append resumes from the last intact frame.
        """
        with self._mutex:
            document = read_checkpoint_file(self._ckpt_path) or {"instances": []}
            restored = len(restore_snapshot(self._store, document["instances"]))
            replayed = 0
            for record in self._wal.records():
                self._apply_record(record)
                replayed += 1
            return {"shard": self.shard_id, "restored_instances": restored,
                    "replayed": replayed, "last_lsn": self._wal.last_lsn}

    # -- the three stream RPCs ----------------------------------------------------

    def handshake(self, epoch: str) -> dict[str, Any]:
        """Where replay left off, so the primary can resume or rebase."""
        with self._mutex:
            return {"epoch": self._epoch, "generation": self._generation,
                    "last_lsn": self._wal.last_lsn,
                    "synced": epoch == self._epoch}

    def apply_frames(self, epoch: str, generation: int,
                     frames: Sequence[Any]) -> dict[str, Any]:
        """Append and apply one shipped batch; answers the replay position.

        A batch from a stale primary incarnation or a stale rewrite
        generation is refused — the shipper reacts with a rebase.  Frames
        at or below the replay position are skipped, which is what makes a
        re-ship after a torn tail idempotent.
        """
        with self._mutex:
            if epoch != self._epoch or generation != self._generation:
                raise WALError(
                    f"standby shard {self.shard_id} is at "
                    f"({self._epoch}, gen {self._generation}), refusing "
                    f"frames from ({epoch}, gen {generation})")
            applied = 0
            for lsn, payload in frames:
                lsn = int(lsn)
                if lsn <= self._wal.last_lsn:
                    continue
                record = record_from_payload(payload)
                # Write-ahead before apply, preserving the primary's stamp.
                self._wal.append(record, lsn=lsn)
                self._apply_record(record)
                applied += 1
            self._applied += applied
            return {"last_lsn": self._wal.last_lsn, "applied": applied}

    def reset(self, epoch: str, generation: int, instances: Sequence[Any],
              frames: Sequence[Any]) -> dict[str, Any]:
        """Rebase onto the primary's snapshot + surviving log.

        Installs the snapshot as this standby's base checkpoint (instances
        absent from it are dropped from the replica), replaces the replay
        log with the shipped surviving frames, and records the new
        (epoch, generation) position.
        """
        with self._mutex:
            shipped = set(restore_snapshot(self._store, instances))
            for instance in list(self._own_instances()):
                if instance.oid not in shipped:
                    self._store.delete(instance.oid)
            self._wal.rewrite(lambda record: False)
            active: set[int] = set()
            for lsn, payload in frames:
                record = record_from_payload(payload)
                self._wal.append(record, lsn=int(lsn))
                self._apply_record(record)
                active.add(record.txn)
            snapshot = [(instance.oid, instance.class_name,
                         dict(instance.values))
                        for instance in self._own_instances()]
            # Written directly, not through checkpoint_shard: that one
            # rewrites the log to its keep-set, and this keep-set leaves
            # out txn 0 — the shipped structural records the log must keep.
            write_checkpoint_file(self._ckpt_path, self.shard_id,
                                  sorted(active - {0}), snapshot,
                                  fsync=self._fsync)
            self._epoch = epoch
            self._generation = int(generation)
            self._save_meta()
            self._resets += 1
            return {"last_lsn": self._wal.last_lsn, "reset": True}

    # -- applying -----------------------------------------------------------------

    def _apply_record(self, record: WALRecord) -> None:
        """Optimistic replay of one record into the replica store.

        After-images and structural records install immediately;
        before-images and prepared markers stay log-only — they exist so
        promotion's presumed-abort resolution can undo the losers this
        eager application may have installed.
        """
        if isinstance(record, (InstanceCreated, InstanceDeleted, RedoImage)):
            apply_image(self._store, record)

    # -- observability ------------------------------------------------------------

    def status(self) -> dict[str, Any]:
        """The replica's position and replay counters (metrics RPC)."""
        with self._mutex:
            return {"epoch": self._epoch, "generation": self._generation,
                    "last_lsn": self._wal.last_lsn, "applied": self._applied,
                    "resets": self._resets}
