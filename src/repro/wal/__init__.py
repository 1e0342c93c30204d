"""Durability: write-ahead logging, checkpoints and crash recovery.

The paper's recovery idea (§3) — transitive access vectors double as
projection patterns, so the ``Write`` entries of an operation's TAV are
exactly the before-image a log record needs — stops being a footnote and
becomes a subsystem here:

* :mod:`repro.wal.records` — framed, checksummed log records (undo/redo
  images projected by the TAV, prepare markers, commit decisions);
* :class:`~repro.wal.log.WriteAheadLog` — one append-only, write-through
  file per shard, with barrier (fsync) points and atomic truncation;
* :class:`~repro.wal.log.DecisionLog` — the 2PC coordinator's decision log
  as a durable file; the commit record is the durability point;
* :class:`~repro.wal.durability.Durability` — the ``off``/``lazy``/``fsync``
  configuration threaded through engine → store → participants;
* :class:`~repro.wal.checkpoint.CheckpointManager` — fuzzy per-shard
  snapshots (taken under the shard mutex, noting the active-transaction
  low-water mark) that truncate the WAL behind them;
* :class:`~repro.wal.recovery_runner.RecoveryRunner` — checkpoint + WAL
  replay with **presumed abort** for in-doubt transactions: no commit
  record in the decision log ⇒ undo.

``python -m repro.wal.crashtest`` is the crash-injection harness: it
SIGKILLs an engine mid-workload and verifies the recovered store.
"""

from repro.wal.durability import Durability
from repro.wal.log import DecisionLog, WriteAheadLog, read_records
from repro.wal.checkpoint import CheckpointManager, ShardCheckpoint
from repro.wal.records import (
    DecisionRecord,
    PreparedMarker,
    RedoImage,
    UndoImage,
    WALRecord,
)
from repro.wal.recovery_runner import RecoveryReport, RecoveryResult, RecoveryRunner

__all__ = [
    "CheckpointManager",
    "DecisionLog",
    "DecisionRecord",
    "Durability",
    "PreparedMarker",
    "RecoveryReport",
    "RecoveryResult",
    "RecoveryRunner",
    "RedoImage",
    "ShardCheckpoint",
    "UndoImage",
    "WALRecord",
    "WriteAheadLog",
    "read_records",
]
