"""Crash recovery: rebuild a store from checkpoints, logs and decisions.

The :class:`RecoveryRunner` consumes the directory a crashed engine left
behind — per-shard checkpoint snapshots and write-ahead logs plus the
coordinator's durable decision log — and produces a store holding exactly
the committed state, under the **presumed-abort** rule: a transaction found
in a shard log is redone only if the decision log holds a ``commit`` record
for it; an explicit ``abort`` record and *no record at all* mean the same
thing — the transaction never happened.  (That is why prepare writes its
marker before voting but commit is the only decision that must be durable
before anyone proceeds.)

The per-shard algorithm is written once: :func:`restore_snapshot` loads a
checkpoint, :func:`replay_shard` resolves one shard's log, and
:func:`apply_image` is the one image applier.  The runner calls them for
every shard of a directory, a restarted shard worker and a promoted
standby for their own shard; a standby's optimistic replay uses
:func:`apply_image` alone.

Replay order per shard, after the snapshot is loaded:

0. **structural records, in log order** — creations the snapshot never
   saw, then deletions, so every field image below finds its instance;
1. **undo losers, newest first** — every before-image of every transaction
   without a commit record is restored in reverse log order.  Strict 2PL
   makes this converge on committed values: a loser's before-image is
   always the committed value at the time it took the write lock, and an
   in-doubt loser (crashed holding its locks) is necessarily the last
   writer of its fields;
2. **redo winners, oldest first** — every after-image of every committed
   transaction is re-applied in log order.  Redo images are appended at
   prepare time, so for any one field their log order is the commit order,
   and replay ends on the last committed value whether or not the fuzzy
   snapshot had already caught it (re-applying is idempotent).

Both passes install images only — the before- and after-images of the
access-vector projection — so recovery needs no inverse operations.

The runner is read-only with respect to the directory: recovering twice
from the same files yields the same store, and a recovered workload should
be resumed into a *fresh* durability directory.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import WALError
from repro.objects.oid import OID
from repro.objects.store import ObjectStore
from repro.schema import Schema
from repro.wal.checkpoint import read_checkpoint_file
from repro.wal.durability import Durability
from repro.wal.log import DecisionLog, read_records
from repro.wal.records import (
    InstanceCreated,
    InstanceDeleted,
    RedoImage,
    UndoImage,
    WALRecord,
    decode_value,
)


@dataclass(frozen=True)
class RecoveryReport:
    """What one recovery pass found and did."""

    shards: int
    durability_mode: str
    restored_instances: int
    #: Transactions redone from a durable commit record.
    winners: tuple[int, ...]
    #: Transactions undone: decided aborts whose records were still in a log,
    #: plus every in-doubt transaction.
    losers: tuple[int, ...]
    #: The subset of losers with *no* decision record — resolved purely by
    #: presumed abort.
    in_doubt: tuple[int, ...]
    #: In-doubt transactions that had already voted yes somewhere (a durable
    #: ``PREPARED`` marker without a commit record): the classic window the
    #: presumed-abort rule exists for.
    prepared_in_doubt: tuple[int, ...]
    undo_applied: int
    redo_applied: int
    #: Mid-epoch creations rebuilt from structural WAL records (instances
    #: the base checkpoint never saw).
    created_replayed: int = 0
    #: Mid-epoch deletions re-applied from structural WAL records.
    deleted_replayed: int = 0

    def as_document(self) -> dict[str, Any]:
        """A JSON-ready summary (CI uploads this as the recovery report)."""
        return {
            "shards": self.shards,
            "durability_mode": self.durability_mode,
            "restored_instances": self.restored_instances,
            "winners": list(self.winners),
            "losers": list(self.losers),
            "in_doubt": list(self.in_doubt),
            "prepared_in_doubt": list(self.prepared_in_doubt),
            "undo_applied": self.undo_applied,
            "redo_applied": self.redo_applied,
            "created_replayed": self.created_replayed,
            "deleted_replayed": self.deleted_replayed,
        }


@dataclass
class RecoveryResult:
    """The recovered store together with the report describing the pass."""

    store: Any
    report: RecoveryReport
    #: Per-shard log records as read (tests use these to audit the store
    #: against the log independently of the replay code above).
    shard_records: dict[int, list[WALRecord]] = field(default_factory=dict)


@dataclass
class ShardReplay:
    """What :func:`replay_shard` found and did, named as in :class:`RecoveryReport`."""

    winners: set[int] = field(default_factory=set)
    losers: set[int] = field(default_factory=set)
    in_doubt: set[int] = field(default_factory=set)
    prepared_in_doubt: set[int] = field(default_factory=set)
    undo_applied: int = 0
    redo_applied: int = 0
    created_replayed: int = 0
    deleted_replayed: int = 0
    #: The highest OID number the log mentions; the caller advances the
    #: store's OID generator past it (and past the restored snapshot).
    max_number: int = 0

    def counters(self) -> dict[str, Any]:
        """The :class:`RecoveryReport` fields a replay determines."""
        document = asdict(self)
        del document["max_number"]
        return {name: tuple(sorted(value)) if isinstance(value, set) else value
                for name, value in document.items()}


def restore_snapshot(store: Any, instances: Iterable[Sequence[Any]]) -> list[OID]:
    """Install checkpoint-document instances into ``store``; returns their OIDs.

    ``instances`` holds ``[class_name, number, encoded values]`` entries, the
    shape :func:`~repro.wal.checkpoint.write_checkpoint_file` writes.
    Ascending OID order reproduces creation order, which keeps a fresh
    store's merged views identical to a clean store's.  An instance the
    store already holds (a worker's deterministic population) is restored
    in place; any other is re-created under its original OID.
    """
    restored: list[OID] = []
    for class_name, number, values in sorted(instances, key=lambda item: item[1]):
        oid = OID(class_name=class_name, number=number)
        decoded = {name: decode_value(value) for name, value in values.items()}
        if oid in store:
            store.get(oid).restore(decoded)
        else:
            store.restore_instance(oid, class_name, decoded)
        restored.append(oid)
    return restored


def replay_shard(store: Any, records: Sequence[WALRecord],
                 outcomes: Mapping[int, str],
                 replay: ShardReplay | None = None) -> ShardReplay:
    """Resolve one shard's log ``records`` into ``store`` under presumed abort.

    ``store`` already holds the shard's restored snapshot; ``outcomes``
    maps transactions to the verdicts of the durable decision log.  A
    transaction is a winner only with a ``commit`` verdict — an ``abort``
    and no verdict at all both make it a loser.  The passes run in the
    order the module docstring gives.  What the replay finds is added to
    ``replay`` (a fresh one by default), so one summary can span several
    shards; it is returned.
    """
    if replay is None:
        replay = ShardReplay()
    # Structural records first, in log order: a creation the base
    # checkpoint never saw must exist before any field image of it can be
    # undone or redone; a deletion wins over both (the field images of a
    # deleted instance are skipped like always).
    for record in records:
        if isinstance(record, InstanceCreated):
            replay.max_number = max(replay.max_number, record.oid.number)
            replay.created_replayed += apply_image(store, record)
        elif isinstance(record, InstanceDeleted):
            replay.deleted_replayed += apply_image(store, record)
    for record in records:
        if isinstance(record, (InstanceCreated, InstanceDeleted)):
            continue
        verdict = outcomes.get(record.txn)
        if verdict == "commit":
            replay.winners.add(record.txn)
        else:
            replay.losers.add(record.txn)
            if verdict is None:
                replay.in_doubt.add(record.txn)
                if record.kind == "prepared":
                    replay.prepared_in_doubt.add(record.txn)
        oid = getattr(record, "oid", None)
        if oid is not None:
            replay.max_number = max(replay.max_number, oid.number)
    for record in reversed(records):
        if isinstance(record, UndoImage) \
                and outcomes.get(record.txn) != "commit":
            replay.undo_applied += apply_image(store, record)
    for record in records:
        if isinstance(record, RedoImage) \
                and outcomes.get(record.txn) == "commit":
            replay.redo_applied += apply_image(store, record)
    return replay


def apply_image(store: Any, record: "InstanceCreated | InstanceDeleted "
                                    "| UndoImage | RedoImage") -> int:
    """Install one WAL image into ``store``: 1 if it changed it, else 0.

    The one image applier, for crash recovery, promotion and standby replay
    alike.  It writes with no locks, no undo tracking and no logging of its
    own, which is sound only because its callers replay a log whose
    write-ahead order was enforced when the records were produced (lint
    rule L8 pins its call sites).  A creation the store already holds, a
    deletion of an instance it lacks and a field image of an instance lost
    to the crash are skipped (creations become durable only through
    checkpoints and structural records).
    """
    if isinstance(record, InstanceCreated):
        if record.oid in store:
            return 0
        # record_from_payload already decoded the values (OID tags
        # restored) — no second pass needed.
        store.restore_instance(record.oid, record.class_name, dict(record.values))
        return 1
    if record.oid not in store:
        return 0
    if isinstance(record, InstanceDeleted):
        store.delete(record.oid)
        return 1
    instance = store.get(record.oid)
    for name, value in record.values.items():
        instance.set(name, value)
    return 1


class RecoveryRunner:
    """Rebuilds committed state from a crashed engine's durability directory."""

    def __init__(self, durability: Durability, schema: Schema,
                 router=None) -> None:
        if not durability.enabled:
            raise WALError("recovery needs a durability configuration with "
                           "a directory (mode 'lazy' or 'fsync')")
        self._durability = durability
        self._schema = schema
        meta = durability.read_meta()
        self._num_shards = int(meta["shards"])
        if router is None:
            from repro.sharding.router import HashShardRouter

            router = HashShardRouter(self._num_shards)
        if router.num_shards != self._num_shards:
            raise WALError(
                f"router has {router.num_shards} shards but the directory "
                f"was written by a {self._num_shards}-shard engine")
        self._router = router

    @property
    def num_shards(self) -> int:
        """The shard count the crashed engine ran with."""
        return self._num_shards

    @property
    def router(self) -> Any:
        """The placement recovery restores instances with."""
        return self._router

    # -- the pass ----------------------------------------------------------------

    def recover(self, store: Any | None = None) -> RecoveryResult:
        """Rebuild a store: checkpoints, then each shard's log replayed.

        ``store`` optionally supplies the empty store to restore into; by
        default a :class:`~repro.sharding.store.ShardedObjectStore` over the
        runner's router (or a plain :class:`ObjectStore` for one shard).
        Every shard's snapshot is restored before any log is replayed, so
        the restore sees all instances in one ascending-OID pass.
        """
        if store is None:
            store = self._fresh_store()
        outcomes = DecisionLog.outcomes_at(self._durability.decisions_path)
        snapshot: list[Any] = []
        for shard_id in range(self._num_shards):
            document = read_checkpoint_file(
                self._durability.checkpoint_path(shard_id))
            if document is not None:
                snapshot.extend(document["instances"])
        restored = restore_snapshot(store, snapshot)

        replay = ShardReplay(
            max_number=max((oid.number for oid in restored), default=0))
        shard_records: dict[int, list[WALRecord]] = {}
        for shard_id in range(self._num_shards):
            records = list(read_records(self._durability.wal_path(shard_id)))
            shard_records[shard_id] = records
            replay_shard(store, records, outcomes, replay)
        store.advance_oids_past(replay.max_number)
        report = RecoveryReport(
            shards=self._num_shards,
            durability_mode=self._durability.mode,
            restored_instances=len(restored),
            **replay.counters())
        return RecoveryResult(store=store, report=report,
                              shard_records=shard_records)

    # -- auditing ----------------------------------------------------------------

    @staticmethod
    def presumed_abort_violations(result: RecoveryResult) -> list[str]:
        """In-doubt writes that outlived recovery, as human-readable strings.

        The oracle is independent of the replay order above: an in-doubt
        transaction crashed holding its write locks, so for every field it
        logged, *no other transaction wrote after it* — the recovered value
        must equal the transaction's **oldest** before-image for that field
        (the committed value when it first took the lock).  An empty list is
        the "no in-doubt writes survive without a commit record" guarantee.
        """
        violations: list[str] = []
        in_doubt = set(result.report.in_doubt)
        for shard_id, records in result.shard_records.items():
            expected: dict[tuple[OID, str], Any] = {}
            for record in records:
                if isinstance(record, UndoImage) and record.txn in in_doubt:
                    for name, value in record.values.items():
                        expected.setdefault((record.oid, name), value)
            for (oid, name), value in expected.items():
                if oid not in result.store:
                    continue
                actual = result.store.read_field(oid, name)
                if actual != value:
                    violations.append(
                        f"shard {shard_id}: {oid}.{name} = {actual!r} but an "
                        f"in-doubt transaction's before-image says {value!r}")
        return violations

    # -- internals ---------------------------------------------------------------

    def _fresh_store(self) -> Any:
        if self._num_shards == 1:
            return ObjectStore(self._schema)
        from repro.sharding.store import ShardedObjectStore

        return ShardedObjectStore(self._schema, self._router)
