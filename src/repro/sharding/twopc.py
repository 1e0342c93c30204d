"""Two-phase commit across store shards.

A transaction that wrote on more than one shard must still commit or abort
atomically.  The pieces:

* :class:`ShardParticipant` — one per shard.  ``prepare`` validates and
  freezes the shard's before-image log for the transaction (phase one) and
  votes; ``commit`` discards that log (phase two); ``abort`` replays it,
  restoring the shard to its before-images whether or not the shard had
  already prepared.
* :class:`TwoPhaseCommitCoordinator` — collects the votes of every touched
  shard, and keeps the **global decision log**: one
  :class:`CommitDecision` per transaction outcome (in memory, the latest
  :data:`DECISION_WINDOW` of them; the durable
  :class:`~repro.wal.log.DecisionLog` is the authority on anything older).
  The engine appends the commit decision while holding its commit mutex,
  *between* phase one and phase two — that single record is the
  serialisation point that makes a cross-shard commit atomic: until it
  exists every shard can still undo, once it exists every shard must
  complete.

With durability on, the protocol earns its classical meaning.  A
participant's ``prepare`` appends the transaction's redo images (the
after-values of exactly the TAV-projected fields its undo records name — at
prepare time strict 2PL makes those the final values) and a ``PREPARED``
marker to the shard's write-ahead log, then barriers it (fsync under the
``fsync`` policy) *before* voting yes — the durable promise behind the
vote.  The coordinator mirrors every decision into a durable
:class:`~repro.wal.log.DecisionLog`; the commit record is barriered before
phase two begins, and recovery resolves in-doubt transactions against that
file by **presumed abort**: no commit record ⇒ the transaction never
happened.

A participant votes no by raising — or by a ``prepare_veto`` hook returning
a reason, which is how tests and fault-injection exercise the abort path —
and the coordinator turns any veto into a :class:`TwoPhaseCommitError`
after which the engine aborts on *every* touched shard, prepared or not.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import ParticipantUnavailable, TwoPhaseCommitError
from repro.sharding.participant import ParticipantClient
from repro.txn.recovery import RecoveryManager
from repro.wal.log import DecisionLog, WriteAheadLog
from repro.wal.records import PreparedMarker, RedoImage


#: How many of the latest decisions the coordinator keeps in memory.  Nothing
#: in the protocol reads them back — recovery resolves in-doubt transactions
#: against the durable :class:`~repro.wal.log.DecisionLog` — so the window
#: only has to cover what an operator or a test inspects right after the
#: fact, and a long run's memory does not grow with its commit count.
DECISION_WINDOW = 1024


@dataclass(frozen=True)
class CommitDecision:
    """One entry of the coordinator's global decision log."""

    txn: int
    verdict: str  # "commit" or "abort"
    shards: tuple[int, ...]

    @property
    def cross_shard(self) -> bool:
        """Whether the transaction spanned more than one shard."""
        return len(self.shards) > 1


class ShardParticipant(ParticipantClient):
    """The in-process participant: the shard's undo log and prepared set."""

    def __init__(self, shard_id: int, recovery: RecoveryManager,
                 wal: WriteAheadLog | None = None) -> None:
        self.shard_id = shard_id
        self._recovery = recovery
        self._wal = wal
        self._prepared: set[int] = set()
        #: Fault-injection hook: return a reason string to veto a prepare
        #: (``None`` approves).  Exists so tests can force the abort path of
        #: a cross-shard commit without simulating hardware failure.
        self.prepare_veto: Callable[[int], str | None] | None = None

    def prepare(self, txn: int, trace: object = None) -> None:
        """Phase one: flush this shard's log for ``txn``, then vote.

        With a write-ahead log attached, the vote is made durable first:
        redo images for every projection the transaction logged here, a
        ``PREPARED`` marker, and a barrier (fsync under the ``fsync``
        policy).  Only then is yes promised — after this returns, the shard
        can always complete the commit from disk alone.

        ``trace`` is ignored in process: the coordinator's own prepare span
        already times this call, and there is no process hop to attribute.
        The remote participant client forwards it to the worker instead.

        Raises:
            TwoPhaseCommitError: this shard votes no.
        """
        if self.prepare_veto is not None:
            reason = self.prepare_veto(txn)
            if reason is not None:
                raise TwoPhaseCommitError(
                    f"shard {self.shard_id} vetoed prepare of transaction "
                    f"{txn}: {reason}", shard=self.shard_id, txn=txn)
        if self._wal is not None:
            for oid, values in self._recovery.redo_images(txn):
                self._wal.append(RedoImage(txn=txn, oid=oid, values=values))
            self._wal.append(PreparedMarker(txn=txn))
            self._wal.barrier()
        self._prepared.add(txn)

    def commit(self, txn: int, trace: object = None) -> None:
        """Phase two: the global decision exists — discard the undo log."""
        self._recovery.forget(txn)
        self._prepared.discard(txn)

    def abort(self, txn: int, trace: object = None) -> None:
        """Restore this shard to its before-images (prepared or not)."""
        self._recovery.undo(txn)
        self._prepared.discard(txn)

    def is_prepared(self, txn: int) -> bool:
        """Whether ``txn`` is sitting between phase one and phase two here."""
        return txn in self._prepared

    @property
    def recovery(self) -> RecoveryManager:
        """The shard-local undo log this participant manages."""
        return self._recovery

    @property
    def wal(self) -> WriteAheadLog | None:
        """The shard's write-ahead log, when durability is on."""
        return self._wal


class TwoPhaseCommitCoordinator:
    """Drives prepare/commit/abort over the touched participants."""

    def __init__(self, participants: Sequence[ParticipantClient],
                 decision_log: DecisionLog | None = None) -> None:
        self._participants = tuple(participants)
        #: The latest DECISION_WINDOW decisions, oldest first, and the same
        #: decisions by transaction (a transaction's latest one wins).
        self._decisions: deque[CommitDecision] = deque()
        self._decision_of: dict[int, CommitDecision] = {}
        self._decision_log = decision_log
        self._mutex = threading.Lock()
        #: Phase-two/abort calls that found their participant unreachable.
        #: The decision was already durable, so these are survivable — the
        #: restarted worker resolves itself against the decision log — but
        #: they are counted so operators (and tests) can see them.
        self.unavailable_completions = 0
        #: Observability hook: called once per unavailable completion, after
        #: the counter above.  The engine wires it to
        #: ``EngineMetrics.record_unavailable`` so the count reaches the
        #: ``MetricsSnapshot`` reply instead of staying engine-internal.
        self.on_unavailable: Callable[[], None] | None = None

    # -- the protocol ------------------------------------------------------------

    def prepare(self, txn: int, shards: Sequence[int], *,
                tracer: object = None, context: object = None) -> None:
        """Phase one on every touched shard, in shard order.

        With a ``tracer`` and a parent ``context`` (the engine's commit
        span), each participant's vote is wrapped in its own
        ``prepare:shardN`` span, and a child context parented to that span
        rides the prepare RPC so a remote worker's own span joins the tree.

        Raises:
            TwoPhaseCommitError: some shard voted no.  Shards prepared before
                the veto stay prepared; the caller must abort the transaction
                on every touched shard (prepared participants undo exactly
                like unprepared ones).
        """
        if tracer is None or context is None:
            for shard_id in shards:
                self._participants[shard_id].prepare(txn)
            return
        for shard_id in shards:
            with tracer.span(f"prepare:shard{shard_id}", context.trace_id,
                             parent=context.parent, category="2pc",
                             args={"txn": txn, "shard": shard_id}) as span:
                self._participants[shard_id].prepare(
                    txn, trace=span.context().to_wire())

    def record_commit(self, txn: int, shards: Sequence[int]) -> CommitDecision:
        """Append the global commit record — the transaction's serialisation
        point.  The engine calls this under its commit mutex, after every
        vote and before any phase-two work.  With a durable decision log the
        record is barriered to disk before this returns: it is the
        durability point too."""
        return self._record(txn, "commit", shards)

    def wait_commit_durable(self) -> None:
        """Block until every commit record appended so far is durable.

        With group commit the decision log batches its fsyncs; the engine
        calls this *outside* its commit mutex, after :meth:`record_commit`,
        so concurrent committers share one barrier instead of paying one
        fsync each.  Without group commit (or without a durable log at all)
        the record was already durable when ``record_commit`` returned and
        this is a no-op.
        """
        if self._decision_log is not None:
            self._decision_log.wait_durable()

    def complete_commit(self, txn: int, shards: Sequence[int],
                        trace: object = None) -> None:
        """Phase two: discard every touched shard's undo log.

        An unreachable participant does not fail the commit — the decision
        is already durable, so the transaction *is* committed; the dead
        worker redoes it from its own WAL and the decision log when it
        restarts (per-participant recovery).  ``trace`` (the engine's
        phase-two span context) is forwarded so remote workers parent their
        commit spans to it.
        """
        for shard_id in shards:
            try:
                self._participants[shard_id].commit(txn, trace=trace)
            except ParticipantUnavailable:
                self._note_unavailable()

    def abort(self, txn: int, shards: Sequence[int],
              trace: object = None) -> CommitDecision:
        """Undo on every touched shard (before-images restored), log the decision.

        An unreachable participant is tolerated: presumed abort means the
        restarted worker undoes the transaction on its own once it finds no
        commit record for it.
        """
        for shard_id in shards:
            try:
                self._participants[shard_id].abort(txn, trace=trace)
            except ParticipantUnavailable:
                self._note_unavailable()
        return self._record(txn, "abort", shards)

    def _note_unavailable(self) -> None:
        with self._mutex:
            self.unavailable_completions += 1
        if self.on_unavailable is not None:
            self.on_unavailable()

    # -- introspection -----------------------------------------------------------

    @property
    def participants(self) -> tuple[ParticipantClient, ...]:
        """The per-shard participants, indexed by shard id."""
        return self._participants

    @property
    def decisions(self) -> tuple[CommitDecision, ...]:
        """The latest :data:`DECISION_WINDOW` decisions, in decision order."""
        with self._mutex:
            return tuple(self._decisions)

    @property
    def decision_log(self) -> DecisionLog | None:
        """The durable decision log, when durability is on."""
        return self._decision_log

    def decision_for(self, txn: int) -> CommitDecision | None:
        """The recorded outcome of ``txn``; ``None`` while undecided, and
        once the decision has left the in-memory window."""
        with self._mutex:
            return self._decision_of.get(txn)

    # -- internals ---------------------------------------------------------------

    def _record(self, txn: int, verdict: str,
                shards: Sequence[int]) -> CommitDecision:
        decision = CommitDecision(txn=txn, verdict=verdict,
                                  shards=tuple(sorted(shards)))
        if self._decision_log is not None:
            # Durable before visible: once the in-memory log lists a commit,
            # the disk already knows (abort records ride the write-through
            # flush only — presumed abort does not need them).
            self._decision_log.append(decision.txn, decision.verdict,
                                      decision.shards)
        with self._mutex:
            if len(self._decisions) == DECISION_WINDOW:
                oldest = self._decisions.popleft()
                if self._decision_of.get(oldest.txn) is oldest:
                    del self._decision_of[oldest.txn]
            self._decisions.append(decision)
            self._decision_of[txn] = decision
        return decision
