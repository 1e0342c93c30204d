"""Sharding: partitioned store, per-shard lock managers, cross-shard 2PC.

The single-shard engine of :mod:`repro.engine` funnels every worker thread
through one store mutex and one lock-manager condition variable.  This
package removes that funnel:

* :class:`~repro.sharding.router.ShardRouter` — deterministic placement of
  OIDs, classes and lock resources onto shards
  (:class:`~repro.sharding.router.HashShardRouter` for OID-hash round-robin,
  :class:`~repro.sharding.router.ClassShardRouter` for by-class placement);
* :class:`~repro.sharding.store.ShardedObjectStore` — the
  :class:`~repro.objects.store.ObjectStore` API over N independently-locked
  partitions, with merged views in creation order;
* :class:`~repro.sharding.locks.ShardedLockFront` — one
  :class:`~repro.engine.locks.BlockingLockManager` per shard (own mutex, own
  condition variable) with deadlock detection over the *union* of the
  per-shard waits-for graphs;
* :class:`~repro.sharding.recovery.ShardedRecoveryManager` — before-image
  undo logs partitioned by the written instance's shard;
* :class:`~repro.sharding.twopc.TwoPhaseCommitCoordinator` /
  :class:`~repro.sharding.twopc.ShardParticipant` — prepare/commit/abort
  over the touched shards with a global decision log whose commit record is
  the transaction's serialisation point.

:class:`repro.engine.engine.Engine` accepts ``shards=N`` (or adopts the
router of a sharded store) and wires all of this together through a
:class:`~repro.sharding.backends.LocalShardBackend`; the throughput
harness exposes it as ``python -m repro.engine.harness --shards N``.

Since PR 5 a shard can also live in its **own OS process**:
:class:`~repro.sharding.participant.ParticipantClient` is the
transport-agnostic participant interface,
:mod:`repro.sharding.rpc` carries the participant protocol (locks, fused
execution, deferred writes, 2PC) over the API's frames,
``python -m repro.sharding.worker`` owns one shard's partition, lock
manager, undo log and WAL, and
:class:`~repro.sharding.backends.WorkerShardBackend` owns the cluster of
them (spawn, standbys, failover, the mirror-backed data plane) —
``Engine(shard_workers=N)`` / ``repro-bench --shard-workers N`` is the
multi-core configuration.  (The ``rpc``, ``worker`` and ``backends``
modules are imported on demand, not here: the worker and the local
backend pull in the engine package, which imports this one.)
"""

from repro.sharding.router import ClassShardRouter, HashShardRouter, ShardRouter
from repro.sharding.store import ShardedObjectStore
from repro.sharding.locks import ShardedLockFront
from repro.sharding.participant import ParticipantClient
from repro.sharding.recovery import ShardedRecoveryManager
from repro.sharding.twopc import (
    CommitDecision,
    ShardParticipant,
    TwoPhaseCommitCoordinator,
)

__all__ = [
    "ClassShardRouter",
    "CommitDecision",
    "HashShardRouter",
    "ParticipantClient",
    "ShardParticipant",
    "ShardRouter",
    "ShardedLockFront",
    "ShardedObjectStore",
    "ShardedRecoveryManager",
    "TwoPhaseCommitCoordinator",
]
