"""Locking: lock modes, the lock manager and deadlock detection.

The lock manager is *generic over the commutativity relation*: it stores, per
resource, which transactions hold which modes and whether a requested mode is
compatible is decided by a callable supplied by the concurrency-control
protocol.  This is what lets the same manager serve the paper's per-method
access modes, the classical read/write baseline, the relational decomposition
and the run-time field-locking scheme without special cases.
"""

from repro.locking.modes import (
    ClassLockMode,
    MULTIGRANULARITY_COMPATIBILITY,
    RW_COMPATIBILITY,
    class_lock_compatible,
    multigranularity_compatible,
    rw_compatible,
)
from repro.locking.deadlock import WaitsForGraph, choose_victim, find_cycle
from repro.locking.manager import (
    LockManager,
    LockRequestOutcome,
    LockManagerStats,
    RequestStatus,
    USE_DEFAULT_TIMEOUT,
)

__all__ = [
    "ClassLockMode",
    "LockManager",
    "LockManagerStats",
    "LockRequestOutcome",
    "MULTIGRANULARITY_COMPATIBILITY",
    "RW_COMPATIBILITY",
    "RequestStatus",
    "USE_DEFAULT_TIMEOUT",
    "WaitsForGraph",
    "choose_victim",
    "class_lock_compatible",
    "find_cycle",
    "multigranularity_compatible",
    "rw_compatible",
]
