"""Tripwire: an uncontended grant is one bitmap test.

Once a resource has seen a mode, its conflict row is a bitmap, and a
request from a transaction that holds nothing there, on a resource nobody
queues on, is decided by ``granted_mask & conflict[mode]`` alone — the
compatibility callable is not consulted, and neither is it by a release.
The callable is swapped for one that raises (or counts) after the modes
are registered; conversions, queued resources and first-seen modes must
still take the full path and reach it.  The counters the full path moves
are pinned against ``tests/locking/test_waiter_index_model.py``'s oracle;
here they are pinned for the fast case directly.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.engine.locks import BlockingLockManager
from repro.locking.manager import LockManager, LockRequestOutcome, RequestStatus
from repro.sharding.locks import ShardedLockFront
from repro.sharding.router import HashShardRouter


class Tripped(AssertionError):
    pass


def read_write(resource, held, requested):
    return held == "R" and requested == "R"


def trip(resource, held, requested):
    raise Tripped(f"compatible({resource!r}, {held!r}, {requested!r})")


def registered_manager() -> LockManager:
    """A manager whose two resources have seen both modes, now all free."""
    manager = LockManager(read_write)
    for resource in ("a", "b"):
        manager.request(1, resource, "R")
        manager.request(1, resource, "W")
    manager.release_all(1)
    manager._compatible = trip
    return manager


def test_uncontended_grants_and_releases_never_consult_compatibility():
    manager = registered_manager()
    manager.stats.reset()

    outcome = manager.request(2, "a", "R")
    assert outcome == LockRequestOutcome(RequestStatus.GRANTED, "a", "R", 2)
    assert hash(outcome) == hash(
        LockRequestOutcome(RequestStatus.GRANTED, "a", "R", 2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        outcome.mode = "W"
    assert manager.request(3, "a", "R").granted   # compatible holder, no scan
    assert manager.request(2, "b", "W").granted
    assert manager.stats.requests == manager.stats.grants == 3
    assert manager.stats.mask_checks == manager.stats.fast_grants == 3
    assert manager.stats.waits == manager.stats.upgrades == 0
    assert manager.locks_of(2) == {"a": ("R",), "b": ("W",)}

    assert manager.release_all(2) == []
    assert manager.release_all(3) == []
    assert manager.request(4, "a", "W").granted   # the released bits are gone
    assert manager.release_all(4) == []


def test_a_refused_bitmap_test_names_blockers_through_compatibility():
    manager = registered_manager()
    manager.request(2, "a", "W")
    with pytest.raises(Tripped):
        manager.request(3, "a", "R")


def test_a_conversion_takes_the_full_path():
    manager = registered_manager()
    manager.request(2, "a", "R")
    manager.request(3, "a", "R")
    with pytest.raises(Tripped):
        manager.request(2, "a", "W")              # scans the other holder


def test_a_queued_resource_takes_the_full_path():
    manager = LockManager(read_write)
    manager.request(1, "a", "W")
    assert not manager.request(2, "a", "W").granted
    manager.release_all(1)                        # 2 promoted, queue empty
    assert not manager.request(3, "a", "R").granted
    manager._compatible = trip
    with pytest.raises(Tripped):
        manager.request(4, "a", "R")              # FIFO check behind 3


def test_a_first_seen_mode_registers_through_compatibility():
    calls = []

    def counting(resource, held, requested):
        calls.append((resource, held, requested))
        return read_write(resource, held, requested)

    manager = registered_manager()
    manager._compatible = counting
    assert manager.request(2, "a", "R").granted
    assert calls == []
    assert manager.request(3, "b", "S").granted   # a mode "b" never saw
    assert calls                                  # its conflict row was built
    assert manager.stats.mask_checks > 0


def test_a_single_shard_front_walks_its_handle_without_routing():
    shard = BlockingLockManager(LockManager(read_write))
    router = HashShardRouter(1)
    front = ShardedLockFront([shard], router)
    router.shard_of_resource = trip
    assert front.acquire_many(7, [("a", "R"), ("b", "W")]) == [0.0, 0.0]
    assert front.touched_shards(7) == frozenset({0})
    assert shard.holds(7, "a", "R") and shard.holds(7, "b", "W")
    front.release_all(7)
    assert not shard.holds(7, "a")
