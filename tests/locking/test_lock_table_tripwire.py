"""Construction tripwire: no lock-manager operation iterates the lock table.

With thousands of resources interned, ``manager._entries`` is swapped for a
dict that still answers lookups but raises on any iteration; the whole
request → wait → cancel → release → deadlock-detector-query cycle must then
run unchanged.  A method that goes back to scanning the table fails here by
construction, whatever the scan would have cost.
"""

from __future__ import annotations

from repro.locking.manager import LockManager

INTERNED = 5_000


class NoWalkDict(dict):
    """A dict whose lookups work and whose iteration is an error."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("the lock table was iterated")

    __iter__ = items = values = keys = _refuse


def read_write(resource, held, requested):
    return held == "R" and requested == "R"


def test_nothing_on_the_transaction_path_iterates_the_lock_table():
    manager = LockManager(read_write)
    for number in range(INTERNED):
        manager.request(1, ("instance", number), "W")
    manager.release_all(1)
    manager._entries = NoWalkDict(manager._entries)
    assert len(manager._entries) == INTERNED
    first, second, fresh = ("instance", 7), ("instance", 4_321), ("instance", INTERNED)

    assert manager.request(2, first, "W").granted
    assert manager.request(2, fresh, "R").granted          # interns a new entry
    assert not manager.request(3, first, "R").granted      # waits behind 2
    assert not manager.request(4, first, "W").granted
    assert manager.request(3, second, "W").granted
    assert not manager.request(4, second, "R").granted     # queued on two resources
    assert not manager.request(2, second, "R").granted     # 2 -> 3 -> 2: a cycle

    assert manager.blocked_transactions() == frozenset({2, 3, 4})
    assert manager.waits_for_edges() == {3: {2}, 4: {2, 3}, 2: {3}}

    assert manager.cancel(2, second, "R") == []
    assert manager.blocked_transactions() == frozenset({3, 4})

    promoted = manager.release_all(2)
    assert [(o.txn, o.resource, o.mode) for o in promoted] == [(3, first, "R")]
    assert manager.waits_for_edges() == {4: {3}}

    # A transaction that only ever waited leaves through the same lookups.
    assert manager.release_all(4) == []
    assert manager.blocked_transactions() == frozenset()
    assert manager.release_all(3) == []
    assert manager.locks_of(3) == {} and manager.waits_for_edges() == {}
    assert len(manager._entries) == INTERNED + 1            # entries are kept
