"""Unit tests for the blocking lock manager and the deadlock detector."""

from __future__ import annotations

import threading
import time

import pytest

from repro.engine.detector import DeadlockDetector
from repro.engine.locks import BlockingLockManager
from repro.errors import DeadlockError, LockTimeoutError
from repro.locking.manager import LockManager


def exclusive(resource, held, requested):
    """Every pair of modes conflicts (a mutex per resource)."""
    return False


def read_write(resource, held, requested):
    """Classical R/W compatibility."""
    return held == "R" and requested == "R"


def wait_until(predicate, timeout=2.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return False


def test_immediate_grant_returns_zero_wait():
    locks = BlockingLockManager(LockManager(exclusive))
    assert locks.acquire(1, "x", "X") == 0.0
    assert locks.holds(1, "x", "X")


def test_waiter_is_granted_when_holder_releases():
    locks = BlockingLockManager(LockManager(exclusive))
    locks.acquire(1, "x", "X")
    waited: dict[int, float] = {}

    def second():
        waited[2] = locks.acquire(2, "x", "X")

    thread = threading.Thread(target=second)
    thread.start()
    assert wait_until(lambda: locks.waiting("x"))
    locks.release_all(1)
    thread.join(timeout=2.0)
    assert not thread.is_alive()
    assert locks.holds(2, "x", "X")
    assert waited[2] > 0.0


class CountingCondition:
    """The manager's condition variable, counting its ``notify_all`` calls."""

    def __init__(self, condition):
        self._condition = condition
        self.wakeups = 0

    def notify_all(self):
        self.wakeups += 1
        self._condition.notify_all()

    def __getattr__(self, name):
        return getattr(self._condition, name)


def test_release_wakes_waiters_exactly_when_it_promoted_one():
    locks = BlockingLockManager(LockManager(exclusive))
    condition = locks._changed = CountingCondition(locks._changed)
    locks.acquire(1, "a", "X")
    locks.acquire(3, "b", "X")
    granted = threading.Event()

    def second():
        locks.acquire(2, "a", "X")
        granted.set()

    # daemon: a failed assertion below must not leave pytest waiting on it
    thread = threading.Thread(target=second, daemon=True)
    thread.start()
    assert wait_until(lambda: locks.waiting("a"))
    # A release on an unrelated resource changes nothing the waiter is
    # waiting to see: no wake-up, and the waiter stays queued.
    locks.release_all(3)
    assert condition.wakeups == 0
    assert locks.waiting("a") == ((2, "X"),)
    # The holder's commit promotes the waiter: one wake-up, and it arrives.
    locks.release_all(1)
    assert condition.wakeups == 1
    assert granted.wait(timeout=2.0)
    thread.join(timeout=2.0)
    assert not thread.is_alive()
    assert locks.holds(2, "a", "X")
    # Nobody waits any more: the last release wakes no one.
    locks.release_all(2)
    assert condition.wakeups == 1


def test_timeout_expiry_raises_and_withdraws_the_request():
    locks = BlockingLockManager(LockManager(exclusive))
    locks.acquire(1, "x", "X")
    started = time.monotonic()
    with pytest.raises(LockTimeoutError) as excinfo:
        locks.acquire(2, "x", "X", timeout=0.05)
    assert time.monotonic() - started < 1.0
    assert excinfo.value.holders == (1,)
    # The queued request is gone: nothing is waiting, holder is undisturbed.
    assert locks.waiting("x") == ()
    assert locks.holds(1, "x", "X")


def test_default_timeout_applies_when_not_overridden():
    locks = BlockingLockManager(LockManager(exclusive), default_timeout=0.05)
    locks.acquire(1, "x", "X")
    with pytest.raises(LockTimeoutError):
        locks.acquire(2, "x", "X")


def test_timeout_withdrawal_promotes_requests_queued_behind_it():
    # T1 holds R; T2 queues for W; T3's R queues behind T2 for fairness.
    # When T2 times out, T3 must be promoted (R is compatible with R).
    locks = BlockingLockManager(LockManager(read_write))
    locks.acquire(1, "x", "R")
    granted = threading.Event()

    def third():
        locks.acquire(3, "x", "R")
        granted.set()

    def second():
        with pytest.raises(LockTimeoutError):
            locks.acquire(2, "x", "W", timeout=0.2)

    writer = threading.Thread(target=second)
    writer.start()
    assert wait_until(lambda: locks.waiting("x"))
    reader = threading.Thread(target=third)
    reader.start()
    assert wait_until(lambda: len(locks.waiting("x")) == 2)
    writer.join(timeout=2.0)
    assert granted.wait(timeout=2.0)
    assert locks.holds(3, "x", "R")


def test_zero_timeout_is_a_deterministic_fail_fast_try_lock():
    locks = BlockingLockManager(LockManager(exclusive))
    locks.acquire(1, "x", "X")
    started = time.monotonic()
    with pytest.raises(LockTimeoutError) as excinfo:
        locks.acquire(2, "x", "X", timeout=0)
    assert time.monotonic() - started < 0.05, "try-lock must not wait"
    assert excinfo.value.waited == 0.0
    assert excinfo.value.holders == (1,)
    # No queuing side effects: nothing waiting, the holder undisturbed.
    assert locks.waiting("x") == ()
    assert locks.holds(1, "x", "X")


def test_negative_timeout_behaves_like_zero():
    locks = BlockingLockManager(LockManager(exclusive))
    locks.acquire(1, "x", "X")
    with pytest.raises(LockTimeoutError) as excinfo:
        locks.acquire(2, "x", "X", timeout=-1.0)
    assert excinfo.value.waited == 0.0
    assert locks.waiting("x") == ()


def test_zero_timeout_still_grants_a_compatible_request():
    locks = BlockingLockManager(LockManager(read_write))
    locks.acquire(1, "x", "R")
    assert locks.acquire(2, "x", "R", timeout=0) == 0.0
    assert locks.holds(2, "x", "R")


def test_try_lock_probe_leaves_queued_waiters_undisturbed():
    # T1 holds R; T3 queues for W.  T2's R try-lock fails fast (FIFO fairness
    # puts it behind the queued W) and must leave T3 the sole waiter, who
    # still gets the lock when T1 releases.
    locks = BlockingLockManager(LockManager(read_write))
    locks.acquire(1, "x", "R")
    granted = threading.Event()

    def third():
        locks.acquire(3, "x", "W")
        granted.set()

    thread = threading.Thread(target=third)
    thread.start()
    assert wait_until(lambda: locks.waiting("x"))
    with pytest.raises(LockTimeoutError):
        locks.acquire(2, "x", "R", timeout=0)
    assert locks.waiting("x") == ((3, "W"),)
    locks.release_all(1)
    assert granted.wait(timeout=2.0)
    thread.join(timeout=2.0)
    assert not thread.is_alive()


def test_zero_default_timeout_makes_every_acquire_a_try_lock():
    locks = BlockingLockManager(LockManager(exclusive), default_timeout=0.0)
    locks.acquire(1, "x", "X")
    with pytest.raises(LockTimeoutError):
        locks.acquire(2, "x", "X")
    assert locks.waiting("x") == ()


def test_detector_dooms_the_youngest_transaction_of_a_cycle():
    locks = BlockingLockManager(LockManager(exclusive))
    detector = DeadlockDetector(locks, interval=0.01)
    locks.on_block = detector.nudge
    detector.start()
    errors: dict[int, DeadlockError] = {}
    try:
        locks.acquire(1, "a", "X")
        locks.acquire(2, "b", "X")

        def older():
            locks.acquire(1, "b", "X")

        def younger():
            try:
                locks.acquire(2, "a", "X")
            except DeadlockError as error:
                errors[2] = error

        first = threading.Thread(target=older)
        second = threading.Thread(target=younger)
        first.start()
        assert wait_until(lambda: locks.waiting("b"))
        second.start()
        second.join(timeout=5.0)
        assert not second.is_alive(), "the victim was never doomed"
        assert errors[2].victim == 2
        assert set(errors[2].cycle) == {1, 2}
        # Aborting the victim lets the survivor through.
        locks.release_all(2)
        first.join(timeout=5.0)
        assert not first.is_alive()
        assert locks.holds(1, "b", "X")
    finally:
        detector.stop()
    assert not detector.is_alive


def test_doomed_transaction_fails_fast_on_its_next_request():
    locks = BlockingLockManager(LockManager(exclusive))
    locks.acquire(1, "a", "X")

    def fake_wait_cycle():
        # Doom txn 1 directly (as the detector would) without a real cycle.
        with locks._mutex:
            locks._doomed[1] = (1, 2)

    fake_wait_cycle()
    with pytest.raises(DeadlockError):
        locks.acquire(1, "b", "X")
    # release_all clears the doom flag: a later incarnation can lock again.
    locks.release_all(1)
    assert locks.acquire(1, "b", "X") == 0.0


def test_doom_marks_only_transactions_waiting_in_this_manager():
    # A cross-shard coordinator may offer stale victims; a transaction that
    # is not queued here (granted, or finished) must not acquire a doom flag
    # nobody would ever clear.
    locks = BlockingLockManager(LockManager(exclusive))
    locks.acquire(1, "x", "X")
    locks.doom({1: (1, 2), 99: (99, 1)})  # 1 holds (not waits); 99 is gone
    assert locks.doomed_transactions() == frozenset()

    raised = {}

    def second():
        try:
            locks.acquire(2, "x", "X")
        except DeadlockError as error:
            raised[2] = error

    thread = threading.Thread(target=second)
    thread.start()
    assert wait_until(lambda: locks.waiting("x"))
    locks.doom({2: (1, 2)})  # 2 *is* waiting here: doomed and woken
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert raised[2].victim == 2
    locks.release_all(2)
    assert locks.doomed_transactions() == frozenset()


def test_detect_reports_no_victims_on_an_acyclic_graph():
    locks = BlockingLockManager(LockManager(exclusive))
    locks.acquire(1, "x", "X")

    def second():
        locks.acquire(2, "x", "X", timeout=5.0)

    thread = threading.Thread(target=second)
    thread.start()
    assert wait_until(lambda: locks.waiting("x"))
    assert locks.detect() == ()  # a plain wait is not a deadlock
    locks.release_all(1)
    thread.join(timeout=2.0)
    assert not thread.is_alive()
    assert locks.holds(2, "x", "X")


def test_detector_thread_stops_cleanly_and_does_not_leak():
    baseline = threading.active_count()
    locks = BlockingLockManager(LockManager(exclusive))
    detector = DeadlockDetector(locks, interval=0.01)
    detector.start()
    assert detector.is_alive
    detector.stop()
    assert not detector.is_alive
    detector.stop()  # idempotent
    assert threading.active_count() == baseline
