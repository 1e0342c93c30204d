"""Per-commit memory is bounded: what a long run keeps per transaction.

A time-sized run that commits twice as fast retains twice as much of
whatever grows per commit, so the only things allowed to grow are the two
commit-log columns (an 8-byte id and a label reference).  The coordinator's
in-memory decision list is a fixed window — the durable ``DecisionLog`` is
the authority beyond it — and the window keeps the inspection API intact.
"""

from __future__ import annotations

import gc
import tracemalloc
from pathlib import Path

import repro
from repro.api import InProcessConnection
from repro.engine import Engine
from repro.objects import ObjectStore
from repro.objects.interpreter import Interpreter
from repro.sharding.twopc import (DECISION_WINDOW, ShardParticipant,
                                  TwoPhaseCommitCoordinator)
from repro.sim.workload import populate_store
from repro.txn.protocols import TAVProtocol
from repro.txn.recovery import RecoveryManager

SOURCE_ROOT = str(Path(repro.__file__).resolve().parent)
WARM_UP = DECISION_WINDOW + 200  # past the point where the window is full
MEASURED = 2_000
BYTES_PER_COMMIT = 120


def transfer_calls(accounts, number):
    source = accounts[number % len(accounts)]
    target = accounts[(number * 7 + 1) % len(accounts)]
    return (source, "withdraw", number % 5), (target, "deposit", number % 5)


def transfer(engine, accounts, number):
    with engine.begin(f"transfer.{number}") as session:
        for oid, method, amount in transfer_calls(accounts, number):
            session.call(oid, method, amount)


def test_retained_bytes_per_commit_stay_under_the_budget(banking, banking_compiled):
    store = populate_store(banking, 8, seed=3)
    accounts = store.extent("Account") + store.extent("SavingsAccount")
    # sanitize=False: the budget is the engine's; the opt-in sanitizer keeps
    # its own (bounded, 4096-transaction) memory of released transactions.
    with Engine(TAVProtocol(banking_compiled, store), sanitize=False) as engine:
        # Traced from the start: an untraced warm-up object replaced by a
        # traced one of the same size would read as growth.
        tracemalloc.start()
        try:
            for number in range(WARM_UP):
                transfer(engine, accounts, number)
            gc.collect()
            before = tracemalloc.take_snapshot()
            for number in range(WARM_UP, WARM_UP + MEASURED):
                transfer(engine, accounts, number)
            gc.collect()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert len(engine.commit_log) == WARM_UP + MEASURED
    only_source = [tracemalloc.Filter(True, SOURCE_ROOT + "/*")]
    growth = after.filter_traces(only_source).compare_to(
        before.filter_traces(only_source), "lineno")
    retained = sum(stat.size_diff for stat in growth)
    worst = ", ".join(f"{stat.traceback}: {stat.size_diff} B"
                      for stat in growth[:5])
    assert retained / MEASURED <= BYTES_PER_COMMIT, \
        f"{retained / MEASURED:.0f} B retained per commit ({worst})"


def test_commit_log_is_still_a_tuple_of_id_label_pairs(banking, banking_compiled):
    store = populate_store(banking, 4, seed=3)
    accounts = store.extent("Account") + store.extent("CheckingAccount")
    with Engine(TAVProtocol(banking_compiled, store)) as engine:
        for number in (5, 3, 11, 2):
            transfer(engine, accounts, number)
        with engine.begin() as session:                  # the default label
            session.call(accounts[0], "deposit", 2)
        log = engine.commit_log
        served = InProcessConnection(engine).commit_log()
    assert isinstance(log, tuple) and len(log) == 5
    assert all(type(entry) is tuple and type(entry[0]) is int
               and type(entry[1]) is str for entry in log)
    assert [txn for txn, _ in log] == sorted(txn for txn, _ in log)
    assert [label for _, label in log] == [
        "transfer.5", "transfer.3", "transfer.11", "transfer.2", f"T{log[-1][0]}"]
    assert served == list(log)                            # the CommitLog reply
    # Sequential replay of the log on a replica reproduces the final state.
    replica = populate_store(banking, 4, seed=3)
    interpreter = Interpreter(replica)
    for _, label in log[:-1]:
        for oid, method, amount in transfer_calls(accounts, int(label.split(".")[1])):
            interpreter.send(oid, method, amount)
    interpreter.send(accounts[0], "deposit", 2)
    assert {oid: replica.get(oid).values for oid in replica.extent("Account")
            + replica.extent("CheckingAccount")} == \
        {oid: store.get(oid).values for oid in accounts}


def coordinator_over(banking):
    participant = ShardParticipant(0, RecoveryManager(ObjectStore(banking)))
    return TwoPhaseCommitCoordinator([participant])


def test_decision_for_answers_inside_the_window_and_none_beyond(banking):
    coordinator = coordinator_over(banking)
    assert DECISION_WINDOW >= 1_024
    total = DECISION_WINDOW + 300
    for txn in range(1, total + 1):
        if txn % 3:
            coordinator.record_commit(txn, [0])
        else:
            coordinator.abort(txn, [0])
    decisions = coordinator.decisions
    assert len(decisions) == DECISION_WINDOW
    assert [decision.txn for decision in decisions] == \
        list(range(total - DECISION_WINDOW + 1, total + 1))
    assert decisions[-1] is coordinator.decision_for(total)
    for txn in range(1, total + 1):
        decision = coordinator.decision_for(txn)
        if txn <= total - DECISION_WINDOW:
            assert decision is None
        else:
            assert decision.txn == txn
            assert decision.verdict == ("commit" if txn % 3 else "abort")
    assert coordinator.decision_for(total + 1) is None


def test_a_transactions_latest_decision_wins_and_leaves_with_the_window(banking):
    coordinator = coordinator_over(banking)
    first = coordinator.abort(7, [0])
    second = coordinator.record_commit(7, [0])
    assert coordinator.decisions == (first, second)
    assert coordinator.decision_for(7) is second
    for txn in range(100, 100 + DECISION_WINDOW - 1):
        coordinator.record_commit(txn, [0])
    # `first` has left the window; `second` is now its oldest entry.
    assert coordinator.decisions[0] is second
    assert coordinator.decision_for(7) is second
    coordinator.record_commit(9_999_999, [0])
    assert coordinator.decision_for(7) is None
    assert len(coordinator.decisions) == DECISION_WINDOW


def test_the_engines_decisions_cover_a_stress_run_and_end_with_the_latest(
        banking, banking_compiled):
    store = populate_store(banking, 4, seed=3)
    accounts = store.extent("Account")
    with Engine(TAVProtocol(banking_compiled, store), shards=2) as engine:
        for number in range(120):
            transfer(engine, accounts, number)
        decisions = engine.coordinator.decisions
        assert len(decisions) >= 120
        assert decisions[-1].txn == engine.commit_log[-1][0]
        assert decisions[-1].verdict == "commit"
