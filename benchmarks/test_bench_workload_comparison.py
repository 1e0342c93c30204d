"""Summary comparison — all protocols on one mixed workload.

This bench is the "who wins" table: every protocol runs the same seeded
banking workload through the discrete-event simulator and the structural
metrics are compared.  The expected shape (the paper's argument):

* the access-vector protocol issues the fewest concurrency controls and lock
  requests (no per-message control, no per-field locks);
* it never deadlocks more than the read/write baseline on the same workload
  and blocks less (pseudo-conflicts are gone);
* the run-time field-locking scheme admits at least as much concurrency but
  pays an order of magnitude more controls.
"""

from repro.reporting import format_records
from repro.sim import Simulator, WorkloadGenerator, populate_store
from repro.txn.protocols import PROTOCOLS

from .conftest import emit


def run_comparison(banking, banking_compiled, transactions=10, seed=5):
    rows = []
    for name, protocol_class in PROTOCOLS.items():
        store = populate_store(banking, {"Account": 8, "SavingsAccount": 8,
                                         "CheckingAccount": 8}, seed=seed)
        generator = WorkloadGenerator(schema=banking, store=store, seed=seed + 1,
                                      operations_per_transaction=3,
                                      extent_fraction=0.05, domain_fraction=0.05,
                                      hotspot_fraction=0.4)
        protocol = protocol_class(banking_compiled, store)
        result = Simulator(protocol).run(generator.transactions(transactions))
        rows.append({"protocol": name, **result.metrics.as_row()})
    return rows


def test_protocol_comparison_on_banking_workload(benchmark, banking, banking_compiled):
    rows = benchmark.pedantic(run_comparison, args=(banking, banking_compiled),
                              rounds=1, iterations=1, warmup_rounds=0)
    by_name = {row["protocol"]: row for row in rows}

    tav = by_name["tav"]
    rw = by_name["rw-instance"]
    field = by_name["field-locking"]

    # Everyone eventually commits the workload.
    for row in rows:
        assert row["committed"] == 10, row

    # Shape checks (the paper's qualitative claims).
    assert tav["control_points"] < rw["control_points"]
    assert tav["lock_requests"] < rw["lock_requests"]
    assert tav["control_points"] * 3 < field["control_points"]
    assert tav["throughput"] >= rw["throughput"]
    # No more aborts and no more waits than the baseline: pseudo-conflicts
    # are what feed blocking and deadlock cycles.  The seeded simulator
    # makes this a fixed schedule, so the claim is asserted exactly here
    # rather than on a threaded run whose deadlocks depend on the host.
    assert tav["aborted"] <= rw["aborted"]
    assert tav["waits"] <= rw["waits"]

    emit("Protocol comparison on the banking workload (10 transactions)",
         format_records(rows, columns=("protocol", "committed", "deadlocks",
                                       "lock_requests", "control_points", "waits",
                                       "upgrades", "makespan", "blocked_steps",
                                       "throughput")))
