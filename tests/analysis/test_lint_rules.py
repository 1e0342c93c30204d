"""Seeded-violation tests: every lint rule fires on a deliberate violation.

Each rule is exercised against a small fixture tree under ``tmp_path`` —
:func:`repro.analysis.findings.module_name` scopes modules by the rightmost
``repro`` path component, so ``tmp_path/repro/engine/engine.py`` is linted
exactly like the real ``repro.engine.engine``.  No checker ships
unfalsified: a rule that cannot be made to fire here does not exist.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.findings import module_name
from repro.analysis.linter import lint_paths, main
from repro.analysis.rules import ALL_RULES

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def write_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    for relative, content in files.items():
        target = tmp_path / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(content, encoding="utf-8")
    return tmp_path / "repro"


def codes_of(findings) -> list[str]:
    return [finding.code for finding in findings]


# -- the rules, one seeded violation each ------------------------------------


ERRORS_MODULE = '''
class ReproError(Exception):
    code = "REPRO"

class GoodError(ReproError):
    code = "GOOD"
'''


def test_l1_fires_on_error_class_without_its_own_code(tmp_path):
    tree = write_tree(tmp_path, {"repro/errors.py": '''
class ReproError(Exception):
    code = "REPRO"

class Naked(ReproError):
    pass
'''})
    findings = lint_paths([tree])
    assert codes_of(findings) == ["L1"]
    assert "Naked" in findings[0].message


def test_l1_fires_on_colliding_codes(tmp_path):
    tree = write_tree(tmp_path, {"repro/errors.py": '''
class ReproError(Exception):
    code = "REPRO"

class First(ReproError):
    code = "DUP"

class Second(ReproError):
    code = "DUP"
'''})
    findings = lint_paths([tree])
    assert codes_of(findings) == ["L1"]
    assert "collides" in findings[0].message


def test_l1_fires_on_error_subclass_outside_repro_errors(tmp_path):
    tree = write_tree(tmp_path, {
        "repro/errors.py": ERRORS_MODULE,
        "repro/engine/oops.py": '''
from repro.errors import GoodError

class Rogue(GoodError):
    code = "ROGUE"
''',
    })
    findings = lint_paths([tree])
    assert codes_of(findings) == ["L1"]
    assert "outside repro.errors" in findings[0].message


def test_l2_fires_on_release_before_state_flip(tmp_path):
    tree = write_tree(tmp_path, {"repro/engine/engine.py": '''
class Engine:
    def commit(self, transaction):
        self._locks.release_all(transaction.txn_id)
        transaction.state = COMMITTED
'''})
    findings = lint_paths([tree])
    assert codes_of(findings) == ["L2"]
    assert "before the transaction-state mutation" in findings[0].message


def test_l2_fires_when_abort_never_flips_state(tmp_path):
    tree = write_tree(tmp_path, {"repro/txn/manager.py": '''
class TransactionManager:
    def abort(self, transaction):
        self._locks.release_all(transaction.txn_id)
'''})
    findings = lint_paths([tree])
    assert codes_of(findings) == ["L2"]
    assert "never mutates" in findings[0].message


def test_l2_is_quiet_when_state_flips_first(tmp_path):
    tree = write_tree(tmp_path, {"repro/engine/engine.py": '''
class Engine:
    def commit(self, transaction):
        transaction.state = COMMITTED
        self._locks.release_all(transaction.txn_id)
'''})
    assert lint_paths([tree]) == []


def test_l2_counts_the_commit_log_append_as_the_state_mutation(tmp_path):
    tree = write_tree(tmp_path, {"repro/engine/engine.py": '''
class Engine:
    def commit(self, transaction):
        self._commit_ids.append(transaction.txn_id)
        self._commit_labels.append("label")
        self._locks.release_all(transaction.txn_id)

    def abort(self, transaction):
        self._locks.release_all(transaction.txn_id)
        self._commit_ids.append(transaction.txn_id)
'''})
    findings = lint_paths([tree])
    assert codes_of(findings) == ["L2"]
    assert "Engine.abort" in findings[0].message


def test_l3_fires_on_direct_store_write_in_engine_code(tmp_path):
    tree = write_tree(tmp_path, {"repro/engine/shortcut.py": '''
def hurry(store, oid, value):
    store.write_field(oid, "balance", value)
'''})
    findings = lint_paths([tree])
    assert codes_of(findings) == ["L3"]
    assert "write-ahead" in findings[0].message


def test_l3_fires_on_instance_set_in_sharding_code(tmp_path):
    tree = write_tree(tmp_path, {"repro/sharding/patch.py": '''
def poke(instance):
    instance.set("balance", 0.0)
'''})
    assert codes_of(lint_paths([tree])) == ["L3"]


def test_l3_allowlists_the_sharded_store_itself(tmp_path):
    tree = write_tree(tmp_path, {"repro/sharding/store.py": '''
class ShardedObjectStore:
    def write_field(self, oid, field, value):
        self._partitions[0].write_field(oid, field, value)
'''})
    assert lint_paths([tree]) == []


def test_l3_ignores_non_engine_packages(tmp_path):
    tree = write_tree(tmp_path, {"repro/objects/store.py": '''
def apply(store, oid, value):
    store.write_field(oid, "balance", value)
'''})
    assert lint_paths([tree]) == []


def test_l4_fires_on_fsync_outside_the_wal(tmp_path):
    tree = write_tree(tmp_path, {"repro/engine/eager.py": '''
import os

def persist(fd):
    os.fsync(fd)
'''})
    findings = lint_paths([tree])
    assert codes_of(findings) == ["L4"]
    assert "repro.wal" in findings[0].message


def test_l4_allows_fsync_inside_the_wal(tmp_path):
    tree = write_tree(tmp_path, {"repro/wal/log.py": '''
import os

def barrier(fd):
    os.fsync(fd)
'''})
    assert lint_paths([tree]) == []


def test_l5_fires_on_thread_without_daemon_or_name(tmp_path):
    tree = write_tree(tmp_path, {"repro/engine/pool.py": '''
import threading

def start(fn):
    thread = threading.Thread(target=fn)
    thread.start()
'''})
    findings = lint_paths([tree])
    assert codes_of(findings) == ["L5"]
    assert "daemon/name" in findings[0].message


def test_l5_is_quiet_with_both_keywords(tmp_path):
    tree = write_tree(tmp_path, {"repro/engine/pool.py": '''
import threading

def start(fn):
    threading.Thread(target=fn, daemon=True, name="worker").start()
'''})
    assert lint_paths([tree]) == []


def test_l6_fires_on_wall_clock_ordering_in_locking_code(tmp_path):
    tree = write_tree(tmp_path, {"repro/locking/manager.py": '''
import time

def stamp():
    return time.time()
'''})
    findings = lint_paths([tree])
    assert codes_of(findings) == ["L6"]
    assert "monotonic" in findings[0].message


def test_l6_allows_monotonic_and_other_packages(tmp_path):
    tree = write_tree(tmp_path, {
        "repro/locking/manager.py": '''
import time

def stamp():
    return time.monotonic()
''',
        "repro/sim/clock.py": '''
import time

def now():
    return time.time()
''',
    })
    assert lint_paths([tree]) == []


def test_l7_fires_on_per_operation_round_trips_in_a_loop(tmp_path):
    tree = write_tree(tmp_path, {"repro/api/client.py": '''
from repro.api.wire import recv_frame, send_frame

def request_each(sock, messages):
    replies = []
    for message in messages:
        send_frame(sock, message)
        replies.append(recv_frame(sock))
    return replies
'''})
    findings = lint_paths([tree])
    assert codes_of(findings) == ["L7", "L7"]
    assert "round trip" in findings[0].message


def test_l7_fires_on_raw_socket_calls_in_a_while_loop(tmp_path):
    tree = write_tree(tmp_path, {"repro/sharding/rpc.py": '''
def drain(sock):
    while True:
        sock.sendall(b"ping")
        if not sock.recv(4):
            return
'''})
    findings = lint_paths([tree])
    assert codes_of(findings) == ["L7", "L7"]


def test_l7_allows_single_round_trips_and_the_batch_codec(tmp_path):
    tree = write_tree(tmp_path, {
        # One send/recv pair outside any loop: the normal request path.
        "repro/api/client.py": '''
from repro.api.wire import recv_frame, send_frame

def request(sock, message):
    send_frame(sock, message)
    return recv_frame(sock)
''',
        # The codec itself loops over frames — out of scope by module.
        "repro/api/wire.py": '''
def recv_frames(sock, count):
    documents = []
    for _ in range(count):
        chunk = sock.recv(65536)
        documents.append(chunk)
    return documents
''',
    })
    assert lint_paths([tree]) == []


def test_l7_pragma_permits_a_deliberate_per_iteration_exchange(tmp_path):
    tree = write_tree(tmp_path, {"repro/api/client.py": '''
from repro.api.wire import recv_frame, send_frame

def poll(sock, message):
    while True:
        send_frame(sock, message)  # repro-lint: disable=L7
        reply = recv_frame(sock)  # repro-lint: disable=L7
        if reply is not None:
            return reply
'''})
    assert lint_paths([tree]) == []


def test_l8_fires_on_applier_call_outside_replay_context(tmp_path):
    tree = write_tree(tmp_path, {"repro/replication/ship.py": '''
def fast_path(replicator, record):
    replicator._apply_record(record)
'''})
    findings = lint_paths([tree])
    assert codes_of(findings) == ["L8"]
    assert "replay/recovery" in findings[0].message


def test_l8_fires_on_image_apply_from_the_data_plane(tmp_path):
    tree = write_tree(tmp_path, {"repro/sharding/worker.py": '''
class ShardWorker:
    def _commit(self, request):
        for image in request["images"]:
            self._apply_image(image)
'''})
    assert codes_of(lint_paths([tree])) == ["L8"]


def test_l8_allows_the_standby_replay_sites(tmp_path):
    tree = write_tree(tmp_path, {"repro/replication/standby.py": '''
class StandbyReplicator:
    def replay_existing(self):
        for record in self._wal.read_records():
            self._apply_record(record)

    def apply_frames(self, epoch, generation, frames):
        for record in frames:
            self._apply_record(record)
'''})
    assert lint_paths([tree]) == []


def test_l8_allows_recovery_in_the_shard_worker(tmp_path):
    tree = write_tree(tmp_path, {"repro/sharding/worker.py": '''
class ShardWorker:
    def _recover_own_shard(self):
        for image in self._wal.read_records():
            self._apply_image(image)
'''})
    assert lint_paths([tree]) == []


def test_l3_fires_on_direct_store_write_in_replication_code(tmp_path):
    tree = write_tree(tmp_path, {"repro/replication/ship.py": '''
def patch(store, oid, value):
    store.write_field(oid, "balance", value)
'''})
    findings = lint_paths([tree])
    assert codes_of(findings) == ["L3"]
    assert "write-ahead" in findings[0].message


def test_l3_allowlists_the_standby_applier(tmp_path):
    tree = write_tree(tmp_path, {"repro/replication/standby.py": '''
class StandbyReplicator:
    def _apply_record(self, record):
        self._store.write_field(record.oid, record.field, record.value)
'''})
    assert lint_paths([tree]) == []


def test_l9_fires_on_direct_protocol_plan_in_engine_code(tmp_path):
    tree = write_tree(tmp_path, {"repro/engine/fastpath.py": '''
def execute(protocol, transaction, operation):
    plan = protocol.plan(operation)
    return plan
'''})
    findings = lint_paths([tree])
    assert codes_of(findings) == ["L9"]
    assert "PlanCache" in findings[0].message


def test_l9_fires_on_schema_recompile_outside_setup(tmp_path):
    tree = write_tree(tmp_path, {"repro/sharding/worker.py": '''
from repro.core import compile_schema

class ShardWorker:
    def _execute(self, request):
        compiled = compile_schema(self._schema)
        return compiled
'''})
    findings = lint_paths([tree])
    assert codes_of(findings) == ["L9"]
    assert "once at setup" in findings[0].message


def test_l9_fires_on_a_template_plan_taken_around_the_entry_point(tmp_path):
    tree = write_tree(tmp_path, {"repro/sharding/worker.py": '''
class ShardWorker:
    def _execute_fused(self, request):
        plan = self._protocol.template_plan(request.operation)
        if plan is None:
            plan = self._protocol.plan(request.operation)
        return plan
'''})
    findings = lint_paths([tree])
    assert codes_of(findings) == ["L9", "L9"]
    assert "template_plan()" in findings[0].message
    assert "final flag" in findings[0].message


def test_l9_allows_cache_plans_and_setup_compilation(tmp_path):
    tree = write_tree(tmp_path, {"repro/engine/fastpath.py": '''
from repro.core import compile_schema

class Engine:
    def __init__(self, schema):
        self._compiled = compile_schema(schema)

    def execute(self, transaction, operation):
        plan, final = self._plans.plan(operation)
        while not final:
            plan, final = self._plans.plan(operation)
        return plan
'''})
    assert lint_paths([tree]) == []


def test_l9_ignores_planner_calls_outside_hot_path_packages(tmp_path):
    tree = write_tree(tmp_path, {"repro/sim/simulator.py": '''
def step(protocol, operation):
    return protocol.plan(operation)
'''})
    assert lint_paths([tree]) == []


def test_l10_fires_on_topology_conditionals_in_engine_methods(tmp_path):
    tree = write_tree(tmp_path, {"repro/engine/engine.py": '''
from repro.sharding.rpc import RemoteShardClient


class Engine:
    def __init__(self, shard_workers=None):
        self._workers = None if shard_workers is None else ()

    def commit(self, txn):
        if self._workers is not None:
            return "remote"
        return "vectored" if self._vectored else "classic"

    def stats(self):
        return [handle for handle in self._handles
                if isinstance(handle, RemoteShardClient)]

    def failover(self, shard_id):
        while not self._standbys[shard_id]:
            pass
        assert not isinstance(self._backend, LocalShardBackend)
'''})
    findings = lint_paths([tree])
    assert codes_of(findings) == ["L10"] * 5
    assert "_workers" in findings[0].message
    assert "Engine.commit" in findings[0].message
    assert "_vectored" in findings[1].message
    assert "isinstance(..., RemoteShardClient)" in findings[2].message
    assert "_standbys" in findings[3].message
    assert "isinstance(..., LocalShardBackend)" in findings[4].message


def test_l10_allows_the_constructor_and_backend_delegation(tmp_path):
    tree = write_tree(tmp_path, {
        "repro/engine/engine.py": '''
class Engine:
    def __init__(self, shard_workers=None):
        if shard_workers is None:
            self._backend = "local"
        else:
            self._backend = "workers"

    def commit(self, txn):
        shard_id = self._backend.fused_shard(txn)
        if shard_id is not None:
            return self._backend.execute_fused(txn, shard_id)
        return self._backend.committed(txn)

    @property
    def shard_clients(self):
        return self._backend.shard_clients


class Helper:
    def pick(self):
        return 1 if self._workers else 0
''',
        # The backends themselves are where topology lives.
        "repro/sharding/backends.py": '''
class WorkerShardBackend:
    def failover(self, shard_id):
        if not self._standbys[shard_id]:
            raise ValueError(shard_id)
'''})
    assert lint_paths([tree]) == []


def test_l11_fires_on_every_walk_of_the_lock_table(tmp_path):
    tree = write_tree(tmp_path, {"repro/locking/manager.py": '''
class LockManager:
    def release_all(self, txn):
        for resource, entry in self._entries.items():
            entry.queue = [w for w in entry.queue if w.txn != txn]

    def waits_for_edges(self):
        return {resource: entry for resource, entry in self._entries.items()}

    def blocked_transactions(self):
        blocked = set()
        for entry in self._entries.values():
            blocked.update(w.txn for w in entry.queue)
        return frozenset(blocked)

    def resources(self):
        return [resource for resource in self._entries]

    def count(self):
        return sum(1 for _ in self._entries.keys())
'''})
    findings = lint_paths([tree])
    assert codes_of(findings) == ["L11"] * 5
    for finding, method in zip(findings, (
            "release_all", "waits_for_edges", "blocked_transactions",
            "resources", "count")):
        assert f"LockManager.{method}" in finding.message


def test_l11_names_the_three_walks_of_the_scan_based_manager(tmp_path):
    # The pre-index manager survives as the oracle of the model test; put
    # where the lock manager lives, it is exactly what the rule is for.
    oracle = REPO_SRC.parents[1] / "tests/locking/test_waiter_index_model.py"
    tree = write_tree(tmp_path, {
        "repro/locking/manager.py": oracle.read_text(encoding="utf-8")})
    findings = lint_paths([tree])
    assert codes_of(findings) == ["L11"] * 3
    assert [finding.message.split()[0] for finding in findings] == [
        "LockManager.release_all", "LockManager.waits_for_edges",
        "LockManager.blocked_transactions"]


def test_l11_allows_lookups_indexes_and_other_classes(tmp_path):
    tree = write_tree(tmp_path, {
        "repro/locking/manager.py": '''
class LockManager:
    def release_all(self, txn):
        for resource in self._held_by_txn.pop(txn, ()):
            entry = self._entries[resource]
            entry.holders.pop(txn, None)
        for resource in self._queued_by_txn.pop(txn, ()):
            entry = self._entries.get(resource)
            entry.queue = [w for w in entry.queue if w.txn != txn]

    def blocked_transactions(self):
        return frozenset(self._queued_by_txn)

    def known(self, resource):
        return resource in self._entries and len(self._entries) > 0


class LockTableDump:
    def rows(self):
        return [resource for resource in self._entries]
''',
        # Another module's _entries is not the lock table.
        "repro/txn/escrow.py": '''
class EscrowLedger:
    def pending(self):
        return {txn: tuple(e) for txn, e in self._entries.items()}
'''})
    assert lint_paths([tree]) == []


# -- pragmas ------------------------------------------------------------------


def test_pragma_on_the_same_line_suppresses(tmp_path):
    tree = write_tree(tmp_path, {"repro/engine/pool.py": '''
import threading

def start(fn):
    threading.Thread(target=fn)  # repro-lint: disable=L5
'''})
    assert lint_paths([tree]) == []


def test_pragma_on_the_line_above_suppresses(tmp_path):
    tree = write_tree(tmp_path, {"repro/engine/pool.py": '''
import threading

def start(fn):
    # repro-lint: disable=all
    threading.Thread(target=fn)
'''})
    assert lint_paths([tree]) == []


def test_pragma_for_another_rule_does_not_suppress(tmp_path):
    tree = write_tree(tmp_path, {"repro/engine/pool.py": '''
import threading

def start(fn):
    threading.Thread(target=fn)  # repro-lint: disable=L4
'''})
    assert codes_of(lint_paths([tree])) == ["L5"]


# -- the linter as a program --------------------------------------------------


def test_main_exits_nonzero_on_findings_and_zero_when_clean(tmp_path, capsys):
    tree = write_tree(tmp_path, {"repro/engine/pool.py": '''
import threading

def start(fn):
    threading.Thread(target=fn)
'''})
    assert main([str(tree)]) == 1
    output = capsys.readouterr().out
    assert "L5" in output and "pool.py:5" in output
    (tree / "engine" / "pool.py").write_text(
        "import threading\n", encoding="utf-8")
    assert main([str(tree)]) == 0


def test_main_reports_syntax_errors_as_parse_findings(tmp_path, capsys):
    tree = write_tree(tmp_path, {"repro/engine/broken.py": "def oops(:\n"})
    assert main([str(tree)]) == 1
    assert "PARSE" in capsys.readouterr().out


def test_list_rules_names_every_code(capsys):
    assert main(["--list-rules"]) == 0
    output = capsys.readouterr().out
    for rule in ALL_RULES:
        assert rule.code in output
        assert rule.historical.split(":")[0] in output


def test_rule_metadata_is_complete_and_codes_unique():
    codes = [rule.code for rule in ALL_RULES]
    assert len(codes) == len(set(codes))
    for rule in ALL_RULES:
        assert rule.code and rule.title and rule.historical


# -- the real tree ------------------------------------------------------------


def test_the_real_source_tree_is_lint_clean():
    assert lint_paths([REPO_SRC]) == []


def test_module_name_scoping():
    assert module_name(Path("src/repro/engine/engine.py")) == \
        "repro.engine.engine"
    assert module_name(Path("/x/y/repro/wal/__init__.py")) == "repro.wal"
    assert module_name(Path("standalone.py")) == "standalone"
