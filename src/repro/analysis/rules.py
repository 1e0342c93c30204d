"""The lint rules: one machine-checked project invariant each.

Every rule encodes an invariant a past PR's bug actually violated — the
rule's ``historical`` attribute names the incident.  Rules are pure AST
walkers over :class:`~repro.analysis.findings.ModuleInfo`; cross-module
rules get a :meth:`Rule.prepare` pass over the whole file set first.

Scoping works off dotted module names (``repro.engine.engine``), so the
seeded-violation tests exercise rules against small fixture trees simply
by placing files under a ``repro/`` directory.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Sequence

from repro.analysis.findings import Finding, ModuleInfo

#: Methods that hand locks back — the "shrinking phase begins" markers
#: rule L2 orders against state mutation.
_RELEASE_ATTRS = frozenset({"release_all"})

#: Attribute calls rule L3 treats as transaction-state/commit-log mutation.
_STATE_CALL_ATTRS = frozenset({"record_commit"})


class Rule:
    """Base class: a code, a one-line title, and the bug it encodes."""

    code: str = ""
    title: str = ""
    #: The historical incident this rule would have caught.
    historical: str = ""

    def prepare(self, modules: Sequence[ModuleInfo]) -> None:
        """Optional cross-module pass before :meth:`check` runs per file."""

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError

    def _finding(self, module: ModuleInfo, node: ast.AST,
                 message: str) -> Finding:
        return Finding(path=module.path, line=getattr(node, "lineno", 1),
                       code=self.code, message=message)


def _base_names(node: ast.ClassDef) -> tuple[str, ...]:
    names = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return tuple(names)


def _receiver_hint(func: ast.Attribute) -> str:
    """The last identifier of the call receiver (``self._store`` -> ``_store``)."""
    value = func.value
    if isinstance(value, ast.Name):
        return value.id
    if isinstance(value, ast.Attribute):
        return value.attr
    return ""


def _in_package(name: str, *packages: str) -> bool:
    return any(name == package or name.startswith(package + ".")
               for package in packages)


def _allowlisted(allowlist: frozenset[tuple[str, str]], module_name: str,
                 qualname: str) -> bool:
    """Whether ``(module, qualname)`` — or anything nested in it, or the whole
    module via ``"*"`` — is on ``allowlist``."""
    if (module_name, "*") in allowlist:
        return True
    return any(module_name == allowed_module
               and (qualname == allowed_qualname
                    or qualname.startswith(allowed_qualname + "."))
               for allowed_module, allowed_qualname in allowlist)


class _QualnameWalker:
    """Yields ``(qualname, node)`` for every node, tracking class/def nesting."""

    def walk(self, tree: ast.AST) -> Iterator[tuple[str, ast.AST]]:
        yield from self._walk(tree, ())

    def _walk(self, node: ast.AST, stack: tuple[str, ...]
              ) -> Iterator[tuple[str, ast.AST]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                yield ".".join(stack + (child.name,)), child
                yield from self._walk(child, stack + (child.name,))
            else:
                yield ".".join(stack), child
                yield from self._walk(child, stack)


class ErrorRegistryRule(Rule):
    """L1: every ``ReproError`` subclass lives in ``repro.errors``, declares
    its own ``code``, and the codes never collide.

    ``error_codes()`` walks the live subclass hierarchy rooted in
    ``repro.errors`` — an exception class defined elsewhere is only in the
    registry if something imported its module first, and a class without
    its own ``code`` silently shares its parent's wire identity until the
    collision check trips at runtime.  This rule moves both failures to
    lint time.
    """

    code = "L1"
    title = "error classes: in repro.errors, own code, no collisions"
    historical = ("PR 4's wire error vocabulary: an exception class added "
                  "without its own code would impersonate its parent on the "
                  "wire until error_codes() collided at runtime")

    def __init__(self) -> None:
        self._error_class_names: frozenset[str] = frozenset({"ReproError"})

    def prepare(self, modules: Sequence[ModuleInfo]) -> None:
        for module in modules:
            if module.name == "repro.errors":
                self._error_class_names = frozenset(
                    self._error_classes(module.tree))
                return

    @staticmethod
    def _error_classes(tree: ast.AST) -> set[str]:
        """Names of classes (transitively) based on ``ReproError``."""
        classes = {node.name: _base_names(node)
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef)}
        names = {"ReproError"}
        changed = True
        while changed:
            changed = False
            for name, bases in classes.items():
                if name not in names and any(base in names for base in bases):
                    names.add(name)
                    changed = True
        return names

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        tree = module.tree
        assert isinstance(tree, ast.Module)
        if module.name == "repro.errors":
            yield from self._check_registry(module, tree)
            return
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            culprit = next((base for base in _base_names(node)
                            if base in self._error_class_names), None)
            if culprit is not None:
                yield self._finding(
                    module, node,
                    f"exception class {node.name} subclasses {culprit} "
                    f"outside repro.errors; define it there so "
                    f"error_codes() registers its wire code")

    def _check_registry(self, module: ModuleInfo,
                        tree: ast.Module) -> Iterator[Finding]:
        error_names = self._error_classes(tree)
        codes: dict[str, str] = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef) or node.name not in error_names:
                continue
            value = self._code_literal(node)
            if value is None:
                yield self._finding(
                    module, node,
                    f"error class {node.name} does not declare its own "
                    f"string `code` — it would collide with its parent's "
                    f"wire code in error_codes()")
                continue
            if value in codes:
                yield self._finding(
                    module, node,
                    f"error code {value!r} of {node.name} collides with "
                    f"{codes[value]}")
            else:
                codes[value] = node.name

    @staticmethod
    def _code_literal(node: ast.ClassDef) -> str | None:
        for statement in node.body:
            targets: list[ast.expr] = []
            if isinstance(statement, ast.Assign):
                targets = statement.targets
                value = statement.value
            elif isinstance(statement, ast.AnnAssign) and statement.value:
                targets = [statement.target]
                value = statement.value
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "code":
                    if isinstance(value, ast.Constant) \
                            and isinstance(value.value, str):
                        return value.value
                    return None
        return None


class ReleaseOrderingRule(Rule):
    """L2: ``commit``/``abort`` never release locks before the state flip.

    Under strict 2PL the transaction-state mutation (and the commit-log
    append) is the serialisation point; a lock released textually before it
    opens the window where a racing observer sees an ACTIVE transaction
    whose writes are already unprotected.
    """

    code = "L2"
    title = "commit/abort: state mutation before any lock release"
    historical = ("PR 2's commit-before-unlock bug: Engine.commit released "
                  "locks and only then marked the transaction COMMITTED, so "
                  "a concurrent reader could observe an ACTIVE transaction "
                  "with unprotected writes")

    _CLASSES = frozenset({"Engine", "TransactionManager"})
    _METHODS = frozenset({"commit", "abort"})

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        tree = module.tree
        assert isinstance(tree, ast.Module)
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef) or node.name not in self._CLASSES:
                continue
            for method in node.body:
                if isinstance(method, ast.FunctionDef) \
                        and method.name in self._METHODS:
                    yield from self._check_method(module, node, method)

    def _check_method(self, module: ModuleInfo, owner: ast.ClassDef,
                      method: ast.FunctionDef) -> Iterator[Finding]:
        releases: list[ast.Call] = []
        first_state: int | None = None
        for node in ast.walk(method):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _RELEASE_ATTRS:
                    releases.append(node)
                elif node.func.attr in _STATE_CALL_ATTRS:
                    first_state = min(first_state or node.lineno, node.lineno)
                elif node.func.attr == "append" \
                        and isinstance(node.func.value, ast.Attribute) \
                        and node.func.value.attr == "_commit_ids":
                    first_state = min(first_state or node.lineno, node.lineno)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                if any(isinstance(target, ast.Attribute)
                       and target.attr == "state" for target in targets):
                    first_state = min(first_state or node.lineno, node.lineno)
        for release in releases:
            if first_state is None:
                yield self._finding(
                    module, release,
                    f"{owner.name}.{method.name} releases locks "
                    f"({release.func.attr}) but never mutates the "
                    f"transaction state / commit log")
            elif release.lineno < first_state:
                yield self._finding(
                    module, release,
                    f"{owner.name}.{method.name} releases locks "
                    f"({release.func.attr}, line {release.lineno}) before "
                    f"the transaction-state mutation at line {first_state} "
                    f"— strict 2PL requires state-then-unlock")


class DataPlaneWriteRule(Rule):
    """L3: engine/sharding code never writes the store directly.

    Data-plane writes must flow through the recovery manager's write-ahead
    path (before-image logged, then the covered write); a direct
    ``Instance.set`` / ``ObjectStore`` mutation in engine or sharding code
    bypasses undo and the WAL.  Store implementations and recovery
    internals are allowlisted below, each with its justification.
    """

    code = "L3"
    title = "no direct store mutation outside store/recovery internals"
    historical = ("PR 3's write-ahead rule: an undo image appended after "
                  "the store write it covered left a crash window where "
                  "recovery restored nothing; every data-plane write since "
                  "goes through the recovery manager first")

    #: ``(module, qualname)`` sites allowed to mutate directly; ``"*"``
    #: allowlists a whole module.  Every entry is a store implementation
    #: or a recovery/structural-durability internal:
    #:
    #: * ``repro.sharding.store`` — the sharded ObjectStore itself;
    #: * ``WorkerShardBackend._mirror_writes`` — echo into the planning
    #:   mirror of writes the owning worker already applied under the
    #:   transaction's locks, after logging the before-images it computed
    #:   (the write-ahead rule ran worker-side);
    #: * ``_WorkerStoreFront.write_field`` — a cross-shard write into the
    #:   planning mirror, buffered for its owning worker in the same call:
    #:   the engine logged the covering before-image into the mirror undo
    #:   log first, and the buffered image reaches the worker ahead of the
    #:   buffered write (``ShardWorker._apply_writes`` below);
    #: * ``LocalShardBackend.create_instance`` / ``.delete_instance`` — the
    #:   structural-durability path, which logs its own InstanceCreated/
    #:   InstanceDeleted WAL records around the mutation;
    #: * ``ShardWorker._apply_writes`` — the deferred-write flush: the
    #:   engine buffered these lock-covered writes client-side and ships
    #:   them piggybacked on the next ExecuteFused/Prepare; every call site
    #:   runs ``_log_images`` over the piggybacked before-images first,
    #:   so the write-ahead order holds (and under ``REPRO_SANITIZE`` the
    #:   same method routes through ``WorkerStoreGuard``, which checks
    #:   exactly that);
    #: * ``StandbyReplicator._apply_record`` / ``reset`` — standby replay:
    #:   the replica store is rebuilt from shipped checkpoints and WAL
    #:   images whose write-ahead order the *primary* already enforced, and
    #:   every frame is appended to the standby's own log before it is
    #:   applied (rule L8 pins the applier to exactly these replay call
    #:   sites);
    #: * ``WorkerShardBackend._resync_mirror`` — worker re-admission:
    #:   overwrites the planning mirror's partition from the promoted/
    #:   recovered worker's snapshot, the same mirror-echo relationship
    #:   ``_mirror_writes`` maintains per transaction;
    #: * ``Engine._build_snapshot_store`` — the read-only snapshot builder:
    #:   it populates (and rolls back in-flight writes inside) an
    #:   engine-private committed-state *copy* that no transaction ever
    #:   writes through, so there is no undo or WAL obligation to honour —
    #:   the live store is never touched.
    ALLOWLIST = frozenset({
        ("repro.sharding.store", "*"),
        ("repro.engine.engine", "Engine._build_snapshot_store"),
        ("repro.sharding.backends", "WorkerShardBackend._mirror_writes"),
        ("repro.sharding.backends", "WorkerShardBackend._resync_mirror"),
        ("repro.sharding.backends", "_WorkerStoreFront.write_field"),
        ("repro.sharding.backends", "LocalShardBackend.create_instance"),
        ("repro.sharding.backends", "LocalShardBackend.delete_instance"),
        ("repro.sharding.worker", "ShardWorker._apply_writes"),
        ("repro.replication.standby", "StandbyReplicator._apply_record"),
        ("repro.replication.standby", "StandbyReplicator.reset"),
    })

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not _in_package(module.name, "repro.engine", "repro.sharding",
                           "repro.replication"):
            return
        tree = module.tree
        assert isinstance(tree, ast.Module)
        for qualname, node in _QualnameWalker().walk(tree):
            if not isinstance(node, ast.Call) \
                    or not isinstance(node.func, ast.Attribute):
                continue
            reason = self._mutation_reason(node)
            if reason is None \
                    or _allowlisted(self.ALLOWLIST, module.name, qualname):
                continue
            yield self._finding(
                module, node,
                f"direct store mutation ({reason}) in "
                f"{qualname or '<module>'} — data-plane writes must go "
                f"through the recovery manager's write-ahead path (or be "
                f"allowlisted as a store/recovery internal)")

    @staticmethod
    def _mutation_reason(node: ast.Call) -> str | None:
        func = node.func
        assert isinstance(func, ast.Attribute)
        attr = func.attr
        positional = len(node.args)
        if attr == "write_field" and positional == 3:
            return ".write_field(oid, field, value)"
        if attr == "restore_instance":
            return ".restore_instance(...)"
        if attr == "restore" and positional == 1:
            return ".restore(values)"
        if attr == "set" and positional == 2 and not node.keywords:
            return "Instance.set(field, value)"
        if attr in ("create", "delete"):
            hint = _receiver_hint(func).lower()
            if "store" in hint or "mirror" in hint:
                return f"store.{attr}(...)"
        return None


class FsyncScopeRule(Rule):
    """L4: durability syscalls (``fsync``/``flush``) only inside ``repro.wal``.

    The WAL owns the barrier discipline (when a flush is required, when it
    may be grouped, what it means for recovery); an fsync or flush issued
    anywhere else either duplicates a barrier or invents an undocumented
    durability point.
    """

    code = "L4"
    title = "fsync/flush only in repro.wal"
    historical = ("PR 3/PR 5's barrier discipline: group commit amortises "
                  "fsyncs under one barrier; a stray fsync outside the WAL "
                  "would silently re-serialise commits (or fake a "
                  "durability point recovery does not honour)")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if _in_package(module.name, "repro.wal"):
            return
        tree = module.tree
        assert isinstance(tree, ast.Module)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = None
            if isinstance(node.func, ast.Attribute):
                name = node.func.attr
            elif isinstance(node.func, ast.Name):
                name = node.func.id
            if name == "fsync" or (name == "flush" and not node.args
                                   and not node.keywords):
                yield self._finding(
                    module, node,
                    f"{name}() call outside repro.wal — durability "
                    f"barriers belong to the write-ahead log")


class ThreadHygieneRule(Rule):
    """L5: every ``threading.Thread(...)`` carries ``daemon=`` and ``name=``.

    A non-daemon engine/worker thread wedges interpreter shutdown when its
    loop hangs, and an unnamed one is invisible in stack dumps — both bit
    during the multi-process work.
    """

    code = "L5"
    title = "threads declare daemon= and name="
    historical = ("PR 5's worker processes: an unnamed, non-daemon service "
                  "thread that outlived its loop wedged interpreter "
                  "shutdown and was undebuggable in thread dumps")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        tree = module.tree
        assert isinstance(tree, ast.Module)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_thread = (isinstance(func, ast.Attribute) and func.attr == "Thread") \
                or (isinstance(func, ast.Name) and func.id == "Thread")
            if not is_thread:
                continue
            keywords = {keyword.arg for keyword in node.keywords}
            missing = [required for required in ("daemon", "name")
                       if required not in keywords]
            if missing:
                yield self._finding(
                    module, node,
                    f"threading.Thread(...) without {'/'.join(missing)}= — "
                    f"engine/worker threads must be daemonised and named")


class MonotonicOrderingRule(Rule):
    """L6: locking/deadlock code never orders by ``time.time()``.

    Wall-clock time is not monotonic (NTP steps it backwards), and wait-die
    seniority must rank a retried incarnation by its *carried origin*, not
    by when the clock says it restarted.  Timing in locking code uses
    ``time.monotonic``; seniority uses origin timestamps.
    """

    code = "L6"
    title = "no time.time() ordering in locking/deadlock code"
    historical = ("PR 2's retry starvation: victim selection that ranked "
                  "incarnations by restart time re-victimised a long "
                  "transaction forever; the fix carries the first "
                  "incarnation's origin instead of consulting the clock")

    _MODULES = frozenset({"repro.engine.locks", "repro.engine.detector",
                          "repro.sharding.locks"})

    def _in_scope(self, name: str) -> bool:
        return name in self._MODULES or _in_package(name, "repro.locking") \
            or "deadlock" in name.rsplit(".", 1)[-1]

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not self._in_scope(module.name):
            return
        tree = module.tree
        assert isinstance(tree, ast.Module)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "time" \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id == "time":
                yield self._finding(
                    module, node,
                    "time.time() in locking/deadlock code — use "
                    "time.monotonic for timing and carried origin "
                    "timestamps for wait-die seniority")


class RoundTripLoopRule(Rule):
    """L7: no per-operation wire round trips inside loops in client code.

    The wire layers earn their throughput by shipping work whole: a client
    sends a transaction as one ``RunProgram`` frame and the engine ships a
    shard's lock requests in one ``AcquireBatch``.  A
    ``send_frame``/``recv_frame`` (or raw ``sendall``/``recv``) issued
    inside a ``for``/``while`` loop in the request layers quietly
    reintroduces one round trip per iteration — the exact regression the
    batching work removed.  The frame codec itself
    (:mod:`repro.api.wire`, where a read loop is the implementation of
    framing) is out of scope by module; a deliberate per-iteration round
    trip is suppressible with ``# repro-lint: disable=L7``.
    """

    code = "L7"
    title = "no per-operation send/recv loops in repro.api.client / repro.sharding.rpc"
    historical = ("PR 8's round-trip elimination: the harness drove one "
                  "frame per command and one worker RPC per lock request, "
                  "so an 8-thread socket run sat at ~2.6x the in-process "
                  "throughput before the wire layers batched")

    _MODULES = frozenset({"repro.api.client", "repro.sharding.rpc"})
    #: Socket primitives whose per-iteration use is one round trip each.
    _WIRE_CALLS = frozenset({"send_frame", "recv_frame", "sendall", "recv"})

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.name not in self._MODULES:
            return
        tree = module.tree
        assert isinstance(tree, ast.Module)
        yield from self._walk(module, tree, in_loop=False)

    def _walk(self, module: ModuleInfo, node: ast.AST, *,
              in_loop: bool) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            entered = in_loop or isinstance(child, (ast.For, ast.AsyncFor,
                                                    ast.While))
            if in_loop and isinstance(child, ast.Call):
                name = self._wire_call(child)
                if name is not None:
                    yield self._finding(
                        module, child,
                        f"{name}() inside a loop — one wire round trip per "
                        f"iteration; ship the work as one message "
                        f"(RunProgram, AcquireBatch) or suppress a "
                        f"deliberate per-iteration exchange with "
                        f"`# repro-lint: disable=L7`")
            yield from self._walk(module, child, in_loop=entered)

    @classmethod
    def _wire_call(cls, node: ast.Call) -> str | None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in cls._WIRE_CALLS:
            return func.attr
        if isinstance(func, ast.Name) and func.id in cls._WIRE_CALLS:
            return func.id
        return None


class ReplayApplierRule(Rule):
    """L8: image appliers run only from replay/recovery/promotion code.

    :func:`~repro.wal.recovery_runner.apply_image` (and the standby's
    ``StandbyReplicator._apply_record``, which drives it) install WAL
    images directly into a store, with no locks, no undo tracking and no
    write-ahead logging of their own — that is sound precisely because
    their callers replay a log whose write-ahead order was already enforced
    when the records were produced.  There is one such replay per shard,
    :func:`~repro.wal.recovery_runner.replay_shard` (crash recovery,
    worker restart, promotion), plus the standby's optimistic replay.  A
    call from anywhere else — a data-plane handler, the shipper, an engine
    path, a worker method replaying images on its own — would smuggle an
    unlogged, unlocked store write past the one recovery routine.
    """

    code = "L8"
    title = "image appliers called only from replay/recovery internals"
    historical = ("PR 9's standby replay: the replicator's optimistic "
                  "apply is an unlocked direct store write, safe only "
                  "under replayed-log call sites; an applier call from the "
                  "data plane would bypass undo and the write-ahead order "
                  "while riding the recovery allowlist")

    #: Names of the direct image/record appliers (called as a function or
    #: as an attribute).
    _APPLIERS = frozenset({"apply_image", "_apply_record"})

    #: ``(module, qualname)`` call sites that are replay/recovery context.
    #: The appliers' own definitions and private helpers are covered by the
    #: qualname-prefix match (a method may call itself recursively).
    ALLOWED = frozenset({
        ("repro.wal.recovery_runner", "replay_shard"),
        ("repro.replication.standby", "StandbyReplicator.replay_existing"),
        ("repro.replication.standby", "StandbyReplicator.apply_frames"),
        ("repro.replication.standby", "StandbyReplicator.reset"),
        ("repro.replication.standby", "StandbyReplicator._apply_record"),
    })

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not _in_package(module.name, "repro"):
            return
        tree = module.tree
        assert isinstance(tree, ast.Module)
        for qualname, node in _QualnameWalker().walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else func.id if isinstance(func, ast.Name) else None)
            if name not in self._APPLIERS \
                    or _allowlisted(self.ALLOWED, module.name, qualname):
                continue
            yield self._finding(
                module, node,
                f"{name}() called from "
                f"{qualname or '<module>'} — image appliers write the "
                f"store unlocked and unlogged; only replay/recovery/"
                f"promotion call sites may drive them")


class PlanViaCacheRule(Rule):
    """L9: hot-path code plans through the one entry point, compiles at setup.

    Lock modes are decided a priori: each protocol compiles its
    ``MethodCall`` plan templates from the compiled schema when it is
    built, and :class:`~repro.txn.plan_cache.PlanCache` is the one place
    the engine and the shard worker ask for a plan — a template plan,
    flagged final so it is acquired in one round and never re-planned, or
    ``protocol.plan()`` for a data-dependent operation.  In
    ``repro.engine``/``repro.sharding`` a direct ``.plan()`` or
    ``.template_plan()`` call on anything but the entry point loses that
    finality flag and the plan counters the rig reads, and a
    ``compile_schema(...)`` call outside an ``__init__`` re-runs the whole
    closure/TAV analysis (and, through a new protocol, the template
    compilation) per call.  A deliberate exception is suppressible with
    ``# repro-lint: disable=L9``.
    """

    code = "L9"
    title = "engine/sharding code plans via the PlanCache, compiles at setup"
    historical = ("compiled plan templates replaced a per-OID plan memo: "
                  "the engine used to plan every operation twice (the plan, "
                  "then a refresh to see whether it grew) even when the "
                  "compiler had fixed the plan; a plan taken around the "
                  "PlanCache entry point would lose the final flag that "
                  "skips the refresh")

    #: The planner entry points a hot-path call must not reach directly.
    _PLANNERS = ("plan", "template_plan")
    #: Receiver-name fragments that identify the entry point itself
    #: (``self._plans.plan(...)``, ``cache.plan(...)``).
    _CACHE_HINTS = ("plans", "cache")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not _in_package(module.name, "repro.engine", "repro.sharding"):
            return
        tree = module.tree
        assert isinstance(tree, ast.Module)
        for qualname, node in _QualnameWalker().walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if self._is_direct_plan(node):
                yield self._finding(
                    module, node,
                    f"direct {_receiver_hint(node.func)}.{node.func.attr}() "
                    f"in {qualname or '<module>'} — hot-path code plans "
                    f"through the PlanCache (the final flag that skips the "
                    f"refresh round and the plan counters come from it)")
            elif self._is_hot_compile(node, qualname):
                yield self._finding(
                    module, node,
                    f"compile_schema() in {qualname or '<module>'} — the "
                    f"schema is compiled once at setup (__init__); "
                    f"recompiling per call re-runs the closure/TAV "
                    f"analysis the plan templates are built from")

    @classmethod
    def _is_direct_plan(cls, node: ast.Call) -> bool:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in cls._PLANNERS:
            return False
        hint = _receiver_hint(func).lower()
        return not any(fragment in hint for fragment in cls._CACHE_HINTS)

    @staticmethod
    def _is_hot_compile(node: ast.Call, qualname: str) -> bool:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else ""
        if name != "compile_schema":
            return False
        return qualname.rsplit(".", 1)[-1] != "__init__"


class ModeFreeEngineRule(Rule):
    """L10: ``Engine`` methods never branch on where the shards live.

    ``Engine.__init__`` picks a shard backend
    (:mod:`repro.sharding.backends`); every other method talks to it
    through the duck-typed surface both backends share.  A conditional —
    ``if``/``elif``, ``while``, a conditional expression, an ``assert`` or
    a comprehension filter — that tests worker/topology state (a name or
    attribute containing ``workers``, ``vectored`` or ``standbys``, or an
    ``isinstance`` against a backend class or ``RemoteShardClient``) is
    how the in-process and worker code paths grew apart before; the
    behaviour belongs in the backends instead.
    """

    code = "L10"
    title = "Engine methods outside __init__ never test topology"
    historical = ("PR 14's mode-free engine: Engine branched on "
                  "`self._workers is (not) None` at 21 sites and on its "
                  "vectored-wire flag at 5, so every transaction-path "
                  "change had to be made (and measured) twice")

    _MODULE = "repro.engine.engine"
    _CLASS = "Engine"
    _FRAGMENTS = ("workers", "vectored", "standbys")
    _TOPOLOGY_TYPES = frozenset({"RemoteShardClient"})

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.name != self._MODULE:
            return
        tree = module.tree
        assert isinstance(tree, ast.Module)
        for owner in tree.body:
            if not isinstance(owner, ast.ClassDef) or owner.name != self._CLASS:
                continue
            for method in owner.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and method.name != "__init__":
                    yield from self._check_method(module, method)

    def _check_method(self, module: ModuleInfo,
                      method: ast.AST) -> Iterator[Finding]:
        for node in ast.walk(method):
            if isinstance(node, (ast.If, ast.While, ast.IfExp, ast.Assert)):
                tests = [node.test]
            elif isinstance(node, ast.comprehension):
                tests = node.ifs
            else:
                continue
            for test in tests:
                culprit = self._topology_test(test)
                if culprit is not None:
                    yield self._finding(
                        module, test,
                        f"Engine.{method.name} branches on topology "
                        f"({culprit}) — only __init__ may know where the "
                        f"shards live; put the behaviour behind the shard "
                        f"backends' shared surface")

    @classmethod
    def _topology_test(cls, test: ast.AST) -> str | None:
        for node in ast.walk(test):
            name = node.attr if isinstance(node, ast.Attribute) else \
                node.id if isinstance(node, ast.Name) else None
            if name is not None and any(fragment in name.lower()
                                        for fragment in cls._FRAGMENTS):
                return name
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "isinstance" and len(node.args) == 2:
                for checked in ast.walk(node.args[1]):
                    type_name = checked.attr if isinstance(checked, ast.Attribute) \
                        else checked.id if isinstance(checked, ast.Name) else ""
                    if type_name.endswith("Backend") \
                            or type_name in cls._TOPOLOGY_TYPES:
                        return f"isinstance(..., {type_name})"
        return None


class LookupOnlyLockTableRule(Rule):
    """L11: ``LockManager`` never iterates its lock table.

    ``self._entries`` has one entry per resource the manager has ever
    seen — the whole store, eventually.  Every method finds the entries it
    needs through the per-transaction hold and waiter indexes; a ``for``
    statement or comprehension over ``self._entries`` (or its ``.items()``
    / ``.values()`` / ``.keys()``) makes that method cost in proportion to
    the store instead of to the transaction.
    """

    code = "L11"
    title = "LockManager finds lock-table entries by lookup, never by a walk"
    historical = ("PR 24's waiter index: release_all, waits_for_edges and "
                  "blocked_transactions each walked every entry of the lock "
                  "table, so a commit on a 768-instance store spent 30 times "
                  "longer releasing its locks than acquiring them, and the "
                  "deadlock detector rescanned the table 50 times a second "
                  "under the shard mutex")

    _MODULE = "repro.locking.manager"
    _CLASS = "LockManager"
    _TABLE = "_entries"
    _VIEWS = frozenset({"items", "values", "keys"})

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.name != self._MODULE:
            return
        tree = module.tree
        assert isinstance(tree, ast.Module)
        for owner in tree.body:
            if not isinstance(owner, ast.ClassDef) or owner.name != self._CLASS:
                continue
            for qualname, node in _QualnameWalker().walk(owner):
                if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)) \
                        and self._is_table(node.iter):
                    yield self._finding(
                        module, node.iter,
                        f"{self._CLASS}.{qualname} iterates the lock table "
                        f"(self.{self._TABLE}) — reach entries through the "
                        f"per-transaction hold and waiter indexes")

    @classmethod
    def _is_table(cls, iterated: ast.AST) -> bool:
        if isinstance(iterated, ast.Call) and not iterated.args \
                and isinstance(iterated.func, ast.Attribute) \
                and iterated.func.attr in cls._VIEWS:
            iterated = iterated.func.value
        return isinstance(iterated, ast.Attribute) \
            and iterated.attr == cls._TABLE \
            and isinstance(iterated.value, ast.Name) \
            and iterated.value.id == "self"


class StoreFrontOnlyRule(Rule):
    """L12: the interpreter reaches field values only through the store front.

    Compiled method bodies must read and write fields with the store's
    ``read_field`` / ``write_field``: that is where the sanitizer checks
    lock coverage, where a read-only snapshot refuses writes, where the
    worker guard checks the shipped write plan and where a shadow run
    keeps its overlay.  In the interpreter module, an ``Instance`` reached
    directly — its ``values`` dict, its ``get`` or its ``set`` — skips all
    of them.  An instance is recognised by where it came from: a
    ``.get(...)`` on a store or a ``fetch(...)`` of the receiver, a name
    bound to one of those, or a name that says ``instance``.  Reading the
    fetched instance's ``class_name`` (late binding) stays allowed.
    """

    code = "L12"
    title = "the interpreter touches field values only via the store front"
    historical = ("compiling method bodies to closures: the obvious fast "
                  "path writes Instance.values directly, which "
                  "SanitizedStoreFront, the read-only snapshot front, "
                  "WorkerStoreGuard and ShadowStore never see — it would "
                  "skip every check and time a different program than the "
                  "one that runs under them")

    MODULES = frozenset({"repro.objects.interpreter"})
    _INSTANCE_ATTRS = frozenset({"values", "get", "set"})
    _FETCHERS = frozenset({"fetch"})

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.name not in self.MODULES:
            return
        tree = module.tree
        assert isinstance(tree, ast.Module)
        bound = self._instance_names(tree)
        for qualname, node in _QualnameWalker().walk(tree):
            if isinstance(node, ast.Attribute) \
                    and node.attr in self._INSTANCE_ATTRS \
                    and self._is_instance(node.value, bound):
                yield self._finding(
                    module, node,
                    f"Instance.{node.attr} in {qualname or '<module>'} — "
                    f"read and write fields through the store front's "
                    f"read_field / write_field")

    @classmethod
    def _instance_names(cls, tree: ast.Module) -> frozenset[str]:
        """Names bound, anywhere in the module, to an instance expression."""
        names: set[str] = set()
        while True:
            before = len(names)
            for node in ast.walk(tree):
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)) \
                        and node.value is not None \
                        and cls._is_instance(node.value, names):
                    targets = node.targets if isinstance(node, ast.Assign) \
                        else [node.target]
                    names.update(target.id for target in targets
                                 if isinstance(target, ast.Name))
            if len(names) == before:
                return frozenset(names)

    @classmethod
    def _is_instance(cls, node: ast.AST, bound: set[str] | frozenset[str]) -> bool:
        if isinstance(node, ast.Name):
            return node.id in bound or "instance" in node.id.lower()
        if isinstance(node, ast.Attribute):
            return "instance" in node.attr.lower()
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                return func.id in cls._FETCHERS
            if isinstance(func, ast.Attribute):
                return func.attr in cls._FETCHERS or (
                    func.attr == "get" and "store" in _receiver_hint(func).lower())
        return False


#: The rule set ``repro-lint`` runs, in report order.
ALL_RULES: tuple[Rule, ...] = (
    ErrorRegistryRule(),
    ReleaseOrderingRule(),
    DataPlaneWriteRule(),
    FsyncScopeRule(),
    ThreadHygieneRule(),
    MonotonicOrderingRule(),
    RoundTripLoopRule(),
    ReplayApplierRule(),
    PlanViaCacheRule(),
    ModeFreeEngineRule(),
    LookupOnlyLockTableRule(),
    StoreFrontOnlyRule(),
)


def fresh_rules() -> tuple[Rule, ...]:
    """A new rule-instance set (rules carry prepare() state)."""
    return tuple(type(rule)() for rule in ALL_RULES)


def iter_rules(rules: Iterable[Rule] | None = None) -> tuple[Rule, ...]:
    return fresh_rules() if rules is None else tuple(rules)
