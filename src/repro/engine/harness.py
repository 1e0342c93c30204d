"""Wall-clock throughput harness for the threaded engine.

The harness replays :class:`~repro.sim.workload.TransactionSpec` mixes — the
same deterministic workloads the discrete-event simulator consumes — across
N worker threads, and reports commits/sec, abort rate and mean lock-wait
time, so the engine's wall-clock numbers line up with the simulator's
structural metrics for the same (protocol, store, workload) triple.

Since the API redesign the harness drives every workload through a
:class:`~repro.api.connection.Connection` — each worker owns a
:class:`~repro.api.connection.TransactionRunner` that ships every spec as
one :class:`~repro.api.messages.RunProgram` (one dispatch in-process, one
round trip over a socket).  ``--transport`` chooses the channel:

* ``inproc`` (default) — an
  :class:`~repro.api.connection.InProcessConnection` to a dispatcher over a
  locally built engine: the same measurement as before, now through the
  command layer;
* ``socket`` — real TCP to a ``python -m repro.api.server`` process.  By
  default the harness *spawns* one configured to match its own store
  population (so verification still works); ``--addr HOST:PORT`` targets an
  already-running server instead, after checking via ``Describe`` that it
  serves a matching store.  Commit order, final store state and engine
  metrics come back over the control plane — the client side never touches
  engine objects.

One harness therefore measures the in-process and networked paths side by
side, which is what ``benchmarks/test_bench_transport_overhead.py`` does.

Every run can be *verified*: the engine records its commit order (under
strict 2PL a serialisation order), the harness replays exactly the committed
transactions sequentially on an identically populated replica store, and the
two final states must be equal.  A mismatch is a serializability violation
and is reported in the output table.

``--shards``/``--durability`` behave as before (see :mod:`repro.sharding`
and :mod:`repro.wal`); ``--max-in-flight``/``--max-queue``/
``--queue-timeout`` put an :class:`~repro.api.admission.AdmissionController`
in front of the dispatcher, so overload shows up as typed back-offs in the
numbers instead of lock contention.  ``--json PATH`` writes a
``BENCH_*.json``-style machine-readable document.

Run from the command line (the ``bench`` extra installs ``repro-bench`` as a
console script for the same entry point)::

    python -m repro.engine.harness --threads 8 --transactions 200 \
        --protocols tav,rw-instance --shards 4 --transport socket
"""

from __future__ import annotations

import argparse
import json
import queue
import shutil
import signal
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.api.admission import (
    DEFAULT_MAX_QUEUE,
    DEFAULT_QUEUE_TIMEOUT,
    AdmissionController,
)
from repro.api.connection import Connection, InProcessConnection, TransactionRunner
from repro.api.dispatcher import Dispatcher
from repro.core.compiler import CompiledSchema, compile_schema
from repro.engine.engine import Engine
from repro.engine.metrics import EngineMetrics
from repro.errors import DeadlockError, LockTimeoutError
from repro.objects.store import ObjectStore
from repro.schema import Schema, banking_schema
from repro.sharding.router import HashShardRouter, ShardRouter
from repro.sharding.store import ShardedObjectStore
from repro.sim.workload import TransactionSpec, WorkloadGenerator, populate_store
from repro.txn.manager import TransactionManager
from repro.txn.protocols import PROTOCOLS
from repro.wal.durability import MODES as DURABILITY_MODES
from repro.wal.durability import Durability

#: The transports the harness can drive a workload over.
TRANSPORTS = ("inproc", "socket")


def store_state(store: ObjectStore) -> dict[str, dict[str, Any]]:
    """A comparable snapshot of every live instance's fields."""
    return {str(instance.oid): dict(instance.values) for instance in store}


@dataclass
class HarnessResult:
    """Outcome of one harness run under one protocol."""

    protocol: str
    threads: int
    shards: int
    #: Shard worker *processes* (0 = all shards in the engine's process).
    shard_workers: int
    #: The durability mode the engine ran under (``off``/``lazy``/``fsync``).
    durability: str
    #: How the workers reached the engine (``inproc`` or ``socket``).
    transport: str
    transactions: int
    metrics: EngineMetrics
    #: Labels of the committed transactions, in commit (serialisation) order.
    commit_labels: tuple[str, ...]
    #: Labels that exhausted their retries and stayed aborted.
    failed_labels: tuple[str, ...]
    #: ``(label, error)`` for specs that died on an unexpected exception
    #: (anything other than retry exhaustion) — never silently dropped.
    errors: tuple[tuple[str, str], ...]
    #: Overloaded answers admission control returned across all workers.
    overloads: int
    #: ``True``/``False`` when verification ran, ``None`` when skipped.
    serializable: bool | None
    #: Final store snapshot after the threaded run.
    final_state: dict[str, dict[str, Any]]
    #: Sanitizer violation count of a ``sanitize=True`` inproc run; ``None``
    #: when the sanitizer was off (or the engine ran in another process).
    sanitizer_violations: int | None = None
    #: Hot standbys per shard the engine ran with (0 = no replication).
    replicas: int = 0
    #: Workload-invariant violations (e.g. the order-entry scenario's
    #: ``quantity + sold`` conservation check); ``None`` when no invariant
    #: callback was supplied to :meth:`ThroughputHarness.run`.
    invariant_violations: tuple[str, ...] | None = None
    #: End-of-run replication stream status, one entry per standby across
    #: all shards (each carries ``shard`` plus the shipper's status keys:
    #: lag in LSNs and seconds, health, frames shipped).
    replication: tuple[dict[str, Any], ...] = ()

    @property
    def commits_per_second(self) -> float:
        """Committed transactions per wall-clock second."""
        return self.metrics.commits_per_second

    def as_row(self) -> dict[str, Any]:
        """A flat dictionary for the throughput table."""
        row: dict[str, Any] = {"protocol": self.protocol, "threads": self.threads,
                               "shards": self.shards,
                               "workers": self.shard_workers,
                               "durability": self.durability,
                               "transport": self.transport,
                               "txns": self.transactions}
        if self.replicas:
            row["replicas"] = self.replicas
            row["max_lag"] = max(
                (entry.get("lag_records", 0) for entry in self.replication),
                default=0)
        row.update(self.metrics.as_row())
        row["overloads"] = self.overloads
        row["serializable"] = ("-" if self.serializable is None
                               else "yes" if self.serializable else "VIOLATION")
        if self.invariant_violations is not None:
            row["invariant"] = ("ok" if not self.invariant_violations
                                else "VIOLATION")
        return row


class ThroughputHarness:
    """Replays one deterministic workload across threads, per protocol.

    The harness owns the schema, the population parameters and the workload
    parameters; every :meth:`run` re-populates a fresh store from the same
    seed, so different protocols (and the sequential verification replica)
    all start from byte-identical object bases with identical OIDs.  A
    socket-transport run checks (via ``Describe``) that the server was
    populated with the same parameters before trusting its state for
    verification.
    """

    def __init__(self, schema: Schema | None = None,
                 compiled: CompiledSchema | None = None, *,
                 instances_per_class: int | dict[str, int] = 8,
                 populate_seed: int = 11,
                 workload_seed: int = 17,
                 operations_per_transaction: int = 3,
                 extent_fraction: float = 0.02,
                 domain_fraction: float = 0.02,
                 write_bias: float = 0.6,
                 hotspot_fraction: float = 0.3,
                 read_mix: float = 0.0,
                 spec_maker: "Callable[[ObjectStore, int], Sequence[TransactionSpec]] | None" = None) -> None:
        self._schema = schema if schema is not None else banking_schema()
        self._compiled = compiled if compiled is not None else compile_schema(self._schema)
        self._instances_per_class = instances_per_class
        self._populate_seed = populate_seed
        self._workload_seed = workload_seed
        self._operations_per_transaction = operations_per_transaction
        self._extent_fraction = extent_fraction
        self._domain_fraction = domain_fraction
        self._write_bias = write_bias
        self._hotspot_fraction = hotspot_fraction
        self._read_mix = read_mix
        #: Optional scenario hook: builds the spec list from a freshly
        #: populated store instead of the random generator (the order-entry
        #: scenario plugs in here).
        self._spec_maker = spec_maker

    # -- workload --------------------------------------------------------------

    def populate(self, store: Any | None = None) -> ObjectStore:
        """A freshly populated store (identical contents on every call).

        ``store`` optionally supplies the empty store to fill — the sharded
        runs pass a :class:`~repro.sharding.store.ShardedObjectStore`, which
        ends up holding the same instances under the same OIDs as the plain
        replica the verification replay uses.
        """
        return populate_store(self._schema, self._instances_per_class,
                              seed=self._populate_seed, store=store)

    def make_specs(self, transactions: int) -> list[TransactionSpec]:
        """The deterministic transaction mix replayed by every run."""
        if self._spec_maker is not None:
            return list(self._spec_maker(self.populate(), transactions))
        generator = WorkloadGenerator(
            schema=self._schema, store=self.populate(), seed=self._workload_seed,
            operations_per_transaction=self._operations_per_transaction,
            extent_fraction=self._extent_fraction,
            domain_fraction=self._domain_fraction,
            write_bias=self._write_bias,
            hotspot_fraction=self._hotspot_fraction,
            read_mix=self._read_mix)
        return generator.transactions(transactions)

    # -- running ---------------------------------------------------------------

    def run(self, protocol_class: type, *, threads: int = 4,
            transactions: int = 100,
            specs: Sequence[TransactionSpec] | None = None,
            verify: bool = True, shards: int = 1,
            shard_workers: int | None = None,
            replicas: int = 0,
            router: ShardRouter | None = None,
            durability: Durability | str = "off",
            wal_dir: str | Path | None = None,
            group_commit_ms: float | None = None,
            transport: str = "inproc",
            address: "str | tuple[str, int] | None" = None,
            admission: "AdmissionController | Mapping[str, Any] | None" = None,
            max_retries: int = 20,
            trace_path: str | Path | None = None,
            trace_sample: int = 1,
            invariant: "Callable[[dict, dict], Sequence[str]] | None" = None,
            **engine_options: Any) -> HarnessResult:
        """Replay the workload across ``threads`` workers under one protocol.

        Workers drive the engine exclusively through the command API: each
        owns a :class:`~repro.api.connection.TransactionRunner` over a
        :class:`~repro.api.connection.Connection` of the chosen
        ``transport``.  With ``transport="socket"`` the engine lives in a
        server process — spawned to match this harness's population unless
        ``address`` names a running one; ``engine_options`` other than
        ``default_lock_timeout`` cannot cross the process boundary and are
        rejected.  ``admission`` (a controller for in-process runs, or a
        ``{"max_in_flight", "max_queue", "queue_timeout"}`` mapping for
        either transport) gates ``Begin`` through an
        :class:`~repro.api.admission.AdmissionController`; overloaded
        answers back off client-side and are counted in the result.

        With ``shards > 1`` (or an explicit ``router``) the run executes on
        a :class:`~repro.sharding.store.ShardedObjectStore` and the engine
        partitions its lock managers and undo logs the same way.  With
        ``shard_workers=N`` each shard additionally runs as its own OS
        process (``Engine(shard_workers=N)``: worker spawning, participant
        RPC, cross-process 2PC) — the multi-core configuration.
        ``durability`` is a mode name or (in-process only) a full
        :class:`~repro.wal.durability.Durability`; ``group_commit_ms``
        batches decision-log fsyncs under ``fsync``.  With ``verify`` the
        committed transactions are replayed sequentially on an identically
        populated replica and the final states compared.
        """
        if transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {transport!r}; "
                             f"expected one of {', '.join(TRANSPORTS)}")
        if shard_workers is not None and transport != "inproc":
            raise ValueError("--shard-workers drives the engine in this "
                             "process; combine it with the inproc transport")
        if replicas and shard_workers is None:
            raise ValueError("--replicas spawns hot standbys per shard "
                             "worker; combine it with --shard-workers")
        if trace_path is not None and transport != "inproc":
            raise ValueError("--trace needs the engine (and its tracer) in "
                             "this process; combine it with the inproc "
                             "transport, or pass --trace to the server "
                             "(python -m repro.api.server --trace FILE)")
        if specs is None:
            specs = self.make_specs(transactions)
        specs = _with_unique_labels(specs)
        if transport == "inproc":
            pieces = self._run_inproc(
                protocol_class, specs, threads=threads, shards=shards,
                shard_workers=shard_workers, replicas=replicas, router=router,
                durability=durability, wal_dir=wal_dir,
                group_commit_ms=group_commit_ms,
                admission=admission, max_retries=max_retries,
                trace_path=trace_path, trace_sample=trace_sample,
                engine_options=engine_options)
        else:
            pieces = self._run_socket(
                protocol_class, specs, threads=threads, shards=shards,
                router=router, durability=durability, wal_dir=wal_dir,
                address=address, admission=admission, max_retries=max_retries,
                verify=verify,
                engine_options=engine_options)

        serializable: bool | None = None
        if verify:
            serializable = pieces["final_state"] == self._sequential_replay(
                protocol_class, specs, pieces["commit_labels"])
        violations: tuple[str, ...] | None = None
        if invariant is not None:
            # The workload-level invariant (e.g. order-entry conservation)
            # compares the pristine population against the threaded run's
            # final state — a second check the sequential replay cannot
            # perform, because a replay of lost updates loses them too.
            violations = tuple(invariant(store_state(self.populate()),
                                         pieces["final_state"]))
        return HarnessResult(protocol=getattr(protocol_class, "name",
                                              protocol_class.__name__),
                             threads=threads, shards=pieces["shards"],
                             shard_workers=shard_workers or 0,
                             durability=pieces["durability"],
                             transport=transport,
                             transactions=len(specs),
                             metrics=pieces["metrics"],
                             commit_labels=pieces["commit_labels"],
                             failed_labels=pieces["failed"],
                             errors=pieces["errors"],
                             overloads=pieces["overloads"],
                             serializable=serializable,
                             final_state=pieces["final_state"],
                             sanitizer_violations=pieces.get(
                                 "sanitizer_violations"),
                             replicas=replicas,
                             replication=tuple(pieces.get("replication", ())),
                             invariant_violations=violations)

    # -- the two transports -----------------------------------------------------

    def _run_inproc(self, protocol_class: type,
                    specs: Sequence[TransactionSpec], *, threads: int,
                    shards: int, shard_workers: int | None,
                    replicas: int = 0,
                    router: ShardRouter | None,
                    durability: Durability | str,
                    wal_dir: str | Path | None,
                    group_commit_ms: float | None,
                    admission: "AdmissionController | Mapping[str, Any] | None",
                    max_retries: int,
                    trace_path: str | Path | None,
                    trace_sample: int,
                    engine_options: dict[str, Any]) -> dict[str, Any]:
        """Build an engine here and drive it through InProcessConnection."""
        if shard_workers is not None:
            if shards not in (1, shard_workers):
                raise ValueError(f"shards={shards} disagrees with "
                                 f"shard_workers={shard_workers}")
            shards = shard_workers
            if not isinstance(self._instances_per_class, int):
                raise ValueError("shard workers need a uniform "
                                 "instances_per_class")
            if set(self._schema.class_names) != set(
                    banking_schema().class_names):
                raise ValueError("shard workers rebuild the deterministic "
                                 "banking schema; run them with the default "
                                 "harness schema")
        if router is None and shards > 1:
            router = HashShardRouter(shards)
        if router is not None:
            if shards not in (1, router.num_shards):
                raise ValueError(f"shards={shards} disagrees with the "
                                 f"router's {router.num_shards} shards")
            store = self.populate(ShardedObjectStore(self._schema, router))
            shards = router.num_shards
        else:
            store = self.populate()
        protocol = protocol_class(self._compiled, store)
        resolved, cleanup = self._resolve_durability(
            durability, wal_dir,
            getattr(protocol_class, "name", protocol_class.__name__), shards,
            group_commit_ms=group_commit_ms)
        controller = _resolve_admission(admission)
        if shard_workers is not None:
            engine_options = dict(engine_options)
            engine_options["shard_workers"] = shard_workers
            if replicas:
                engine_options["replicas"] = replicas
            engine_options.setdefault("worker_options", {
                "schema": "banking",
                "instances": self._instances_per_class,
                "populate_seed": self._populate_seed,
            })
        if trace_path is not None:
            from repro.obs.tracing import Tracer

            engine_options = dict(engine_options)
            engine_options["tracer"] = Tracer(
                sample_every=max(1, int(trace_sample)))
        try:
            with Engine(protocol, durability=resolved, **engine_options) as engine:
                connection = InProcessConnection(
                    dispatcher=Dispatcher(engine, admission=controller))
                driven = self._drive(specs, threads, lambda index: connection,
                                     max_retries=max_retries)
                engine.metrics.elapsed = driven["elapsed"]
                engine.metrics.wal_bytes = engine.wal_bytes_written
                commit_labels = tuple(label for _, label in engine.commit_log)
                # Worker-side histograms (barrier time paid in the worker
                # processes) merge into this snapshot-derived copy; the
                # scalar counters are the engine's own.
                metrics = EngineMetrics.from_snapshot(engine.cluster_metrics())
                metrics.elapsed = driven["elapsed"]
                metrics.wal_bytes = engine.wal_bytes_written
                # The workers' partitions are the authority in worker mode;
                # fetch them before the cluster is torn down.
                final_state = engine.store_state()
                violations = (None if engine.sanitizer is None
                              else engine.sanitizer.violations)
                # Steady-state replication lag, read while the cluster is
                # still up: one entry per standby stream across all shards.
                replication: list[dict[str, Any]] = []
                if replicas:
                    for entry in engine.stats()["shards"]:
                        for stream in entry.get("replication") or ():
                            replication.append(
                                {"shard": entry["shard"], **stream})
                if trace_path is not None:
                    engine.export_trace(trace_path)
        finally:
            if cleanup is not None:
                cleanup()
        return {"metrics": metrics, "commit_labels": commit_labels,
                "failed": driven["failed"], "errors": driven["errors"],
                "overloads": driven["overloads"],
                "final_state": final_state,
                "shards": shards, "durability": resolved.mode,
                "sanitizer_violations": violations,
                "replication": replication}

    def _run_socket(self, protocol_class: type,
                    specs: Sequence[TransactionSpec], *, threads: int,
                    shards: int, router: ShardRouter | None,
                    durability: Durability | str,
                    wal_dir: str | Path | None,
                    address: "str | tuple[str, int] | None",
                    admission: "AdmissionController | Mapping[str, Any] | None",
                    max_retries: int, verify: bool,
                    engine_options: dict[str, Any]) -> dict[str, Any]:
        """Drive a server process over TCP (spawned unless ``address``)."""
        from repro.api import client as socket_client
        from repro.api import server as socket_server

        name = getattr(protocol_class, "name", protocol_class.__name__)
        unsupported = set(engine_options) - {"default_lock_timeout"}
        if unsupported:
            raise ValueError(f"engine options {sorted(unsupported)} cannot "
                             "cross the socket boundary")
        if router is not None:
            raise ValueError("a router object cannot cross the socket "
                             "boundary; pass shards=N")
        if isinstance(admission, AdmissionController):
            raise ValueError("pass admission limits as a mapping for socket "
                             "runs; the controller lives in the server")
        if not isinstance(self._instances_per_class, int):
            raise ValueError("socket runs need a uniform instances_per_class")
        if isinstance(durability, Durability):
            durability = durability.mode

        process = None
        spawn_wal_dir = None
        if address is None:
            if wal_dir is not None:
                # Namespace and clear exactly like the in-process path does
                # (_resolve_durability): the server refuses a directory with
                # leftover state, so a second run into the same --wal-dir
                # would otherwise never come up.
                spawn_wal_dir = Path(wal_dir) / f"{name}-shards{shards}"
                if spawn_wal_dir.exists():
                    shutil.rmtree(spawn_wal_dir)
            process, address = socket_server.spawn(
                protocol=name, shards=shards,
                instances=self._instances_per_class,
                populate_seed=self._populate_seed,
                lock_timeout=engine_options.get("default_lock_timeout", 5.0),
                durability=durability, wal_dir=spawn_wal_dir,
                **_admission_flags(admission))
        try:
            control = socket_client.connect(address)
            try:
                info = control.describe()
                self._check_server(info, name, address)
                # Pre-run snapshots: a long-lived server (--addr) carries
                # cumulative counters and commit history from earlier
                # traffic — this run's numbers are the *delta*.
                before_metrics = control.metrics()
                commits_before = len(control.commit_log())
                if verify and control.store_state() != store_state(self.populate()):
                    raise ValueError(
                        "the server's store already differs from a fresh "
                        "population — it has served prior traffic, so the "
                        "sequential-replay verification would report a bogus "
                        "violation; run against a fresh server or pass "
                        "verify=False (--no-verify)")
                driven = self._drive(
                    specs, threads,
                    lambda index: socket_client.connect(address),
                    max_retries=max_retries)
                ours = {spec.label for spec in specs}
                commit_labels = tuple(
                    label
                    for _, label in control.commit_log()[commits_before:]
                    if label in ours)
                final_state = control.store_state()
                snapshot = control.metrics()
                # Counter *and* histogram deltas: a long-lived server's
                # cumulative state is subtracted bucket by bucket, so the
                # latency percentiles describe this run's traffic only.
                metrics = EngineMetrics.delta(snapshot["metrics"],
                                              before_metrics["metrics"])
                metrics.elapsed = driven["elapsed"]
                metrics.wal_bytes = (int(snapshot["wal_bytes"])
                                     - int(before_metrics["wal_bytes"]))
                served_shards = int(info.get("shards", shards))
                served_durability = str(info.get("durability", durability))
            finally:
                control.close()
        finally:
            if process is not None:
                process.send_signal(signal.SIGTERM)
                try:
                    process.wait(timeout=15.0)
                except Exception:
                    process.kill()
                    process.wait()
        return {"metrics": metrics, "commit_labels": commit_labels,
                "failed": driven["failed"], "errors": driven["errors"],
                "overloads": driven["overloads"], "final_state": final_state,
                "shards": served_shards, "durability": served_durability}

    def _check_server(self, info: Mapping[str, Any], protocol_name: str,
                      address: Any) -> None:
        """Refuse to measure (and mis-verify) against a mismatched server."""
        mismatches = []
        if info.get("protocol") != protocol_name:
            mismatches.append(f"protocol {info.get('protocol')!r} != "
                              f"{protocol_name!r}")
        if ("instances" in info
                and info["instances"] != self._instances_per_class):
            mismatches.append(f"instances {info['instances']} != "
                              f"{self._instances_per_class}")
        if ("populate_seed" in info
                and info["populate_seed"] != self._populate_seed):
            mismatches.append(f"populate_seed {info['populate_seed']} != "
                              f"{self._populate_seed}")
        if mismatches:
            raise ValueError(f"the server at {address} does not match this "
                             f"harness: {'; '.join(mismatches)}")

    # -- the worker pool ---------------------------------------------------------

    def _drive(self, specs: Sequence[TransactionSpec], threads: int,
               connect: Callable[[int], Connection], *,
               max_retries: int) -> dict[str, Any]:
        """Replay ``specs`` over per-worker connections; collect failures."""
        work: "queue.SimpleQueue[TransactionSpec]" = queue.SimpleQueue()
        for spec in specs:
            work.put(spec)
        failed: list[str] = []
        errors: list[tuple[str, str]] = []
        runners: list[TransactionRunner] = []
        mutex = threading.Lock()

        def worker(index: int) -> None:
            try:
                connection = connect(index)
            except Exception as error:  # noqa: BLE001 - reported, not lost
                # A worker that cannot even reach the engine must show up in
                # the result (its share of the queue goes unrun) — a bare
                # thread death would let an all-workers-failed run masquerade
                # as a clean zero-commit one.
                with mutex:
                    errors.append((f"worker-{index}", repr(error)))
                return
            runner = TransactionRunner(connection, max_retries=max_retries,
                                       seed=0xC11E47 + index)
            with mutex:
                runners.append(runner)
            try:
                while True:
                    try:
                        spec = work.get_nowait()
                    except queue.Empty:
                        return
                    try:
                        runner.run_spec(spec)
                    except (DeadlockError, LockTimeoutError):
                        with mutex:
                            failed.append(spec.label)
                    except Exception as error:  # noqa: BLE001 - reported, not lost
                        # An unexpected failure must not silently kill the
                        # worker and drop the remaining queue.
                        with mutex:
                            failed.append(spec.label)
                            errors.append((spec.label, repr(error)))
            finally:
                connection.close()

        pool = [threading.Thread(target=worker, args=(index,),
                                 name=f"repro-worker-{index}", daemon=True)
                for index in range(threads)]
        started = time.perf_counter()
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        elapsed = time.perf_counter() - started
        return {"failed": tuple(failed), "errors": tuple(errors),
                "elapsed": elapsed,
                "overloads": sum(runner.overloads for runner in runners)}

    @staticmethod
    def _resolve_durability(durability: Durability | str,
                            wal_dir: str | Path | None,
                            protocol_name: str, shards: int, *,
                            group_commit_ms: float | None = None):
        """The run's :class:`Durability` plus an optional cleanup callback."""
        if isinstance(durability, Durability):
            return durability, None
        if durability == "off":
            return Durability.off(), None
        if wal_dir is not None:
            root = Path(wal_dir) / f"{protocol_name}-shards{shards}"
            if root.exists():
                shutil.rmtree(root)
            return Durability(mode=durability, directory=root,
                              group_commit_ms=group_commit_ms), None
        scratch = tempfile.TemporaryDirectory(prefix="repro-wal-")
        return (Durability(mode=durability, directory=scratch.name,
                           group_commit_ms=group_commit_ms),
                scratch.cleanup)

    def _sequential_replay(self, protocol_class: type,
                           specs: Sequence[TransactionSpec],
                           commit_labels: tuple[str, ...]) -> dict[str, dict[str, Any]]:
        """Final state of replaying the committed transactions one by one."""
        replica = self.populate()
        manager = TransactionManager(protocol_class(self._compiled, replica))
        by_label = {spec.label: spec for spec in specs}
        for label in commit_labels:
            transaction = manager.begin()
            for operation in by_label[label].operations:
                manager.perform(transaction, operation)
            manager.commit(transaction)
        return store_state(replica)


def _resolve_admission(
        admission: "AdmissionController | Mapping[str, Any] | None",
) -> AdmissionController | None:
    """An in-process controller from whatever the caller handed over."""
    if admission is None or isinstance(admission, AdmissionController):
        return admission
    flags = _admission_flags(admission)
    return AdmissionController(flags["max_in_flight"],
                               max_queue=flags["max_queue"],
                               queue_timeout=flags["queue_timeout"])


def _admission_flags(admission: "Mapping[str, Any] | None") -> dict[str, Any]:
    """Admission limits as :func:`repro.api.server.spawn` keyword arguments.

    One place normalises a limits mapping, so inproc and socket runs of the
    same mapping configure identical controllers.
    """
    if admission is None:
        return {}
    return {"max_in_flight": admission["max_in_flight"],
            "max_queue": admission.get("max_queue", DEFAULT_MAX_QUEUE),
            "queue_timeout": admission.get("queue_timeout",
                                           DEFAULT_QUEUE_TIMEOUT)}


def _with_unique_labels(specs: Sequence[TransactionSpec]) -> list[TransactionSpec]:
    """Ensure every spec carries a unique, non-empty label (for the commit log)."""
    seen: set[str] = set()
    labelled: list[TransactionSpec] = []
    for index, spec in enumerate(specs):
        label = spec.label
        if not label or label in seen:
            label = f"txn-{index}"
            while label in seen:
                label = f"txn-{index}-{len(seen)}"
            spec = TransactionSpec(operations=spec.operations, label=label,
                                   read_only=getattr(spec, "read_only", False))
        seen.add(label)
        labelled.append(spec)
    return labelled


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def bench_document(results: Sequence[HarnessResult],
                   config: dict[str, Any] | None = None,
                   benchmark: str = "engine_throughput") -> dict[str, Any]:
    """The harness results as a ``BENCH_*.json``-style document.

    One flat row per (protocol, threads, shards, durability, transport)
    configuration plus the configuration that produced them, so successive
    runs can be diffed for the performance trajectory without re-parsing
    the human table.  Each row carries the durability mode and the WAL cost
    both raw (``wal_bytes``) and per committed transaction
    (``wal_bytes_per_commit``).
    """
    return {
        "benchmark": benchmark,
        "unit": "commits_per_s",
        "config": dict(config or {}),
        "results": [
            {**result.as_row(),
             "serializable": result.serializable,
             "durability": result.durability,
             "transport": result.transport,
             "wal_bytes": result.metrics.wal_bytes,
             "wal_bytes_per_commit": round(result.metrics.wal_bytes_per_commit, 1),
             "failed": list(result.failed_labels)}
            for result in results
        ],
    }


def write_bench_json(path: str, results: Sequence[HarnessResult],
                     arguments: argparse.Namespace | Mapping[str, Any],
                     benchmark: str = "engine_throughput") -> None:
    """Write :func:`bench_document` for one run to ``path``.

    ``arguments`` is the CLI namespace — or any mapping, which is how the
    benchmark suite (``benchmarks/test_bench_wal_overhead.py``) reuses this
    path for its own documents.
    """
    if isinstance(arguments, Mapping):
        config = dict(arguments)
    else:
        config = {
            "threads": arguments.threads,
            "shards": arguments.shards,
            "shard_workers": arguments.shard_workers,
            "replicas": getattr(arguments, "replicas", 0),
            "group_commit_ms": arguments.group_commit_ms,
            "transactions": arguments.transactions,
            "operations": arguments.operations,
            "instances": arguments.instances,
            "scenario": getattr(arguments, "scenario", "banking"),
            "read_mix": getattr(arguments, "read_mix", 0.0),
            "seed": arguments.seed,
            "lock_timeout": arguments.lock_timeout,
            "durability": arguments.durability,
            "transport": arguments.transport,
            "addr": arguments.addr,
            "max_in_flight": arguments.max_in_flight,
            "verified": not arguments.no_verify,
            "trace": getattr(arguments, "trace", None),
            "trace_sample": getattr(arguments, "trace_sample", 1),
        }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(bench_document(results, config, benchmark=benchmark),
                  handle, indent=2)
        handle.write("\n")


def main(argv: Sequence[str] | None = None) -> int:
    """Run the throughput harness and print the comparison table.

    Exits non-zero when any protocol produced a serializability violation.
    """
    from repro.reporting import format_throughput_table

    parser = argparse.ArgumentParser(
        prog="python -m repro.engine.harness",
        description="Replay a banking workload across real threads and compare "
                    "wall-clock throughput per concurrency-control protocol.")
    parser.add_argument("--threads", type=int, default=8,
                        help="worker threads (default: 8)")
    parser.add_argument("--shards", type=int, default=1,
                        help="store/lock shards; >1 runs the sharded engine "
                             "with cross-shard 2PC (default: 1)")
    parser.add_argument("--shard-workers", type=int, default=None,
                        metavar="N",
                        help="run each shard as its own OS process (spawns N "
                             "python -m repro.sharding.worker children and "
                             "routes locking/execution/2PC over participant "
                             "RPC) — the multi-core configuration; implies "
                             "--shards N")
    parser.add_argument("--replicas", type=int, default=0, metavar="N",
                        help="hot standbys per shard worker: each primary "
                             "ships its WAL stream to N standby processes "
                             "that replay it continuously (needs "
                             "--shard-workers and --durability lazy/fsync; "
                             "default: 0)")
    parser.add_argument("--transactions", type=int, default=400,
                        help="transactions in the workload (default: 400 — "
                             "long enough for a stable commits/sec reading)")
    parser.add_argument("--protocols", default="tav,rw-instance",
                        help="comma-separated protocol names, or 'all' "
                             f"(available: {', '.join(PROTOCOLS)})")
    parser.add_argument("--scenario", choices=("banking", "order-entry"),
                        default="banking",
                        help="workload scenario: 'banking' replays the "
                             "random generator mix; 'order-entry' replays "
                             "TPC-C-style sales over hot Warehouse/Stock "
                             "counters and additionally checks the "
                             "quantity+sold conservation invariant "
                             "(default: banking)")
    parser.add_argument("--operations", type=int, default=3,
                        help="operations per transaction (default: 3)")
    parser.add_argument("--read-mix", type=float, default=0.0, metavar="P",
                        help="fraction of transactions declared read-only "
                             "and served from the engine's lock-free "
                             "snapshot path (default: 0.0)")
    parser.add_argument("--instances", type=int, default=4,
                        help="instances per class (default: 4 — a hot store; "
                             "raise it to dilute contention)")
    parser.add_argument("--seed", type=int, default=17,
                        help="workload seed (default: 17)")
    parser.add_argument("--lock-timeout", type=float, default=5.0,
                        help="per-request lock timeout in seconds (default: 5)")
    parser.add_argument("--transport", choices=TRANSPORTS, default="inproc",
                        help="how workers reach the engine: 'inproc' calls "
                             "the dispatcher directly, 'socket' drives a "
                             "repro.api.server process over TCP "
                             "(default: inproc)")
    parser.add_argument("--addr", metavar="HOST:PORT", default=None,
                        help="with --transport socket: use this running "
                             "server instead of spawning one (it must serve "
                             "a matching store; exactly one --protocols "
                             "entry)")
    parser.add_argument("--max-in-flight", type=int, default=None,
                        help="admission cap on concurrent transactions "
                             "(default: no admission control)")
    parser.add_argument("--max-queue", type=int, default=DEFAULT_MAX_QUEUE,
                        help="admission wait-queue bound "
                             f"(default: {DEFAULT_MAX_QUEUE})")
    parser.add_argument("--queue-timeout", type=float,
                        default=DEFAULT_QUEUE_TIMEOUT,
                        help="seconds a Begin may wait for an admission slot "
                             f"(default: {DEFAULT_QUEUE_TIMEOUT})")
    parser.add_argument("--durability", choices=DURABILITY_MODES, default="off",
                        help="write-ahead logging mode: 'off' (no files), "
                             "'lazy' (write-through, survives SIGKILL) or "
                             "'fsync' (fsync at prepare/commit, survives "
                             "power loss); the wal table column shows the "
                             "log bytes paid per commit")
    parser.add_argument("--wal-dir", metavar="PATH", default=None,
                        help="directory for WAL/checkpoint files (per-run "
                             "subdirectories; default: a temporary directory "
                             "deleted after the run)")
    parser.add_argument("--group-commit-ms", type=float, default=None,
                        metavar="MS",
                        help="batch decision-log fsyncs into one barrier per "
                             "MS milliseconds (fsync mode only; default: one "
                             "fsync per commit)")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the sequential-replay serializability check")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="record end-to-end transaction spans and write "
                             "them as Chrome-trace JSON to FILE (inproc "
                             "transport only; default: tracing off)")
    parser.add_argument("--trace-sample", type=int, default=1, metavar="N",
                        help="trace every Nth transaction (default: 1 — all "
                             "of them; only meaningful with --trace)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the results as a BENCH_*.json-style "
                             "machine-readable document")
    parser.add_argument("--sanitize", action="store_true",
                        help="run the engine with the runtime 2PL/write-ahead "
                             "sanitizer on (inproc transport only; see "
                             "repro.analysis)")
    arguments = parser.parse_args(argv)

    if arguments.shards < 1:
        parser.error(f"--shards must be at least 1, got {arguments.shards}")
    if arguments.addr is not None and arguments.transport != "socket":
        parser.error("--addr only makes sense with --transport socket")
    if arguments.trace_sample < 1:
        parser.error(f"--trace-sample must be at least 1, "
                     f"got {arguments.trace_sample}")
    if arguments.trace is not None and arguments.transport != "inproc":
        parser.error("--trace records spans engine-side; it needs "
                     "--transport inproc (start the server with --trace "
                     "for socket runs)")
    if arguments.sanitize and arguments.transport != "inproc":
        parser.error("--sanitize wraps the engine in this process; it needs "
                     "--transport inproc (set REPRO_SANITIZE=1 on the "
                     "server for socket runs)")
    if arguments.scenario != "banking" and arguments.transport != "inproc":
        parser.error("--scenario order-entry populates a non-banking store; "
                     "spawned servers only rebuild the banking population, "
                     "so it needs --transport inproc")
    if arguments.scenario != "banking" and arguments.shard_workers is not None:
        parser.error("--scenario order-entry populates a non-banking store; "
                     "shard workers only rebuild the banking population")
    if not 0.0 <= arguments.read_mix <= 1.0:
        parser.error(f"--read-mix must be within [0, 1], "
                     f"got {arguments.read_mix}")
    if arguments.shard_workers is not None:
        if arguments.shard_workers < 1:
            parser.error(f"--shard-workers must be at least 1, "
                         f"got {arguments.shard_workers}")
        if arguments.transport != "inproc":
            parser.error("--shard-workers runs the engine in this process; "
                         "it cannot combine with --transport socket")
        if arguments.shards not in (1, arguments.shard_workers):
            parser.error(f"--shards {arguments.shards} disagrees with "
                         f"--shard-workers {arguments.shard_workers}")
    if arguments.replicas:
        if arguments.replicas < 0:
            parser.error(f"--replicas must be >= 0, got {arguments.replicas}")
        if arguments.shard_workers is None:
            parser.error("--replicas spawns hot standbys per shard worker; "
                         "combine it with --shard-workers")
        if arguments.durability == "off":
            parser.error("--replicas ships the WAL stream; combine it with "
                         "--durability lazy or fsync")

    names = (list(PROTOCOLS) if arguments.protocols == "all"
             else [name.strip() for name in arguments.protocols.split(",")])
    unknown = [name for name in names if name not in PROTOCOLS]
    if unknown:
        parser.error(f"unknown protocol(s) {unknown}; available: {', '.join(PROTOCOLS)}")
    if arguments.addr is not None and len(names) != 1:
        parser.error("--addr serves one protocol; name exactly one in "
                     "--protocols")

    admission = None
    if arguments.max_in_flight is not None:
        admission = {"max_in_flight": arguments.max_in_flight,
                     "max_queue": arguments.max_queue,
                     "queue_timeout": arguments.queue_timeout}

    invariant = None
    if arguments.scenario == "order-entry":
        from repro.schema.examples import order_entry_schema
        from repro.sim.order_entry import (
            conservation_violations,
            order_entry_specs,
        )

        harness = ThroughputHarness(
            order_entry_schema(), instances_per_class=arguments.instances,
            spec_maker=lambda store, count: order_entry_specs(
                store, count, read_mix=arguments.read_mix,
                seed=arguments.seed))
        invariant = conservation_violations
    else:
        harness = ThroughputHarness(
            instances_per_class=arguments.instances,
            workload_seed=arguments.seed,
            operations_per_transaction=arguments.operations,
            read_mix=arguments.read_mix)
    results = []
    for name in names:
        result = harness.run(PROTOCOLS[name], threads=arguments.threads,
                             transactions=arguments.transactions,
                             verify=not arguments.no_verify,
                             shards=arguments.shards,
                             shard_workers=arguments.shard_workers,
                             replicas=arguments.replicas,
                             durability=arguments.durability,
                             wal_dir=arguments.wal_dir,
                             group_commit_ms=arguments.group_commit_ms,
                             transport=arguments.transport,
                             address=arguments.addr,
                             admission=admission,
                             trace_path=arguments.trace,
                             trace_sample=arguments.trace_sample,
                             invariant=invariant,
                             default_lock_timeout=arguments.lock_timeout,
                             **({"sanitize": True} if arguments.sanitize
                                else {}))
        results.append(result)
    print(format_throughput_table(results))
    if arguments.replicas:
        from repro.reporting import format_table

        print("\nreplication streams (end of run):")
        print(format_table(
            [("protocol", "shard", "target", "healthy", "acked_lsn",
              "last_lsn", "lag_records", "lag_seconds", "resets")]
            + [(result.protocol, entry["shard"], entry["target"],
                "yes" if entry["healthy"] else "NO", entry["acked_lsn"],
                entry["last_lsn"], entry["lag_records"],
                entry["lag_seconds"], entry["resets"])
               for result in results for entry in result.replication]))
    if arguments.trace:
        print(f"\nChrome-trace JSON written to {arguments.trace} "
              "(load in chrome://tracing or Perfetto)")
    if arguments.json:
        write_bench_json(arguments.json, results, arguments)
        print(f"\nmachine-readable results written to {arguments.json}")
    status = 0
    for result in results:
        for label, error in result.errors:
            print(f"\n{result.protocol}: transaction {label} died unexpectedly: {error}")
            status = 1
    for result in results:
        if result.invariant_violations:
            print(f"\n{result.protocol}: conservation invariant VIOLATED "
                  "— units leaked:")
            for line in result.invariant_violations:
                print(f"  {line}")
            status = 1
    if any(result.serializable is False for result in results):
        print("\nserializability VIOLATION detected — see the table above")
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
