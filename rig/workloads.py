"""The five deployment-shape workloads and how each is brought up.

A workload is a parameter set for the repository's own seeded
:class:`~repro.sim.workload.WorkloadGenerator` (banking schema, TAV
protocol, four operations per transaction) plus the deployment shape that
serves it.  The program under test sees only the generated specs.
"""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.api import client as socket_client
from repro.api import server as socket_server
from repro.api.connection import Connection, InProcessConnection
from repro.api.dispatcher import Dispatcher
from repro.core.compiler import compile_schema
from repro.engine.engine import Engine
from repro.schema import banking_schema
from repro.sharding.router import HashShardRouter
from repro.sharding.store import ShardedObjectStore
from repro.sim.workload import TransactionSpec, WorkloadGenerator, populate_store
from repro.txn.protocols import PROTOCOLS
from repro.wal.durability import Durability

#: Closed-loop clients: one thread and one connection each (``nproc`` = 2).
CLIENTS = 2
PROTOCOL = "tav"
OPERATIONS_PER_TRANSACTION = 4
WRITE_BIAS = 0.6
LOCK_TIMEOUT = 5.0
#: Distinct specs generated per workload; clients cycle them under fresh
#: labels, because the generator costs about a millisecond per spec.
DISTINCT_SPECS = 1000


@dataclass(frozen=True)
class Workload:
    """One traffic mix on one deployment shape."""

    name: str
    why: str
    #: ``inproc`` (engine in this process), ``socket`` (spawned API server)
    #: or ``workers`` (shard worker processes with hot standbys).
    shape: str
    instances: int
    hotspot: float = 0.0
    extent_fraction: float = 0.0
    domain_fraction: float = 0.0
    read_mix: float = 0.0
    shards: int = 1
    durability: str = "off"
    replicas: int = 0

    @property
    def flush_policy(self) -> str:
        """The durability setting, stated with every result."""
        if self.durability == "fsync":
            return "fsync at prepare and at every commit decision, no group commit"
        if self.durability == "lazy":
            return "write-through WAL, never fsynced"
        return "no WAL"


WORKLOADS: tuple[Workload, ...] = (
    Workload("inproc_dilute",
             "768 instances, no hotspot: the uncontended straight-line path "
             "does all the work, and per-transaction costs that grow with the "
             "store show; wire, WAL, RPC and lock waits do none",
             shape="inproc", instances=256),
    Workload("inproc_hot",
             "6 instances, hotspot 0.5, extent and domain operations: lock "
             "wait, wake-up, deadlock, undo and retry instead of the fast grant",
             shape="inproc", instances=2, hotspot=0.5,
             extent_fraction=0.02, domain_fraction=0.02),
    Workload("socket_pipelined",
             "spawned API server over 2 TCP connections, one RunProgram frame "
             "per transaction, a quarter read-only on the snapshot path: codec, "
             "framing and server loop do the work",
             shape="socket", instances=8, read_mix=0.25),
    Workload("durable_fsync",
             "in-process, 2 shards, fsync at every prepare and decision: WAL "
             "append, barriers and 2PC dominate, so CPU savings should not "
             "move it",
             shape="inproc", instances=8, shards=2, durability="fsync"),
    Workload("workers_replicated",
             "2 shard worker processes with one hot standby each, lazy WAL: "
             "worker RPC round trips, cross-process 2PC and WAL shipping "
             "dominate",
             shape="workers", instances=8, shards=2, durability="lazy",
             replicas=1),
)
BY_NAME = {workload.name: workload for workload in WORKLOADS}


def populate(workload: Workload, seed: int, store: Any = None) -> Any:
    """The workload's object base: identical on every call with one seed."""
    return populate_store(banking_schema(), workload.instances, seed=seed,
                          store=store)


def generate_specs(workload: Workload, seed: int,
                   count: int = DISTINCT_SPECS) -> list[TransactionSpec]:
    """The seeded transaction mix (labels are assigned per run, not here)."""
    generator = WorkloadGenerator(
        schema=banking_schema(), store=populate(workload, seed), seed=seed,
        operations_per_transaction=OPERATIONS_PER_TRANSACTION,
        extent_fraction=workload.extent_fraction,
        domain_fraction=workload.domain_fraction,
        write_bias=WRITE_BIAS, hotspot_fraction=workload.hotspot,
        read_mix=workload.read_mix)
    return generator.transactions(count)


class Placement:
    """One CPU for the rig process, one for everything it spawns.

    Threads of one CPython process share one GIL, and on a multi-core host
    the scheduler's choice of cores for them decides how costly each GIL
    hand-off is: the same in-process run measured 550 to 840 commits/s from
    one invocation to the next, and 1 570 to 1 630 with the process held on
    one CPU.  So the rig process (clients, and the engine when it is
    in-process) runs on the first allowed CPU, and every server or worker
    it spawns runs on the second, where there is one.  Entering pins;
    leaving restores the mask found.
    """

    def __init__(self) -> None:
        self._found = (os.sched_getaffinity(0)
                       if hasattr(os, "sched_setaffinity") else set())
        allowed = sorted(self._found)
        self.rig_cpu = allowed[0] if allowed else None
        self.spawn_cpu = allowed[1] if len(allowed) > 1 else self.rig_cpu

    def __enter__(self) -> "Placement":
        if self.rig_cpu is not None:
            os.sched_setaffinity(0, {self.rig_cpu})
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self._found:
            os.sched_setaffinity(0, self._found)

    @contextlib.contextmanager
    def spawning(self) -> Iterator[None]:
        """Processes started inside inherit the spawn CPU."""
        if self.spawn_cpu is None:
            yield
            return
        os.sched_setaffinity(0, {self.spawn_cpu})
        try:
            yield
        finally:
            # Threads started inside (an engine's deadlock detector) belong
            # to the rig process: bring them back with the calling thread.
            for thread in threading.enumerate():
                if thread.native_id is not None:
                    os.sched_setaffinity(thread.native_id, {self.rig_cpu})


def stop_process(process: Any) -> None:
    """SIGTERM a spawned server or worker and wait until it has ended."""
    process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=15.0)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    process.stdout.close()


class Deployment:
    """One running system under test, reached only through connections.

    ``connections`` carry the clients' transactions; ``control`` is the
    control plane (commit log, store state, metrics, stats) — the same
    typed messages whether the engine is in this process or behind TCP.
    """

    def __init__(self, workload: Workload, seed: int, directory: Path,
                 placement: Placement) -> None:
        self.workload = workload
        #: Ship each transaction as one ``RunProgram`` frame.
        self.pipeline = workload.shape == "socket"
        self.engine: Engine | None = None
        self.durability: Durability | None = None
        self._process: Any = None
        self.connections: list[Connection] = []
        self.control: Connection | None = None
        if workload.shape == "socket":
            with placement.spawning():
                self._process, address = socket_server.spawn(
                    protocol=PROTOCOL, shards=workload.shards,
                    instances=workload.instances, populate_seed=seed,
                    lock_timeout=LOCK_TIMEOUT)
            try:
                self.connections = [socket_client.connect(address)
                                    for _ in range(CLIENTS)]
                self.control = socket_client.connect(address)
            except BaseException:
                self.close()
                raise
            return
        schema = banking_schema()
        store = None
        if workload.shards > 1:
            store = ShardedObjectStore(schema, HashShardRouter(workload.shards))
        protocol = PROTOCOLS[PROTOCOL](compile_schema(schema),
                                       populate(workload, seed, store))
        options: dict[str, Any] = {}
        if workload.durability != "off":
            self.durability = Durability(mode=workload.durability,
                                         directory=directory)
            options["durability"] = self.durability
        if workload.shape == "workers":
            options.update(shard_workers=workload.shards,
                           replicas=workload.replicas,
                           worker_options={"schema": "banking",
                                           "instances": workload.instances,
                                           "populate_seed": seed})
        with placement.spawning():  # the constructor starts the shard workers
            self.engine = Engine(protocol, default_lock_timeout=LOCK_TIMEOUT,
                                 **options)
        dispatcher = Dispatcher(self.engine)
        self.connections = [InProcessConnection(dispatcher=dispatcher)
                            for _ in range(CLIENTS)]
        self.control = InProcessConnection(dispatcher=dispatcher)

    def replication_streams(self) -> list[dict[str, Any]]:
        """Every primary-to-standby stream's status (empty without replicas)."""
        if not self.workload.replicas:
            return []
        return [stream
                for shard in self.control.stats()["shards"]
                for stream in shard.get("replication") or ()]

    def wait_caught_up(self, timeout: float = 10.0) -> float:
        """Seconds until every standby acknowledged its primary's last LSN."""
        started = time.perf_counter()
        while time.perf_counter() - started < timeout:
            if all(stream["lag_records"] == 0
                   for stream in self.replication_streams()):
                break
            time.sleep(0.002)
        return time.perf_counter() - started

    def close(self) -> None:
        """Stop everything this deployment started and wait for it."""
        for connection in self.connections:
            connection.close()
        self.connections = []
        if self.control is not None:
            self.control.close()
        if self.engine is not None:
            self.engine.close()
        if self._process is not None:
            stop_process(self._process)
            self._process = None
