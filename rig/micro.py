"""Single-thread, uncontended loops over each layer's public function.

A micro number is what one call of a layer costs with the scheduler, the
other layers and the second client out of the picture.  Every loop runs in
batches and reports the median batch mean; the inputs are the first
method calls of the ``inproc_dilute`` specs for the run's seed.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

from repro.api import client as socket_client
from repro.api import server as socket_server
from repro.api.messages import (
    ProgramReply,
    RunProgram,
    message_to_wire,
    reply_from_wire,
    request_for_operation,
    request_from_wire,
)
from repro.core.compiler import compile_schema
from repro.objects.interpreter import Interpreter
from repro.schema import banking_schema
from repro.sharding import worker as shard_worker
from repro.sharding.rpc import RemoteShardClient
from repro.txn.operations import MethodCall
from repro.txn.plan_cache import PlanCache
from repro.txn.protocols import PROTOCOLS
from repro.txn.recovery import RecoveryManager
from repro.wal.log import WriteAheadLog
from repro.wal.records import UndoImage

from rig.workloads import (
    BY_NAME,
    PROTOCOL,
    Placement,
    generate_specs,
    populate,
    stop_process,
)

BATCHES = 5


def _per_call(function: Callable[[int], Any], calls: int, scale: float) -> float:
    """Median over batches of the mean time of ``function(i)``, scaled."""
    means = []
    for batch in range(BATCHES):
        started = perf_counter_ns()
        for index in range(batch * calls, (batch + 1) * calls):
            function(index)
        means.append((perf_counter_ns() - started) / calls)
    return statistics.median(means) / scale


def run_micro(seed: int, directory: Path, placement: Placement, *,
              calls: int) -> dict[str, float]:
    """Every micro metric; ``calls`` is the batch size of the cheap loops."""
    US, MS = 1e3, 1e6
    metrics: dict[str, float] = {}
    schema = banking_schema()
    metrics["core.compile_schema_ms"] = _per_call(
        lambda _: compile_schema(schema), max(1, calls // 200), MS)

    workload = BY_NAME["inproc_dilute"]
    store = populate(workload, seed)
    protocol = PROTOCOLS[PROTOCOL](compile_schema(schema), store)
    operations = [operation
                  for spec in generate_specs(workload, seed, 64)
                  for operation in spec.operations
                  if isinstance(operation, MethodCall)]
    pick = lambda index: operations[index % len(operations)]  # noqa: E731

    metrics["txn.plan_cold_us"] = _per_call(
        lambda index: protocol.plan(pick(index)), calls, US)
    cache = PlanCache(protocol)
    for operation in operations:
        cache.plan(operation)
    metrics["txn.plan_cached_us"] = _per_call(
        lambda index: cache.plan(pick(index)), calls, US)

    # Undo logging: one projected before-image per call, a fresh transaction
    # every 4 so the per-transaction log stays as short as a real one.
    recovery = RecoveryManager(store)
    images = [(operation.oid, protocol.written_projection(operation.oid,
                                                          operation.method))
              for operation in operations]
    images = [image for image in images if image[1]] or images

    def log_image(index: int) -> None:
        oid, fields = images[index % len(images)]
        recovery.log_before_image(index // 4 + 1, oid, fields)
        if index % 4 == 3:
            recovery.forget(index // 4 + 1)

    metrics["txn.undo_log_us"] = _per_call(log_image, calls, US)

    # Lock manager: grant one plan's requests, then release them, with every
    # instance of the 768-instance store already known to the manager.
    manager = protocol.create_lock_manager()
    for instance in store:
        # ``balance_report`` takes no arguments and every class inherits it.
        for request in protocol.plan(MethodCall(
                oid=instance.oid, method="balance_report")).requests:
            manager.acquire(0, request.resource, request.mode)
    manager.release_all(0)
    plans = [cache.plan(operation)[0].requests for operation in operations]
    grant_ns = release_ns = grants = 0
    rounds = BATCHES * calls // 4
    for index in range(1, rounds + 1):
        requests = plans[index % len(plans)]
        started = perf_counter_ns()
        for request in requests:
            manager.acquire(index, request.resource, request.mode)
        granted = perf_counter_ns()
        manager.release_all(index)
        release_ns += perf_counter_ns() - granted
        grant_ns += granted - started
        grants += len(requests)
    metrics["locking.grant_us"] = grant_ns / max(grants, 1) / US
    metrics["locking.release_all_us"] = release_ns / rounds / US

    interpreter = Interpreter(store)
    metrics["objects.send_us"] = _per_call(
        lambda index: interpreter.send(pick(index).oid, pick(index).method,
                                       *pick(index).arguments), calls, US)

    # Codec: one 4-operation RunProgram and its reply, to bytes and back.
    program = RunProgram(
        operations=tuple(message_to_wire(request_for_operation(0, operation))
                         for operation in operations[:4]),
        label="0.0.0", max_retries=20)
    reply = ProgramReply(txn=1, results=((None,),) * 4, retries=0)
    encode = lambda message: json.dumps(  # noqa: E731 - the wire's own settings
        message_to_wire(message), separators=(",", ":"),
        sort_keys=True).encode("utf-8")
    frames = (encode(program), encode(reply))
    metrics["api.encode_us"] = _per_call(
        lambda _: (encode(program), encode(reply)), calls, US)
    metrics["api.decode_us"] = _per_call(
        lambda _: (request_from_wire(json.loads(frames[0].decode("utf-8"))),
                   reply_from_wire(json.loads(frames[1].decode("utf-8")))),
        calls, US)

    # WAL: append one before-image frame; flush and fsync it.
    wal = WriteAheadLog(directory / "micro.wal", sync_on_barrier=True)
    try:
        oid, fields = images[0]
        record = UndoImage(txn=1, oid=oid,
                           values={name: store.get(oid).get(name)
                                   for name in fields})
        metrics["wal.append_us"] = _per_call(
            lambda _: wal.append(record), calls, US)

        barriers = []
        for _ in range(BATCHES * max(2, calls // 50)):
            wal.append(record)
            started = perf_counter_ns()
            wal.barrier()
            barriers.append(perf_counter_ns() - started)
        metrics["wal.fsync_ms"] = statistics.median(barriers) / MS
    finally:
        wal.close()

    # Wire floors: a round trip that does no engine work at all.
    with placement.spawning():
        process, address = socket_server.spawn(protocol=PROTOCOL, instances=1,
                                               populate_seed=seed)
    try:
        with socket_client.connect(address) as connection:
            metrics["api.ping_rtt_us"] = _per_call(
                lambda _: connection.ping(), max(10, calls // 5), US)
    finally:
        stop_process(process)
    with placement.spawning():
        process, address = shard_worker.spawn(shard_id=0, shards=1,
                                              protocol=PROTOCOL, instances=1,
                                              populate_seed=seed)
    try:
        shard = RemoteShardClient(0, address)
        try:
            metrics["sharding.rpc_rtt_us"] = _per_call(
                lambda _: shard.hello(), max(10, calls // 5), US)
            shard.shutdown()
        finally:
            shard.close()
    finally:
        stop_process(process)
    return metrics
