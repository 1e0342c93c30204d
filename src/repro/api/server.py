"""The socket front end: serve the command API over TCP.

:class:`ApiServer` puts a :class:`~repro.api.dispatcher.Dispatcher` behind a
listening socket: a threaded accept loop hands each connection to one worker
thread that reads framed requests (:mod:`repro.api.wire`), dispatches them,
and writes framed replies.  One connection is one client session stream —
the per-transaction "single locus of control" contract maps onto it
naturally, and a client that *vanishes* (socket closed, process killed) has
every transaction it began aborted by the worker's cleanup, so an impolite
client cannot strand locks or admission slots.

Shutdown is clean: :meth:`shutdown` stops accepting, unblocks and joins
every worker, and aborts whatever they were still owning.  The module is
runnable::

    python -m repro.api.server --protocol tav --shards 4 \
        --max-in-flight 8 --port 7453

which populates the deterministic banking store (the same parameters the
throughput harness uses, so ``repro-bench --transport socket`` can verify
serializability against its own replica), prints ``listening on HOST:PORT``
once ready, and serves until SIGTERM/SIGINT.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import socket
import tempfile
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.api.admission import (
    DEFAULT_MAX_QUEUE,
    DEFAULT_QUEUE_TIMEOUT,
    AdmissionController,
)
from repro.api.dispatcher import Dispatcher
from repro.api.messages import (
    Abort,
    AbortReply,
    BeginReply,
    CommitReply,
    message_to_wire,
    reply_for_error,
    request_from_wire,
)
from repro.api.wire import recv_frame, send_frame
from repro.errors import ProtocolError, ReproError
from repro.api.messages import ErrorReply

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import Engine


class ApiServer:
    """Serves one engine's dispatcher to any number of socket clients."""

    def __init__(self, engine: "Engine", *, host: str = "127.0.0.1",
                 port: int = 0, admission: AdmissionController | None = None,
                 info: Mapping[str, Any] | None = None) -> None:
        self._dispatcher = Dispatcher(engine, admission=admission, info=info)
        self._listener = socket.create_server((host, port))
        # Accept with a short timeout: merely closing a listening socket
        # does not wake a thread blocked in accept() on Linux, so the loop
        # polls the closed flag instead of trusting the wakeup.
        self._listener.settimeout(0.2)
        self._host = host
        self._port = self._listener.getsockname()[1]
        self._mutex = threading.Lock()
        self._clients: set[socket.socket] = set()
        self._workers: set[threading.Thread] = set()
        self._worker_count = 0
        self._accept_thread: threading.Thread | None = None
        self._closed = False

    # -- life cycle -------------------------------------------------------------

    def start(self) -> "ApiServer":
        """Start the accept loop (returns immediately)."""
        if self._accept_thread is None:
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="repro-api-accept", daemon=True)
            self._accept_thread.start()
        return self

    def shutdown(self) -> None:
        """Stop accepting, drop every client, join all threads.  Idempotent."""
        with self._mutex:
            if self._closed:
                return
            self._closed = True
            clients = list(self._clients)
        with contextlib.suppress(OSError):
            self._listener.shutdown(socket.SHUT_RDWR)
        self._listener.close()
        for sock in clients:
            # Unblocks the worker's recv; its cleanup aborts owned txns.
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)
        if self._accept_thread is not None:
            self._accept_thread.join()
        # Workers prune themselves on exit — but only while the server is
        # open; once closed they stay listed so this join cannot miss one.
        with self._mutex:
            workers = list(self._workers)
        for worker in workers:
            worker.join()

    def __enter__(self) -> "ApiServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    # -- the loops --------------------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _peer = self._listener.accept()
            except TimeoutError:
                if self._closed:
                    return
                continue
            except OSError:
                return  # the listener was closed — shutdown
            with self._mutex:
                if self._closed:
                    sock.close()
                    return
                self._clients.add(sock)
                self._worker_count += 1
                worker = threading.Thread(
                    target=self._serve_client, args=(sock,),
                    name=f"repro-api-worker-{self._worker_count}", daemon=True)
                self._workers.add(worker)
            worker.start()

    def _serve_client(self, sock: socket.socket) -> None:
        sock.settimeout(None)  # do not inherit the listener's accept timeout
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        #: Transactions this connection began and has not finished — what
        #: the cleanup aborts if the client vanishes mid-transaction.
        owned: set[int] = set()
        metrics = self._dispatcher.engine.metrics
        try:
            while True:
                document = recv_frame(sock)
                if document is None:
                    return  # polite hang-up
                try:
                    request = request_from_wire(document)
                except ProtocolError as error:
                    # Counted before the write, so a client that has its
                    # reply in hand never reads a stale frame counter.
                    metrics.record_frames(1)
                    send_frame(sock, message_to_wire(reply_for_error(error)))
                    continue
                try:
                    reply = self._dispatcher.dispatch(request)
                except Exception as error:  # noqa: BLE001 - a bug, not protocol
                    # Dispatch converts every ReproError itself; anything else
                    # is an internal fault — answer it rather than silently
                    # dropping the connection mid-request.
                    reply = ErrorReply(code=ReproError.code,
                                       message=f"internal error: {error!r}")
                if isinstance(reply, BeginReply):
                    owned.add(reply.txn)
                elif isinstance(reply, (CommitReply, AbortReply)):
                    owned.discard(reply.txn)
                metrics.record_frames(1)
                send_frame(sock, message_to_wire(reply))
        except (ProtocolError, ConnectionError, OSError):
            return  # broken stream; fall through to cleanup
        finally:
            for txn in owned:
                # Abandoned by its client: strict 2PL still holds its locks
                # (and possibly an admission slot) — abort reclaims both.  An
                # already-finished transaction answers with a harmless error.
                self._dispatcher.dispatch(Abort(txn=txn))
            with self._mutex:
                self._clients.discard(sock)
                if not self._closed:
                    # Self-prune so a long-lived server does not retain one
                    # dead Thread per connection ever served.  During
                    # shutdown the entry stays, so the join sees it.
                    self._workers.discard(threading.current_thread())
            sock.close()

    # -- introspection ----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (port 0 resolves here)."""
        return (self._host, self._port)

    @property
    def dispatcher(self) -> Dispatcher:
        """The dispatcher behind this server."""
        return self._dispatcher


# ---------------------------------------------------------------------------
# Spawning a server as a subprocess (harness, tests, examples)
# ---------------------------------------------------------------------------


def spawn(*, host: str = "127.0.0.1", port: int = 0, protocol: str = "tav",
          shards: int = 1, instances: int = 4, populate_seed: int = 11,
          lock_timeout: float = 5.0, durability: str = "off",
          wal_dir: "str | Path | None" = None,
          max_in_flight: int | None = None,
          max_queue: int = DEFAULT_MAX_QUEUE,
          queue_timeout: float = DEFAULT_QUEUE_TIMEOUT,
          ready_timeout: float = 60.0) -> "tuple[Any, tuple[str, int]]":
    """Start ``python -m repro.api.server`` as a subprocess and wait for it.

    Returns ``(process, (host, port))`` once the child printed its
    ``listening on`` line — the only handshake there is.  The caller owns
    the process (terminate it; the server shuts down cleanly on SIGTERM).
    """
    import os
    import subprocess
    import sys

    package_root = Path(__file__).resolve().parent.parent.parent
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [str(package_root)] + ([environment["PYTHONPATH"]]
                               if environment.get("PYTHONPATH") else []))
    command = [sys.executable, "-m", "repro.api.server",
               "--host", host, "--port", str(port),
               "--protocol", protocol, "--shards", str(shards),
               "--instances", str(instances),
               "--populate-seed", str(populate_seed),
               "--lock-timeout", str(lock_timeout),
               "--durability", durability]
    if wal_dir is not None:
        command += ["--wal-dir", str(wal_dir)]
    if max_in_flight is not None:
        command += ["--max-in-flight", str(max_in_flight),
                    "--max-queue", str(max_queue),
                    "--queue-timeout", str(queue_timeout)]
    process = subprocess.Popen(command, env=environment,
                               stdout=subprocess.PIPE, text=True)
    address: list[tuple[str, int]] = []
    ready = threading.Event()

    def read() -> None:
        assert process.stdout is not None
        for line in process.stdout:
            if line.startswith("listening on "):
                bound_host, _, bound_port = line.split()[-1].rpartition(":")
                address.append((bound_host, int(bound_port)))
                ready.set()
                return

    reader = threading.Thread(target=read, daemon=True,
                              name="repro-api-spawn-ready")
    reader.start()
    if not ready.wait(ready_timeout):
        process.kill()
        process.wait()
        raise RuntimeError(
            f"the spawned API server never reported listening within "
            f"{ready_timeout}s (exit {process.poll()})")
    return process, address[0]


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def serve(argv: Sequence[str] | None = None) -> int:
    """Build a banking engine, serve it, block until SIGTERM/SIGINT."""
    from repro.core.compiler import compile_schema
    from repro.engine.engine import Engine
    from repro.schema import banking_schema
    from repro.sharding.router import HashShardRouter
    from repro.sharding.store import ShardedObjectStore
    from repro.sim.workload import populate_store
    from repro.txn.protocols import PROTOCOLS
    from repro.wal.durability import MODES as DURABILITY_MODES
    from repro.wal.durability import Durability

    parser = argparse.ArgumentParser(
        prog="python -m repro.api.server",
        description="Serve the engine's command API over TCP (the banking "
                    "schema, populated deterministically so a remote "
                    "harness can verify serializability).")
    parser.add_argument("--host", default="127.0.0.1",
                        help="interface to bind (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=0,
                        help="port to bind; 0 picks a free one and prints it "
                             "(default: 0)")
    parser.add_argument("--protocol", default="tav", choices=list(PROTOCOLS),
                        help="concurrency-control protocol (default: tav)")
    parser.add_argument("--shards", type=int, default=1,
                        help="store/lock shards (default: 1)")
    parser.add_argument("--instances", type=int, default=4,
                        help="instances per class (default: 4, matching "
                             "repro-bench)")
    parser.add_argument("--populate-seed", type=int, default=11,
                        help="store population seed (default: 11, matching "
                             "repro-bench)")
    parser.add_argument("--lock-timeout", type=float, default=5.0,
                        help="per-request lock timeout in seconds (default: 5)")
    parser.add_argument("--durability", choices=DURABILITY_MODES, default="off",
                        help="write-ahead logging mode (default: off)")
    parser.add_argument("--wal-dir", metavar="PATH", default=None,
                        help="directory for WAL/checkpoint files (default: a "
                             "temporary directory deleted on exit)")
    parser.add_argument("--max-in-flight", type=int, default=None,
                        help="admission cap on concurrent transactions "
                             "(default: unlimited — no admission control)")
    parser.add_argument("--max-queue", type=int, default=DEFAULT_MAX_QUEUE,
                        help="admission wait-queue bound "
                             f"(default: {DEFAULT_MAX_QUEUE})")
    parser.add_argument("--queue-timeout", type=float,
                        default=DEFAULT_QUEUE_TIMEOUT,
                        help="seconds a Begin may wait for an admission slot "
                             "before the Overloaded answer (default: "
                             f"{DEFAULT_QUEUE_TIMEOUT})")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="record transaction spans and write them as "
                             "Chrome-trace JSON to FILE at shutdown "
                             "(default: tracing off)")
    parser.add_argument("--trace-sample", type=int, default=1, metavar="N",
                        help="trace every Nth transaction (default: 1 — "
                             "all of them; only meaningful with --trace)")
    arguments = parser.parse_args(argv)
    if arguments.shards < 1:
        parser.error(f"--shards must be at least 1, got {arguments.shards}")
    if arguments.trace_sample < 1:
        parser.error(f"--trace-sample must be at least 1, "
                     f"got {arguments.trace_sample}")

    schema = banking_schema()
    compiled = compile_schema(schema)
    if arguments.shards > 1:
        store = populate_store(
            schema, arguments.instances, seed=arguments.populate_seed,
            store=ShardedObjectStore(schema, HashShardRouter(arguments.shards)))
    else:
        store = populate_store(schema, arguments.instances,
                               seed=arguments.populate_seed)
    protocol = PROTOCOLS[arguments.protocol](compiled, store)

    scratch: tempfile.TemporaryDirectory | None = None
    if arguments.durability == "off":
        durability = Durability.off()
    else:
        if arguments.wal_dir is None:
            scratch = tempfile.TemporaryDirectory(prefix="repro-api-wal-")
            directory = Path(scratch.name)
        else:
            directory = Path(arguments.wal_dir)
        durability = Durability(mode=arguments.durability, directory=directory)

    admission = None
    if arguments.max_in_flight is not None:
        admission = AdmissionController(arguments.max_in_flight,
                                        max_queue=arguments.max_queue,
                                        queue_timeout=arguments.queue_timeout)

    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())

    tracer = None
    if arguments.trace is not None:
        from repro.obs.tracing import Tracer

        tracer = Tracer(sample_every=arguments.trace_sample)

    engine = Engine(protocol, default_lock_timeout=arguments.lock_timeout,
                    durability=durability, tracer=tracer)
    try:
        server = ApiServer(engine, host=arguments.host, port=arguments.port,
                           admission=admission,
                           info={"instances": arguments.instances,
                                 "populate_seed": arguments.populate_seed})
        with server:
            host, port = server.address
            print(f"listening on {host}:{port}", flush=True)
            stop.wait()
            print("shutting down", flush=True)
        if arguments.trace is not None:
            events = engine.export_trace(arguments.trace)
            print(f"wrote {events} trace events to {arguments.trace}",
                  flush=True)
    finally:
        engine.close()
        if scratch is not None:
            scratch.cleanup()
    return 0


if __name__ == "__main__":
    raise SystemExit(serve())
