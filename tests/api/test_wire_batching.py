"""The program path: a whole transaction as one typed ``RunProgram``.

What shipping a transaction as one program must not buy at the price of
correctness:

* a :class:`~repro.api.messages.RunProgram` commits a whole transaction in
  one reply frame, and its server-side retries carry the first
  incarnation's wait-die origin — the regression test for retry starvation
  over the wire;
* the codec runs only at a socket: in-process, a spec is one dispatch and
  no encode or decode at all;
* the frame a program of typed operations becomes is byte-for-byte the
  frame built from wire-form members, and the frame the program path has
  always sent;
* a member that is not a well-formed call request is a typed
  ``ProtocolError`` for the whole program, answered before any work starts,
  so it leaves no session, lock or admission slot behind.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time

import pytest

from repro.api import messages
from repro.api.admission import AdmissionController
from repro.api.client import connect
from repro.api.connection import InProcessConnection, TransactionRunner
from repro.api.dispatcher import Dispatcher
from repro.api.messages import (
    ErrorReply,
    RunProgram,
    message_to_wire,
    reply_from_wire,
    request_for_operation,
    request_from_wire,
)
from repro.api.server import ApiServer
from repro.api.wire import recv_frame, send_frame
from repro.engine import Engine
from repro.errors import LockTimeoutError
from repro.objects import ObjectStore
from repro.objects.oid import OID
from repro.sim.workload import TransactionSpec
from repro.txn.operations import (
    DomainAllCall,
    DomainSomeCall,
    ExtentCall,
    MethodCall,
)
from repro.txn.protocols import TAVProtocol


@pytest.fixture
def served(banking, banking_compiled):
    """A server over a two-account store, with its engine and store."""
    store = ObjectStore(banking)
    store.create("Account", balance=100.0, owner="ada", active=True)
    store.create("Account", balance=100.0, owner="grace", active=True)
    with Engine(TAVProtocol(banking_compiled, store),
                detection_interval=0.005) as engine:
        with ApiServer(engine) as server:
            yield server, engine, store


# -- the program path ----------------------------------------------------------


def test_program_commits_in_one_reply_frame(served):
    server, engine, store = served
    first, second = store.extent("Account")
    frames_before = engine.metrics.frames_sent
    with connect(server.address) as connection:
        reply = connection.run_program(
            [MethodCall(oid=first, method="withdraw", arguments=(10.0,)),
             MethodCall(oid=second, method="deposit", arguments=(10.0,))],
            label="program-transfer")
        frames_for_program = engine.metrics.frames_sent - frames_before
    assert reply.retries == 0
    assert [list(result) for result in reply.results] == [[None], [None]]
    assert frames_for_program == 1  # the whole transaction, one round trip
    assert store.read_field(first, "balance") == 90.0
    assert store.read_field(second, "balance") == 110.0
    assert engine.commit_log[-1][1] == "program-transfer"


def test_program_retries_carry_the_origin_across_incarnations(
        banking, banking_compiled):
    """Server-side retry keeps wait-die seniority: every re-begun
    incarnation passes the first incarnation's txn id as its origin, so a
    long program cannot be starved by younger transactions — the same
    invariant the client-side runner upholds, now over one round trip."""
    store = ObjectStore(banking)
    store.create("Account", balance=100.0, owner="ada", active=True)
    oid = store.extent("Account")[0]
    with Engine(TAVProtocol(banking_compiled, store),
                default_lock_timeout=0.05) as engine:
        begins: list[tuple[int, int | None]] = []
        original_begin = engine.begin

        def spying_begin(*args, **kwargs):
            session = original_begin(*args, **kwargs)
            begins.append((session.txn_id, kwargs.get("origin")))
            return session

        engine.begin = spying_begin
        with ApiServer(engine) as server:
            holder = original_begin(label="holder")
            engine.perform(holder.transaction,
                           MethodCall(oid=oid, method="deposit",
                                      arguments=(1.0,)))

            def release_later() -> None:
                time.sleep(0.25)
                engine.commit(holder.transaction)

            releaser = threading.Thread(target=release_later, daemon=True,
                                        name="releaser")
            releaser.start()
            with connect(server.address) as connection:
                reply = connection.run_program(
                    [MethodCall(oid=oid, method="deposit",
                                arguments=(5.0,))],
                    label="stubborn", max_retries=50)
            releaser.join(timeout=5.0)
        program_begins = [(txn, origin) for txn, origin in begins
                          if txn != holder.txn_id]
        assert reply.retries >= 1  # it really was beaten to the lock
        assert len(program_begins) == reply.retries + 1
        first_txn, first_origin = program_begins[0]
        assert first_origin is None
        # Every retry incarnation carried the first incarnation's identity.
        assert all(origin == first_txn
                   for _, origin in program_begins[1:])
        assert reply.txn == program_begins[-1][0]
    assert store.read_field(oid, "balance") == 106.0


def test_program_retries_exhaust_as_a_typed_error(banking, banking_compiled):
    store = ObjectStore(banking)
    store.create("Account", balance=100.0, owner="ada", active=True)
    oid = store.extent("Account")[0]
    with Engine(TAVProtocol(banking_compiled, store),
                default_lock_timeout=0.05) as engine:
        with ApiServer(engine) as server:
            holder = engine.begin(label="holder")
            engine.perform(holder.transaction,
                           MethodCall(oid=oid, method="deposit",
                                      arguments=(1.0,)))
            try:
                with connect(server.address) as connection:
                    with pytest.raises(LockTimeoutError):
                        connection.run_program(
                            [MethodCall(oid=oid, method="deposit",
                                        arguments=(5.0,))],
                            max_retries=1)
            finally:
                engine.abort(holder.transaction)
    assert store.read_field(oid, "balance") == 100.0


# -- the codec boundary ----------------------------------------------------------

#: One operation of each access kind (i)-(iv).
GOLDEN_OPERATIONS = (
    MethodCall(oid=OID(class_name="Account", number=1), method="withdraw",
               arguments=(5.0,)),
    ExtentCall(class_name="SavingsAccount", method="deposit",
               arguments=(1.0,)),
    DomainSomeCall(class_name="Account", method="deposit",
                   oids=(OID(class_name="Account", number=1),
                         OID(class_name="SavingsAccount", number=2)),
                   arguments=(2.5,)),
    DomainAllCall(class_name="Account", method="balance_report"),
)

#: The frame the program path sent for ``GOLDEN_OPERATIONS`` before
#: programs carried typed operations (length prefix included).
GOLDEN_FRAME = (
    b')\x02\x00\x00{"label":"golden","max_retries":20,"operations":['
    b'{"arguments":[5.0],"as_class":null,"method":"withdraw",'
    b'"oid":{"$oid":["Account",1]},"txn":0,"type":"call"},'
    b'{"arguments":[1.0],"class_name":"SavingsAccount","method":"deposit",'
    b'"txn":0,"type":"call_extent"},'
    b'{"arguments":[2.5],"class_name":"Account","method":"deposit",'
    b'"oids":[{"$oid":["Account",1]},{"$oid":["SavingsAccount",2]}],'
    b'"txn":0,"type":"call_some"},'
    b'{"arguments":[],"class_name":"Account","method":"balance_report",'
    b'"txn":0,"type":"call_domain"}],'
    b'"read_only":false,"trace":null,"type":"run_program"}')


class _Capture:
    """A socket stand-in that keeps what ``send_frame`` writes."""

    def __init__(self) -> None:
        self.data = b""

    def sendall(self, data: bytes) -> None:
        self.data += data


def _frame(program: RunProgram) -> bytes:
    capture = _Capture()
    send_frame(capture, message_to_wire(program))
    return capture.data


def test_typed_program_frame_is_byte_identical_to_the_wire_built_one():
    typed = RunProgram(operations=GOLDEN_OPERATIONS, label="golden",
                       max_retries=20)
    wire_built = RunProgram(
        operations=tuple(message_to_wire(request_for_operation(0, operation))
                         for operation in GOLDEN_OPERATIONS),
        label="golden", max_retries=20)
    assert _frame(typed) == _frame(wire_built) == GOLDEN_FRAME
    # Decoding hands the server the typed operations back, once each.
    document = json.loads(GOLDEN_FRAME[4:].decode("utf-8"))
    assert request_from_wire(document) == typed


def test_in_process_spec_is_one_dispatch_and_no_codec(banking,
                                                      banking_compiled,
                                                      monkeypatch):
    store = ObjectStore(banking)
    store.create("Account", balance=100.0, owner="ada", active=True)
    store.create("Account", balance=100.0, owner="grace", active=True)
    first, second = store.extent("Account")
    spec = TransactionSpec(operations=(
        MethodCall(oid=first, method="withdraw", arguments=(10.0,)),
        MethodCall(oid=second, method="deposit", arguments=(10.0,)),
        MethodCall(oid=first, method="deposit", arguments=(1.0,)),
        MethodCall(oid=second, method="withdraw", arguments=(1.0,)),
    ), label="four-ops")
    codec_calls: list[str] = []
    for name in ("message_to_wire", "request_from_wire"):
        original = getattr(messages, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            codec_calls.append(_name)
            return _original(*args, **kwargs)

        # Every module that bound the function by name, not just its home.
        for module in list(sys.modules.values()):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    dispatched: list[str] = []
    original_dispatch = Dispatcher.dispatch

    def counting_dispatch(self, request):
        dispatched.append(request.type)
        return original_dispatch(self, request)

    monkeypatch.setattr(Dispatcher, "dispatch", counting_dispatch)
    with Engine(TAVProtocol(banking_compiled, store)) as engine:
        runner = TransactionRunner(InProcessConnection(engine))
        results = runner.run_spec(spec)
        assert engine.commit_log[-1][1] == "four-ops"
    assert dispatched == ["run_program"]
    assert codec_calls == []
    assert results == [[None]] * 4
    assert runner.retries == 0
    assert store.read_field(first, "balance") == 91.0
    assert store.read_field(second, "balance") == 109.0


@pytest.mark.parametrize("member", [
    {"type": "begin", "label": "nested"},
    {"type": "call", "txn": 0, "method": "deposit", "arguments": [5.0]},
], ids=["begin-member", "call-without-oid"])
def test_malformed_program_member_is_a_typed_error_and_leaves_nothing(
        banking, banking_compiled, member):
    store = ObjectStore(banking)
    store.create("Account", balance=100.0, owner="ada", active=True)
    oid = store.extent("Account")[0]
    admission = AdmissionController(1, max_queue=0, queue_timeout=0.05)
    with Engine(TAVProtocol(banking_compiled, store),
                default_lock_timeout=0.05) as engine:
        with ApiServer(engine, admission=admission) as server:
            good = message_to_wire(request_for_operation(
                0, MethodCall(oid=oid, method="deposit", arguments=(5.0,))))
            begun = engine.metrics.begun
            with socket.create_connection(server.address) as sock:
                send_frame(sock, {"type": "run_program", "label": "bad",
                                  "operations": [good, member]})
                reply = reply_from_wire(recv_frame(sock))
            assert isinstance(reply, ErrorReply)
            assert reply.code == "PROTOCOL"
            # Refused while decoding: nothing began, nothing was admitted.
            assert engine.metrics.begun == begun
            assert admission.in_flight == 0
            assert engine.session_for(begun + 1) is None
            # The slot and the account are free: a well-formed program on
            # the same single-slot server commits at once.
            with connect(server.address) as connection:
                committed = connection.run_program(
                    [MethodCall(oid=oid, method="deposit", arguments=(5.0,))],
                    label="good")
            assert committed.retries == 0
    assert store.read_field(oid, "balance") == 105.0
