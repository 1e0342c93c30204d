"""Tests for the method interpreter: late binding, traces, builtins, errors."""

import pytest

from repro.core import AccessMode
from repro.errors import InterpreterError
from repro.objects import Interpreter, ObjectStore
from repro.schema import SchemaBuilder


@pytest.fixture
def banking_runtime(banking):
    store = ObjectStore(banking)
    return store, Interpreter(store)


def test_simple_field_update(banking_runtime):
    store, interpreter = banking_runtime
    account = store.create("Account", balance=100.0)
    interpreter.send(account.oid, "deposit", 25.0)
    assert store.read_field(account.oid, "balance") == 125.0


def test_conditional_branch(banking_runtime):
    store, interpreter = banking_runtime
    account = store.create("Account", balance=10.0)
    interpreter.send(account.oid, "withdraw", 50.0)
    assert store.read_field(account.oid, "balance") == 10.0
    interpreter.send(account.oid, "withdraw", 4.0)
    assert store.read_field(account.oid, "balance") == 6.0


def test_return_value(banking_runtime):
    store, interpreter = banking_runtime
    account = store.create("Account", balance=7.0, owner="ada")
    report = interpreter.send(account.oid, "balance_report")
    assert "ada" in report and "7.0" in report


def test_self_directed_message(banking_runtime):
    store, interpreter = banking_runtime
    account = store.create("Account", balance=1.0, active=True)
    interpreter.send(account.oid, "transfer_in", 9.0)
    assert store.read_field(account.oid, "balance") == 10.0


def test_late_binding_dispatches_on_proper_class(banking_runtime):
    """withdraw on a SavingsAccount runs the override, which extends the
    inherited code through a prefixed call."""
    store, interpreter = banking_runtime
    savings = store.create("SavingsAccount", balance=100.0, accrued=10.0)
    interpreter.send(savings.oid, "withdraw", 20.0)
    assert store.read_field(savings.oid, "balance") == 80.0
    assert store.read_field(savings.oid, "accrued") == 10.0 - 20.0 * 0.05


def test_prefixed_call_executes_ancestor_code(figure1, figure1_store):
    interpreter = Interpreter(figure1_store)
    instance = figure1_store.create("c2", f1=1, f5=3)
    interpreter.send(instance.oid, "m2", 10)
    # c1.m2 ran (f1 := expr(f1, f2, p1) sums the numeric arguments).
    assert figure1_store.read_field(instance.oid, "f1") == 11
    # and the extension ran too (f4 := expr(f5, p1)).
    assert figure1_store.read_field(instance.oid, "f4") == 13


def test_message_to_referenced_instance(library, library_store):
    interpreter = Interpreter(library_store)
    book = library_store.create("Book", copies=2)
    member = library_store.create("Member", borrowing=book.oid)
    interpreter.send(member.oid, "checkout")
    assert library_store.read_field(book.oid, "borrowed") == 1
    assert library_store.read_field(member.oid, "loans") == 1


def test_message_to_nil_reference_raises(library, library_store):
    interpreter = Interpreter(library_store)
    member = library_store.create("Member")
    with pytest.raises(InterpreterError):
        interpreter.send(member.oid, "checkout")


def test_wrong_argument_count_raises(banking_runtime):
    store, interpreter = banking_runtime
    account = store.create("Account")
    with pytest.raises(InterpreterError):
        interpreter.send(account.oid, "deposit")


def test_unknown_builtin_raises():
    schema = (SchemaBuilder()
              .define("A").field("x", "integer").method("m", body="x := mystery(x)")
              .build())
    store = ObjectStore(schema)
    instance = store.create("A")
    with pytest.raises(InterpreterError):
        Interpreter(store).send(instance.oid, "m")


def test_custom_builtins_override_defaults():
    schema = (SchemaBuilder()
              .define("A").field("x", "integer").method("m", body="x := magic()")
              .build())
    store = ObjectStore(schema)
    instance = store.create("A")
    interpreter = Interpreter(store, builtins={"magic": lambda: 42})
    interpreter.send(instance.oid, "m")
    assert store.read_field(instance.oid, "x") == 42


def test_unbounded_recursion_detected():
    schema = (SchemaBuilder()
              .define("A").field("x", "integer").method("loop", body="send loop to self")
              .build())
    store = ObjectStore(schema)
    instance = store.create("A")
    with pytest.raises(InterpreterError):
        Interpreter(store).send(instance.oid, "loop")


def test_while_loop_executes_and_terminates():
    schema = (SchemaBuilder()
              .define("A").field("x", "integer").field("total", "integer")
              .method("sum_down", body="""
                  while x > 0 do
                      total := total + x
                      x := x - 1
                  end
              """)
              .build())
    store = ObjectStore(schema)
    instance = store.create("A", x=4)
    Interpreter(store).send(instance.oid, "sum_down")
    assert store.read_field(instance.oid, "total") == 10
    assert store.read_field(instance.oid, "x") == 0


def test_operators_and_unary():
    schema = (SchemaBuilder()
              .define("A").field("x", "integer").field("ratio", "float")
              .field("flag", "boolean")
              .method("calc", body="""
                  x := (2 + 3) * 4 - 6
                  ratio := x / 4
                  flag := not (x < 0) and x >= 14 and x <> 15
              """)
              .build())
    store = ObjectStore(schema)
    instance = store.create("A")
    Interpreter(store).send(instance.oid, "calc")
    assert store.read_field(instance.oid, "x") == 14
    assert store.read_field(instance.oid, "ratio") == 3.5
    assert store.read_field(instance.oid, "flag") is True


def test_trace_records_messages_and_accesses(figure1, figure1_store):
    interpreter = Interpreter(figure1_store)
    instance = figure1_store.create("c2", f2=False, f5=2)
    _, trace = interpreter.send_traced(instance.oid, "m1", 5)
    methods = [event.method for event in trace.messages]
    assert methods == ["m1", "m2", "m2", "m3"]
    resolved = [event.resolved_class for event in trace.messages]
    # m1 and m3 are inherited from c1, m2 resolves to the c2 override and the
    # prefixed call inside it runs the c1 code.
    assert resolved == ["c1", "c2", "c1", "c1"]
    assert trace.messages[0].top_level
    assert all(not event.top_level for event in trace.messages[1:])
    vector = trace.accessed_vector(instance.oid, figure1.field_names("c2"))
    assert vector.mode_of("f1") is AccessMode.WRITE
    assert vector.mode_of("f4") is AccessMode.WRITE
    assert vector.mode_of("f6") is AccessMode.NULL


def test_trace_entry_messages_cross_instances(library, library_store):
    interpreter = Interpreter(library_store)
    book = library_store.create("Book", copies=1)
    member = library_store.create("Member", borrowing=book.oid)
    _, trace = interpreter.send_traced(member.oid, "checkout")
    entries = trace.entry_messages
    assert [(event.oid, event.method) for event in entries] == [
        (member.oid, "checkout"), (book.oid, "borrow_copy")]
    # consult is self-directed inside borrow_copy: not an entry.
    assert any(event.method == "consult" and not event.is_entry
               for event in trace.messages)
    assert set(trace.touched_instances()) == {member.oid, book.oid}


def test_trace_records_dispatches_and_field_accesses_in_order(banking):
    store = ObjectStore(banking)
    account = store.create("Account", balance=5.0, active=True)
    _, trace = Interpreter(store).send_traced(account.oid, "transfer_in", 5.0)
    assert [(event.method, event.top_level, event.sender)
            for event in trace.messages] == [
        ("transfer_in", True, None), ("deposit", False, account.oid)]
    assert [(event.field, event.mode) for event in trace.field_accesses] == [
        ("active", AccessMode.READ), ("balance", AccessMode.READ),
        ("balance", AccessMode.WRITE)]
    # The deposit dispatch comes after the read of the condition that
    # guards it, and before the balance traffic it performs.
    assert [type(event).__name__ for event in trace.events] == [
        "MessageEvent", "AccessEvent", "MessageEvent", "AccessEvent",
        "AccessEvent"]
    assert store.read_field(account.oid, "balance") == 10.0


class _RefusingFront:
    """A store front that refuses every write, as a lock conflict would."""

    def __init__(self, store):
        self._store = store
        self.schema = store.schema

    def get(self, oid):
        return self._store.get(oid)

    def read_field(self, oid, field):
        return self._store.read_field(oid, field)

    def write_field(self, oid, field, value):
        raise RuntimeError(f"denied: {oid}.{field}")


def test_store_front_refusing_a_write_aborts_execution(banking):
    store = ObjectStore(banking)
    account = store.create("Account", balance=5.0, active=True)
    interpreter = Interpreter(_RefusingFront(store))
    with pytest.raises(RuntimeError, match="denied"):
        interpreter.send(account.oid, "transfer_in", 1.0)
    # The refused write never reached the store.
    assert store.read_field(account.oid, "balance") == 5.0
    # Reads went through the same front and still work.
    assert "5.0" in interpreter.send(account.oid, "balance_report")
