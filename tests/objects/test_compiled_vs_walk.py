"""Differential test: compiled method bodies against the tree walk they replaced.

Every case runs the same sends on two identically populated stores, one
through :class:`~repro.objects.Interpreter` and one through the reference
walker in ``reference_walk.py``, and requires the same return value or the
same typed error with the same message, the same trace events, and the
same final store.
"""

from __future__ import annotations

import random

import pytest

from repro.core import AccessMode
from repro.errors import InterpreterError, UnknownInstanceError
from repro.objects import ExecutionTrace, Interpreter, ObjectStore
from repro.objects.interpreter import method_code
from repro.schema import SchemaBuilder
from repro.schema.examples import (
    banking_schema,
    figure1_schema,
    library_schema,
    order_entry_schema,
)
from repro.schema.klass import ClassDefinition
from repro.schema.method import MethodDefinition
from repro.sim.schema_gen import SchemaGenerator
from repro.sim.workload import populate_store

from reference_walk import ReferenceWalker

#: Argument values drawn for method parameters: well-typed ones and every
#: kind the operators and the store's type checks refuse.
_ARGUMENTS = (0, 1, 3, -4, 2.5, "x", True, None)


def _outcome(interpreter, oid, method, arguments):
    trace = ExecutionTrace()
    try:
        value = interpreter.send(oid, method, *arguments, trace=trace)
    except Exception as error:  # noqa: BLE001 - the error is the result
        return ("raised", type(error), str(error)), trace.events
    return ("returned", value), trace.events


def _state(store):
    return sorted(((instance.oid, instance.class_name, dict(instance.values))
                   for instance in store), key=lambda entry: entry[0].number)


def _assert_same(compiled_store, walked_store, sends, builtins=None):
    """Run ``sends`` through both interpreters; every observable must agree."""
    compiled = Interpreter(compiled_store, builtins=builtins)
    walked = ReferenceWalker(walked_store, builtins=builtins)
    outcomes = []
    for oid, method, arguments in sends:
        expected, expected_events = _outcome(walked, oid, method, arguments)
        actual, actual_events = _outcome(compiled, oid, method, arguments)
        assert actual == expected, (oid, method, arguments)
        assert actual_events == expected_events, (oid, method, arguments)
        outcomes.append(actual)
    assert _state(compiled_store) == _state(walked_store)
    return outcomes


def _random_sends(schema, store, rng, count):
    instances = sorted((instance.oid for instance in store),
                       key=lambda oid: oid.number)
    sends = []
    for _ in range(count):
        oid = rng.choice(instances)
        method = rng.choice(schema.method_names(oid.class_name))
        parameters = schema.resolve(oid.class_name, method).definition.parameters
        arity = len(parameters) if rng.random() < 0.9 else rng.randrange(3)
        arguments = tuple(rng.choice(_ARGUMENTS + (rng.choice(instances),))
                          for _ in range(arity))
        sends.append((oid, method, arguments))
    return sends


@pytest.mark.parametrize("make_schema", [figure1_schema, banking_schema,
                                         library_schema, order_entry_schema],
                         ids=["figure1", "banking", "library", "order_entry"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_example_schemas_agree(make_schema, seed):
    schema = make_schema()
    compiled_store = populate_store(schema, 3, seed=seed)
    walked_store = populate_store(schema, 3, seed=seed)
    sends = _random_sends(schema, walked_store, random.Random(seed), 300)
    outcomes = _assert_same(compiled_store, walked_store, sends)
    # The runs exercised both normal returns and typed errors.
    assert {outcome[0] for outcome in outcomes} == {"returned", "raised"}


@pytest.mark.parametrize("seed", range(50))
def test_generated_schemas_agree(seed):
    rng = random.Random(seed)
    schema = SchemaGenerator(depth=rng.randrange(1, 4),
                             branching=rng.randrange(1, 3),
                             roots=rng.randrange(1, 3),
                             methods_per_class=rng.randrange(1, 5),
                             seed=seed).generate()
    compiled_store = populate_store(schema, 2, seed=seed)
    walked_store = populate_store(schema, 2, seed=seed)
    sends = [(instance.oid, method, ())
             for instance in sorted(walked_store, key=lambda i: i.oid.number)
             for method in schema.method_names(instance.class_name)] * 2
    _assert_same(compiled_store, walked_store, sends)


def _errors_schema():
    return (SchemaBuilder()
            .define("Node")
                .field("x", "integer")
                .field("label", "string")
                .field("next", ref="Node")
                .method("bump", "step", body="x := x + step")
                .method("forward", body="send bump(1) to next")
                .method("poke_scalar", body="send bump(1) to x")
                .method("ghost_read", body="x := ghost")
                .method("mystery_call", body="x := mystery(x)")
                .method("recurse", body="send recurse to self")
                .method("spin", body="""
                    while true do
                        x := x + 1
                    end
                """)
                .method("mistype", body="x := \"text\"")
                .method("bad_sum", body="x := x + label")
                .method("divide", body="x := x / 0")
                .method("negate_label", body="return -label")
                .method("undeclared_self", body="send nowhere to self")
                .method("bad_prefix", body="send Other.bump(1) to self")
                .method("maybe_local", "flag", body="""
                    if flag then
                        tmp := 1
                    end
                    return tmp
                """)
                .method("early", "n", body="""
                    while n > 0 do
                        if n = 2 then
                            return n * 10
                        end
                        n := n - 1
                    end
                    return nil
                """)
            .define("Other")
                .method("bump", "step", body="return step")
            .build())


def _errors_stores():
    schema = _errors_schema()
    stores = []
    for _ in range(2):
        store = ObjectStore(schema)
        first = store.create("Node", label="a")
        second = store.create("Node", label="b", next=first.oid)
        store.create("Node", label="c", next=second.oid)
        stores.append(store)
    return stores


@pytest.mark.parametrize("method, arguments, error", [
    ("bump", (), "expects 1 argument(s), got 0"),
    ("bump", (1, 2), "expects 1 argument(s), got 2"),
    ("forward", (), "sent to a nil reference"),
    ("poke_scalar", (), "sent to a non-object value 0"),
    ("ghost_read", (), "unknown name 'ghost'"),
    ("mystery_call", (), "unknown function 'mystery'"),
    ("recurse", (), "message dispatch deeper than 64"),
    ("spin", (), "while loop exceeded the iteration bound"),
    ("mistype", (), "is integer; got str 'text'"),
    ("bad_sum", (), "cannot evaluate 0 + 'a'"),
    ("divide", (), "cannot evaluate 0 / 0: division by zero"),
    ("negate_label", (), "bad operand type for unary -"),
    ("undeclared_self", (), "has no method 'nowhere'"),
    ("bad_prefix", (), "'Other' is not an ancestor of 'Node'"),
    ("maybe_local", (False,), "unknown name 'tmp'"),
    ("no_such_method", (), "has no method 'no_such_method'"),
])
def test_typed_errors_agree(method, arguments, error):
    compiled_store, walked_store = _errors_stores()
    first = min((instance.oid for instance in walked_store),
                key=lambda oid: oid.number)
    outcomes = _assert_same(compiled_store, walked_store,
                            [(first, method, arguments)])
    assert outcomes[0][0] == "raised"
    assert error in outcomes[0][2]


def test_control_flow_and_locals_agree():
    compiled_store, walked_store = _errors_stores()
    first = min((instance.oid for instance in walked_store),
                key=lambda oid: oid.number)
    outcomes = _assert_same(compiled_store, walked_store, [
        (first, "early", (5,)), (first, "early", (1,)),
        (first, "maybe_local", (True,)), (first, "bump", (4,))])
    assert outcomes == [("returned", 20), ("returned", None),
                        ("returned", 1), ("returned", None)]


def test_deleted_receiver_raises_in_both():
    compiled_store, walked_store = _errors_stores()
    oids = sorted((instance.oid for instance in walked_store),
                  key=lambda oid: oid.number)
    for store in (compiled_store, walked_store):
        store.delete(oids[0])
    # A method that touches no field of the deleted receiver, and a
    # cross-instance send whose target was deleted.
    outcomes = _assert_same(compiled_store, walked_store, [
        (oids[0], "maybe_local", (True,)), (oids[1], "forward", ())])
    for outcome in outcomes:
        assert outcome[:2] == ("raised", UnknownInstanceError)


def test_late_binding_lets_a_subclass_field_shadow_a_local():
    """A local of the defining class is a field of the subclass receiver."""
    schema = (SchemaBuilder()
              .define("Base").field("x", "integer")
                  .method("stash", "value", body="""
                      scratch := value
                      x := scratch
                  """)
              .define("Derived", "Base").field("scratch", "integer")
              .build())
    stores = [ObjectStore(schema) for _ in range(2)]
    for store in stores:
        base = store.create("Base")
        derived = store.create("Derived")
    sends = [(base.oid, "stash", (7,)), (derived.oid, "stash", (9,))]
    _assert_same(stores[0], stores[1], sends)
    assert stores[0].read_field(derived.oid, "scratch") == 9
    assert method_code(schema, "Derived", "stash").named_fields == {
        "x": AccessMode.WRITE, "scratch": AccessMode.WRITE}


def test_schema_evolution_recompiles_on_validate():
    schema = banking_schema()
    store = ObjectStore(schema)
    checking = store.create("CheckingAccount", balance=10.0)
    interpreter = Interpreter(store)
    interpreter.send(checking.oid, "deposit", 5.0)
    assert store.read_field(checking.oid, "balance") == 15.0
    assert ("CheckingAccount", "deposit", None) in schema.code_cache

    # Override the inherited method in the subclass, then validate.
    schema.get_class("CheckingAccount").add_method(MethodDefinition.from_source(
        "deposit", ("amount",), "balance := balance + amount * 2",
        declared_in="CheckingAccount"))
    schema.validate()
    assert not schema.code_cache
    interpreter.send(checking.oid, "deposit", 5.0)
    assert store.read_field(checking.oid, "balance") == 25.0

    # A brand-new method is reachable from interpreters built before it.
    schema.get_class("Account").add_method(MethodDefinition.from_source(
        "empty", (), "balance := 0.0", declared_in="Account"))
    schema.validate()
    interpreter.send(checking.oid, "empty")
    assert store.read_field(checking.oid, "balance") == 0.0


def test_code_is_shared_by_every_interpreter_over_one_schema():
    schema = banking_schema()
    store = ObjectStore(schema)
    account = store.create("Account", balance=1.0, active=True)
    Interpreter(store).send(account.oid, "transfer_in", 1.0)
    cached = dict(schema.code_cache)
    assert set(cached) == {("Account", "transfer_in", None),
                           ("Account", "deposit", None)}
    # A second interpreter, with its own builtins, compiles nothing new.
    Interpreter(store, builtins={"describe": lambda *_: "mine"}).send(
        account.oid, "transfer_in", 1.0)
    assert schema.code_cache == cached
    # ... and yet runs its own builtins: they are never captured.
    assert Interpreter(store, builtins={"describe": lambda *_: "mine"}).send(
        account.oid, "balance_report") == "mine"
    assert "3.0" in Interpreter(store).send(account.oid, "balance_report")


def test_unvalidated_schema_caches_nothing():
    """Until the next validate(), lookups are computed on demand, and so is
    the code: an edit is visible at once and nothing stale is kept."""
    schema = banking_schema()
    store = ObjectStore(schema)
    account = store.create("Account", balance=1.0)
    schema.add_class(ClassDefinition("Audit"))
    assert not schema.is_validated
    schema.get_class("Account").add_method(MethodDefinition.from_source(
        "double", (), "balance := balance * 2", declared_in="Account"))
    Interpreter(store).send(account.oid, "double")
    assert store.read_field(account.oid, "balance") == 2.0
    assert not schema.code_cache
    with pytest.raises(InterpreterError, match="expects 0 argument"):
        Interpreter(store).send(account.oid, "double", 1)
