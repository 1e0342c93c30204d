"""The resolution tables ``Schema.validate()`` freezes.

Three things are pinned here: every frozen answer equals what the
unvalidated on-demand path computes (key order included); the tables cannot
be corrupted through a returned dict and are dropped by ``add_class`` /
rebuilt by ``validate()``; and — the construction tripwire — once a schema
is validated nothing on the compile, populate, create, transaction or
interpreter path runs a C3 merge again.
"""

from __future__ import annotations

import pytest

from repro.core import compile_schema
from repro.engine import Engine
from repro.errors import UnknownClassError
from repro.objects.interpreter import Interpreter
from repro.schema import (ClassDefinition, Field, FieldType, MethodDefinition,
                          Schema, SchemaBuilder)
from repro.schema import examples
from repro.sim import SchemaGenerator
from repro.sim.workload import populate_store
from repro.txn.protocols import TAVProtocol


def diamond_schema() -> Schema:
    builder = SchemaBuilder()
    builder.define("Base").field("b", "integer").method("m", body="b := b + 1")
    builder.define("Left", "Base").field("l", "integer").method("m", body="l := 1")
    builder.define("Right", "Base").field("r", "integer").method("mr", body="r := 1")
    builder.define("Bottom", "Left", "Right").field("z", "integer")
    builder.define("Loner").field("peer", ref="Bottom")
    return builder.build()


EXAMPLES = [pytest.param(getattr(examples, name), id=name)
            for name in ("figure1_schema", "banking_schema",
                         "order_entry_schema", "library_schema")]
GENERATED = [pytest.param(SchemaGenerator(depth=1 + seed % 4,
                                          branching=1 + seed % 3,
                                          roots=1 + seed % 2, seed=seed).generate,
                          id=f"generated-{seed}")
             for seed in range(50)]


def on_demand_twin(schema: Schema) -> Schema:
    """The same class definitions in a schema that was never validated."""
    twin = Schema()
    for class_definition in schema.classes():
        twin.add_class(class_definition)
    assert not twin.is_validated
    return twin


@pytest.mark.parametrize(
    "make_schema", [*EXAMPLES, pytest.param(diamond_schema, id="diamond"), *GENERATED])
def test_frozen_answers_equal_on_demand_computation(make_schema):
    frozen = make_schema()
    assert frozen.is_validated
    on_demand = on_demand_twin(frozen)
    for name in frozen.class_names:
        for lookup in ("linearization", "ancestors", "field_names", "method_names",
                       "direct_subclasses", "descendants", "domain"):
            assert getattr(frozen, lookup)(name) == getattr(on_demand, lookup)(name), lookup
        assert list(frozen.fields(name).items()) == list(on_demand.fields(name).items())
        assert list(frozen.methods(name).items()) == list(on_demand.methods(name).items())
        for field_name in frozen.field_names(name):
            assert frozen.get_field(name, field_name) is on_demand.get_field(name, field_name)
        for method_name in frozen.method_names(name):
            assert frozen.resolve(name, method_name) == on_demand.resolve(name, method_name)
        for other in frozen.class_names:
            assert frozen.is_ancestor(other, name) == on_demand.is_ancestor(other, name)


def test_returned_dicts_are_the_callers_own():
    schema = diamond_schema()
    fields, methods = schema.fields("Bottom"), schema.methods("Bottom")
    names, resolved = tuple(fields), schema.resolve("Bottom", "m")
    fields.clear()
    methods["m"] = methods.pop("mr")
    assert schema.field_names("Bottom") == names == tuple(schema.fields("Bottom"))
    assert schema.resolve("Bottom", "m") == resolved
    assert schema.methods("Bottom")["m"] == resolved


def test_unknown_class_raises_from_the_tables_too():
    schema = diamond_schema()
    for lookup in (schema.linearization, schema.fields, schema.field_names,
                   schema.methods, schema.method_names, schema.descendants,
                   schema.direct_subclasses, schema.domain):
        with pytest.raises(UnknownClassError):
            lookup("Missing")


def test_add_class_falls_back_to_on_demand_until_revalidated():
    schema = diamond_schema()
    schema.add_class(ClassDefinition(name="Deeper", superclasses=("Bottom",)))
    assert not schema.is_validated
    assert schema.linearization("Deeper") == ("Deeper", "Bottom", "Left", "Right", "Base")
    assert schema.descendants("Base") == ("Left", "Right", "Bottom", "Deeper")
    assert schema.direct_subclasses("Bottom") == ("Deeper",)
    assert schema.resolve("Deeper", "m").defining_class == "Left"
    schema.validate()
    assert schema.is_validated
    assert schema.domain("Bottom") == ("Bottom", "Deeper")
    assert schema.field_names("Deeper") == schema.field_names("Bottom")


def test_a_failed_validate_leaves_no_stale_tables():
    schema = diamond_schema()
    schema.get_class("Loner").add_field(Field(
        name="lost", type=FieldType.of_reference("Nowhere"), declared_in="Loner"))
    with pytest.raises(UnknownClassError):
        schema.validate()
    # Lookups still answer, on demand, with the mutated definition in view.
    assert not schema.is_validated
    assert schema.field_names("Loner") == ("peer", "lost")


def test_a_mutated_class_definition_is_visible_after_the_next_validate():
    schema = diamond_schema()
    bottom = schema.get_class("Bottom")
    bottom.add_method(MethodDefinition.from_source("mz", (), "z := z + 1", "Bottom"))
    bottom.add_method(MethodDefinition.from_source("m", (), "z := 0", "Bottom"))
    # Documented staleness: the schema cannot see the definition change...
    assert schema.is_validated
    assert "mz" not in schema.method_names("Bottom")
    assert schema.resolve("Bottom", "m").defining_class == "Left"
    # ...until it is validated again.
    schema.validate()
    assert schema.method_names("Bottom")[:2] == ("mz", "m")
    assert schema.resolve("Bottom", "m").defining_class == "Bottom"
    assert schema.resolve("Bottom", "m").definition.overrides == "Left"


def test_nothing_re_linearises_a_validated_schema(monkeypatch):
    schema = examples.banking_schema()

    def no_c3_merge(self, sequences, for_class):
        raise AssertionError(f"C3 merge re-run for {for_class!r} after validate()")

    monkeypatch.setattr(Schema, "_c3_merge", no_c3_merge)
    compiled = compile_schema(schema)
    store = populate_store(schema, 3, seed=7)
    with Engine(TAVProtocol(compiled, store)) as engine:
        created = engine.create_instance("Account", balance=10.0, owner="ada",
                                         active=True)
        other = store.extent("Account")[0]
        with engine.begin("planned") as session:
            session.call(created.oid, "deposit", 5)
            session.call(other, "withdraw", 1)
            session.call_domain("Account", "balance_report")
        assert engine.commit_log[-1][1] == "planned"
    Interpreter(store).send(created.oid, "transfer_in", 1)
    assert store.read_field(created.oid, "balance") == 16.0
    # The tripwire itself is live: the on-demand path does merge.
    with pytest.raises(AssertionError, match="C3 merge re-run"):
        on_demand_twin(schema).linearization("Account")
