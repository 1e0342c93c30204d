"""The access vector is a capability: compiled code reaches nothing else.

For every compiled ``(class, method)``, the fields its closure names
directly — the only fields it can hand to the store front — are exactly
the non-null entries of the method's direct access vector, with the same
read/write mode.  A lock plan built from the vector therefore covers every
field the code can touch, by construction rather than by inspection.
"""

from __future__ import annotations

import random

import pytest

from repro.core import AccessMode, compile_schema
from repro.objects.interpreter import method_code
from repro.schema.examples import (
    banking_schema,
    figure1_schema,
    library_schema,
    order_entry_schema,
)
from repro.sim.schema_gen import SchemaGenerator


def _generated(seed):
    rng = random.Random(seed)
    return SchemaGenerator(depth=rng.randrange(1, 4),
                           branching=rng.randrange(1, 3),
                           roots=rng.randrange(1, 3),
                           methods_per_class=rng.randrange(1, 5),
                           seed=seed).generate()


SCHEMAS = ([("figure1", figure1_schema), ("banking", banking_schema),
            ("library", library_schema), ("order_entry", order_entry_schema)]
           + [(f"generated-{seed}", lambda seed=seed: _generated(seed))
              for seed in range(50)])


@pytest.mark.parametrize("make_schema", [make for _, make in SCHEMAS],
                         ids=[name for name, _ in SCHEMAS])
def test_named_fields_equal_the_direct_access_vector(make_schema):
    schema = make_schema()
    compiled = compile_schema(schema)
    checked = 0
    for class_name in schema.class_names:
        for method in schema.method_names(class_name):
            dav = compiled.dav(class_name, method)
            expected = {field: mode for field, mode in dav.items()
                        if mode is not AccessMode.NULL}
            named = method_code(schema, class_name, method).named_fields
            assert dict(named) == expected, (class_name, method)
            checked += 1
    assert checked > 0
