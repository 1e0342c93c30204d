"""Experiment Q4 — §4.3 "an efficient (linear) algorithm".

The TAV computation is a single depth-first search, linear in the size of the
late-binding resolution graph.  The bench compiles generated schemas of
growing size and checks that compile time grows roughly linearly with the
total graph size (|V| + |E|): the time per graph element must not blow up as
the schema gets an order of magnitude bigger.
"""

import time

from repro.core import compile_schema
from repro.reporting import format_records
from repro.sim import SchemaGenerator

from .conftest import emit, wall_clock_floor


def measure_compile(depth, branching=2, repeats=3):
    schema = SchemaGenerator(depth=depth, branching=branching, fields_per_class=3,
                             methods_per_class=3, seed=7,
                             override_probability=0.5,
                             self_call_probability=0.6).generate()
    best = None
    compiled = None
    for _ in range(repeats):
        start = time.perf_counter()
        compiled = compile_schema(schema)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    vertices, edges = compiled.total_graph_size()
    return {
        "classes": len(schema.class_names),
        "graph |V|": vertices,
        "graph |E|": edges,
        "compile time (ms)": round(best * 1000, 2),
        "time per element (us)": round(best * 1e6 / max(1, vertices + edges), 2),
    }


def test_compile_time_scales_linearly(benchmark):
    rows = [measure_compile(depth) for depth in (1, 2, 3, 4)]
    benchmark(compile_schema,
              SchemaGenerator(depth=3, branching=2, seed=7).generate())

    small, large = rows[0], rows[-1]
    size_ratio = (large["graph |V|"] + large["graph |E|"]) / \
        (small["graph |V|"] + small["graph |E|"])
    assert size_ratio > 5
    # Linear shape: per-element cost stays within a small constant factor
    # even though the graph grew by an order of magnitude.  (Per-element cost
    # may even shrink as fixed costs amortise.)
    wall_clock_floor("large/small compile time per graph element",
                     large["time per element (us)"]
                     / small["time per element (us)"], high=4.0)

    emit("Q4 - compile time vs resolution-graph size", format_records(rows))
