"""The concurrency-control compiler (façade over the whole §4 pipeline).

``compile_schema(schema)`` runs, for every class:

1. static analysis of all visible methods (DAV / DSC / PSC),
2. construction of the late-binding resolution graph,
3. computation of transitive access vectors,
4. synthesis of the per-class commutativity table between access modes.

The result, a :class:`CompiledSchema`, is what the lock manager consumes at
run time: per class, one access mode per method and one small commutativity
matrix — "no performance penalty is incurred at run-time" (§3).

The compiler also supports **incremental recompilation**: when a method is
added, removed or modified, only the classes whose resolution graph could
contain the changed code (the class itself and its descendants) are
recompiled.  This matters because the paper motivates automation precisely by
schemas "when methods are frequently added, removed, or updated" (§3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.access_vector import AccessVector
from repro.core.analysis import MethodAnalysis, analyze_method, analyze_schema
from repro.core.commutativity import CommutativityTable, build_commutativity_table
from repro.core.resolution_graph import ResolutionGraph, Vertex, build_resolution_graph
from repro.core.tarjan import reachable_from
from repro.core.tav import compute_class_tavs
from repro.errors import UnknownClassError, UnknownMethodError
from repro.schema import Schema


@dataclass(frozen=True)
class CompiledClass:
    """Everything the lock manager needs to know about one class."""

    name: str
    fields: tuple[str, ...]
    methods: tuple[str, ...]
    analyses: dict[str, MethodAnalysis]
    resolution_graph: ResolutionGraph
    davs: dict[str, AccessVector]
    tavs: dict[str, AccessVector]
    commutativity: CommutativityTable
    #: Per method, the ``(field, method)`` messages that may be sent to other
    #: instances anywhere in the method's execution pattern (transitive
    #: closure of the external calls over the resolution graph).
    external_calls: dict[str, frozenset[tuple[str, str]]] = field(default_factory=dict)

    def dav(self, method: str) -> AccessVector:
        """The direct access vector of ``method`` (definition 6)."""
        return self._lookup(self.davs, method)

    def tav(self, method: str) -> AccessVector:
        """The transitive access vector of ``method`` (definition 10)."""
        return self._lookup(self.tavs, method)

    def commutes(self, first: str, second: str) -> bool:
        """Whether the access modes of two methods commute (Table 2)."""
        return self.commutativity.commutes(first, second)

    def has_external_sends(self, method: str) -> bool:
        """Whether ``method`` may send messages to other instances at run time."""
        return bool(self.external_calls.get(method))

    def _lookup(self, table: dict[str, AccessVector], method: str) -> AccessVector:
        try:
            return table[method]
        except KeyError:
            raise UnknownMethodError(
                f"class {self.name!r} has no method {method!r}") from None

    @property
    def graph_size(self) -> tuple[int, int]:
        """``(|V|, |Γ|)`` of the resolution graph (compile-cost metric)."""
        return self.resolution_graph.size

    def __str__(self) -> str:
        return (f"CompiledClass({self.name}: {len(self.methods)} methods, "
                f"{len(self.fields)} fields)")


@dataclass
class CompiledSchema:
    """The compiled concurrency-control metadata of a whole schema."""

    schema: Schema
    classes: dict[str, CompiledClass] = field(default_factory=dict)

    def compiled_class(self, name: str) -> CompiledClass:
        """The compiled metadata of one class."""
        try:
            return self.classes[name]
        except KeyError:
            raise UnknownClassError(f"class {name!r} was not compiled") from None

    def tav(self, class_name: str, method: str) -> AccessVector:
        """Shortcut: the TAV of ``method`` in ``class_name``."""
        return self.compiled_class(class_name).tav(method)

    def dav(self, class_name: str, method: str) -> AccessVector:
        """Shortcut: the DAV of ``method`` in ``class_name``."""
        return self.compiled_class(class_name).dav(method)

    def commutes(self, class_name: str, first: str, second: str) -> bool:
        """Shortcut: whether two methods of a class commute."""
        return self.compiled_class(class_name).commutes(first, second)

    def commutativity_table(self, class_name: str) -> CommutativityTable:
        """The commutativity relation of one class."""
        return self.compiled_class(class_name).commutativity

    @property
    def class_names(self) -> tuple[str, ...]:
        """Names of all compiled classes."""
        return tuple(self.classes)

    def total_graph_size(self) -> tuple[int, int]:
        """Summed resolution-graph size over all classes (scaling metric)."""
        vertices = sum(compiled.graph_size[0] for compiled in self.classes.values())
        edges = sum(compiled.graph_size[1] for compiled in self.classes.values())
        return (vertices, edges)

    # -- incremental recompilation -------------------------------------------

    def recompile_class(self, class_name: str) -> CompiledClass:
        """Recompile one class in place and return the new metadata."""
        compiled = _compile_class(self.schema, class_name)
        self.classes[class_name] = compiled
        return compiled

    def recompile_after_method_change(self, class_name: str) -> tuple[str, ...]:
        """Recompile ``class_name`` and all its descendants.

        Modifying a method of a class can only affect the resolution graphs
        of the class itself and of its descendants (their graphs are the only
        ones that may contain the changed code), so those are the classes
        recompiled.  Returns the names of the recompiled classes.
        """
        affected = (class_name, *self.schema.descendants(class_name))
        for name in affected:
            self.recompile_class(name)
        return affected


def _compile_class(schema: Schema, class_name: str,
                   shared_analyses: dict[Vertex, MethodAnalysis] | None = None) -> CompiledClass:
    analyses_by_vertex: dict[Vertex, MethodAnalysis] = dict(shared_analyses or {})

    def analysis_of(vertex: Vertex) -> MethodAnalysis:
        if vertex not in analyses_by_vertex:
            analyses_by_vertex[vertex] = analyze_method(schema, vertex[0], vertex[1])
        return analyses_by_vertex[vertex]

    method_names = schema.method_names(class_name)
    field_names = schema.field_names(class_name)
    class_analyses = {method: analysis_of((class_name, method)) for method in method_names}

    graph = build_resolution_graph(schema, class_name, analyses_by_vertex)
    davs_by_vertex = {vertex: analysis_of(vertex).dav for vertex in graph.vertices}
    tavs = compute_class_tavs(graph, davs_by_vertex, field_names)
    table = build_commutativity_table(class_name, tavs, order=method_names)

    adjacency = graph.adjacency()
    external_calls: dict[str, frozenset[tuple[str, str]]] = {}
    for method in method_names:
        reached = reachable_from(adjacency, (class_name, method))
        calls: set[tuple[str, str]] = set()
        for vertex in reached:
            calls.update(analysis_of(vertex).external_calls)
        external_calls[method] = frozenset(calls)

    return CompiledClass(
        name=class_name,
        fields=field_names,
        methods=method_names,
        analyses=class_analyses,
        resolution_graph=graph,
        davs={method: class_analyses[method].dav for method in method_names},
        tavs=tavs,
        commutativity=table,
        external_calls=external_calls,
    )


def compile_schema(schema: Schema) -> CompiledSchema:
    """Compile every class of ``schema`` and return the metadata bundle."""
    shared = analyze_schema(schema)
    compiled = CompiledSchema(schema=schema)
    for class_name in schema.class_names:
        compiled.classes[class_name] = _compile_class(schema, class_name, shared)
    return compiled
