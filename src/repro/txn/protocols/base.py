"""Base class and shared data structures for concurrency-control protocols."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Mapping

from repro.core.compiler import CompiledSchema
from repro.core.modes import AccessMode
from repro.locking.manager import LockManager, frozen
from repro.objects.interpreter import ExecutionTrace, Interpreter, MessageEvent
from repro.objects.oid import OID
from repro.objects.shadow import ShadowStore
from repro.objects.store import ObjectStore
from repro.schema import Schema
from repro.txn.operations import (
    DomainAllCall,
    DomainSomeCall,
    ExtentCall,
    MethodCall,
    Operation,
)


@dataclass(frozen=True)
class LockRequestSpec:
    """One lock a protocol wants, in acquisition order within the plan."""

    resource: Hashable
    mode: Hashable
    note: str = ""


@dataclass(frozen=True)
class LockPlan:
    """The locks an operation needs plus planning metadata.

    Attributes:
        requests: the lock requests, in the order they must be acquired.
        control_points: how many times the protocol invokes concurrency
            control for this operation (the §3 "locking overhead" metric —
            one per instance for the paper's scheme, one per message for the
            read/write baseline, one per access for field locking).
        receivers: ``(oid, entry method)`` pairs of the instances the
            operation may write; the recovery manager snapshots the
            written-field projection of each before execution.
        undo_projections: optional explicit ``(oid, fields)`` before-image
            projections.  ``None`` means "derive from ``receivers`` via the
            transitive access vectors" (the §3 recovery use), which is
            correct whenever the protocol's locks cover the whole TAV
            footprint.  A *path-sensitive* protocol such as field locking
            locks only the fields the actual execution path touches, so its
            undo must be restricted to the same footprint: restoring a
            TAV-projected field the transaction never locked would overwrite
            concurrent committed writes of that field.
    """

    requests: tuple[LockRequestSpec, ...]
    control_points: int
    receivers: tuple[tuple[OID, str], ...] = ()
    undo_projections: tuple[tuple[OID, tuple[str, ...]], ...] | None = None

    def __len__(self) -> int:
        return len(self.requests)


class PlanTemplate:
    """The lock plan of one ``MethodCall`` shape, decided a priori.

    Built once, at protocol construction, from the plan the protocol's own
    per-instance planner gives a placeholder receiver of the class.
    Requests that do not name the receiver (class and relation locks) are
    kept as shared :class:`LockRequestSpec` objects; requests whose resource
    ends with the receiver (instance and tuple locks) keep their resource
    prefix.  :meth:`instantiate` substitutes the real OID — the whole
    per-operation cost of planning a method whose footprint the compiler
    already knows.
    """

    __slots__ = ("_parts", "_control_points", "_method", "_written")

    def __init__(self, plan: LockPlan, receiver: OID,
                 written: tuple[str, ...]) -> None:
        ((_receiver, self._method),) = plan.receivers
        self._parts = tuple(
            (request.resource[:-1], request.mode, request.note)
            if request.resource[-1] is receiver else request
            for request in plan.requests)
        self._control_points = plan.control_points
        #: The TAV write set of the method: the undo projection (§3).
        self._written = written

    def instantiate(self, oid: OID) -> LockPlan:
        """The final plan of this method sent to ``oid``."""
        return frozen(
            LockPlan,
            requests=tuple([
                part if part.__class__ is LockRequestSpec
                else frozen(LockRequestSpec, resource=part[0] + (oid,),
                            mode=part[1], note=part[2])
                for part in self._parts]),
            control_points=self._control_points,
            receivers=((oid, self._method),),
            undo_projections=((oid, self._written),))


class ConcurrencyControlProtocol(abc.ABC):
    """Common machinery for all protocols.

    A protocol is constructed for one compiled schema and one store.  It is
    stateless with respect to transactions — all state lives in the lock
    manager and the transaction manager — so one protocol instance can serve
    many transactions and many simulations.
    """

    #: Short identifier used in benchmark output (overridden by subclasses).
    name: str = "abstract"
    #: Human description used by reports.
    description: str = ""

    def __init__(self, compiled: CompiledSchema, store: ObjectStore,
                 builtins: Mapping[str, Callable[..., Any]] | None = None) -> None:
        self._compiled = compiled
        self._store = store
        self._schema: Schema = compiled.schema
        self._builtins = dict(builtins) if builtins else None
        #: Compiled ``MethodCall`` templates by ``(class, method, as_class)``;
        #: empty for protocols whose plans come from a shadow run.
        self._templates: dict[tuple[str, str, str | None], PlanTemplate] = {}

    # -- to implement -----------------------------------------------------------

    @abc.abstractmethod
    def compatible(self, resource: Hashable, held: Hashable, requested: Hashable) -> bool:
        """Whether two lock modes on ``resource`` are compatible."""

    @abc.abstractmethod
    def plan(self, operation: Operation) -> LockPlan:
        """The locks ``operation`` needs, given the current store contents."""

    # -- provided ----------------------------------------------------------------

    def template_plan(self, operation: Operation) -> LockPlan | None:
        """``operation``'s plan from its compiled template, or ``None``.

        A template exists for a ``MethodCall`` whose method exists and has
        no external sends: its plan cannot depend on argument values or on
        the store, so it is **final** — equal to :meth:`plan` now and after
        any wait.  ``None`` sends the caller to :meth:`plan` (extent and
        domain receivers, external sends, unknown methods, shadow-run
        protocols).
        """
        if not isinstance(operation, MethodCall):
            return None
        oid = operation.oid
        template = self._templates.get(
            (oid.class_name, operation.method, operation.as_class))
        return None if template is None else template.instantiate(oid)

    def _register_templates(self, *, by_as_class: bool) -> None:
        """Compile one template per (class, method) without external sends.

        Each is :meth:`plan` of the call on a placeholder receiver, taken
        once, here: what a subclass's ``plan`` answers at construction is
        what its templates keep.  Every ``as_class`` a prefixed send may
        name (the class's linearisation) gets a key; when ``by_as_class``
        is false the protocol's plans ignore it, so all of them share one
        template.
        """
        for class_name in self._schema.class_names:
            compiled = self._compiled.compiled_class(class_name)
            receiver = OID(class_name, -1)
            views = (None,) + self._schema.linearization(class_name)
            for method in compiled.methods:
                if compiled.has_external_sends(method):
                    continue
                written = compiled.tav(method).written_fields
                template = None
                for as_class in views:
                    if template is None or by_as_class:
                        template = PlanTemplate(
                            self.plan(MethodCall(oid=receiver, method=method,
                                                 as_class=as_class)),
                            receiver, written)
                    self._templates[(class_name, method, as_class)] = template

    def create_lock_manager(self) -> LockManager:
        """A lock manager wired to this protocol's compatibility function."""
        return LockManager(self.compatible)

    def execute(self, operation: Operation, interpreter: Interpreter,
                trace: ExecutionTrace | None = None) -> list[Any]:
        """Really execute ``operation`` (no locking — the caller handles it)."""
        results = []
        for oid in operation.target_oids(self._store):
            results.append(interpreter.send(oid, operation.method,
                                            *operation.arguments, trace=trace))
        return results

    def written_projection(self, oid: OID, method: str) -> tuple[str, ...]:
        """Fields of ``oid`` that ``method`` may write (undo projection).

        This is the recovery use of access vectors described in §3: the
        ``Write`` entries of the transitive access vector.
        """
        compiled = self._compiled.compiled_class(oid.class_name)
        return compiled.tav(method).written_fields

    def undo_projections(self, plan: LockPlan) -> tuple[tuple[OID, tuple[str, ...]], ...]:
        """The before-image projections a transaction manager must log.

        Uses the plan's explicit projections when the protocol supplied them
        (path-sensitive protocols know exactly what the execution writes);
        otherwise falls back to the transitive-access-vector projection of
        every receiver.
        """
        if plan.undo_projections is not None:
            return plan.undo_projections
        return tuple((oid, self.written_projection(oid, method))
                     for oid, method in plan.receivers)

    @property
    def compiled(self) -> CompiledSchema:
        """The compiled schema this protocol was built for."""
        return self._compiled

    @property
    def store(self) -> ObjectStore:
        """The store this protocol plans against."""
        return self._store

    # -- shared planning helpers ---------------------------------------------------

    def _shadow_trace(self, operation: Operation) -> ExecutionTrace:
        """Dry-run the operation on a copy-on-write view and return its trace."""
        shadow = ShadowStore(self._store)
        interpreter = Interpreter(shadow, builtins=self._builtins)  # type: ignore[arg-type]
        trace = ExecutionTrace()
        for oid in operation.target_oids(self._store):
            interpreter.send(oid, operation.method, *operation.arguments, trace=trace)
        return trace

    def _external_entries(self, operation: Operation,
                          trace: ExecutionTrace) -> tuple[MessageEvent, ...]:
        """Entry messages of the trace that land outside the operation's targets."""
        direct = set(operation.target_oids(self._store))
        return tuple(event for event in trace.entry_messages if event.oid not in direct)

    def _needs_shadow_run(self, operation: Operation) -> bool:
        """Whether the operation's method may reach other instances."""
        class_names: set[str] = set()
        if isinstance(operation, MethodCall):
            class_names.add(operation.oid.class_name)
        elif isinstance(operation, ExtentCall):
            class_names.add(operation.class_name)
        elif isinstance(operation, (DomainSomeCall, DomainAllCall)):
            class_names.update(self._schema.domain(operation.class_name))
        for class_name in class_names:
            compiled = self._compiled.compiled_class(class_name)
            if operation.method in compiled.methods and \
                    compiled.has_external_sends(operation.method):
                return True
        return False

    @staticmethod
    def classify(vector_top_mode: AccessMode) -> str:
        """Map an access-vector top mode onto a plain ``"R"``/``"W"`` mode."""
        return "W" if vector_top_mode is AccessMode.WRITE else "R"
