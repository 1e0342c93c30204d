"""The paper's protocol: per-method access modes from transitive access vectors.

Locks (§5.2):

* an **instance lock** is simply the access mode of the method sent to the
  instance — i.e. the method name, interpreted through the per-class
  commutativity table built at compile time (Table 2);
* a **class lock** is a pair ``(mode, hierarchical?)``: intentional when the
  transaction touches individual instances, hierarchical when it covers the
  whole extent;
* accesses to a *domain* place class locks on every class rooted at the named
  class, because implicit locking is no longer possible once access modes are
  per-class (§5).

Concurrency is controlled **once per instance**: the single lock taken when
the top message arrives covers every self-directed message the method may
send, because the transitive access vector already accounts for them.  The
only additional control points are messages that cross an instance boundary
(e.g. ``send m to f3``), which are new top messages for the instances that
receive them.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Mapping

from repro.core.compiler import CompiledSchema
from repro.errors import UnknownModeError
from repro.locking.modes import ClassLockMode, class_lock_compatible
from repro.objects.oid import OID
from repro.objects.store import ObjectStore
from repro.txn.operations import (
    DomainAllCall,
    DomainSomeCall,
    ExtentCall,
    MethodCall,
    Operation,
)
from repro.txn.protocols.base import ConcurrencyControlProtocol, LockPlan, LockRequestSpec


class TAVProtocol(ConcurrencyControlProtocol):
    """Commutativity-based locking with compile-time access modes."""

    name = "tav"
    description = ("per-method access modes from transitive access vectors; "
                   "one control per instance; explicit (mode, hierarchical) class locks")

    def __init__(self, compiled: CompiledSchema, store: ObjectStore,
                 builtins: Mapping[str, Callable[..., Any]] | None = None) -> None:
        super().__init__(compiled, store, builtins)
        # Constant per-schema translations, hoisted so plan() never re-walks
        # the linearisation or rebuilds identical ClassLockMode pairs.
        self._method_names = {name: frozenset(self._schema.method_names(name))
                              for name in self._schema.class_names}
        self._domains = {name: self._schema.domain(name)
                         for name in self._schema.class_names}
        self._intentional_modes: dict[str, ClassLockMode] = {}
        self._hierarchical_modes: dict[str, ClassLockMode] = {}
        # The instance mode is the method whatever class the call is typed
        # through, so every as_class view shares its class's template.
        self._register_templates(by_as_class=False)

    def _class_mode(self, method: str, hierarchical: bool) -> ClassLockMode:
        cache = self._hierarchical_modes if hierarchical else self._intentional_modes
        mode = cache.get(method)
        if mode is None:
            mode = ClassLockMode(method, hierarchical=hierarchical)
            cache[method] = mode
        return mode

    # -- compatibility -----------------------------------------------------------

    def compatible(self, resource: Hashable, held: Hashable, requested: Hashable) -> bool:
        kind = resource[0]
        if kind == "instance":
            oid: OID = resource[1]
            table = self._compiled.compiled_class(oid.class_name).commutativity
            return table.commutes(held, requested)
        if kind == "class":
            class_name: str = resource[1]
            table = self._compiled.compiled_class(class_name).commutativity
            if not isinstance(held, ClassLockMode) or not isinstance(requested, ClassLockMode):
                raise UnknownModeError(
                    f"class locks of the TAV protocol must be ClassLockMode pairs, "
                    f"got {held!r} / {requested!r}")
            return class_lock_compatible(held, requested, table.commutes)
        raise UnknownModeError(f"the TAV protocol does not lock {kind!r} resources")

    # -- planning ------------------------------------------------------------------

    def plan(self, operation: Operation) -> LockPlan:
        requests: list[LockRequestSpec] = []
        receivers: list[tuple[OID, str]] = []
        control_points = 0

        if isinstance(operation, MethodCall):
            control_points += 1
            self._plan_instance_access(operation.oid, operation.method, requests, receivers)
        elif isinstance(operation, DomainSomeCall):
            for class_name in self._domains[operation.class_name]:
                if operation.method in self._method_names[class_name]:
                    requests.append(LockRequestSpec(
                        resource=("class", class_name),
                        mode=self._class_mode(operation.method, hierarchical=False),
                        note="domain intentional"))
            for oid in operation.oids:
                control_points += 1
                requests.append(LockRequestSpec(
                    resource=("instance", oid), mode=operation.method,
                    note="instance access"))
                receivers.append((oid, operation.method))
        elif isinstance(operation, ExtentCall):
            control_points += 1
            requests.append(LockRequestSpec(
                resource=("class", operation.class_name),
                mode=self._class_mode(operation.method, hierarchical=True),
                note="extent hierarchical"))
            receivers.extend((oid, operation.method)
                             for oid in self._store.extent(operation.class_name))
        elif isinstance(operation, DomainAllCall):
            control_points += 1
            for class_name in self._domains[operation.class_name]:
                if operation.method in self._method_names[class_name]:
                    requests.append(LockRequestSpec(
                        resource=("class", class_name),
                        mode=self._class_mode(operation.method, hierarchical=True),
                        note="domain hierarchical"))
            receivers.extend((oid, operation.method)
                             for oid in self._store.domain_extent(operation.class_name))
        else:  # pragma: no cover - defensive
            raise TypeError(f"unsupported operation {operation!r}")

        control_points += self._plan_external_receivers(operation, requests, receivers)
        return LockPlan(requests=tuple(requests), control_points=control_points,
                        receivers=tuple(receivers))

    # -- helpers ---------------------------------------------------------------------

    def _plan_instance_access(self, oid: OID, method: str,
                              requests: list[LockRequestSpec],
                              receivers: list[tuple[OID, str]]) -> None:
        """Lock one instance: intentional class lock plus the instance mode."""
        requests.append(LockRequestSpec(
            resource=("class", oid.class_name),
            mode=self._class_mode(method, hierarchical=False),
            note="intentional"))
        requests.append(LockRequestSpec(
            resource=("instance", oid), mode=method, note="instance access"))
        receivers.append((oid, method))

    def _plan_external_receivers(self, operation: Operation,
                                 requests: list[LockRequestSpec],
                                 receivers: list[tuple[OID, str]]) -> int:
        """Plan locks for instances reached through reference fields.

        A message sent to another instance is a new top message for that
        instance: one more control point, one intentional class lock and one
        instance lock in the mode of the method it receives.  Instances
        already covered by a hierarchical class lock of this plan are
        skipped.
        """
        if not self._needs_shadow_run(operation):
            return 0
        hierarchical_classes = {
            request.resource[1] for request in requests
            if request.resource[0] == "class"
            and isinstance(request.mode, ClassLockMode) and request.mode.hierarchical
        }
        trace = self._shadow_trace(operation)
        control_points = 0
        planned: set[tuple[OID, str]] = set()
        for event in self._external_entries(operation, trace):
            if event.oid.class_name in hierarchical_classes:
                continue
            key = (event.oid, event.method)
            if key in planned:
                continue
            planned.add(key)
            control_points += 1
            self._plan_instance_access(event.oid, event.method, requests, receivers)
        return control_points
