"""The relational decomposition baseline (§3 and §5.2).

The inheritance hierarchy is mapped onto first normal form the way the paper
describes: each class ``C`` becomes a relation holding the fields *declared*
by ``C``; the key of the hierarchy's root (by default its first field, e.g.
``f1``) is the primary key of the root relation and reappears in every
subclass relation as a foreign key.  An instance of a subclass is therefore
spread over one tuple per class of its inheritance slice.

Lock granules are relations (multigranularity ``IS``/``IX``/``S``/``X``) and
tuples (``R``/``W``).  Which relations a transaction touches follows from the
fields its statement uses — in this reproduction, the transitive access
vector of the method projected onto each relation's fields, which is exactly
the "coarse access vector" reading of first normal form given after
definition 6.

Writing the key propagates: updating the primary key of a root tuple forces
the matching foreign keys in the subclass relations to be updated too, which
is why the paper's ``T1`` write-locks a tuple of ``r2`` as well (§5.2) — and
why object-oriented databases built on relational engines do not hit the
problem (OIDs play the role of keys and are never updated).  The key policy
is configurable (``"first-field"`` reproduces the paper, ``"oid"`` models the
surrogate-key design) so the paper's closing remark can be checked as an
ablation.
"""

from __future__ import annotations

from typing import Callable, Hashable, Mapping

from repro.core.access_vector import AccessVector
from repro.core.compiler import CompiledSchema
from repro.errors import UnknownModeError
from repro.locking.modes import (
    absolute_of,
    intention_of,
    multigranularity_compatible,
    rw_compatible,
)
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


class RelationalProtocol(ConcurrencyControlProtocol):
    """Tuple/relation locking over the first-normal-form mapping of the schema."""

    name = "relational"
    description = ("one relation per class (first normal form), tuple and relation "
                   "locks, key fields propagated to subclass relations")

    def __init__(self, compiled: CompiledSchema, store: ObjectStore,
                 builtins: Mapping[str, Callable[..., object]] | None = None,
                 key_policy: str = "first-field") -> None:
        """``key_policy`` is ``"first-field"`` (the paper's mapping: the first
        field of each root class is the primary key) or ``"oid"`` (surrogate
        keys that no method ever updates)."""
        super().__init__(compiled, store, builtins)
        if key_policy not in ("first-field", "oid"):
            raise ValueError(f"unknown key policy {key_policy!r}")
        self._key_policy = key_policy
        # Constant per-schema pieces of the relational mapping, hoisted so
        # plan() never re-runs linearisation / descendant walks.
        class_names = self._schema.class_names
        self._relation_fields = {name: self._schema.get_class(name).field_names
                                 for name in class_names}
        self._slice_classes = {name: self._schema.linearization(name)
                               for name in class_names}
        self._key_fields = {name: self._derive_key_field(name)
                            for name in class_names}
        self._descendants = {name: self._schema.descendants(name)
                             for name in class_names}
        self._domains = {name: self._schema.domain(name) for name in class_names}
        # The static class picks the relations a call touches (§3).
        self._register_templates(by_as_class=True)

    # -- compatibility ---------------------------------------------------------------

    def compatible(self, resource: Hashable, held: Hashable, requested: Hashable) -> bool:
        kind = resource[0]
        if kind == "relation":
            return multigranularity_compatible(held, requested)
        if kind == "tuple":
            return rw_compatible(held, requested)
        raise UnknownModeError(f"the relational protocol does not lock {kind!r} resources")

    # -- the relational mapping --------------------------------------------------------

    def relation_fields(self, class_name: str) -> tuple[str, ...]:
        """The columns of the relation for ``class_name``: its declared fields."""
        return self._relation_fields[class_name]

    def key_field(self, class_name: str) -> str | None:
        """The primary-key field of the hierarchy ``class_name`` belongs to.

        Under the ``"oid"`` policy there is no user-visible key field (the
        surrogate key is never written by methods), hence ``None``.
        """
        return self._key_fields[class_name]

    def _derive_key_field(self, class_name: str) -> str | None:
        if self._key_policy == "oid":
            return None
        linearization = self._schema.linearization(class_name)
        root = linearization[-1]
        root_fields = self._schema.get_class(root).field_names
        return root_fields[0] if root_fields else None

    def slice_classes(self, class_name: str) -> tuple[str, ...]:
        """The relations an instance viewed through ``class_name`` spans."""
        return self._slice_classes[class_name]

    # -- planning -------------------------------------------------------------------------

    def plan(self, operation: Operation) -> LockPlan:
        requests: list[LockRequestSpec] = []
        receivers: list[tuple[OID, str]] = []

        if isinstance(operation, MethodCall):
            self._plan_tuple_access(operation.oid, operation.static_class(),
                                    operation.method, requests, receivers)
        elif isinstance(operation, DomainSomeCall):
            self._plan_domain_intentions(operation, requests)
            for oid in operation.oids:
                self._plan_tuple_access(oid, oid.class_name, operation.method,
                                        requests, receivers)
        elif isinstance(operation, (ExtentCall, DomainAllCall)):
            self._plan_relation_scan(operation, requests, receivers)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unsupported operation {operation!r}")

        self._plan_external_receivers(operation, requests, receivers)
        control_points = len({request.resource for request in requests
                              if request.resource[0] == "relation"})
        return LockPlan(requests=tuple(requests), control_points=control_points,
                        receivers=tuple(receivers))

    # -- helpers -----------------------------------------------------------------------------

    def _method_tav(self, class_name: str, method: str) -> AccessVector | None:
        compiled = self._compiled.compiled_class(class_name)
        if method not in compiled.methods:
            return None
        return compiled.tav(method)

    def _plan_tuple_access(self, oid: OID, static_class: str, method: str,
                           requests: list[LockRequestSpec],
                           receivers: list[tuple[OID, str]]) -> None:
        """Tuple + relation intention locks for one instance access."""
        lookup_class = static_class if \
            self._method_tav(static_class, method) is not None else oid.class_name
        tav = self._method_tav(lookup_class, method)
        if tav is None:
            return
        receivers.append((oid, method))
        for relation in self.slice_classes(lookup_class):
            projection = tav.restricted(self.relation_fields(relation))
            if projection.is_null:
                continue
            mode = self.classify(projection.top_mode)
            requests.append(LockRequestSpec(
                resource=("relation", relation), mode=intention_of(mode),
                note=f"intention for {method}"))
            requests.append(LockRequestSpec(
                resource=("tuple", relation, oid), mode=mode,
                note=f"tuple of {relation}"))
        self._plan_key_cascade(oid, lookup_class, tav, hierarchical=False,
                               requests=requests)

    def _plan_relation_scan(self, operation: ExtentCall | DomainAllCall,
                            requests: list[LockRequestSpec],
                            receivers: list[tuple[OID, str]]) -> None:
        """Whole-relation locks for extent and domain scans."""
        if isinstance(operation, ExtentCall):
            covered = (operation.class_name,)
        else:
            covered = self._domains[operation.class_name]
        relation_modes: dict[str, str] = {}
        cascade_write = False
        for class_name in covered:
            tav = self._method_tav(class_name, operation.method)
            if tav is None:
                continue
            key = self.key_field(class_name)
            if key is not None and key in tav.written_fields:
                cascade_write = True
            for relation in self.slice_classes(class_name):
                projection = tav.restricted(self.relation_fields(relation))
                if projection.is_null:
                    continue
                mode = self.classify(projection.top_mode)
                current = relation_modes.get(relation)
                if current is None:
                    relation_modes[relation] = mode
                elif "W" in (current, mode):
                    relation_modes[relation] = "W"
        if cascade_write:
            for class_name in covered:
                for descendant in self._descendants[class_name]:
                    relation_modes[descendant] = "W"
        for relation, mode in relation_modes.items():
            requests.append(LockRequestSpec(
                resource=("relation", relation), mode=absolute_of(mode),
                note=f"scan for {operation.method}"))
        for oid in operation.target_oids(self._store):
            receivers.append((oid, operation.method))

    def _plan_domain_intentions(self, operation: DomainSomeCall,
                                requests: list[LockRequestSpec]) -> None:
        for class_name in self._domains[operation.class_name]:
            tav = self._method_tav(class_name, operation.method)
            if tav is None:
                continue
            for relation in self.slice_classes(class_name):
                projection = tav.restricted(self.relation_fields(relation))
                if projection.is_null:
                    continue
                requests.append(LockRequestSpec(
                    resource=("relation", relation),
                    mode=intention_of(self.classify(projection.top_mode)),
                    note="domain intention"))

    def _plan_key_cascade(self, oid: OID, static_class: str, tav: AccessVector,
                          hierarchical: bool,
                          requests: list[LockRequestSpec]) -> None:
        """Foreign-key propagation: updating the key touches subclass relations.

        The cascade targets the relations of every descendant of the static
        class: the engine must find (or verify the absence of) the matching
        foreign-key rows, which conflicts with concurrent writers of those
        relations — this is precisely why the paper's ``T1`` cannot run with
        ``T4`` in the relational schema.
        """
        key = self.key_field(static_class)
        if key is None or key not in tav.written_fields:
            return
        for descendant in self._descendants[static_class]:
            requests.append(LockRequestSpec(
                resource=("relation", descendant), mode="IX", note="key cascade"))
            requests.append(LockRequestSpec(
                resource=("tuple", descendant, oid), mode="W", note="key cascade"))

    def _plan_external_receivers(self, operation: Operation,
                                 requests: list[LockRequestSpec],
                                 receivers: list[tuple[OID, str]]) -> None:
        if not self._needs_shadow_run(operation):
            return
        trace = self._shadow_trace(operation)
        planned: set[tuple[OID, str]] = set()
        for event in self._external_entries(operation, trace):
            key = (event.oid, event.method)
            if key in planned:
                continue
            planned.add(key)
            self._plan_tuple_access(event.oid, event.class_name, event.method,
                                    requests, receivers)
