"""The schema: a validated collection of classes related by inheritance.

:class:`Schema` provides exactly the operators the paper's definitions rely
on (definition 1):

* ``FIELDS(C)``   → :meth:`Schema.fields`
* ``METHODS(C)``  → :meth:`Schema.methods`
* ``ANCESTORS(C)``→ :meth:`Schema.ancestors`

plus the class-hierarchy navigation needed by the locking protocol of §5
(direct subclasses, transitive descendants, the *domain* rooted at a class).

Method resolution ("one which is located in the nearest ancestor class of the
instance class", §2.2) follows the class linearisation computed with the C3
algorithm, which coincides with simple nearest-ancestor lookup for single
inheritance and gives a deterministic, monotone order for multiple
inheritance.

The paper decides all of this "a priori"; so does the schema.
:meth:`Schema.validate` freezes, per class, the linearisation, ``FIELDS(C)``
with its name tuple, ``METHODS(C)``, the direct subclasses and the
descendants, and every lookup answers from those tables for as long as the
schema stays validated — run-time name resolution is a dict hit, never a C3
merge.  :meth:`Schema.add_class` and the first line of every ``validate()``
drop the tables; without them each lookup computes its answer on demand.
The interpreter's compiled method bodies (:attr:`Schema.code_cache`) are
kept with the tables and dropped with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from repro.errors import (
    DuplicateClassError,
    DuplicateFieldError,
    InheritanceError,
    UnknownClassError,
    UnknownFieldError,
    UnknownMethodError,
)
from repro.schema.field import Field
from repro.schema.klass import ClassDefinition
from repro.schema.method import MethodDefinition


@dataclass(frozen=True)
class ResolvedMethod:
    """The outcome of resolving a method name on a class.

    Attributes:
        receiver_class: the class on which the lookup started.
        defining_class: the class whose definition is selected (the nearest
            ancestor, or the receiver class itself).
        definition: the selected :class:`MethodDefinition`.
    """

    receiver_class: str
    defining_class: str
    definition: MethodDefinition

    @property
    def is_inherited(self) -> bool:
        """``True`` when the receiver class does not define the method itself."""
        return self.receiver_class != self.defining_class

    @property
    def key(self) -> tuple[str, str]:
        """The ``(defining_class, method_name)`` pair identifying the code."""
        return (self.defining_class, self.definition.name)


@dataclass(frozen=True)
class _ClassTables:
    """What :meth:`Schema.validate` resolved for one class."""

    linearization: tuple[str, ...]
    fields: dict[str, Field]
    field_names: tuple[str, ...]
    methods: dict[str, ResolvedMethod]
    direct_subclasses: tuple[str, ...]
    descendants: tuple[str, ...]


class Schema:
    """A registry of classes with inheritance-aware lookups.

    The schema is built incrementally with :meth:`add_class` (usually through
    :class:`~repro.schema.builder.SchemaBuilder`) and then frozen by
    :meth:`validate`.  All lookup methods may be called before validation,
    but :meth:`validate` is the only place where structural errors are
    reported exhaustively.

    Staleness: the schema cannot see a :class:`ClassDefinition` being
    mutated behind its back (``get_class(..).add_method(..)``).  Such a
    change leaves :attr:`is_validated` true and is visible to the lookups
    only after the next :meth:`validate`, which re-checks the structure and
    rebuilds the frozen tables — evolve, then validate.
    """

    def __init__(self) -> None:
        self._classes: dict[str, ClassDefinition] = {}
        self._validated = False
        #: Per-class resolution tables, present exactly while the schema is
        #: validated (``None`` = compute every lookup on demand).
        self._tables: dict[str, _ClassTables] | None = None
        #: Compiled method bodies, filled by :mod:`repro.objects.interpreter`
        #: while validated and emptied (never replaced) with the tables.
        self._code: dict[tuple[str, str, str | None], Any] = {}

    # -- construction -------------------------------------------------------

    def add_class(self, class_definition: ClassDefinition) -> None:
        """Register a class.

        Raises:
            DuplicateClassError: if a class with the same name exists.
        """
        if class_definition.name in self._classes:
            raise DuplicateClassError(
                f"class {class_definition.name!r} is already defined")
        self._classes[class_definition.name] = class_definition
        self._validated = False
        self._tables = None
        self._code.clear()

    def validate(self) -> "Schema":
        """Check structural consistency and annotate overriding methods.

        Returns ``self`` so the call can be chained.

        Raises:
            InheritanceError: unknown superclass or inheritance cycle.
            DuplicateFieldError: a field name appears twice along one
                inheritance path.
            UnknownClassError: a reference field targets an unknown class.
        """
        self._tables = None
        self._validated = False
        self._code.clear()
        for class_definition in self._classes.values():
            for superclass in class_definition.superclasses:
                if superclass not in self._classes:
                    raise InheritanceError(
                        f"class {class_definition.name!r} inherits from unknown "
                        f"class {superclass!r}")
        self._check_acyclic()
        linearizations: dict[str, tuple[str, ...]] = {}
        for name in self._classes:
            # raises InheritanceError on C3 failure
            self._check_fields(name, self._linearize(name, linearizations))
        self._annotate_overrides(linearizations)
        self._tables = self._freeze(linearizations)
        self._validated = True
        return self

    def _freeze(self, linearizations: dict[str, tuple[str, ...]]
                ) -> dict[str, _ClassTables]:
        children: dict[str, list[str]] = {name: [] for name in self._classes}
        for class_definition in self._classes.values():
            for superclass in dict.fromkeys(class_definition.superclasses):
                children[superclass].append(class_definition.name)
        tables = {}
        for name, linearization in linearizations.items():
            fields = self._fields_along(linearization)
            tables[name] = _ClassTables(
                linearization=linearization,
                fields=fields,
                field_names=tuple(fields),
                methods=self._methods_along(name, linearization),
                direct_subclasses=tuple(children[name]),
                descendants=self._breadth_first(name, children.__getitem__))
        return tables

    def _frozen(self, name: str) -> _ClassTables | None:
        """The frozen tables of ``name``; ``None`` while unvalidated.

        Raises:
            UnknownClassError: if no class has that name.
        """
        tables = self._tables
        if tables is None:
            return None
        frozen = tables.get(name)
        if frozen is None:
            self.get_class(name)  # the tables cover every class: raises
        return frozen

    def _check_acyclic(self) -> None:
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {name: WHITE for name in self._classes}

        def visit(name: str, trail: tuple[str, ...]) -> None:
            colour[name] = GREY
            for superclass in self._classes[name].superclasses:
                if colour[superclass] == GREY:
                    cycle = " -> ".join(trail + (name, superclass))
                    raise InheritanceError(f"inheritance cycle detected: {cycle}")
                if colour[superclass] == WHITE:
                    visit(superclass, trail + (name,))
            colour[name] = BLACK

        for name in self._classes:
            if colour[name] == WHITE:
                visit(name, ())

    def _check_fields(self, name: str, linearization: tuple[str, ...]) -> None:
        seen: dict[str, str] = {}
        for class_name in reversed(linearization):
            for field_name, field in self._classes[class_name].own_fields.items():
                if field_name in seen and seen[field_name] != class_name:
                    raise DuplicateFieldError(
                        f"field {field_name!r} of class {name!r} is declared both in "
                        f"{seen[field_name]!r} and in {class_name!r}")
                seen[field_name] = class_name
                if field.type.is_reference and field.type.reference not in self._classes:
                    raise UnknownClassError(
                        f"field {field_name!r} of class {class_name!r} references "
                        f"unknown class {field.type.reference!r}")

    def _annotate_overrides(self, linearizations: dict[str, tuple[str, ...]]) -> None:
        for class_definition in self._classes.values():
            ancestors = linearizations[class_definition.name][1:]
            for method_name, method in list(class_definition.own_methods.items()):
                ancestor = self._find_overridden(ancestors, method_name)
                class_definition.own_methods[method_name] = method.with_overrides(ancestor)

    def _find_overridden(self, ancestors: tuple[str, ...],
                         method_name: str) -> str | None:
        for ancestor in ancestors:
            if self._classes[ancestor].declares_method(method_name):
                return ancestor
        return None

    # -- basic lookups -------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._classes

    def __iter__(self) -> Iterator[str]:
        return iter(self._classes)

    def __len__(self) -> int:
        return len(self._classes)

    @property
    def class_names(self) -> tuple[str, ...]:
        """All class names in definition order."""
        return tuple(self._classes)

    @property
    def code_cache(self) -> dict[tuple[str, str, str | None], Any]:
        """Compiled method code by ``(receiver class, method, prefix class)``.

        Owned by :func:`repro.objects.interpreter.method_code`, which stores
        into it only while the schema is validated.  The dict object lives
        as long as the schema; :meth:`add_class` and :meth:`validate` empty
        it, so evolved methods are recompiled on their next send.
        """
        return self._code

    @property
    def is_validated(self) -> bool:
        """``True`` once :meth:`validate` has succeeded."""
        return self._validated

    def get_class(self, name: str) -> ClassDefinition:
        """Return the class definition for ``name``.

        Raises:
            UnknownClassError: if no class has that name.
        """
        try:
            return self._classes[name]
        except KeyError:
            raise UnknownClassError(f"unknown class {name!r}") from None

    # -- inheritance ---------------------------------------------------------

    def linearization(self, name: str) -> tuple[str, ...]:
        """The C3 linearisation of ``name`` (the class itself comes first)."""
        frozen = self._frozen(name)
        if frozen is not None:
            return frozen.linearization
        return self._linearize(name, {})

    def _linearize(self, name: str,
                   known: dict[str, tuple[str, ...]]) -> tuple[str, ...]:
        """Compute the linearisation of ``name``, sharing ``known`` results."""
        linearization = known.get(name)
        if linearization is None:
            class_definition = self.get_class(name)
            parent_linearizations = [list(self._linearize(s, known))
                                     for s in class_definition.superclasses]
            parent_list = list(class_definition.superclasses)
            merged = self._c3_merge(parent_linearizations + [parent_list], name)
            linearization = known[name] = (name, *merged)
        return linearization

    def _c3_merge(self, sequences: list[list[str]], for_class: str) -> tuple[str, ...]:
        result: list[str] = []
        sequences = [list(s) for s in sequences if s]
        while sequences:
            head = self._c3_candidate(sequences, for_class)
            result.append(head)
            for sequence in sequences:
                if sequence and sequence[0] == head:
                    del sequence[0]
            sequences = [s for s in sequences if s]
        return tuple(result)

    def _c3_candidate(self, sequences: list[list[str]], for_class: str) -> str:
        for sequence in sequences:
            head = sequence[0]
            if not any(head in other[1:] for other in sequences):
                return head
        raise InheritanceError(
            f"inconsistent multiple inheritance for class {for_class!r}: "
            "no valid C3 linearisation exists")

    def ancestors(self, name: str) -> tuple[str, ...]:
        """``ANCESTORS(C)``: all classes ``name`` inherits from, nearest first."""
        return self.linearization(name)[1:]

    def is_ancestor(self, ancestor: str, descendant: str) -> bool:
        """``True`` when ``ancestor`` is a strict ancestor of ``descendant``."""
        return ancestor in self.ancestors(descendant)

    def direct_subclasses(self, name: str) -> tuple[str, ...]:
        """Classes that list ``name`` among their direct superclasses."""
        frozen = self._frozen(name)
        if frozen is not None:
            return frozen.direct_subclasses
        self.get_class(name)
        return tuple(c.name for c in self._classes.values()
                     if name in c.superclasses)

    def descendants(self, name: str) -> tuple[str, ...]:
        """All strict descendants of ``name`` in breadth-first order."""
        frozen = self._frozen(name)
        if frozen is not None:
            return frozen.descendants
        self.get_class(name)
        return self._breadth_first(name, self.direct_subclasses)

    @staticmethod
    def _breadth_first(name: str, children_of: Callable[[str], Iterable[str]]
                       ) -> tuple[str, ...]:
        result: list[str] = []
        frontier = list(children_of(name))
        seen: set[str] = set()
        while frontier:
            current = frontier.pop(0)
            if current in seen:
                continue
            seen.add(current)
            result.append(current)
            frontier.extend(children_of(current))
        return tuple(result)

    def domain(self, name: str) -> tuple[str, ...]:
        """The *domain* rooted at ``name``: the class plus all descendants (§5.2)."""
        return (name, *self.descendants(name))

    def roots(self) -> tuple[str, ...]:
        """Classes without superclasses."""
        return tuple(name for name, c in self._classes.items() if not c.superclasses)

    # -- FIELDS(C) -----------------------------------------------------------

    def fields(self, name: str) -> dict[str, Field]:
        """``FIELDS(C)``: every field of ``name``, inherited ones first.

        The ordering matches the paper's presentation: fields declared by the
        most distant ancestor come first, then down the hierarchy, each class
        contributing its own fields in declaration order.  The dict is the
        caller's own: changing it changes no later answer.
        """
        frozen = self._frozen(name)
        if frozen is not None:
            return dict(frozen.fields)
        return self._fields_along(self.linearization(name))

    def _fields_along(self, linearization: tuple[str, ...]) -> dict[str, Field]:
        ordered: dict[str, Field] = {}
        for class_name in reversed(linearization):
            for field_name, field in self._classes[class_name].own_fields.items():
                ordered.setdefault(field_name, field)
        return ordered

    def field_names(self, name: str) -> tuple[str, ...]:
        """Names of ``FIELDS(C)`` in canonical order."""
        frozen = self._frozen(name)
        if frozen is not None:
            return frozen.field_names
        return tuple(self.fields(name))

    def get_field(self, class_name: str, field_name: str) -> Field:
        """Return one field of a class.

        Raises:
            UnknownFieldError: if the class has no such field.
        """
        frozen = self._frozen(class_name)
        fields = frozen.fields if frozen is not None else self.fields(class_name)
        try:
            return fields[field_name]
        except KeyError:
            raise UnknownFieldError(
                f"class {class_name!r} has no field {field_name!r}") from None

    # -- METHODS(C) ----------------------------------------------------------

    def methods(self, name: str) -> dict[str, ResolvedMethod]:
        """``METHODS(C)``: every method visible on ``name``, resolved.

        Each entry records the defining class selected by nearest-ancestor
        lookup (late binding resolved on the static class).  The dict is
        the caller's own: changing it changes no later answer.
        """
        frozen = self._frozen(name)
        if frozen is not None:
            return dict(frozen.methods)
        return self._methods_along(name, self.linearization(name))

    def _methods_along(self, name: str, linearization: tuple[str, ...]
                       ) -> dict[str, ResolvedMethod]:
        resolved: dict[str, ResolvedMethod] = {}
        for class_name in linearization:
            for method_name, method in self._classes[class_name].own_methods.items():
                if method_name not in resolved:
                    resolved[method_name] = ResolvedMethod(
                        receiver_class=name,
                        defining_class=class_name,
                        definition=method)
        return resolved

    def method_names(self, name: str) -> tuple[str, ...]:
        """Names of ``METHODS(C)`` in resolution order."""
        frozen = self._frozen(name)
        return tuple(frozen.methods if frozen is not None else self.methods(name))

    def resolve(self, class_name: str, method_name: str) -> ResolvedMethod:
        """Resolve ``method_name`` on ``class_name`` (late binding).

        Raises:
            UnknownMethodError: if the method is not visible on the class.
        """
        frozen = self._frozen(class_name)
        resolved = frozen.methods if frozen is not None else self.methods(class_name)
        try:
            return resolved[method_name]
        except KeyError:
            raise UnknownMethodError(
                f"class {class_name!r} has no method {method_name!r}") from None

    def resolve_prefixed(self, class_name: str, prefix_class: str,
                         method_name: str) -> ResolvedMethod:
        """Resolve a prefixed call ``send prefix_class.method to self``.

        The method is looked up starting at ``prefix_class``, which must be
        the receiver class itself or one of its ancestors (§2.2).

        Raises:
            UnknownClassError: if ``prefix_class`` is not an ancestor.
            UnknownMethodError: if the method is not visible on ``prefix_class``.
        """
        if prefix_class != class_name and not self.is_ancestor(prefix_class, class_name):
            raise UnknownClassError(
                f"{prefix_class!r} is not an ancestor of {class_name!r}; "
                f"prefixed call {prefix_class}.{method_name} is illegal")
        return self.resolve(prefix_class, method_name)

    # -- misc ----------------------------------------------------------------

    def classes(self) -> Iterable[ClassDefinition]:
        """Iterate over the class definitions in definition order."""
        return self._classes.values()

    def __str__(self) -> str:
        return f"Schema({', '.join(self._classes)})"
