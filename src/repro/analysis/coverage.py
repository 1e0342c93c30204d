"""Lock-coverage semantics: does a held lock cover a field access?

The sanitizer's core question.  Each protocol plans locks over a different
resource vocabulary — the paper's protocol locks instances under *method
name* modes and classes under :class:`~repro.locking.modes.ClassLockMode`,
the baselines lock instances/fields/tuples under ``R``/``W`` and classes/
relations under ``IS``/``IX``/``S``/``X`` — so coverage is decided per
resource shape:

* ``("field", oid, field)`` — exact field match; ``W`` covers both
  directions, ``R`` covers reads;
* ``("instance", oid)`` — same instance; ``R``/``W`` classically, a
  method-name mode through the method's compiled TAV (a write access needs
  a ``Write`` entry for the field, a read needs a non-``Null`` one);
* ``("class", name)`` — a hierarchical :class:`ClassLockMode` covers
  instances of the class (and descendants) per the method's TAV; absolute
  ``S``/``X`` cover instances of the class and its descendants (the
  rw-hierarchy variant locks only the root absolutely);
* ``("relation", name)`` — absolute ``S``/``X`` cover the fields the
  relation *declares*, for instances whose linearisation contains it;
* ``("tuple", relation, oid)`` — ``R``/``W`` over the relation's declared
  fields of that instance.

Intention modes (``IS``/``IX``, intentional class locks) never cover an
access by themselves — that is their definition.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.access_vector import AccessMode
from repro.locking.modes import ClassLockMode

_READ_WRITE = frozenset({"R", "W"})
_ABSOLUTE = frozenset({"S", "X"})


def _tav_covers(compiled, class_name: str, method: str, field: str,
                is_write: bool) -> bool:
    """Whether ``method``'s TAV on ``class_name`` licenses the access."""
    try:
        tav = compiled.tav(class_name, method)
    except Exception:
        return False
    mode = tav.mode_of(field)
    if is_write:
        return mode is AccessMode.WRITE
    return mode is not AccessMode.NULL


def _declared_fields(schema, class_name: str) -> tuple[str, ...]:
    try:
        return schema.get_class(class_name).field_names
    except Exception:
        return ()


def lock_covers(resource: tuple, mode, *, oid, class_name: str, field: str,
                is_write: bool, schema, compiled) -> bool:
    """Whether one held lock ``(resource, mode)`` covers the field access."""
    kind = resource[0]
    if kind == "field":
        if resource[1] != oid or resource[2] != field:
            return False
        return mode == "W" or (mode == "R" and not is_write)
    if kind == "instance":
        if resource[1] != oid:
            return False
        if mode in _READ_WRITE:
            return mode == "W" or not is_write
        if isinstance(mode, str) and mode not in ("IS", "IX"):
            # The paper's protocol: the mode *is* the method name.
            return _tav_covers(compiled, class_name, mode, field, is_write)
        return False
    if kind == "class":
        name = resource[1]
        applies = name == class_name or schema.is_ancestor(name, class_name)
        if not applies:
            return False
        if isinstance(mode, ClassLockMode):
            if not mode.hierarchical:
                return False
            return _tav_covers(compiled, class_name, mode.method, field,
                               is_write) \
                or _tav_covers(compiled, name, mode.method, field, is_write)
        if mode in _ABSOLUTE:
            return mode == "X" or not is_write
        return False
    if kind == "relation":
        name = resource[1]
        if mode not in _ABSOLUTE:
            return False
        if name not in schema.linearization(class_name):
            return False
        if field not in _declared_fields(schema, name):
            return False
        return mode == "X" or not is_write
    if kind == "tuple":
        relation, locked_oid = resource[1], resource[2]
        if locked_oid != oid:
            return False
        if field not in _declared_fields(schema, relation):
            return False
        return mode == "W" or (mode == "R" and not is_write)
    return False


def any_covers(held: Iterable[tuple[tuple, object]], *, oid, class_name: str,
               field: str, is_write: bool, schema, compiled) -> bool:
    """Whether any ``(resource, mode)`` pair in ``held`` covers the access."""
    return any(lock_covers(resource, mode, oid=oid, class_name=class_name,
                           field=field, is_write=is_write, schema=schema,
                           compiled=compiled)
               for resource, mode in held)
