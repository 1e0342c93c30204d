"""Lock modes used by the different protocols.

Three families of modes coexist in the reproduction:

* **method access modes** — the paper's contribution: on instances the mode
  *is* the method name, and compatibility is the per-class commutativity
  table (Table 2); on classes the mode is a :class:`ClassLockMode` pair
  ``(method, hierarchical?)`` (§5.2);
* **read/write modes** (``"R"``/``"W"``) with the classical Table 1
  semantics — used by the baselines for instance, tuple and field locks;
* **multigranularity modes** (``IS``/``IX``/``S``/``X``) for class and
  relation locks in the baselines (Gray's hierarchical locking).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# ---------------------------------------------------------------------------
# Read / write
# ---------------------------------------------------------------------------

#: Classical compatibility between plain read and write locks.
RW_COMPATIBILITY: dict[tuple[str, str], bool] = {
    ("R", "R"): True,
    ("R", "W"): False,
    ("W", "R"): False,
    ("W", "W"): False,
}


def rw_compatible(first: str, second: str) -> bool:
    """Compatibility of plain ``"R"``/``"W"`` modes."""
    return RW_COMPATIBILITY[(first, second)]


# ---------------------------------------------------------------------------
# Multigranularity (IS / IX / S / X)
# ---------------------------------------------------------------------------

#: Gray's compatibility matrix for intention and absolute modes.
MULTIGRANULARITY_COMPATIBILITY: dict[tuple[str, str], bool] = {
    ("IS", "IS"): True, ("IS", "IX"): True, ("IS", "S"): True, ("IS", "X"): False,
    ("IX", "IS"): True, ("IX", "IX"): True, ("IX", "S"): False, ("IX", "X"): False,
    ("S", "IS"): True, ("S", "IX"): False, ("S", "S"): True, ("S", "X"): False,
    ("X", "IS"): False, ("X", "IX"): False, ("X", "S"): False, ("X", "X"): False,
}


def multigranularity_compatible(first: str, second: str) -> bool:
    """Compatibility of ``IS``/``IX``/``S``/``X`` modes."""
    return MULTIGRANULARITY_COMPATIBILITY[(first, second)]


def intention_of(mode: str) -> str:
    """The intention mode corresponding to an absolute ``R``/``W`` mode."""
    return {"R": "IS", "W": "IX"}[mode]


def absolute_of(mode: str) -> str:
    """The absolute (hierarchical) mode corresponding to ``R``/``W``."""
    return {"R": "S", "W": "X"}[mode]


# ---------------------------------------------------------------------------
# Class locks for the paper's protocol
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassLockMode:
    """A class lock of the paper's protocol: ``(access mode, hierarchical?)``.

    ``method`` is the access mode (the method name); ``hierarchical`` tells
    whether the lock covers every instance of the class (like ``S``/``X`` in
    multigranularity locking) or is merely intentional (like ``IS``/``IX``),
    §5.2.
    """

    method: str
    hierarchical: bool

    def __str__(self) -> str:
        kind = "hierarchical" if self.hierarchical else "intentional"
        return f"({self.method}, {kind})"


def class_lock_compatible(first: ClassLockMode, second: ClassLockMode,
                          commutes: Callable[[str, str], bool]) -> bool:
    """Compatibility between two class locks of the paper's protocol.

    Two intentional locks never conflict at the class level (the real check
    happens on the instances, as with ``IS``/``IX``).  As soon as one of the
    locks is hierarchical, "commutativity depends on the access modes"
    (§5.2): the class lock conflict is decided by the commutativity of the
    two method modes.
    """
    if not first.hierarchical and not second.hierarchical:
        return True
    return commutes(first.method, second.method)
