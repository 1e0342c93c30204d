"""From access vectors to access modes (§5.1, Table 2).

Locking directly with transitive access vectors would make every lock-table
comparison proportional to the number of fields.  The paper therefore
*translates* vectors into plain access modes: one mode per method per class,
and one commutativity relation per class, built once at compile time.  Two
modes commute if and only if their TAVs commute (definition 5), so "the
parallelism which is allowed by access modes is exactly the one which is
permitted by access vectors".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.access_vector import AccessVector


@dataclass(frozen=True)
class CommutativityTable:
    """The per-class commutativity relation between method access modes.

    The table is symmetric by construction.  ``methods`` fixes the row and
    column order used by displays (Table 2 lists m1..m4).
    """

    class_name: str
    methods: tuple[str, ...]
    _matrix: frozenset[tuple[str, str]]

    def commutes(self, first: str, second: str) -> bool:
        """``True`` when the two method modes commute (may run concurrently)."""
        self._check(first)
        self._check(second)
        return (first, second) in self._matrix

    def conflicts_of(self, method: str) -> tuple[str, ...]:
        """The methods that do *not* commute with ``method``."""
        self._check(method)
        return tuple(other for other in self.methods if not self.commutes(method, other))

    def commuting_with(self, method: str) -> tuple[str, ...]:
        """The methods that commute with ``method``."""
        self._check(method)
        return tuple(other for other in self.methods if self.commutes(method, other))

    def restricted(self, methods: tuple[str, ...]) -> "CommutativityTable":
        """The restriction of the relation to a subset of methods.

        The paper notes that the commutativity relation of ``c1`` is obtained
        as the restriction of Table 2 to ``m1``, ``m2`` and ``m3``.
        """
        kept = {name for name in methods}
        matrix = frozenset((a, b) for a, b in self._matrix if a in kept and b in kept)
        ordered = tuple(name for name in methods if name in self.methods)
        return CommutativityTable(class_name=self.class_name, methods=ordered,
                                  _matrix=matrix)

    def as_rows(self) -> list[list[str]]:
        """Render the relation as Table 2: header row then yes/no rows."""
        header = [""] + list(self.methods)
        rows = [header]
        for row_method in self.methods:
            row = [row_method]
            row.extend("yes" if self.commutes(row_method, column_method) else "no"
                       for column_method in self.methods)
            rows.append(row)
        return rows

    @property
    def conflict_pairs(self) -> frozenset[tuple[str, str]]:
        """Unordered pairs (as sorted tuples) of methods that conflict."""
        pairs = set()
        for first in self.methods:
            for second in self.methods:
                if not self.commutes(first, second):
                    pairs.add(tuple(sorted((first, second))))
        return frozenset(pairs)

    def _check(self, method: str) -> None:
        if method not in self.methods:
            raise KeyError(f"class {self.class_name!r} has no access mode for "
                           f"method {method!r}")


def build_commutativity_table(class_name: str,
                              tavs: dict[str, AccessVector],
                              order: tuple[str, ...] | None = None) -> CommutativityTable:
    """Build the commutativity relation of one class from its TAVs.

    ``order`` fixes the method ordering of the table; by default the
    insertion order of ``tavs`` is used.
    """
    methods = tuple(order) if order is not None else tuple(tavs)
    matrix: set[tuple[str, str]] = set()
    for first in methods:
        for second in methods:
            if tavs[first].commutes_with(tavs[second]):
                matrix.add((first, second))
    return CommutativityTable(class_name=class_name, methods=methods,
                              _matrix=frozenset(matrix))
