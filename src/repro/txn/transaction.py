"""Transaction objects and their life cycle."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import TransactionError
from repro.txn.operations import Operation

if TYPE_CHECKING:
    from repro.objects.interpreter import Interpreter


class TransactionState(enum.Enum):
    """The strict two-phase-locking life cycle of a transaction."""

    ACTIVE = "active"
    BLOCKED = "blocked"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class TransactionStats:
    """Per-transaction counters collected while it runs."""

    operations: int = 0
    lock_requests: int = 0
    control_points: int = 0
    waits: int = 0
    restarts: int = 0


@dataclass
class Transaction:
    """A transaction: identifier, state and accumulated statistics.

    The identifier doubles as the start timestamp (it is allocated
    monotonically), which the deadlock victim selection relies on.  A
    *retried* incarnation gets a fresh identifier but keeps the ``origin``
    timestamp of its first incarnation, so victim selection can rank it by
    when its work actually began (wait-die style) instead of treating every
    retry as the youngest transaction in the system.
    """

    txn_id: int
    #: The begin timestamp of the first incarnation of this logical
    #: transaction; equals ``txn_id`` unless set by a retrying caller.
    origin: int | None = None
    #: Declared read-only at begin: the engine serves it from a committed
    #: snapshot and it never touches the lock manager.
    read_only: bool = False
    #: The committed-state interpreter a read-only transaction pinned at
    #: its first read: every later read sees the same commit point.  The
    #: engine drops it at commit or abort.
    snapshot: "Interpreter | None" = None
    state: TransactionState = TransactionState.ACTIVE
    stats: TransactionStats = field(default_factory=TransactionStats)
    #: Results of completed operations, in submission order.
    results: list[Any] = field(default_factory=list)
    #: Operations executed so far (used on restart after a deadlock abort).
    executed: list[Operation] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.origin is None:
            self.origin = self.txn_id

    @property
    def is_active(self) -> bool:
        """``True`` while the transaction may issue operations."""
        return self.state is TransactionState.ACTIVE

    @property
    def is_finished(self) -> bool:
        """``True`` once committed or aborted."""
        return self.state in (TransactionState.COMMITTED, TransactionState.ABORTED)

    def ensure_active(self) -> None:
        """Raise unless the transaction is active.

        Raises:
            TransactionError: when the transaction is blocked or finished.
        """
        if self.state is not TransactionState.ACTIVE:
            raise TransactionError(
                f"transaction {self.txn_id} is {self.state.value}; "
                "it cannot issue operations")

    def __str__(self) -> str:
        return f"T{self.txn_id}[{self.state.value}]"
