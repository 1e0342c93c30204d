"""The one planning entry point: compiled templates, else the planner.

The paper's compiler fixes each method's access modes *a priori*.  So for
the TAV and relational protocols a ``MethodCall`` whose method exists and
has no external sends is planned by substituting its OID into the
:class:`~repro.txn.protocols.base.PlanTemplate` the protocol compiled at
construction, and that plan is **final**: it cannot grow while the
transaction waits, so the engine and the shard worker acquire it in one
round and never re-plan.  Every other operation is data-dependent (extent
and domain receivers, external sends, unknown methods, the shadow-run
protocols) and goes to ``protocol.plan()``, whose callers refresh it until
it stops growing.  Nothing is memoised, so a population change invalidates
nothing.

The module and class keep their names because the benchmark rig imports
``repro.txn.plan_cache.PlanCache``, builds ``PlanCache(protocol)`` and
times ``PlanCache.plan``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.txn.operations import Operation
    from repro.txn.protocols.base import ConcurrencyControlProtocol, LockPlan


@dataclass
class PlanCacheStats:
    """Counters of one planning entry point."""

    #: Plans served from a compiled template (final plans).
    hits: int = 0
    #: ``protocol.plan()`` calls (data-dependent plans and their refreshes).
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of plans served from a template."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        """Counters plus the derived hit rate, for metrics snapshots.

        ``plan_cache_uncacheable`` keeps its key: every plan not served by
        a template is data-dependent, so it equals the misses.
        """
        return {"plan_cache_hits": self.hits,
                "plan_cache_misses": self.misses,
                "plan_cache_uncacheable": self.misses,
                "plan_cache_hit_rate": round(self.hit_rate, 4)}


class PlanCache:
    """Plans operations for one protocol; holds no plans (the name is kept
    for the benchmark rig, which builds and times it)."""

    def __init__(self, protocol: "ConcurrencyControlProtocol") -> None:
        self._protocol = protocol
        self.stats = PlanCacheStats()

    def plan(self, operation: "Operation") -> tuple["LockPlan", bool]:
        """``(plan, True)`` when a template served it — the plan is final —
        else ``(protocol.plan(operation), False)``."""
        plan = self._protocol.template_plan(operation)
        if plan is not None:
            self.stats.hits += 1
            return plan, True
        self.stats.misses += 1
        return self._protocol.plan(operation), False
