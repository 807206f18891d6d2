"""A (program, db)-keyed store of compiled plans, shared across engines.

:class:`PlanStore` is a bounded LRU mapping
``(kind, program-or-rule, db, small_preds)`` keys to compiled plans.
Databases and programs are immutable values with value hashing and a
plan is a pure function of its key, so a hit is exactly the plan a
fresh compile would produce.  All five engines (naive, semi-naive,
inflationary, stratified, well-founded via the grounder) and the ad-hoc
``evaluate_rule``/``theta`` wrappers consume the process-wide
:data:`PLAN_STORE`; tests may construct private stores.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Tuple

from ...db.database import Database
from ..program import Program
from ..rules import Rule
from .compiler import ProgramPlan, RulePlan, compile_program, compile_rule


class PlanStore:
    """Bounded LRU cache of compiled :class:`RulePlan`/:class:`ProgramPlan`.

    Parameters
    ----------
    maxsize:
        Entry cap; least-recently-used entries are evicted beyond it.
        Keys hold references to their databases, so the bound also caps
        how many database values the store can keep alive.
    """

    __slots__ = ("maxsize", "hits", "misses", "_plans")

    def __init__(self, maxsize: int = 512) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive, got %d" % maxsize)
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        # A plain dict in recency order (a hit is re-inserted at the
        # end): iterating it reads the entry array, where an OrderedDict
        # looks every key up again — and database keys hash by shape,
        # so each lookup compares colliding databases by value.
        self._plans: dict = {}

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def _lookup(self, key, build):
        cache = self._plans
        try:
            value = cache.pop(key)
        except KeyError:
            self.misses += 1
            value = build()
        else:
            self.hits += 1
        cache[key] = value
        while len(cache) > self.maxsize:
            del cache[next(iter(cache))]
        return value

    def rule_plan(
        self,
        rule: Rule,
        db: Optional[Database] = None,
        small_preds: FrozenSet[str] = frozenset(),
    ) -> RulePlan:
        """The compiled plan for one rule (compiling on first request)."""
        return self._lookup(
            ("rule", rule, db, small_preds),
            lambda: compile_rule(rule, db=db, small_preds=small_preds),
        )

    def rule_plans(
        self,
        rules: Iterable[Rule],
        db: Optional[Database] = None,
        small_preds: FrozenSet[str] = frozenset(),
    ) -> List[RulePlan]:
        """Compiled plans for a rule list (delta variants and the like)."""
        return [self.rule_plan(r, db=db, small_preds=small_preds) for r in rules]

    def program_plan(
        self, program: Program, db: Optional[Database] = None
    ) -> ProgramPlan:
        """The compiled :class:`ProgramPlan` for a whole program."""
        return self._lookup(
            ("program", program, db),
            lambda: compile_program(program, db=db),
        )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def invalidate(
        self,
        db: Optional[Database] = None,
        program: Optional[Program] = None,
        rule: Optional[Rule] = None,
    ) -> int:
        """Drop entries matching every given criterion; return the count.

        ``invalidate()`` with no arguments clears the store.  ``db``
        matches entries compiled against that database; ``program``
        matches the program's own entry and every entry for one of its
        rules; ``rule`` matches that rule's entries.
        """
        if db is None and program is None and rule is None:
            dropped = len(self._plans)
            self._plans.clear()
            return dropped

        program_rules = frozenset(program.rules) if program is not None else None

        def matches(key) -> bool:
            kind, obj, kdb = key[0], key[1], key[2]
            is_rule_kind = kind == "rule"
            if db is not None and kdb != db:
                return False
            if rule is not None and not (is_rule_kind and obj == rule):
                return False
            if program_rules is not None:
                if kind == "program" and obj != program:
                    return False
                if is_rule_kind and obj not in program_rules:
                    return False
            return True

        doomed = [k for k in self._plans if matches(k)]
        for k in doomed:
            del self._plans[k]
        return len(doomed)

    def invalidate_lineage(self, lineage) -> int:
        """Drop every entry keyed to a database of the given lineage.

        ``Database.apply_delta`` is the one API that *supersedes* a
        database value, and engines compile not only against that value
        but against databases derived from it — the stratified engine's
        per-stratum working databases, the grounder's interpretations.
        Those derived values share the base value's lineage token
        (functional updates propagate it), so when the base is
        superseded this one call evicts the whole family eagerly —
        entries that could otherwise only die by LRU churn, because no
        future lookup can ever construct an equal key again.
        """
        if lineage is None:
            return 0
        doomed = [
            k
            for k in self._plans
            if getattr(k[2], "_lineage", None) is lineage
        ]
        for k in doomed:
            del self._plans[k]
        return len(doomed)

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        self._plans.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> Tuple[int, int, int]:
        """``(hits, misses, current_size)``."""
        return (self.hits, self.misses, len(self._plans))

    def __len__(self) -> int:
        return len(self._plans)

    def __repr__(self) -> str:
        return "PlanStore(%d plans, %d hits, %d misses)" % (
            len(self._plans),
            self.hits,
            self.misses,
        )


PLAN_STORE = PlanStore()
"""The process-wide store every engine and wrapper compiles through."""
