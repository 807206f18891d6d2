"""Adaptive re-planning: refresh compiled plans against observed sizes.

A plan compiled before the first fixpoint round estimates every IDB
relation with the same "unknown, assume large" placeholder; a few rounds
in, the real sizes are sitting right there in the interpretation.  The
wrappers here close that gap mid-fixpoint:

* :class:`AdaptiveRulePlans` holds a rule list's current plans and, once
  per round (:meth:`~AdaptiveRulePlans.refresh`), compares each plan's
  planning-time estimates (:attr:`~repro.core.planning.plan.RulePlan.est_cards`)
  with the cardinalities observed in the interpretation.  When some
  input diverged by more than the configured factor
  (:func:`~repro.core.planning.statistics.diverged`), the rule is
  re-planned through the store with the observed sizes — so
  ``_join_order`` stops guessing — under a key extended with *coarse
  cardinality buckets* (:func:`~repro.core.planning.statistics.cardinality_bucket`).
  Bucketed keys are what make re-planning cheap in steady state: the
  re-planned variants coexist in the store with the statistics-free
  originals and with each other, so revisiting a growth stage (another
  engine, another run, the next stratum) hits the cache instead of
  compiling.

The fixpoint driver (:func:`repro.core.fixpoint.iterate`) and ``theta``
take either this wrapper or a static
:class:`~repro.core.planning.compiler.ProgramPlan` — both answer
``refresh(interp)``, ``statistics`` and ``replans``.

The refresh itself costs one ``len()`` per adaptive predicate per rule
per round — nothing against the joins it re-orders.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from ...db.database import Database
from ...obs import RECORDER, TRACER
from ..rules import Rule
from .plan import RulePlan
from .statistics import REPLAN_FACTOR, diverged


class AdaptiveRulePlans:
    """A rule list's plans, kept fresh against observed cardinalities.

    Constructed through
    :meth:`~repro.core.planning.store.PlanStore.adaptive_rule_plans`;
    the wrapper is cheap and per-run (the compiled plans underneath are
    the store-cached, shared objects).  ``replans`` counts how many
    times a stale plan was actually replaced — the bench harness
    reports it.

    ``known_sizes`` carries cardinalities the caller holds as *facts*
    rather than estimates — the stratified engine passes the final sizes
    of every already-evaluated lower stratum.  Known predicates are
    compiled in from the start (so the first plan is built from evidence
    instead of the "unknown, assume large" placeholder) and exempted
    from divergence checks: a frozen lower stratum cannot go stale, so
    re-discovering its size mid-fixpoint would be a wasted recompile.
    """

    __slots__ = (
        "store",
        "db",
        "small_preds",
        "factor",
        "known_sizes",
        "plans",
        "replans",
        "_size_preds",
        "_size_sig",
    )

    def __init__(
        self,
        store,
        rules: Iterable[Rule],
        db: Optional[Database] = None,
        small_preds: FrozenSet[str] = frozenset(),
        factor: float = REPLAN_FACTOR,
        known_sizes: Optional[Mapping[str, int]] = None,
    ) -> None:
        self.store = store
        self.db = db
        self.small_preds = small_preds
        self.factor = factor
        self.known_sizes: Dict[str, int] = dict(known_sizes or {})
        self.plans: List[RulePlan] = []
        for rule in rules:
            # Bake in only the sizes of predicates this rule reads, so
            # the bucketed store key stays canonical — a rule untouched
            # by the known predicates compiles to the plain shared plan.
            relevant = self._relevant_known(rule)
            if relevant:
                self.plans.append(
                    store.rule_plan_adaptive(
                        rule,
                        db=db,
                        small_preds=small_preds,
                        observed=relevant,
                        factor=factor,
                    )
                )
            else:
                self.plans.append(
                    store.rule_plan(rule, db=db, small_preds=small_preds)
                )
        self.replans = 0
        self._size_preds: Optional[Tuple[str, ...]] = None
        self._size_sig: Optional[Tuple[int, ...]] = None

    @property
    def statistics(self):
        """The store's execution-feedback sink (what ``refresh`` reads)."""
        return self.store.statistics

    def _relevant_known(self, rule: Rule) -> Dict[str, int]:
        """The known sizes worth baking into ``rule``'s plan key.

        Restricted to predicates the rule reads *and* the database
        cannot size: a db-present predicate is already exact at compile
        time (``estimate`` consults the db first and such predicates
        never enter ``est_cards``), so pinning it again would only
        compile a content-identical plan under a second bucketed key.
        """
        if not self.known_sizes:
            return {}
        body = rule.body_predicates()
        db = self.db
        return {
            p: s
            for p, s in self.known_sizes.items()
            if p in body and (db is None or db.get(p) is None)
        }

    def refresh(self, interp: Database) -> List[RulePlan]:
        """The current plans, re-planning any whose estimates went stale."""
        plans = self.plans
        factor = self.factor
        known = self.known_sizes
        # Divergence is a pure function of the watched predicates'
        # current sizes, so when none of them changed since the last
        # refresh the whole per-plan sweep is a no-op — one size
        # signature check covers it (fixpoint loops converge most
        # predicates rounds before the last, so this is the common case).
        preds = self._size_preds
        if preds is None:
            seen: List[str] = []
            for plan in plans:
                for pred, _ in plan.est_cards:
                    if pred not in known and pred not in seen:
                        seen.append(pred)
            preds = self._size_preds = tuple(seen)
        get = interp.get
        sizes = {
            p: (len(r) if (r := get(p)) is not None else 0) for p in preds
        }
        sig = tuple(sizes[p] for p in preds)
        if sig == self._size_sig:
            return plans
        replans_before = self.replans
        for i, plan in enumerate(plans):
            est_cards = plan.est_cards
            if not est_cards:
                continue
            observed: Optional[Dict[str, int]] = None
            for pred, estimate in est_cards:
                if pred in known:
                    continue  # a fact, not a discovery — never stale
                size = sizes.get(pred)
                if size is None:
                    rel = get(pred)
                    size = len(rel) if rel is not None else 0
                if diverged(estimate, size, factor):
                    observed = {
                        p: (len(r) if (r := interp.get(p)) is not None else 0)
                        for p, _ in est_cards
                    }
                    # Pin the known facts, filtered to this rule's body so
                    # the bucketed store key stays canonical (matches the
                    # key the initial compile used).
                    observed.update(self._relevant_known(plan.rule))
                    break
            if observed is not None:
                plans[i] = self.store.rule_plan_adaptive(
                    plan.rule,
                    db=self.db,
                    small_preds=self.small_preds,
                    observed=observed,
                    factor=factor,
                )
                self.replans += 1
                self.store.statistics.replans += 1
                if RECORDER.enabled:
                    RECORDER.inc("repro_engine_replans_total")
                if TRACER.enabled:
                    TRACER.event("replan", pred=plan.head_pred)
        if self.replans == replans_before:
            self._size_sig = sig
        else:
            # New plans may watch different predicates; rebuild the
            # signature basis next round rather than trusting this one.
            self._size_preds = None
            self._size_sig = None
        return plans
