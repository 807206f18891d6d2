"""Fixpoint notions from Section 2, and the one loop that computes them.

An IDB valuation ``S`` (a ``{pred: Relation}`` map) is a fixpoint of
``(pi, D)`` when ``Theta(S) = S``.  Valuations are ordered coordinatewise:
``S <= S'`` iff ``S_i`` is a subset of ``S'_i`` for every IDB predicate.  A
fixpoint is *least* when it is below every other fixpoint.

:func:`iterate` is the round loop of every relational engine and of
DRed — naive, semi-naive, inflationary and (stratum by stratum)
stratified evaluation and both phases of :mod:`repro.materialize.dred`
are configurations of it, each over plans compiled once before round 1.
The paper's Section 4 chain ``Theta^1 <= Theta^2 <= ...`` only ever
*adds* to the last stage, so the loop keeps the stage as code-backed
relations from the first round to the last and builds no Python tuple
on the way (see :mod:`repro.db.relation` for the representation rule).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..db.database import Database
from ..db.relation import Relation
from ..obs import RECORDER, TRACER
from .literals import Atom
from .operator import IDBMap, consequences, empty_idb
from .planning import RulePlan, compile_rule
from .program import Program
from .rules import Rule


def idb_leq(left: IDBMap, right: IDBMap) -> bool:
    """Coordinatewise inclusion ``left <= right``.

    Both maps must be over the same predicates.
    """
    if set(left) != set(right):
        raise ValueError(
            "valuations over different predicates: %s vs %s"
            % (sorted(left), sorted(right))
        )
    return all(left[p].issubset(right[p]) for p in left)


def idb_equal(left: IDBMap, right: IDBMap) -> bool:
    """Coordinatewise equality of two IDB valuations."""
    return idb_leq(left, right) and idb_leq(right, left)


def idb_intersection(valuations: Iterable[IDBMap]) -> IDBMap:
    """Coordinatewise intersection of a non-empty family of valuations.

    This is the object at the heart of Theorem 3: *"(pi, D) has a least
    fixpoint if and only if the (coordinatewise) intersection of all
    fixpoints is a fixpoint."*
    """
    valuations = list(valuations)
    if not valuations:
        raise ValueError("intersection of an empty family of valuations")
    out = dict(valuations[0])
    for v in valuations[1:]:
        for p in out:
            out[p] = out[p].intersection(v[p])
    return out


def idb_union(valuations: Iterable[IDBMap]) -> IDBMap:
    """Coordinatewise union of a non-empty family of valuations."""
    valuations = list(valuations)
    if not valuations:
        raise ValueError("union of an empty family of valuations")
    out = dict(valuations[0])
    for v in valuations[1:]:
        for p in out:
            out[p] = out[p].union(v[p])
    return out


def incomparable(left: IDBMap, right: IDBMap) -> bool:
    """True when neither valuation is coordinatewise below the other."""
    return not idb_leq(left, right) and not idb_leq(right, left)


def least_among(fixpoints: List[IDBMap]) -> Optional[IDBMap]:
    """Return the least element of a list of valuations, if one exists.

    Used to determine whether an exhaustively enumerated fixpoint family
    possesses a least member (it may not: the paper's even cycles carry two
    incomparable fixpoints).
    """
    for candidate in fixpoints:
        if all(idb_leq(candidate, other) for other in fixpoints):
            return candidate
    return None


def total_idb_size(idb: IDBMap) -> int:
    """Total number of tuples across an IDB valuation."""
    return sum(len(r) for r in idb.values())


# ----------------------------------------------------------------------
# The round loop
# ----------------------------------------------------------------------


class SemanticsError(ValueError):
    """Raised when a program is outside an engine's supported class."""


@dataclass
class EvaluationResult:
    """Outcome of running a semantics engine.

    Attributes
    ----------
    program, db:
        The inputs.
    idb:
        Final IDB valuation.
    rounds:
        Number of operator applications until stabilisation.
    trace:
        Optional per-round valuations (round 0 is the start).
    engine:
        Name of the engine that produced the result.
    added:
        What :func:`iterate` added beyond its start: the union of every
        round's new tuples (``idb`` itself for a run from empty).
    """

    program: Program
    db: Database
    idb: IDBMap
    rounds: int
    engine: str
    trace: Optional[List[IDBMap]] = None
    added: Optional[IDBMap] = None

    @property
    def carrier_value(self) -> Relation:
        """The relation computed for the program's carrier predicate."""
        return self.idb[self.program.carrier]

    def relation(self, pred: str) -> Relation:
        """The final value of any IDB predicate."""
        return self.idb[pred]

    def __repr__(self) -> str:
        sizes = ", ".join(
            "%s:%d" % (p, len(self.idb[p])) for p in sorted(self.idb)
        )
        return "EvaluationResult(%s, rounds=%d, %s)" % (self.engine, self.rounds, sizes)


def round_limit(program: Program, db: Database, max_rounds: Optional[int]) -> int:
    """The most rounds :func:`iterate` may report in its round count.

    The caller's ``max_rounds`` when given, else the atom-space bound
    ``sum_i |A|^{arity(S_i)} + 1``, which an increasing iteration can
    never exceed.  One contract for every iterating engine: a run
    succeeds iff ``rounds <= limit`` — the application that merely
    confirms the fixpoint is not counted against the cap.
    """
    if max_rounds is not None:
        return max_rounds
    n = len(db.universe)
    return sum(n ** program.arity(p) for p in program.idb_predicates) + 1


def round_limit_exceeded(
    engine: str, limit: int, max_rounds: Optional[int]
) -> Exception:
    """What to raise when a round past :func:`round_limit` would be counted.

    A caller-set cap is an input condition (:class:`SemanticsError`);
    overrunning the computed bound is an engine bug (``AssertionError``).
    """
    if max_rounds is not None:
        return SemanticsError(
            "%s: no convergence within max_rounds=%d" % (engine, limit)
        )
    return AssertionError(
        "%s iteration exceeded its theoretical bound %d" % (engine, limit)
    )


_DELTA_SUFFIX = "__delta"


def differential_plans(program: Program) -> Tuple[List[RulePlan], List[RulePlan]]:
    """The delta-driven round operator: ``(seed, plans)`` for :func:`iterate`.

    ``seed`` runs once: the rules without a positive IDB body atom (on
    the empty valuation nothing else can fire).  ``plans`` holds one
    *delta variant* per positive IDB body occurrence, reading the
    previous round's new tuples there — a rule instance derives a new
    tuple only if some positive IDB atom matches one.  That holds with
    negated IDB atoms too as long as stages only grow (a negation can
    only turn false), which is what makes the same operator *the*
    inflationary engine (the paper's Section 4 chain).

    The variants join through the (small) deltas first.
    """
    idb = program.idb_predicates
    base: List[Rule] = []
    variants: List[Rule] = []
    for rule in program.rules:
        occurrences = [
            i
            for i, lit in enumerate(rule.body)
            if isinstance(lit, Atom) and lit.pred in idb
        ]
        if not occurrences:
            base.append(rule)
        for i in occurrences:
            body = list(rule.body)
            body[i] = Atom(body[i].pred + _DELTA_SUFFIX, body[i].args)
            variants.append(Rule(rule.head, body))
    small = frozenset(p + _DELTA_SUFFIX for p in idb)
    return (
        [compile_rule(r) for r in base],
        [compile_rule(r, small) for r in variants],
    )


def iterate(
    program: Program,
    db: Database,
    plans: Sequence[RulePlan],
    seed: Optional[Sequence[RulePlan]] = None,
    *,
    engine: str,
    max_rounds: Optional[int] = None,
    keep_trace: bool = False,
    start: Optional[IDBMap] = None,
) -> EvaluationResult:
    """Iterate a round operator from ``start`` (default: empty) to its fixpoint.

    The result carries the final valuation, the number of rounds that
    changed it, what they added beyond ``start`` and (with
    ``keep_trace``) the valuation after every round, round 0 being
    ``start``; ``engine`` names the configuration.

    The round operator is the plan list ``plans``, compiled once by the
    caller and run unchanged every round:

    * without ``seed`` every round applies ``plans`` to the current
      stage and takes the result as the next one — full Theta, the
      naive iteration of a monotone operator;
    * with ``seed`` (see :func:`differential_plans`) round 1 runs the
      seed plans and every later round runs ``plans`` over the stage
      *and* the previous round's new tuples, bound as ``P__delta``;
      what is new is unioned in — the paper's inflationary stage
      ``S u Theta(S)``, delta-driven.  One search of the derived heads
      against the stage finds both the new tuples and the next stage
      (:meth:`~repro.db.relation.Relation.absorb`), and what the rounds
      added is gathered once, after the last
      (:meth:`~repro.db.relation.Relation.disjoint_union`).  Only this
      form takes a ``start``: a monotone operator's least fixpoint is
      reached from any ``start`` below it (Section 2), provided the seed
      derives everything ``start`` enables — as full Theta does.

    Stages stay code-backed as soon as the columnar executor produces
    them; if a head constant widens the symbol table mid-run, the next
    set operation re-packs the older payloads under the new width
    (vectorised — see :meth:`~repro.db.relation.Relation.codes_on`), so
    the loop itself has nothing to do on a generation bump.

    ``max_rounds`` follows :func:`round_limit`.
    """
    arities: Dict[str, int] = {p: program.arity(p) for p in program.idb_predicates}
    limit = round_limit(program, db, max_rounds)
    span_name = engine + ".round"
    if start is None:
        current = empty_idb(program)
    elif seed is None:
        raise ValueError("%s: only a delta-driven iteration takes a start" % engine)
    else:
        current = dict(start)
    history: List[IDBMap] = []  # each round's new tuples, with ``start``
    delta: Optional[IDBMap] = None
    trace = [dict(current)] if keep_trace else None
    rounds = 0
    while True:
        with TRACER.span(span_name) as sp:
            row_traffic = RECORDER.row_traffic() if sp else None
            relations = list(current.values())
            if delta is None:
                todo = plans if seed is None else seed
            else:
                relations += [
                    rel.with_name(p + _DELTA_SUFFIX) for p, rel in delta.items()
                ]
                todo = plans
            interp = db.with_relations(relations)
            derived = consequences(todo, interp, arities)
            if seed is None:
                new = nxt = derived
                changed = derived != current
            else:
                new, nxt = {}, {}
                for p in arities:
                    new[p], nxt[p] = current[p].absorb(derived[p])
                changed = any(new.values())
            if sp:
                sp["round"] = rounds + 1
                sp["rows_out"] = sum(len(r) for r in new.values())
                RECORDER.note_row_traffic(sp, row_traffic)
        if not changed:
            break
        rounds += 1
        if rounds > limit:
            raise round_limit_exceeded(engine, limit, max_rounds)
        current = nxt
        if seed is not None:
            delta = new
            if start is not None:
                history.append(new)
        if keep_trace:
            trace.append(dict(current))
    if RECORDER.enabled:
        RECORDER.inc("repro_engine_rounds_total", rounds)
    if start is None:
        added = current
    else:
        added = {
            p: Relation.disjoint_union(p, arity, [step[p] for step in history if step[p]])
            for p, arity in arities.items()
        }
    return EvaluationResult(program, db, current, rounds, engine, trace, added)

