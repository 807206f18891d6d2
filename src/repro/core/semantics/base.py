"""Shared result type and checks for the semantics engines."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ...db.database import Database
from ...db.relation import Relation
from ..literals import Negation
from ..operator import IDBMap
from ..program import Program


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
        Optional per-round valuations (round 0 is the all-empty start).
    engine:
        Name of the engine that produced the result.
    """

    program: Program
    db: Database
    idb: IDBMap
    rounds: int
    engine: str
    trace: Optional[List[IDBMap]] = None

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


def is_semipositive(program: Program) -> bool:
    """True when negation is applied to EDB predicates only.

    Semipositive programs still induce a monotone operator in the IDB
    arguments, so the least-fixpoint machinery applies to them unchanged.
    """
    idb = program.idb_predicates
    for rule in program.rules:
        for lit in rule.body:
            if isinstance(lit, Negation) and lit.atom.pred in idb:
                return False
    return True


class SemanticsError(ValueError):
    """Raised when a program is outside an engine's supported class."""


def round_limit(program: Program, db: Database, max_rounds: Optional[int]) -> int:
    """The most rounds an iterating engine may report in ``result.rounds``.

    The caller's ``max_rounds`` when given, else the atom-space bound
    ``sum_i |A|^{arity(S_i)} + 1``, which an increasing iteration can
    never exceed.  One contract for all four iterating engines: a run
    succeeds iff ``result.rounds <= limit`` — the application that merely
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
