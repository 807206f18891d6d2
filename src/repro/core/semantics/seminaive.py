"""Semi-naive least-fixpoint evaluation for (semi)positive programs.

Classical differential evaluation: a rule instance can only derive a *new*
tuple if at least one of its IDB body atoms is matched against a tuple
discovered in the previous round.  For each rule and each IDB body-atom
occurrence we build a *delta variant* in which that occurrence reads the
delta relation; per round we evaluate all variants, subtract what is already
known, and stop when the delta is empty
(:func:`~repro.core.fixpoint.differential_plans` run by
:func:`~repro.core.fixpoint.iterate`).

The result is identical to :func:`repro.core.semantics.naive.naive_least_fixpoint`
(property-tested); only the work per round differs.
"""

from __future__ import annotations

from typing import Optional

from ...db.database import Database
from ..fixpoint import differential_plans, iterate
from ..program import Program
from .base import EvaluationResult, SemanticsError, is_semipositive


def seminaive_least_fixpoint(
    program: Program,
    db: Database,
    keep_trace: bool = False,
    max_rounds: Optional[int] = None,
) -> EvaluationResult:
    """Compute the least fixpoint by differential (semi-naive) iteration.

    Accepts the same class of programs as the naive engine: positive and
    semipositive (negation over EDB only).

    Raises
    ------
    SemanticsError
        If some IDB predicate occurs negated, or if the fixpoint needs
        more than ``max_rounds`` rounds.
    """
    if not is_semipositive(program):
        raise SemanticsError(
            "semi-naive evaluation requires a (semi)positive program"
        )
    seed, plans = differential_plans(program)
    return iterate(
        program,
        db,
        plans,
        seed,
        engine="seminaive",
        max_rounds=max_rounds,
        keep_trace=keep_trace,
    )
