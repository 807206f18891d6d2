"""Naive least-fixpoint evaluation for (semi)positive programs.

For a DATALOG program (no negated IDB literals), Theta is monotone in the
IDB arguments, so by the Knaster–Tarski theorem [Ta55] the iteration
``empty, Theta(empty), Theta^2(empty), ...`` converges to the least fixpoint
of ``(pi, D)`` — the paper's standard semantics for DATALOG.

Monotonicity requires only that no *IDB* predicate appears negated;
negation/inequality over EDB relations and constants is harmless
(semipositive programs), so this engine accepts those too.
"""

from __future__ import annotations

from typing import Optional

from ...db.database import Database
from ..fixpoint import iterate
from ..planning import compile_rule
from ..program import Program
from .base import EvaluationResult, SemanticsError, is_semipositive


def naive_least_fixpoint(
    program: Program,
    db: Database,
    keep_trace: bool = False,
    max_rounds: Optional[int] = None,
) -> EvaluationResult:
    """Iterate Theta from the empty valuation to the least fixpoint.

    Parameters
    ----------
    program:
        A positive or semipositive program (checked).
    db:
        The database; IDB relations in it are ignored (iteration starts
        empty, as the paper specifies).
    keep_trace:
        Record the valuation after every round.
    max_rounds:
        Cap on ``result.rounds``; defaults to the atom-space bound
        ``sum_i |A|^{arity(S_i)} + 1`` which the iteration can never exceed.

    Raises
    ------
    SemanticsError
        If some IDB predicate occurs negated (Theta would not be monotone
        and the least fixpoint may not exist), or if the fixpoint needs
        more than ``max_rounds`` rounds.
    """
    if not is_semipositive(program):
        raise SemanticsError(
            "naive least fixpoint requires a (semi)positive program; "
            "negated IDB literals make Theta non-monotone"
        )
    return iterate(
        program,
        db,
        [compile_rule(r) for r in program.rules],
        engine="naive",
        max_rounds=max_rounds,
        keep_trace=keep_trace,
    )
