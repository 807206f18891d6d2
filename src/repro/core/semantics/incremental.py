"""Delta-driven (semi-naive) inflationary evaluation.

An ablation on the paper's bottom-up iteration.  The inflationary stage
``S_{k+1} = S_k u Theta(S_k)`` only ever *adds* tuples, which makes a
differential evaluation sound even in the presence of negation:

* negated IDB literals ``!T(a)`` can only flip from true to false as the
  stages grow, so an instantiation whose body holds at stage ``k`` but not
  at stage ``k-1`` must contain a positive IDB literal matched by a
  stage-``k`` delta tuple;
* consequently, rules without positive IDB literals can contribute new
  tuples only in round 1 (their round-1 derivation set is the largest they
  will ever produce, and the union already keeps it).

So after round 1 we evaluate only *delta variants* — one per positive IDB
occurrence, reading the previous round's new tuples there — exactly like
classical semi-naive evaluation, except deltas are never "subtracted" from
negations: the engine is the semi-naive configuration of
:func:`~repro.core.fixpoint.iterate` without the semipositivity
precondition.  It is property-tested equal to
:func:`repro.core.semantics.inflationary.inflationary_semantics` and
benchmarked against it in ``benchmarks/bench_ablation_incremental.py``.
"""

from __future__ import annotations

from typing import Optional

from ...db.database import Database
from ..fixpoint import differential_plans, iterate
from ..program import Program
from .base import EvaluationResult


def incremental_inflationary_semantics(
    program: Program,
    db: Database,
    max_rounds: Optional[int] = None,
) -> EvaluationResult:
    """Compute ``Theta^infinity`` with delta-driven rounds.

    Semantically identical to
    :func:`~repro.core.semantics.inflationary.inflationary_semantics`;
    asymptotically cheaper on recursive rules because each round touches
    only instantiations involving freshly added tuples.
    """
    seed, step = differential_plans(program, db)
    return iterate(
        program,
        db,
        step,
        seed,
        engine="incremental-inflationary",
        max_rounds=max_rounds,
    )
