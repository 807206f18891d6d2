"""Inflationary DATALOG — the semantics the paper proposes (Section 4).

For a program pi with operator Theta, define

    Theta^1 = Theta(empty),   Theta^{n+1} = Theta^n  union  Theta(Theta^n)

and let ``Theta^infinity`` be the union of the chain.  Because the sequence
is increasing, it stabilises after at most ``sum_i |A|^{arity(S_i)}`` rounds,
so the inflationary semantics is computable in polynomial time in the size
of the database — the paper's central argument for it.

Key facts reproduced in the test-suite and experiments:

* For negation-free DATALOG programs, ``Theta^{n+1} = Theta(Theta^n)``
  (Theta is monotone), so the inflationary semantics *is* the least
  fixpoint — inflationary DATALOG conservatively extends the standard
  semantics.
* ``T(x) :- !T(y)`` yields ``Theta^infinity = A`` (after one round).
* ``pi_1 : T(x) :- E(y, x), !T(y)`` yields ``{x : exists y E(y, x)}``.
* ``Theta^infinity`` need not be a fixpoint of Theta at all — the paper's
  Section 4 warning — e.g. the toggle program's value ``A`` has
  ``Theta(A) = empty``.

The engine is delta-driven.  Stages only grow, so a negated IDB literal
can only flip from true to false, and an instantiation whose body holds
at stage ``k`` but not at stage ``k-1`` must contain a positive IDB
literal matched by a tuple new at stage ``k``; rules without positive
IDB literals fire their largest set in round 1.  After round 1 only
*delta variants* run (:func:`~repro.core.fixpoint.differential_plans`) —
semi-naive evaluation without the semipositivity precondition.  Full
Theta survives as the specification: :func:`inflationary_step` and
:func:`theta_stage`, property-tested equal stage by stage.
"""

from __future__ import annotations

from typing import Optional

from ...db.database import Database
from ..fixpoint import differential_plans, idb_union, iterate
from ..operator import IDBMap, empty_idb, theta
from ..program import Program
from .base import EvaluationResult


def inflationary_step(program: Program, db: Database, current: IDBMap) -> IDBMap:
    """One application of the inflationary operator ``S |-> S u Theta(S)``."""
    return idb_union([current, theta(program, db, current)])


def inflationary_semantics(
    program: Program,
    db: Database,
    keep_trace: bool = False,
    max_rounds: Optional[int] = None,
) -> EvaluationResult:
    """Compute ``Theta^infinity``, the inductive fixpoint of S u Theta(S).

    Works for *every* DATALOG¬ program — that totality is the point of the
    semantics.  ``result.rounds`` is the paper's ``n_0``: the first ``n``
    with ``Theta^n = Theta^{n+1}``; it is at most ``sum_i |A|^{arity_i}``.
    """
    seed, plans = differential_plans(program)
    return iterate(
        program,
        db,
        plans,
        seed,
        engine="inflationary",
        max_rounds=max_rounds,
        keep_trace=keep_trace,
    )


def theta_stage(program: Program, db: Database, n: int) -> IDBMap:
    """The paper's stage ``Theta^n`` (``n >= 0``; stage 0 is empty)."""
    if n < 0:
        raise ValueError("stage must be non-negative")
    current = empty_idb(program)
    for _ in range(n):
        current = inflationary_step(program, db, current)
    return current
