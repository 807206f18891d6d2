"""Checks shared by the semantics engines (and the driver's result types)."""

from __future__ import annotations

from ..fixpoint import EvaluationResult, SemanticsError  # noqa: F401  (re-exported)
from ..literals import Negation
from ..program import Program


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
