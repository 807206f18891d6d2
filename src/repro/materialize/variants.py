"""Delta-rule construction shared by counting and DRed maintenance.

The generic machinery — ``@old``/``@new``/``@ins``/``@del`` aliasing
and the telescoping :func:`delta_variant` decomposition — lives in
:mod:`repro.core.deltavariants` since the grounder's incremental
ground-program patching started using it too (``core`` cannot import
this package without a cycle); it is re-exported here unchanged for the
maintenance modules and external callers.  What remains native to this module is the *counting* face:
total-binding pseudo-heads and their head getters, which only the
derivation-counting maintenance needs.
"""

from __future__ import annotations

from typing import Dict

from ..core.deltavariants import (  # noqa: F401  (re-exported)
    DEL,
    INS,
    NEW,
    OLD,
    changeable_positions,
    del_name,
    delta_variant,
    ins_name,
    new_name,
    old_name,
)
from ..core.literals import Atom
from ..core.planning import RulePlan
from ..core.rules import Rule
from ..core.terms import Variable

# ----------------------------------------------------------------------
# Counting needs total bindings: give the rule a pseudo-head over all
# its variables (the grounder's trick), so the executor never
# projects a column away and deduplicates the rows that differed there.
# ----------------------------------------------------------------------

BINDINGS_HEAD = "@bindings"
"""Pseudo-head predicate of total-binding plans."""


def with_bindings_head(rule: Rule) -> Rule:
    """The rule under a pseudo-head carrying every variable (sorted)."""
    variables = sorted(rule.variables(), key=lambda v: v.name)
    return Rule(Atom(BINDINGS_HEAD, variables), rule.body)


def head_getters(rule: Rule, plan: RulePlan):
    """``rule``'s head as getters over a pseudo-head plan's schema columns.

    ``plan`` must be the compiled :func:`with_bindings_head` variant;
    its schema binds every rule variable, so the original head is a pure
    column/constant projection of each binding: ``(False, column)`` per
    variable, ``(True, value)`` per constant.
    """
    column: Dict[Variable, int] = {v: i for i, v in enumerate(plan.schema)}
    return tuple(
        (False, column[arg]) if isinstance(arg, Variable) else (True, arg.value)
        for arg in rule.head.args
    )
