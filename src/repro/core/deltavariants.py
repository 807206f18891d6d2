"""Delta-rule construction: differentiating a rule w.r.t. one literal.

Incremental evaluation — view maintenance, and since PR 5 incremental
*grounding* — differentiates each rule with respect to one body-literal
position at a time.  For a rule ``H :- L_0, ..., L_{k-1}`` and a
position ``i``, the *delta variant* reads

* the post-change value of every literal before ``i``,
* the change set (of the appropriate sign) at ``i``, and
* the pre-change value of every literal after ``i``,

which is the telescoping decomposition of ``body(new) - body(old)``:
summed over ``i``, the variants enumerate exactly the derivations gained
(and, with the opposite sign, lost) by the change — each gained/lost
derivation is counted once, at the first position where its literals
differ between the two states.  Negated literals differentiate through
the complement: ``!P`` *gains* instances where ``P`` lost tuples and
loses instances where ``P`` gained them.

All variants are ordinary rules over alias predicate names
(``P@old``, ``P@new``, ``P@ins``, ``P@del`` — ``@`` cannot appear in a
parsed program, so aliases can never collide with user predicates), so
they compile through the ordinary planner and run on the columnar executor;
the change-set aliases are declared *small* so plans join through the
delta first.  A consumer compiles its fixed family of variants once,
with :func:`~repro.core.planning.compile_rule`, and holds the plans.

This module lives in ``core`` (rather than ``repro.materialize``, where
it originated) because the grounder's incremental ground-program
patching needs the same construction and ``core`` cannot import
``materialize`` without a cycle; the maintenance modules import it from
here.
"""

from __future__ import annotations

from typing import FrozenSet, List

from .literals import Atom, Comparison, Negation
from .rules import Rule

OLD = "@old"
NEW = "@new"
INS = "@ins"
DEL = "@del"


def old_name(pred: str) -> str:
    """Alias of ``pred``'s pre-change value."""
    return pred + OLD


def new_name(pred: str) -> str:
    """Alias of ``pred``'s post-change value."""
    return pred + NEW


def ins_name(pred: str) -> str:
    """Alias of ``pred``'s effective insertions."""
    return pred + INS


def del_name(pred: str) -> str:
    """Alias of ``pred``'s effective deletions."""
    return pred + DEL


def _aliased(literal, suffix: str):
    """The literal reading its predicate under an alias suffix."""
    if isinstance(literal, Atom):
        return Atom(literal.pred + suffix, literal.args)
    if isinstance(literal, Negation):
        return Negation(Atom(literal.atom.pred + suffix, literal.atom.args))
    return literal  # comparisons carry no predicate


def delta_variant(rule: Rule, position: int, gained: bool) -> Rule:
    """The delta variant of ``rule`` differentiating ``position``.

    ``gained=True`` builds the variant enumerating derivations the
    change *adds* (position reads ``P@ins`` for a positive literal,
    ``P@del`` — positively — for a negated one); ``gained=False`` the
    derivations it *removes* (signs swapped).  Positions before
    ``position`` read ``@new`` values, positions after read ``@old``.
    """
    body: List = []
    for j, lit in enumerate(rule.body):
        if isinstance(lit, Comparison):
            body.append(lit)
            continue
        if j < position:
            body.append(_aliased(lit, NEW))
        elif j > position:
            body.append(_aliased(lit, OLD))
        else:
            if isinstance(lit, Atom):
                body.append(Atom(lit.pred + (INS if gained else DEL), lit.args))
            else:
                atom = lit.atom
                body.append(Atom(atom.pred + (DEL if gained else INS), atom.args))
    return Rule(rule.head, body)


def changeable_positions(rule: Rule, changeable: FrozenSet[str]) -> List[int]:
    """Body positions whose literal reads a predicate in ``changeable``."""
    out = []
    for i, lit in enumerate(rule.body):
        if isinstance(lit, Atom) and lit.pred in changeable:
            out.append(i)
        elif isinstance(lit, Negation) and lit.atom.pred in changeable:
            out.append(i)
    return out
