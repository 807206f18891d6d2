"""Static checks: program/database compatibility and safety analysis.

The paper's semantics deliberately permits *unsafe* rules (variables range
over the universe), so safety violations are reported as analysis results,
not errors.  Mismatched arities between a program and a database are errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

from ..db.database import Database
from .program import Program
from .rules import Rule


class ValidationError(ValueError):
    """Raised when a database cannot serve as input to a program."""


@dataclass
class SafetyReport:
    """Which rules are unsafe, and through which variables.

    ``violations`` maps each unsafe rule to the variables that occur in the
    rule but in no positive body atom.
    """

    violations: List[Tuple[Rule, frozenset]] = field(default_factory=list)

    @property
    def is_safe(self) -> bool:
        """True when no rule violates range restriction."""
        return not self.violations

    def __str__(self) -> str:
        if self.is_safe:
            return "all rules are range-restricted"
        lines = []
        for rule, vs in self.violations:
            names = ", ".join(sorted(v.name for v in vs))
            lines.append("unsafe rule %s  (unrestricted: %s)" % (rule, names))
        return "\n".join(lines)


def safety_report(program: Program) -> SafetyReport:
    """Analyse range restriction for every rule of the program."""
    report = SafetyReport()
    for rule in program.rules:
        unrestricted = rule.variables() - rule.positive_variables()
        if unrestricted:
            report.violations.append((rule, frozenset(unrestricted)))
    return report


def compatibility_problems(program: Program, db: Database) -> Iterator[Tuple[str, str, str]]:
    """Why ``db`` cannot serve as input to ``program``, as ``(code,
    predicate, message)`` triples.

    Every EDB predicate must be present in the database (else ``V001``)
    with matching arity (else ``V002``); IDB predicates, when present
    (i.e. the database is an interpretation mid-iteration), must also
    match arities (``V002``).  The analyzer reports every triple as a
    diagnostic; :func:`check_database` raises the first.
    """
    for pred in sorted(program.edb_predicates):
        if pred not in db:
            yield "V001", pred, (
                "database is missing EDB relation %r required by the program" % pred
            )
        elif db.arity_of(pred) != program.arity(pred):
            yield "V002", pred, (
                "relation %s has arity %d in the database but %d in the program"
                % (pred, db.arity_of(pred), program.arity(pred))
            )
    for pred in sorted(program.idb_predicates):
        if pred in db and db.arity_of(pred) != program.arity(pred):
            yield "V002", pred, (
                "IDB relation %s has arity %d in the database but %d in the program"
                % (pred, db.arity_of(pred), program.arity(pred))
            )


def check_database(program: Program, db: Database) -> None:
    """Verify that ``db`` can serve as input to ``program``.

    Raises
    ------
    ValidationError
        On the first of :func:`compatibility_problems`: a missing EDB
        relation or an arity mismatch.
    """
    for _code, _pred, message in compatibility_problems(program, db):
        raise ValidationError(message)
