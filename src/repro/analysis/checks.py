"""The check registry: every diagnostic the analyzer can produce.

Each check is a function ``(ProgramFacts) -> iterable of Diagnostic``
(database-aware checks additionally take the database) registered under
its stable code.  Codes are grouped by family:

======  ======================  ========  =====================================
code    name                    severity  meaning
======  ======================  ========  =====================================
P001    parse-error             error     program text does not parse
A001    arity-conflict          error     predicate used with two arities
V001    missing-edb             error     database lacks a required relation
V002    db-arity-mismatch       error     database arity != program arity
R001    unsafe-rule             warning   rule is not range-restricted
S001    negative-cycle          warning   recursion through negation
S002    semantics-divergence    warning   predicate on a negation cycle
D001    dead-rule               warning   rule can never fire
D002    underivable-predicate   warning   predicate never derivable
W001    duplicate-rule          warning   rule repeats an earlier rule
W002    subsumed-rule           warning   rule redundant under another
T001    column-type-conflict    warning   column mixes int and str values
D003    unconsumed-predicate    info      derived but feeding nothing
U001    unused-edb-relation     info      database relation the program ignores
======  ======================  ========  =====================================

Severities follow the paper's stance: the semantics deliberately
*permits* unsafe rules and non-stratifiable programs (inflationary and
well-founded evaluation are total), so those are warnings — the user
should know which engines become inapplicable and where models can
diverge — while structural impossibilities (arities, missing relations)
are errors.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.validation import compatibility_problems, safety_report
from ..db.database import Database
from .diagnostics import Diagnostic, Severity
from .facts import MIXED, UNKNOWN, ProgramFacts, _const_kind, _join

ProgramCheck = Callable[[ProgramFacts], Iterable[Diagnostic]]

PROGRAM_CHECKS: Dict[str, ProgramCheck] = {}
"""Registered database-independent checks, keyed by code."""


def register(code: str) -> Callable[[ProgramCheck], ProgramCheck]:
    """Class the decorated function as the check behind ``code``."""

    def wrap(fn: ProgramCheck) -> ProgramCheck:
        PROGRAM_CHECKS[code] = fn
        return fn

    return wrap


# ----------------------------------------------------------------------
# R001 — range restriction / safety
# ----------------------------------------------------------------------


@register("R001")
def check_safety(facts: ProgramFacts) -> Iterator[Diagnostic]:
    """Promote :func:`repro.core.validation.safety_report` to diagnostics."""
    index_of = {id(rule): i for i, rule in enumerate(facts.program.rules)}
    for rule, unrestricted in safety_report(facts.program).violations:
        names = ", ".join(sorted(v.name for v in unrestricted))
        yield Diagnostic(
            code="R001",
            severity=Severity.WARNING,
            message=(
                "unsafe rule: variable(s) %s occur in no positive body atom, "
                "so they range over the whole universe (rule %s)"
                % (names, rule)
            ),
            span=rule.span,
            rule_index=index_of.get(id(rule)),
            predicate=rule.head.pred,
        )


# ----------------------------------------------------------------------
# S001 / S002 — stratifiability and semantics divergence
# ----------------------------------------------------------------------


@register("S001")
def check_stratifiability(facts: ProgramFacts) -> Iterator[Diagnostic]:
    """One warning per SCC recursing through negation, witness printed
    rule by rule."""
    for cycle in facts.negative_cycles:
        lines = []
        for edge in cycle:
            rule = facts.graph.rule_for_edge(edge)
            arrow = "-(not)->" if edge.negative else "------->"
            where = ""
            if rule is not None and rule.span is not None:
                where = " at %s" % rule.span
            lines.append(
                "%s %s %s via rule%s %s"
                % (edge.source, arrow, edge.target, where, rule)
            )
        first = facts.graph.rule_for_edge(cycle[0])
        yield Diagnostic(
            code="S001",
            severity=Severity.WARNING,
            message=(
                "recursion through negation: not stratifiable, so the "
                "stratified and least-fixpoint engines are inapplicable; "
                "witness cycle: %s" % "; ".join(lines)
            ),
            span=first.span if first is not None else None,
            predicate=cycle[0].target,
        )


@register("S002")
def check_semantics_divergence(facts: ProgramFacts) -> Iterator[Diagnostic]:
    """Flag exactly the predicates where inflationary and well-founded
    models can differ: those on a cycle through negation."""
    for pred in sorted(facts.negative_cycle_predicates):
        rule = facts.defining_rule(pred)
        yield Diagnostic(
            code="S002",
            severity=Severity.WARNING,
            message=(
                "predicate %s lies on a cycle through negation: the "
                "inflationary and well-founded models can differ here "
                "(the well-founded model may leave %s partially undefined)"
                % (pred, pred)
            ),
            span=rule.span if rule is not None else None,
            predicate=pred,
        )


# ----------------------------------------------------------------------
# D001 / D002 / D003 — dead and unreachable code
# ----------------------------------------------------------------------


@register("D001")
def check_dead_rules(facts: ProgramFacts) -> Iterator[Diagnostic]:
    for index in facts.dead_rules:
        rule = facts.program.rules[index]
        blockers = sorted(
            a.pred
            for a in rule.positive_atoms()
            if a.pred in facts.underivable
        )
        yield Diagnostic(
            code="D001",
            severity=Severity.WARNING,
            message=(
                "dead rule: positive body atom(s) %s can never hold on any "
                "database (rule %s)" % (", ".join(blockers), rule)
            ),
            span=rule.span,
            rule_index=index,
            predicate=rule.head.pred,
        )


@register("D002")
def check_underivable(facts: ProgramFacts) -> Iterator[Diagnostic]:
    for pred in sorted(facts.underivable):
        rule = facts.defining_rule(pred)
        yield Diagnostic(
            code="D002",
            severity=Severity.WARNING,
            message=(
                "predicate %s is never derivable: every rule for it "
                "positively depends on an underivable predicate" % pred
            ),
            span=rule.span if rule is not None else None,
            predicate=pred,
        )


@register("D003")
def check_unconsumed(facts: ProgramFacts) -> Iterator[Diagnostic]:
    for pred in sorted(facts.unconsumed):
        rule = facts.defining_rule(pred)
        yield Diagnostic(
            code="D003",
            severity=Severity.INFO,
            message=(
                "predicate %s is derived but feeds nothing: it occurs in no "
                "rule body and is not the carrier (declare it as the carrier "
                "if it is the intended output)" % pred
            ),
            span=rule.span if rule is not None else None,
            predicate=pred,
        )


# ----------------------------------------------------------------------
# W001 / W002 — duplicate and subsumed rules
# ----------------------------------------------------------------------


@register("W001")
def check_duplicates(facts: ProgramFacts) -> Iterator[Diagnostic]:
    for first, dup in facts.duplicate_rules:
        rule = facts.program.rules[dup]
        yield Diagnostic(
            code="W001",
            severity=Severity.WARNING,
            message=(
                "duplicate rule: identical (up to literal order) to rule %d "
                "(%s)" % (first, facts.program.rules[first])
            ),
            span=rule.span,
            rule_index=dup,
            predicate=rule.head.pred,
        )


@register("W002")
def check_subsumed(facts: ProgramFacts) -> Iterator[Diagnostic]:
    for by, subsumed in facts.subsumed_rules:
        rule = facts.program.rules[subsumed]
        yield Diagnostic(
            code="W002",
            severity=Severity.WARNING,
            message=(
                "subsumed rule: rule %d (%s) derives everything this rule "
                "does with fewer body literals"
                % (by, facts.program.rules[by])
            ),
            span=rule.span,
            rule_index=subsumed,
            predicate=rule.head.pred,
        )


# ----------------------------------------------------------------------
# T001 — column domain / type inference
# ----------------------------------------------------------------------


def seed_edb_domains(
    program, db: Database
) -> Dict[Tuple[str, int], str]:
    """Per-column value kinds actually present in the database's EDB.

    One pass over the stored tuples (lint is off the hot path); the
    alphabet is the kernel's int/str symbol-family split.
    """
    seeds: Dict[Tuple[str, int], str] = {}
    for pred in program.edb_predicates:
        rel = db.get(pred)
        if rel is None:
            continue
        for t in rel:
            for col, value in enumerate(t):
                key = (pred, col)
                seeds[key] = _join(seeds.get(key, UNKNOWN), _const_kind(value))
    return seeds


def check_column_types(
    facts: ProgramFacts, db: Optional[Database] = None
) -> Iterator[Diagnostic]:
    """T001: columns inferred to mix int and str values."""
    if db is not None:
        domains = facts.column_domains_with(seed_edb_domains(facts.program, db))
    else:
        domains = facts.column_domains
    for (pred, col), domain in sorted(domains.items()):
        if domain != MIXED:
            continue
        rule = facts.defining_rule(pred)
        yield Diagnostic(
            code="T001",
            severity=Severity.WARNING,
            message=(
                "column %d of %s mixes int and str values: the kernel "
                "cannot keep one dense symbol family for it and "
                "comparisons will never match across the two kinds"
                % (col, pred)
            ),
            span=rule.span if rule is not None else None,
            predicate=pred,
        )


# ----------------------------------------------------------------------
# V001 / V002 / U001 — database compatibility
# ----------------------------------------------------------------------


def check_database_compat(
    facts: ProgramFacts, db: Database
) -> Iterator[Diagnostic]:
    """V001/V002 — :func:`~repro.core.validation.compatibility_problems`
    as errors — and U001, a database relation the program never reads."""
    program = facts.program
    for code, pred, message in compatibility_problems(program, db):
        yield Diagnostic(code=code, severity=Severity.ERROR, message=message, predicate=pred)
    for name in sorted(db.relation_names()):
        if name not in program.predicates:
            yield Diagnostic(
                code="U001",
                severity=Severity.INFO,
                message=(
                    "database relation %s is not referenced by the program"
                    % name
                ),
                predicate=name,
            )


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def run_checks(
    facts: ProgramFacts, db: Optional[Database] = None
) -> List[Diagnostic]:
    """Run every registered check (plus the db-aware ones when a
    database is given) and return the findings."""
    out: List[Diagnostic] = []
    for code in sorted(PROGRAM_CHECKS):
        out.extend(PROGRAM_CHECKS[code](facts))
    out.extend(check_column_types(facts, db))
    if db is not None:
        out.extend(check_database_compat(facts, db))
    return out
