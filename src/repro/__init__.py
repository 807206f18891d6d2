"""repro — a reproduction of Kolaitis & Papadimitriou,
"Why Not Negation by Fixpoint?" (PODS 1988 / JCSS 1991).

The package implements DATALOG¬ (Datalog with negation) under the paper's
active-domain semantics, the immediate consequence operator Theta, fixpoint
analysis backed by a built-in SAT solver (existence, uniqueness, counting,
least-fixpoint decision), the paper's reductions (pi_SAT, pi_COL, succinct
3-coloring, the Fagin/Skolem compiler of Theorem 1), and the proposed
remedy: Inflationary DATALOG, together with stratified and well-founded
semantics for comparison.

Evaluation is plan-compiled: :mod:`repro.core.planning` compiles every
rule once per (program, database) into a static ``RulePlan`` — fixed join
order, precomputed index key columns, an interleaved negation/comparison
filter schedule, and a static active-domain completion order — and all
fixpoint engines (naive, semi-naive, inflationary, stratified, and the
well-founded grounder) execute those plans with hash indexes cached
on the immutable :class:`~repro.db.relation.Relation` objects, so
relations unchanged between rounds are never re-indexed.  The public
``theta``/``evaluate_rule`` API compiles transparently;
``theta_legacy``/``evaluate_rule_legacy`` keep the original
re-plan-every-round path as a property-tested baseline (see
``python -m repro.bench perf``).

Testing conventions: ``python -m pytest`` from the repository root runs
``tests/`` only (``testpaths`` in pyproject.toml); the benchmark suite is
opt-in via ``python -m pytest benchmarks``.  Shared test helpers are
importable modules (``tests/strategies.py``, ``benchmarks/bench_utils.py``),
never conftest members — importing from ``conftest`` resolves to whichever
conftest was loaded first and breaks mixed-directory collection.

Quickstart::

    from repro import parse_program, Database, Relation
    from repro.core.semantics import inflationary_semantics

    program = parse_program("T(X) :- E(X, Y).  T(X) :- E(X, Z), T(Z).")
    db = Database({1, 2, 3}, [Relation("E", 2, [(1, 2), (2, 3)])])
    print(inflationary_semantics(program, db).carrier_value)
"""

from .core import (
    Atom,
    Constant,
    Eq,
    Negation,
    Neq,
    Program,
    ProgramError,
    Rule,
    Variable,
    parse_atom,
    parse_program,
    parse_rule,
    rule,
    term,
    theta,
)
from .db import Database, Relation

__version__ = "1.0.0"

__all__ = [
    "Atom",
    "Constant",
    "Database",
    "Eq",
    "Negation",
    "Neq",
    "Program",
    "ProgramError",
    "Relation",
    "Rule",
    "Variable",
    "parse_atom",
    "parse_program",
    "parse_rule",
    "rule",
    "term",
    "theta",
    "__version__",
]
