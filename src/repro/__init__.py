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
rule once — a plan is a pure function of the rule, memoised, and never
reads a database — into a static ``RulePlan``: fixed join order,
anti-join negation, and active-domain completion as a join with the
universe relation ``@U``.  All fixpoint engines (naive, semi-naive,
inflationary, stratified, and the well-founded grounder) run those
plans columnar, over sorted runs of int64 ids interned in the
database's symbol table.  The public ``theta``/``evaluate_rule`` API
compiles transparently; ``theta_legacy``/``evaluate_rule_legacy`` keep
the paper's Theta read off the page as the property-tested oracle (see
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
