"""Semantics engines for DATALOG¬ programs.

* :func:`naive_least_fixpoint` / :func:`seminaive_least_fixpoint` — the
  standard least-fixpoint semantics of (semi)positive DATALOG.
* :func:`inflationary_semantics` — the paper's proposal (Section 4),
  total and polynomial-time.
* :func:`stratified_semantics` — layered negation (partial: stratifiable
  programs only).
* :func:`well_founded_semantics` — three-valued alternating fixpoint
  (extension, for comparison).
* :func:`all_fixpoints` / :func:`count_fixpoints` — brute-force ordinary
  fixpoint enumeration (cross-check for the SAT-backed analysis).
"""

from .base import EvaluationResult, SemanticsError, is_semipositive
from .enumeration import (
    EnumerationLimitError,
    all_fixpoints,
    count_fixpoints,
    iterate_fixpoints,
)
from .inflationary import inflationary_semantics, inflationary_step, theta_stage
from .naive import naive_least_fixpoint
from .seminaive import seminaive_least_fixpoint
from .stratified import (
    NotStratifiableError,
    StratifiedResult,
    is_stratifiable,
    stratified_semantics,
    stratify,
)
from .wellfounded import WellFoundedResult, well_founded_semantics

__all__ = [
    "EnumerationLimitError",
    "EvaluationResult",
    "NotStratifiableError",
    "SemanticsError",
    "StratifiedResult",
    "WellFoundedResult",
    "all_fixpoints",
    "count_fixpoints",
    "inflationary_semantics",
    "inflationary_step",
    "is_semipositive",
    "is_stratifiable",
    "iterate_fixpoints",
    "naive_least_fixpoint",
    "seminaive_least_fixpoint",
    "stratified_semantics",
    "stratify",
    "theta_stage",
    "well_founded_semantics",
]
