"""Static analysis of DATALOG¬ programs.

Three layers:

* **Facts** — :class:`ProgramFacts` (:mod:`repro.analysis.facts`), the
  queryable API over everything statically decidable about a program:
  dependency graph, SCCs, strata, negation cycles, derivability,
  column domains, engine applicability.
* **Diagnostics** — :mod:`repro.analysis.checks` turns the facts into
  stable-coded :class:`Diagnostic`\\ s with source spans;
  :func:`lint_source` / :func:`lint_program`
  (:mod:`repro.analysis.lint`) orchestrate and return a
  :class:`LintReport`.
* **Legacy faces** — the original classification helpers
  (:func:`classify`, :class:`EngineSupport`) remain as thin views.

Surfaced as ``python -m repro lint``, the ``explain`` summary block,
and the server's ``register``/``lint``/``stats`` verbs.

The analyzer's names are resolved on first use: the stratified engine
needs :mod:`repro.analysis.dependency`, and a ``repro run`` should not
import the lint pass to get it.
"""

from __future__ import annotations

# Eager: light, and the function must shadow the ``classify`` submodule.
from .classify import EngineSupport, ProgramClass, classify
from .dependency import DependencyEdge, DependencyGraph

__all__ = [
    "DependencyEdge",
    "DependencyGraph",
    "Diagnostic",
    "EngineSupport",
    "LintReport",
    "ProgramClass",
    "ProgramFacts",
    "Severity",
    "classify",
    "lint_program",
    "lint_source",
]

_LAZY = {
    "Diagnostic": "diagnostics",
    "LintReport": "diagnostics",
    "Severity": "diagnostics",
    "ProgramFacts": "facts",
    "lint_program": "lint",
    "lint_source": "lint",
}


def __getattr__(name: str):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from importlib import import_module

    return getattr(import_module("." + module_name, __name__), name)
