"""Stratified semantics (Chandra–Harel [CH85], Apt–Blair–Walker [ABW86]).

Predicates are layered so that negation is only applied to relations defined
in strictly lower layers; each layer is then a semipositive program whose
least fixpoint is computed with the lower layers' results frozen as input
facts.  Not every DATALOG¬ program is stratifiable — the paper's motivating
deficiency — and for stratifiable programs the result can *differ* from the
inflationary semantics of the very same rules (Proposition 2's program
computes the distance query inflationarily, but ``TC and not TC*`` when read
as a stratified program).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ...analysis.dependency import DependencyGraph
from ...db.database import Database
from ...obs import RECORDER, TRACER
from ..operator import IDBMap
from ..program import Program
from .base import EvaluationResult, SemanticsError
from .seminaive import seminaive_least_fixpoint


class NotStratifiableError(SemanticsError):
    """The program has recursion through negation."""


@dataclass
class StratifiedResult(EvaluationResult):
    """An :class:`EvaluationResult` carrying the stratum structure."""

    strata: Tuple[frozenset, ...] = ()

    def stratum_of(self, pred: str) -> int:
        """The 0-based stratum of an IDB predicate."""
        for i, layer in enumerate(self.strata):
            if pred in layer:
                return i
        raise KeyError("predicate %r is in no stratum" % pred)


def stratify(program: Program) -> List[frozenset]:
    """The stratum partition of the program's IDB predicates.

    Raises
    ------
    NotStratifiableError
        When some cycle of the dependency graph carries a negative edge.
    """
    graph = DependencyGraph(program)
    try:
        return graph.stratum_partition()
    except ValueError as exc:
        raise NotStratifiableError(str(exc)) from exc


def is_stratifiable(program: Program) -> bool:
    """True when the program admits a stratification."""
    return DependencyGraph(program).is_stratifiable()


def stratified_semantics(program: Program, db: Database) -> StratifiedResult:
    """Evaluate a stratifiable program stratum by stratum.

    Each stratum's rules form a program that is semipositive *given* the
    lower strata (their relations enter the working database as facts), so
    the semi-naive least-fixpoint engine applies.  A stratum's plans
    depend on its rules alone, never on the working database, so every
    later run — over this database or any other, such as the next value
    of an update stream — reuses them from the
    :func:`~repro.core.planning.compile_rule` memo; the lower strata's
    frozen relations keep their cached codes and sorted runs across all
    upper-stratum rounds.

    Raises
    ------
    NotStratifiableError
        When the program has recursion through negation.
    """
    strata = stratify(program)
    working = db
    final: IDBMap = {}
    total_rounds = 0
    for index, layer in enumerate(strata):
        with TRACER.span("stratum") as sp:
            rules = [r for r in program.rules if r.head.pred in layer]
            sub = Program(rules)
            result = seminaive_least_fixpoint(sub, working)
            for pred in layer:
                final[pred] = result.idb[pred]
            working = working.with_relations(result.idb.values())
            total_rounds += result.rounds
            if sp:
                sp["stratum"] = index
                sp["preds"] = ", ".join(sorted(layer))
                sp["rounds"] = result.rounds
                sp["rows_out"] = sum(len(result.idb[p]) for p in layer)
    if RECORDER.enabled:
        RECORDER.inc("repro_engine_strata_total", len(strata))
    return StratifiedResult(
        program=program,
        db=db,
        idb=final,
        rounds=total_rounds,
        engine="stratified",
        trace=None,
        strata=tuple(strata),
    )
