"""The queryable program-facts API: everything static in one object.

Every consumer of static structure — the lint checks, the ``explain``
summary, the server's ``stats`` verb, and the ROADMAP's scaling items
(the lattice-generic core needs negation-occurrence classification) —
reads from one
:class:`ProgramFacts` instead of re-deriving dependency graphs ad hoc.
Everything is computed lazily and cached; a ``ProgramFacts`` is cheap
to build and safe to hold.

The facts are database-independent (the analyzer must stay off the hot
path: the server computes them once per registered program).  Checks
that need the database (missing relations, column value types) take it
as an extra argument in :mod:`repro.analysis.checks`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..core.literals import Eq
from ..core.program import Program, ProgramError
from ..core.rules import Rule
from ..core.terms import Constant, Variable
from .classify import EngineSupport, ProgramClass, classify
from .dependency import DependencyEdge, DependencyGraph

INT = "int"
STR = "str"
MIXED = "mixed"
UNKNOWN = "unknown"
"""Column domain lattice: UNKNOWN < INT, STR < MIXED (see
:attr:`ProgramFacts.column_domains`).  The int/str split is exactly the
value domain the PR 7 kernel interns per symbol-table family."""


def _join(domain: str, kind: str) -> str:
    if domain == UNKNOWN:
        return kind
    if domain == kind or kind == UNKNOWN:
        return domain
    return MIXED


def _const_kind(value) -> str:
    return INT if isinstance(value, int) else STR


class ProgramFacts:
    """Static facts about one program, computed once, queried many times."""

    def __init__(self, program: Program) -> None:
        self.program = program

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @cached_property
    def graph(self) -> DependencyGraph:
        """The predicate dependency graph (IDB nodes, signed edges)."""
        return DependencyGraph(self.program)

    @cached_property
    def sccs(self) -> List[FrozenSet[str]]:
        """Strongly connected components, reverse topological order."""
        return self.graph.sccs()

    @cached_property
    def classification(self) -> ProgramClass:
        """The paper's class: positive / semipositive / stratified / general."""
        return classify(self.program)

    @cached_property
    def support(self) -> EngineSupport:
        """Which engines are applicable."""
        return EngineSupport.for_program(self.program)

    @cached_property
    def stratifiable(self) -> bool:
        return self.graph.is_stratifiable()

    @cached_property
    def strata(self) -> Optional[Dict[str, int]]:
        """The least stratum assignment, or ``None`` when unstratifiable."""
        if not self.stratifiable:
            return None
        return self.graph.strata()

    @cached_property
    def stratum_count(self) -> Optional[int]:
        """How many strata the program needs (``None`` if unstratifiable)."""
        strata = self.strata
        if strata is None:
            return None
        if not strata:
            return 0
        return max(strata.values()) + 1

    @cached_property
    def negative_sccs(self) -> List[FrozenSet[str]]:
        """SCCs with recursion through negation (empty iff stratifiable)."""
        return self.graph.negative_sccs()

    @cached_property
    def negative_cycle_predicates(self) -> FrozenSet[str]:
        """Predicates on some cycle through negation.

        On exactly these predicates the inflationary and well-founded
        models can differ — the paper's core distinction; everything
        downstream of them inherits the uncertainty.
        """
        out: set = set()
        for comp in self.negative_sccs:
            out |= comp
        return frozenset(out)

    @cached_property
    def negative_cycles(self) -> List[List[DependencyEdge]]:
        """One witness edge cycle through negation per offending SCC."""
        return self.graph.negative_cycles()

    @cached_property
    def carrier(self) -> Optional[str]:
        """The goal predicate when determinate (explicit or sole IDB)."""
        try:
            return self.program.carrier
        except ProgramError:
            return None

    # ------------------------------------------------------------------
    # Derivability / reachability
    # ------------------------------------------------------------------

    @cached_property
    def derivable(self) -> FrozenSet[str]:
        """IDB predicates that can derive at least one tuple from *some*
        database.

        Least fixpoint of: a predicate is derivable when one of its
        rules has every positive IDB body atom derivable (EDB relations
        are assumed nonempty; negation and comparisons never block a
        rule statically).
        """
        idb = self.program.idb_predicates
        derivable: set = set()
        changed = True
        while changed:
            changed = False
            for rule in self.program.rules:
                head = rule.head.pred
                if head in derivable:
                    continue
                if all(
                    a.pred not in idb or a.pred in derivable
                    for a in rule.positive_atoms()
                ):
                    derivable.add(head)
                    changed = True
        return frozenset(derivable)

    @cached_property
    def dead_rules(self) -> List[int]:
        """Indices of rules that can never fire on any database.

        A rule is dead when some positive body atom names an IDB
        predicate that is never derivable.
        """
        idb = self.program.idb_predicates
        out = []
        for i, rule in enumerate(self.program.rules):
            if any(
                a.pred in idb and a.pred not in self.derivable
                for a in rule.positive_atoms()
            ):
                out.append(i)
        return out

    @cached_property
    def underivable(self) -> FrozenSet[str]:
        """IDB predicates none of whose rules can ever fire."""
        return self.program.idb_predicates - self.derivable

    @cached_property
    def unconsumed(self) -> FrozenSet[str]:
        """IDB predicates derived but feeding nothing.

        A predicate that occurs in no rule body (positively or under
        negation) and is not the program's carrier is computed and then
        never read — usually a leftover, sometimes the intended output
        of a program whose carrier was simply not declared, hence
        info-level downstream.
        """
        used: set = set()
        for rule in self.program.rules:
            used |= rule.body_predicates()
        out = self.program.idb_predicates - used
        if self.carrier is not None:
            out -= {self.carrier}
        return frozenset(out)

    # ------------------------------------------------------------------
    # Duplicate / subsumed rules
    # ------------------------------------------------------------------

    @cached_property
    def duplicate_rules(self) -> List[Tuple[int, int]]:
        """Pairs ``(first, dup)`` of rule indices that are the same rule.

        Same head and same body *as a set* — literal order never matters
        to any semantics here, so the later occurrence is redundant.
        """
        seen: Dict[Tuple, int] = {}
        out = []
        for i, rule in enumerate(self.program.rules):
            key = (rule.head, frozenset(rule.body))
            if key in seen:
                out.append((seen[key], i))
            else:
                seen[key] = i
        return out

    @cached_property
    def subsumed_rules(self) -> List[Tuple[int, int]]:
        """Pairs ``(by, subsumed)``: rule ``by`` makes ``subsumed`` redundant.

        The syntactic case only: identical heads and ``body(by)`` a
        strict subset of ``body(subsumed)`` — every extra literal only
        restricts, so anything the longer rule derives the shorter one
        already derives (under every semantics in the repo, negation
        included).
        """
        rules = self.program.rules
        bodies = [frozenset(r.body) for r in rules]
        dup_pairs = set(self.duplicate_rules)
        out = []
        for j, longer in enumerate(rules):
            for i, shorter in enumerate(rules):
                if i == j or shorter.head != longer.head:
                    continue
                if bodies[i] < bodies[j] and (i, j) not in dup_pairs:
                    out.append((i, j))
                    break
        return out

    # ------------------------------------------------------------------
    # Column domain / type inference
    # ------------------------------------------------------------------

    @cached_property
    def column_domains(self) -> Dict[Tuple[str, int], str]:
        """Inferred value domain per ``(predicate, column)``.

        Constants seed their positions; variables carry domains from the
        body positions that bind them into head positions, iterated to
        fixpoint.  The domain alphabet is the kernel's: the PR 7
        ``SymbolTable`` families intern exactly ints and strings, so a
        column that mixes both (``MIXED``) forces value-space fallbacks
        and is worth a warning.  Positions never touched by a constant
        stay ``UNKNOWN``.

        EDB seeding from actual database contents is the caller's
        choice (see :func:`repro.analysis.checks.seed_edb_domains`) —
        the facts object itself stays database-independent.
        """
        domains: Dict[Tuple[str, int], str] = {}
        for pred, arity in self.program.arities.items():
            for col in range(arity):
                domains[(pred, col)] = UNKNOWN
        self._seed_constants(domains)
        self._propagate(domains)
        return domains

    def _seed_constants(self, domains: Dict[Tuple[str, int], str]) -> None:
        for rule in self.program.rules:
            atoms = [rule.head] + rule.positive_atoms() + [
                n.atom for n in rule.negated_atoms()
            ]
            for atom in atoms:
                for col, arg in enumerate(atom.args):
                    if isinstance(arg, Constant):
                        key = (atom.pred, col)
                        domains[key] = _join(domains[key], _const_kind(arg.value))

    def _propagate(
        self, domains: Dict[Tuple[str, int], str], seeds=None
    ) -> None:
        """Flow domains from body positions through variables into heads."""
        if seeds:
            for key, kind in seeds.items():
                if key in domains:
                    domains[key] = _join(domains[key], kind)
        changed = True
        while changed:
            changed = False
            for rule in self.program.rules:
                var_kind: Dict[Variable, str] = {}
                body_atoms = rule.positive_atoms() + [
                    n.atom for n in rule.negated_atoms()
                ]
                for atom in body_atoms:
                    for col, arg in enumerate(atom.args):
                        if isinstance(arg, Variable):
                            kind = domains[(atom.pred, col)]
                            var_kind[arg] = _join(var_kind.get(arg, UNKNOWN), kind)
                for cmp in rule.comparisons():
                    if not isinstance(cmp, Eq):
                        continue
                    left, right = cmp.left, cmp.right
                    if isinstance(left, Variable) and isinstance(right, Constant):
                        var_kind[left] = _join(
                            var_kind.get(left, UNKNOWN), _const_kind(right.value)
                        )
                    elif isinstance(right, Variable) and isinstance(left, Constant):
                        var_kind[right] = _join(
                            var_kind.get(right, UNKNOWN), _const_kind(left.value)
                        )
                for col, arg in enumerate(rule.head.args):
                    if isinstance(arg, Variable) and arg in var_kind:
                        key = (rule.head.pred, col)
                        joined = _join(domains[key], var_kind[arg])
                        if joined != domains[key]:
                            domains[key] = joined
                            changed = True

    def column_domains_with(
        self, seeds: Dict[Tuple[str, int], str]
    ) -> Dict[Tuple[str, int], str]:
        """Column domains re-propagated with extra (EDB) seeds joined in."""
        domains = dict(self.column_domains)
        self._propagate(domains, seeds=seeds)
        return domains

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def defining_rule(self, pred: str) -> Optional[Rule]:
        """The first rule whose head is ``pred``."""
        for rule in self.program.rules:
            if rule.head.pred == pred:
                return rule
        return None
