"""First-order logic over finite databases, plus the IFP operator.

The paper leans on logic throughout: the operator Theta is *"definable
using existential first-order formulas"* (Section 2); Theorem 1 goes
through Fagin's theorem and Skolem normal form for existential second-order
formulas; Section 4 relates Inflationary DATALOG to FO + IFP.  This module
supplies the formula AST, model checking on :class:`~repro.db.Database`
values, and the classical transformations (NNF, prenex, DNF) that the
Skolemizer and the Proposition 1 translations build on.

Formulas are immutable; variables and constants are the same
:mod:`repro.core.terms` values used by programs, so conversions between
rules and formulas are direct.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..core.terms import Constant, Term, Variable, term
from ..db.database import Database

Binding = Dict[Variable, Any]


# ----------------------------------------------------------------------
# AST
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AtomF:
    """An atomic formula ``pred(args)``."""

    pred: str
    args: Tuple[Term, ...]

    def __init__(self, pred: str, args: Sequence[Any]) -> None:
        object.__setattr__(self, "pred", pred)
        object.__setattr__(self, "args", tuple(term(a) for a in args))

    def __str__(self) -> str:
        return "%s(%s)" % (self.pred, ", ".join(str(a) for a in self.args))


@dataclass(frozen=True)
class EqF:
    """An equality ``left = right`` between terms."""

    left: Term
    right: Term

    def __init__(self, left: Any, right: Any) -> None:
        object.__setattr__(self, "left", term(left))
        object.__setattr__(self, "right", term(right))

    def __str__(self) -> str:
        return "%s = %s" % (self.left, self.right)


@dataclass(frozen=True)
class Top:
    """The true constant."""

    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class Bottom:
    """The false constant."""

    def __str__(self) -> str:
        return "false"


@dataclass(frozen=True)
class Not:
    """Negation."""

    sub: "Formula"

    def __str__(self) -> str:
        return "!(%s)" % (self.sub,)


@dataclass(frozen=True)
class And:
    """N-ary conjunction."""

    subs: Tuple["Formula", ...]

    def __init__(self, subs: Sequence["Formula"]) -> None:
        object.__setattr__(self, "subs", tuple(subs))

    def __str__(self) -> str:
        return "(%s)" % " & ".join(str(s) for s in self.subs)


@dataclass(frozen=True)
class Or:
    """N-ary disjunction."""

    subs: Tuple["Formula", ...]

    def __init__(self, subs: Sequence["Formula"]) -> None:
        object.__setattr__(self, "subs", tuple(subs))

    def __str__(self) -> str:
        return "(%s)" % " | ".join(str(s) for s in self.subs)


@dataclass(frozen=True)
class Exists:
    """Existential quantification over one variable."""

    var: Variable
    sub: "Formula"

    def __str__(self) -> str:
        return "exists %s. %s" % (self.var, self.sub)


@dataclass(frozen=True)
class ForAll:
    """Universal quantification over one variable."""

    var: Variable
    sub: "Formula"

    def __str__(self) -> str:
        return "forall %s. %s" % (self.var, self.sub)


@dataclass(frozen=True)
class IFP:
    """The inductive-fixpoint operator ``[IFP_{pred, vars} formula](args)``.

    Gurevich–Shelah [GS86] / Section 4 of the paper: iterate

        S_0 = empty,   S_{k+1} = S_k  union  {a : formula(a, S_k)}

    to its (inflationary) fixpoint and test ``args`` for membership.  The
    bound predicate ``pred`` may occur in ``formula`` with any polarity —
    that is the whole point of *inflationary* (as opposed to least)
    fixpoints.
    """

    pred: str
    vars: Tuple[Variable, ...]
    formula: "Formula"
    args: Tuple[Term, ...]

    def __init__(
        self,
        pred: str,
        vars: Sequence[Variable],
        formula: "Formula",
        args: Sequence[Any],
    ) -> None:
        object.__setattr__(self, "pred", pred)
        object.__setattr__(self, "vars", tuple(vars))
        object.__setattr__(self, "formula", formula)
        object.__setattr__(self, "args", tuple(term(a) for a in args))
        if len(self.vars) != len(self.args):
            raise ValueError(
                "IFP binds %d variables but is applied to %d terms"
                % (len(self.vars), len(self.args))
            )

    def __str__(self) -> str:
        return "[IFP_{%s,%s} %s](%s)" % (
            self.pred,
            ",".join(str(v) for v in self.vars),
            self.formula,
            ", ".join(str(a) for a in self.args),
        )


Formula = Union[AtomF, EqF, Top, Bottom, Not, And, Or, Exists, ForAll, IFP]


# ----------------------------------------------------------------------
# Convenience constructors
# ----------------------------------------------------------------------


def and_(*subs: Formula) -> Formula:
    """Flattening conjunction; empty -> Top, singleton -> itself."""
    flat: List[Formula] = []
    for s in subs:
        if isinstance(s, And):
            flat.extend(s.subs)
        elif isinstance(s, Top):
            continue
        else:
            flat.append(s)
    if not flat:
        return Top()
    if len(flat) == 1:
        return flat[0]
    return And(flat)


def or_(*subs: Formula) -> Formula:
    """Flattening disjunction; empty -> Bottom, singleton -> itself."""
    flat: List[Formula] = []
    for s in subs:
        if isinstance(s, Or):
            flat.extend(s.subs)
        elif isinstance(s, Bottom):
            continue
        else:
            flat.append(s)
    if not flat:
        return Bottom()
    if len(flat) == 1:
        return flat[0]
    return Or(flat)


def implies(antecedent: Formula, consequent: Formula) -> Formula:
    """``antecedent -> consequent``."""
    return or_(Not(antecedent), consequent)


def iff(left: Formula, right: Formula) -> Formula:
    """``left <-> right``."""
    return and_(implies(left, right), implies(right, left))


def exists_all(vars: Sequence[Variable], sub: Formula) -> Formula:
    """Nest ``Exists`` over several variables (first var outermost)."""
    out = sub
    for v in reversed(list(vars)):
        out = Exists(v, out)
    return out


def forall_all(vars: Sequence[Variable], sub: Formula) -> Formula:
    """Nest ``ForAll`` over several variables (first var outermost)."""
    out = sub
    for v in reversed(list(vars)):
        out = ForAll(v, out)
    return out


# ----------------------------------------------------------------------
# Inspection
# ----------------------------------------------------------------------


def free_variables(formula: Formula) -> FrozenSet[Variable]:
    """The free variables of a formula."""
    if isinstance(formula, AtomF):
        return frozenset(a for a in formula.args if isinstance(a, Variable))
    if isinstance(formula, EqF):
        return frozenset(
            t for t in (formula.left, formula.right) if isinstance(t, Variable)
        )
    if isinstance(formula, (Top, Bottom)):
        return frozenset()
    if isinstance(formula, Not):
        return free_variables(formula.sub)
    if isinstance(formula, (And, Or)):
        out: Set[Variable] = set()
        for s in formula.subs:
            out |= free_variables(s)
        return frozenset(out)
    if isinstance(formula, (Exists, ForAll)):
        return free_variables(formula.sub) - {formula.var}
    if isinstance(formula, IFP):
        inner = free_variables(formula.formula) - set(formula.vars)
        outer = frozenset(a for a in formula.args if isinstance(a, Variable))
        return inner | outer
    raise TypeError("not a formula: %r" % (formula,))


def predicates_of(formula: Formula) -> FrozenSet[str]:
    """Every predicate symbol occurring in the formula."""
    if isinstance(formula, AtomF):
        return frozenset((formula.pred,))
    if isinstance(formula, (EqF, Top, Bottom)):
        return frozenset()
    if isinstance(formula, Not):
        return predicates_of(formula.sub)
    if isinstance(formula, (And, Or)):
        out: Set[str] = set()
        for s in formula.subs:
            out |= predicates_of(s)
        return frozenset(out)
    if isinstance(formula, (Exists, ForAll)):
        return predicates_of(formula.sub)
    if isinstance(formula, IFP):
        return predicates_of(formula.formula) | {formula.pred}
    raise TypeError("not a formula: %r" % (formula,))


# ----------------------------------------------------------------------
# Evaluation (finite model checking)
# ----------------------------------------------------------------------


def evaluate(formula: Formula, db: Database, binding: Optional[Binding] = None) -> bool:
    """Model checking: does ``db, binding |= formula``?

    Quantifiers range over ``db.universe``.  All free variables must be
    bound.  IFP subformulas are evaluated by inflationary iteration (the
    relation computed for ``pred`` shadows any same-named relation for the
    duration of the subformula).
    """
    env = binding or {}

    def value(t: Term) -> Any:
        if isinstance(t, Constant):
            return t.value
        try:
            return env[t]
        except KeyError:
            raise ValueError("unbound variable %s" % t) from None

    if isinstance(formula, Top):
        return True
    if isinstance(formula, Bottom):
        return False
    if isinstance(formula, AtomF):
        rel = db.get(formula.pred)
        if rel is None:
            return False
        return tuple(value(a) for a in formula.args) in rel
    if isinstance(formula, EqF):
        return value(formula.left) == value(formula.right)
    if isinstance(formula, Not):
        return not evaluate(formula.sub, db, env)
    if isinstance(formula, And):
        return all(evaluate(s, db, env) for s in formula.subs)
    if isinstance(formula, Or):
        return any(evaluate(s, db, env) for s in formula.subs)
    if isinstance(formula, Exists):
        for element in db.universe:
            extended = dict(env)
            extended[formula.var] = element
            if evaluate(formula.sub, db, extended):
                return True
        return False
    if isinstance(formula, ForAll):
        for element in db.universe:
            extended = dict(env)
            extended[formula.var] = element
            if not evaluate(formula.sub, db, extended):
                return False
        return True
    if isinstance(formula, IFP):
        closed = ifp_relation(formula, db, env)
        return tuple(value(a) for a in formula.args) in closed
    raise TypeError("not a formula: %r" % (formula,))


def ifp_relation(node: IFP, db: Database, binding: Optional[Binding] = None) -> FrozenSet[Tuple]:
    """The inductive fixpoint relation computed by an IFP node.

    Iterates ``S := S union {a : formula(a, S)}`` to stability (the
    one-definition case of :func:`induction`); the result depends on the
    outer ``binding`` for any free variables of the body beyond the bound
    tuple.
    """
    stages, _ = induction(db, {node.pred: (node.vars, node.formula)}, binding)
    return stages[node.pred]


def induction(
    db: Database,
    definitions: Dict[str, Tuple[Sequence[Variable], Formula]],
    binding: Optional[Binding] = None,
    max_rounds: Optional[int] = None,
) -> Tuple[Dict[str, FrozenSet[Tuple]], int]:
    """Simultaneous induction ``S_i := S_i u {a : phi_i(a, S)}`` over ``universe^k``.

    ``definitions`` maps each inductively defined predicate to its bound
    variable tuple and body formula; every body reads every defined
    predicate's previous stage.  Returns the stabilised tuple sets and
    the number of rounds that added tuples.  More than ``max_rounds``
    such rounds raise ``AssertionError``.
    """
    from ..db.relation import Relation

    env = binding or {}
    universe = sorted(db.universe, key=repr)
    arities = {name: len(vars) for name, (vars, _) in definitions.items()}
    current: Dict[str, Set[Tuple]] = {name: set() for name in definitions}
    rounds = 0
    while True:
        if max_rounds is not None and rounds >= max_rounds:
            raise AssertionError("simultaneous IFP exceeded its theoretical bound")
        shadow = db.with_relations(
            Relation(name, arities[name], tuples) for name, tuples in current.items()
        )
        new = {
            name: [
                values
                for values in product(universe, repeat=arities[name])
                if values not in current[name]
                and evaluate(body, shadow, {**env, **dict(zip(vars, values))})
            ]
            for name, (vars, body) in definitions.items()
        }
        if not any(new.values()):
            return {name: frozenset(tuples) for name, tuples in current.items()}, rounds
        rounds += 1
        for name, gained in new.items():
            current[name].update(gained)


def query(
    formula: Formula, db: Database, free_order: Sequence[Variable]
) -> FrozenSet[Tuple]:
    """All tuples over the universe satisfying a formula with free variables.

    ``free_order`` fixes the output column order and must cover every free
    variable of the formula.
    """
    missing = free_variables(formula) - set(free_order)
    if missing:
        raise ValueError(
            "free variables %s not covered by free_order"
            % sorted(v.name for v in missing)
        )
    universe = sorted(db.universe, key=repr)
    out: Set[Tuple] = set()
    for values in product(universe, repeat=len(free_order)):
        binding = dict(zip(free_order, values))
        if evaluate(formula, db, binding):
            out.add(values)
    return frozenset(out)


# ----------------------------------------------------------------------
# Normal forms
# ----------------------------------------------------------------------


def to_nnf(formula: Formula) -> Formula:
    """Negation normal form (negations pushed to atoms/equalities).

    IFP nodes are treated as atomic (negation stays in front of them).
    """
    def push(f: Formula, negated: bool) -> Formula:
        if isinstance(f, (AtomF, EqF, IFP)):
            return Not(f) if negated else f
        if isinstance(f, Top):
            return Bottom() if negated else f
        if isinstance(f, Bottom):
            return Top() if negated else f
        if isinstance(f, Not):
            return push(f.sub, not negated)
        if isinstance(f, And):
            subs = [push(s, negated) for s in f.subs]
            return or_(*subs) if negated else and_(*subs)
        if isinstance(f, Or):
            subs = [push(s, negated) for s in f.subs]
            return and_(*subs) if negated else or_(*subs)
        if isinstance(f, Exists):
            inner = push(f.sub, negated)
            return ForAll(f.var, inner) if negated else Exists(f.var, inner)
        if isinstance(f, ForAll):
            inner = push(f.sub, negated)
            return Exists(f.var, inner) if negated else ForAll(f.var, inner)
        raise TypeError("not a formula: %r" % (f,))

    return push(formula, False)


def substitute_term(formula: Formula, mapping: Dict[Variable, Term]) -> Formula:
    """Capture-naive substitution of terms for free variables.

    Callers must ensure bound variables do not clash with the mapping
    (use :func:`rename_apart` first).
    """
    def sub_term(t: Term) -> Term:
        return mapping.get(t, t) if isinstance(t, Variable) else t

    if isinstance(formula, AtomF):
        return AtomF(formula.pred, [sub_term(a) for a in formula.args])
    if isinstance(formula, EqF):
        return EqF(sub_term(formula.left), sub_term(formula.right))
    if isinstance(formula, (Top, Bottom)):
        return formula
    if isinstance(formula, Not):
        return Not(substitute_term(formula.sub, mapping))
    if isinstance(formula, And):
        return And([substitute_term(s, mapping) for s in formula.subs])
    if isinstance(formula, Or):
        return Or([substitute_term(s, mapping) for s in formula.subs])
    if isinstance(formula, (Exists, ForAll)):
        inner_map = {k: v for k, v in mapping.items() if k != formula.var}
        cls = Exists if isinstance(formula, Exists) else ForAll
        return cls(formula.var, substitute_term(formula.sub, inner_map))
    if isinstance(formula, IFP):
        inner_map = {k: v for k, v in mapping.items() if k not in formula.vars}
        return IFP(
            formula.pred,
            formula.vars,
            substitute_term(formula.formula, inner_map),
            [sub_term(a) for a in formula.args],
        )
    raise TypeError("not a formula: %r" % (formula,))


class FreshVars:
    """A generator of globally fresh variables with a common prefix."""

    def __init__(self, prefix: str = "_v") -> None:
        self._prefix = prefix
        self._count = 0

    def next(self) -> Variable:
        """A brand-new variable."""
        self._count += 1
        return Variable("%s%d" % (self._prefix, self._count))


def rename_apart(formula: Formula, fresh: Optional[FreshVars] = None) -> Formula:
    """Rename every bound variable to a fresh name (no shadowing left)."""
    fresh = fresh or FreshVars()

    def walk(f: Formula, renaming: Dict[Variable, Variable]) -> Formula:
        if isinstance(f, AtomF):
            return AtomF(
                f.pred,
                [renaming.get(a, a) if isinstance(a, Variable) else a for a in f.args],
            )
        if isinstance(f, EqF):
            def r(t: Term) -> Term:
                return renaming.get(t, t) if isinstance(t, Variable) else t

            return EqF(r(f.left), r(f.right))
        if isinstance(f, (Top, Bottom)):
            return f
        if isinstance(f, Not):
            return Not(walk(f.sub, renaming))
        if isinstance(f, And):
            return And([walk(s, renaming) for s in f.subs])
        if isinstance(f, Or):
            return Or([walk(s, renaming) for s in f.subs])
        if isinstance(f, (Exists, ForAll)):
            new_var = fresh.next()
            extended = dict(renaming)
            extended[f.var] = new_var
            cls = Exists if isinstance(f, Exists) else ForAll
            return cls(new_var, walk(f.sub, extended))
        if isinstance(f, IFP):
            new_vars = [fresh.next() for _ in f.vars]
            extended = dict(renaming)
            extended.update(zip(f.vars, new_vars))
            return IFP(
                f.pred,
                new_vars,
                walk(f.formula, extended),
                [renaming.get(a, a) if isinstance(a, Variable) else a for a in f.args],
            )
        raise TypeError("not a formula: %r" % (f,))

    return walk(formula, {})


def to_prenex(formula: Formula) -> Tuple[List[Tuple[str, Variable]], Formula]:
    """Prenex form of an IFP-free formula.

    Returns ``(prefix, matrix)`` where ``prefix`` is a list of
    ``("forall" | "exists", variable)`` pairs, outermost first, and
    ``matrix`` is quantifier-free.  The input is first normalised (NNF,
    bound variables renamed apart).
    """
    normal = rename_apart(to_nnf(formula))

    def pull(f: Formula) -> Tuple[List[Tuple[str, Variable]], Formula]:
        if isinstance(f, (AtomF, EqF, Top, Bottom)):
            return [], f
        if isinstance(f, Not):
            # NNF: negation only sits on atoms.
            return [], f
        if isinstance(f, Exists):
            prefix, matrix = pull(f.sub)
            return [("exists", f.var)] + prefix, matrix
        if isinstance(f, ForAll):
            prefix, matrix = pull(f.sub)
            return [("forall", f.var)] + prefix, matrix
        if isinstance(f, (And, Or)):
            prefix: List[Tuple[str, Variable]] = []
            matrices: List[Formula] = []
            for s in f.subs:
                p, m = pull(s)
                prefix.extend(p)
                matrices.append(m)
            joined = and_(*matrices) if isinstance(f, And) else or_(*matrices)
            return prefix, joined
        if isinstance(f, IFP):
            raise TypeError("prenex form is not defined for IFP formulas")
        raise TypeError("not a formula: %r" % (f,))

    return pull(normal)


Lit = Tuple[bool, Union[AtomF, EqF]]
"""A DNF literal: ``(is_positive, atom-or-equality)``."""


def matrix_to_dnf(matrix: Formula) -> List[List[Lit]]:
    """DNF of a quantifier-free NNF matrix, as lists of literals.

    Disjuncts containing complementary literals are dropped; an empty
    result means the matrix is unsatisfiable, a result containing an empty
    disjunct means it is valid on that branch.
    """
    def walk(f: Formula) -> List[List[Lit]]:
        if isinstance(f, (AtomF, EqF)):
            return [[(True, f)]]
        if isinstance(f, Not):
            if not isinstance(f.sub, (AtomF, EqF)):
                raise TypeError("matrix is not in NNF: %r" % (f,))
            return [[(False, f.sub)]]
        if isinstance(f, Top):
            return [[]]
        if isinstance(f, Bottom):
            return []
        if isinstance(f, Or):
            out: List[List[Lit]] = []
            for s in f.subs:
                out.extend(walk(s))
            return out
        if isinstance(f, And):
            parts = [walk(s) for s in f.subs]
            out = [[]]
            for p in parts:
                out = [a + b for a in out for b in p]
            return out
        raise TypeError("unexpected connective in matrix: %r" % (f,))

    dnf = []
    for disjunct in walk(matrix):
        seen = set()
        contradictory = False
        deduped: List[Lit] = []
        for sign, atom in disjunct:
            key = (sign, atom)
            if (not sign, atom) in seen:
                contradictory = True
                break
            if key not in seen:
                seen.add(key)
                deduped.append(key)
        if not contradictory:
            dnf.append(deduped)
    return dnf
