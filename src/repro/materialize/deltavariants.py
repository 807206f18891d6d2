"""Delta-rule construction: differentiating a rule w.r.t. one literal.

Incremental evaluation — view maintenance and the live grounding of a
well-founded view — differentiates each rule with respect to one
body-literal position at a time.  For a rule ``H :- L_0, ..., L_{k-1}``
and a position ``i``, the *delta variant* reads

* the post-change value of every literal before ``i``,
* the change set (of the appropriate sign) at ``i``, and
* the pre-change value of every literal after ``i``,

which is the telescoping decomposition of ``body(new) - body(old)``:
summed over ``i``, the variants enumerate exactly the derivations gained
(and, with the opposite sign, lost) by the change — each gained/lost
derivation is counted once, at the first position where its literals
differ between the two states.  Negated literals differentiate through
the complement: ``!P`` *gains* instances where ``P`` lost tuples and
loses instances where ``P`` gained them (:func:`change_atom`).  That
is exact for *signed counts*; a set-semantics maintainer (DRed) reads a
:func:`flip_variant` instead, every other literal under one state.

All variants are ordinary rules over alias predicate names
(``P@old``, ``P@new``, ``P@ins``, ``P@del`` — ``@`` cannot appear in a
parsed program, so aliases can never collide with user predicates), so
they compile through the ordinary planner and run on the columnar executor;
the change-set aliases are declared *small* so plans join through the
delta first.  A consumer compiles its fixed family of variants once,
with :func:`~repro.core.planning.compile_rule`, and holds the plans.

:class:`AliasSet` is the one implementation of the alias protocol the
variants are read under: the ``@old``/``@new`` relations persist across
updates and *evolve*, so their cached codes are patched, never rebuilt.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..core.literals import Atom, Negation
from ..core.rules import Rule
from ..db.database import Database
from ..db.relation import Relation

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


def aliased(literal, suffix: str, keep: AbstractSet[str] = frozenset()):
    """The literal reading its predicate under an alias suffix.

    Predicates in ``keep`` keep their plain names; comparisons carry no
    predicate.
    """
    atom = literal.atom if isinstance(literal, Negation) else literal
    if not isinstance(atom, Atom) or atom.pred in keep:
        return literal
    renamed = Atom(atom.pred + suffix, atom.args)
    return renamed if atom is literal else Negation(renamed)


def change_atom(literal, gained: bool) -> Atom:
    """The change set a differentiated literal reads, as a positive atom.

    A positive ``P(args)`` gains instances where ``P`` gained tuples
    (``P@ins``) and loses them where it lost some (``P@del``); a
    negated ``!P(args)`` the other way round.
    """
    if isinstance(literal, Negation):
        literal, gained = literal.atom, not gained
    return Atom(literal.pred + (INS if gained else DEL), literal.args)


def delta_variant(rule: Rule, position: int, gained: bool) -> Rule:
    """The delta variant of ``rule`` differentiating ``position``.

    ``gained=True`` builds the variant enumerating derivations the
    change *adds* (position reads :func:`change_atom`); ``gained=False``
    the derivations it *removes*.  Positions before ``position`` read
    ``@new`` values, positions after read ``@old``.
    """
    body: List = []
    for j, lit in enumerate(rule.body):
        if j == position:
            body.append(change_atom(lit, gained))
        else:
            body.append(aliased(lit, NEW if j < position else OLD))
    return Rule(rule.head, body)


def flip_variant(
    rule: Rule, position: int, gained: bool, keep: AbstractSet[str]
) -> Rule:
    """``rule`` with ``position`` reading its change set, the rest one state.

    Every other literal over a predicate outside ``keep`` reads ``@new``
    for a gaining flip and ``@old`` for a killing one, so each instance
    is a derivation of that state (see the module docstring).
    """
    suffix = NEW if gained else OLD
    body = [
        change_atom(lit, gained) if j == position else aliased(lit, suffix, keep)
        for j, lit in enumerate(rule.body)
    ]
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


class AliasSet:
    """The alias relations one maintainer reads its inputs under.

    ``values`` are the inputs' current relations; each gets a ``P@old``
    and a ``P@new`` alias, or only those named in ``read`` when given.
    An update runs the protocol in order: :meth:`stage` every changed
    input (``P@new`` evolves, ``P@ins``/``P@del`` are staged), read the
    :meth:`working` relations (or :meth:`derive` them into an
    interpretation), then :meth:`catch_up` — ``P@old`` takes the same
    changes, so the next update's pre-change state is this one's
    post-change state.  A predicate outside ``values`` (a head-only one)
    has no aliases and stages nothing.
    """

    __slots__ = ("arity", "relations", "_staged")

    def __init__(
        self, values: Iterable[Relation], read: Optional[AbstractSet[str]] = None
    ) -> None:
        self.arity: Dict[str, int] = {}
        self.relations: Dict[str, Relation] = {}
        for rel in values:
            self.arity[rel.name] = rel.arity
            for alias in (old_name(rel.name), new_name(rel.name)):
                if read is None or alias in read:
                    self.relations[alias] = rel.with_name(alias)
        self._staged: Dict[str, Tuple[Relation, Relation]] = {}

    def __contains__(self, name: str) -> bool:
        return name in self.arity

    def stage(self, name: str, ins, dels) -> None:
        """Evolve ``name@new`` by one change; stage ``name@ins``/``name@del``.

        ``ins``/``dels`` are relations or tuple frozensets; a name
        without aliases is ignored.
        """
        arity = self.arity.get(name)
        if arity is None:
            return
        if not isinstance(ins, Relation):
            ins = Relation._from_frozenset(name, arity, ins)
            dels = Relation._from_frozenset(name, arity, dels)
        alias = new_name(name)
        if alias in self.relations:
            self.relations[alias] = self.relations[alias].evolve(ins, dels)
        self._staged[name] = (ins.with_name(ins_name(name)), dels.with_name(del_name(name)))

    def working(self) -> Dict[str, Relation]:
        """The aliases and the staged change sets, by name."""
        out = dict(self.relations)
        for ins, dels in self._staged.values():
            out[ins.name] = ins
            out[dels.name] = dels
        return out

    def derive(self, db: Database) -> Database:
        """:meth:`working` as an interpretation derived from ``db``."""
        return db.derive(self.working().values())

    def catch_up(self) -> None:
        """Evolve every ``P@old`` by its staged change; drop the stage."""
        relations = self.relations
        for name, (ins, dels) in self._staged.items():
            alias = old_name(name)
            if alias in relations:
                relations[alias] = relations[alias].evolve(ins, dels)
        self._staged = {}
