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

A variant reads a post-change value under the predicate's own name and
the other values under alias predicate names (``P@old``, ``P@ins``,
``P@del`` — ``@`` cannot appear in a parsed program, so aliases can
never collide with user predicates), so variants compile through the
ordinary planner and run on the columnar executor; the change-set
aliases are declared *small* so plans join through the delta first.  A
consumer compiles its fixed family of variants once, with
:func:`~repro.core.planning.compile_rule`, and holds the plans.

:class:`AliasSet` is the one implementation of the alias protocol the
variants are read under.  An alias *names* a value an update has
already computed — the database's relation after
:meth:`~repro.db.database.Database.apply_delta`, DRed's final stage, a
counted predicate's evolved relation — and is never a copy that evolves
beside it: ``P@old`` is the last update's value renamed, and renaming
shares the code payload and its cached join indexes.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Tuple

from ..core.literals import Atom, Negation
from ..core.rules import Rule
from ..db.database import UNIVERSE, Database
from ..db.relation import Relation

OLD = "@old"
INS = "@ins"
DEL = "@del"


def old_name(pred: str) -> str:
    """Alias of ``pred``'s pre-change value."""
    return pred + OLD


def ins_name(pred: str) -> str:
    """Alias of ``pred``'s effective insertions."""
    return pred + INS


def del_name(pred: str) -> str:
    """Alias of ``pred``'s effective deletions."""
    return pred + DEL


def read_old(literal, keep: AbstractSet[str] = frozenset()):
    """The literal reading its predicate's pre-change value ``P@old``.

    Predicates in ``keep`` keep their plain names; comparisons carry no
    predicate.
    """
    atom = literal.atom if isinstance(literal, Negation) else literal
    if not isinstance(atom, Atom) or atom.pred in keep:
        return literal
    renamed = Atom(old_name(atom.pred), atom.args)
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
    post-change values under their own names, positions after read
    ``@old``.
    """
    body: List = []
    for j, lit in enumerate(rule.body):
        if j == position:
            body.append(change_atom(lit, gained))
        else:
            body.append(lit if j < position else read_old(lit))
    return Rule(rule.head, body)


def flip_variant(
    rule: Rule, position: int, gained: bool, keep: AbstractSet[str]
) -> Rule:
    """``rule`` with ``position`` reading its change set, the rest one state.

    Every other literal reads its post-change value (its own name) for a
    gaining flip; for a killing one, a literal over a predicate outside
    ``keep`` reads ``@old``.  Each instance is thus a derivation of one
    state (see the module docstring).
    """
    body = [
        change_atom(lit, gained) if j == position else lit if gained else read_old(lit, keep)
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
    """The relations one maintainer reads its inputs under.

    ``values`` are the inputs' current relations; :attr:`relations`
    holds each input's current value under its plain name, and each also
    has its pre-change value ``P@old``.  An update runs the protocol in
    order: :meth:`stage` every changed input with the post-change value
    the caller already computed (``P@ins``/``P@del`` are staged beside
    it), read the :meth:`working` relations (or :meth:`derive` them into
    an interpretation), then :meth:`catch_up` — ``P@old`` is renamed to
    the current value, so the next update's pre-change state is this
    one's post-change state.  No step evolves a relation.  A predicate
    outside ``values`` (a head-only one) has no aliases.
    """

    __slots__ = ("relations", "_old", "_staged")

    def __init__(self, values: Iterable[Relation]) -> None:
        self.relations: Dict[str, Relation] = {rel.name: rel for rel in values}
        self._old = {old_name(n): rel.with_name(old_name(n)) for n, rel in self.relations.items()}
        self._staged: Dict[str, Tuple[Relation, Relation]] = {}

    def __contains__(self, name: str) -> bool:
        return name in self.relations

    def stage(self, name: str, ins, dels, value: Relation) -> None:
        """Take ``value`` as ``name``'s current value; stage its change.

        ``name`` is one of the inputs; ``ins``/``dels`` are relations or
        tuple frozensets, the change from the pre-change value to
        ``value``.
        """
        if not isinstance(ins, Relation):
            ins = Relation._from_frozenset(name, value.arity, ins)
            dels = Relation._from_frozenset(name, value.arity, dels)
        self.relations[name] = value
        self._staged[name] = (ins.with_name(ins_name(name)), dels.with_name(del_name(name)))

    def working(self) -> Dict[str, Relation]:
        """Current values, ``@old`` aliases and staged change sets, by name.

        The universe's current value is left out: an interpretation
        resolves ``@U`` through the universe it is derived over.
        """
        out = {n: rel for n, rel in self.relations.items() if n != UNIVERSE}
        out.update(self._old)
        for ins, dels in self._staged.values():
            out[ins.name] = ins
            out[dels.name] = dels
        return out

    def derive(self, db: Database) -> Database:
        """:meth:`working` as an interpretation derived from ``db``."""
        return db.derive(self.working().values())

    def catch_up(self) -> None:
        """Rename every staged input's current value to ``P@old``; drop the stage."""
        for name in self._staged:
            self._old[old_name(name)] = self.relations[name].with_name(old_name(name))
        self._staged = {}
