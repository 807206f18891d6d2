"""FO + IFP utilities: simultaneous induction and query evaluation.

Section 4: *"Gurevich and Shelah studied the expressive power of the logic
FO + IFP (first-order + inductive fixpoint) on finite structures"*; the
paper's Proposition 1 identifies Inflationary DATALOG with the existential
fragment of FO + IFP.  Single IFP applications live in
:class:`repro.logic.fo.IFP`; this module adds the *simultaneous* induction
needed for programs with several nondatabase relations ("the inflationary
semantics is defined in a similar way by simultaneous induction in the
defining equations").  Both run the one loop,
:func:`repro.logic.fo.induction`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..core.terms import Variable
from ..db.database import Database
from ..db.relation import Relation
from .fo import Binding, Formula, induction


def simultaneous_ifp(
    db: Database,
    definitions: Dict[str, Tuple[Sequence[Variable], Formula]],
    binding: Optional[Binding] = None,
    max_rounds: Optional[int] = None,
) -> Dict[str, Relation]:
    """Inductive fixpoint of a system ``S_i := S_i u {a : phi_i(a, S)}``.

    ``definitions`` maps each inductively defined predicate to its bound
    variable tuple and body formula; bodies may mention every defined
    predicate with any polarity.  Returns the stabilised relations.
    Without ``max_rounds`` the induction is held to its theoretical bound,
    one round per tuple it could add.
    """
    if max_rounds is None:
        size = len(db.universe)
        max_rounds = sum(size ** len(vars) for vars, _ in definitions.values()) + 1
    stages, _ = induction(db, definitions, binding, max_rounds)
    return {
        name: Relation(name, len(definitions[name][0]), tuples) for name, tuples in stages.items()
    }


def ifp_stage_count(
    db: Database,
    definitions: Dict[str, Tuple[Sequence[Variable], Formula]],
) -> int:
    """Number of rounds until the simultaneous induction stabilises."""
    return induction(db, definitions)[1]
