"""Brute-force enumeration of *all* fixpoints of ``(pi, D)``.

Any fixpoint satisfies ``S = Theta(S) subseteq derivable`` where
``derivable`` is the set of ground IDB atoms heading at least one ground
rule instance — Theta can never produce anything else.  Enumerating the
``2^|derivable|`` subsets is therefore complete.  This is intentionally the
dumb-but-trustworthy engine: the SAT-backed analysis in
:mod:`repro.core.satreduction` is cross-checked against it on small inputs.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, List, Optional, Set

from ...db.database import Database
from ..grounding import GroundAtom, GroundProgram, ground_program, to_idb_map
from ..operator import IDBMap
from ..program import Program


class EnumerationLimitError(RuntimeError):
    """The candidate space is too large for exhaustive enumeration."""


def iterate_fixpoints(
    program: Program,
    db: Database,
    limit_atoms: int = 20,
    ground: Optional[GroundProgram] = None,
) -> Iterator[Set[GroundAtom]]:
    """Yield every fixpoint of ``(program, db)`` as a ground-atom set.

    Parameters
    ----------
    limit_atoms:
        Refuse to enumerate more than ``2**limit_atoms`` candidates.
    ground:
        Optional pre-computed grounding.

    Raises
    ------
    EnumerationLimitError
        When ``|derivable| > limit_atoms``.
    """
    gp = ground if ground is not None else ground_program(program, db)
    derivable = sorted(gp.derivable)
    if len(derivable) > limit_atoms:
        raise EnumerationLimitError(
            "%d derivable atoms exceed the exhaustive limit of %d; "
            "use repro.core.satreduction for larger instances"
            % (len(derivable), limit_atoms)
        )
    for size in range(len(derivable) + 1):
        for chosen in combinations(derivable, size):
            candidate = set(chosen)
            if gp.is_fixpoint(candidate):
                yield candidate


def all_fixpoints(
    program: Program,
    db: Database,
    limit_atoms: int = 20,
    ground: Optional[GroundProgram] = None,
) -> List[IDBMap]:
    """All fixpoints as ``{pred: Relation}`` valuations (smallest first)."""
    gp = ground if ground is not None else ground_program(program, db)
    return [
        to_idb_map(gp.program, atoms)
        for atoms in iterate_fixpoints(program, db, limit_atoms, gp)
    ]


def count_fixpoints(
    program: Program,
    db: Database,
    limit_atoms: int = 20,
    ground: Optional[GroundProgram] = None,
) -> int:
    """The number of fixpoints of ``(program, db)``."""
    return sum(1 for _ in iterate_fixpoints(program, db, limit_atoms, ground))
