"""Brute-force enumeration of *all* fixpoints of ``(pi, D)``.

Any fixpoint satisfies ``S = Theta(S) subseteq derivable`` where
``derivable`` is the set of ground IDB atoms heading at least one ground
rule instance — Theta can never produce anything else.  Enumerating the
``2^|derivable|`` subsets is therefore complete.  The walk runs over
derivable atom ids of the ground index, tests each subset with
:meth:`~repro.core.grounding.GroundProgramIndex.is_fixpoint`, and decodes
only the fixpoints it yields.  This is intentionally the
dumb-but-trustworthy engine: the SAT-backed analysis in
:mod:`repro.core.satreduction` is cross-checked against it on small inputs.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, List, Optional

import numpy as np

from ...db.database import Database
from ..grounding import GroundProgram, ground_program
from ..operator import IDBMap
from ..program import Program


class EnumerationLimitError(RuntimeError):
    """The candidate space is too large for exhaustive enumeration."""


def iterate_fixpoints(
    program: Program,
    db: Database,
    limit_atoms: int = 20,
    ground: Optional[GroundProgram] = None,
) -> Iterator[IDBMap]:
    """Yield every fixpoint of ``(program, db)`` as a ``{pred: Relation}``
    valuation, smallest first.

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
    index = (ground if ground is not None else ground_program(program, db)).index
    derivable = [a for a, rules in enumerate(index.by_head) if rules]
    if len(derivable) > limit_atoms:
        raise EnumerationLimitError(
            "%d derivable atoms exceed the exhaustive limit of %d; "
            "use repro.core.satreduction for larger instances"
            % (len(derivable), limit_atoms)
        )
    for size in range(len(derivable) + 1):
        for chosen in combinations(derivable, size):
            flags = np.zeros(len(index.by_head), dtype=bool)
            flags[list(chosen)] = True
            if index.is_fixpoint(flags):
                yield index.codes.valuation(program, flags)


def all_fixpoints(
    program: Program,
    db: Database,
    limit_atoms: int = 20,
    ground: Optional[GroundProgram] = None,
) -> List[IDBMap]:
    """All fixpoints as ``{pred: Relation}`` valuations (smallest first)."""
    return list(iterate_fixpoints(program, db, limit_atoms, ground))


def count_fixpoints(
    program: Program,
    db: Database,
    limit_atoms: int = 20,
    ground: Optional[GroundProgram] = None,
) -> int:
    """The number of fixpoints of ``(program, db)``."""
    return sum(1 for _ in iterate_fixpoints(program, db, limit_atoms, ground))
