"""Well-founded views: one live ``(true, possible)`` pair under EDB deltas.

The program is grounded **once** and patched per update
(:class:`~repro.core.grounding.LiveGroundProgram`, which keeps its
:class:`~repro.core.grounding.GroundProgramIndex` current in place), so
a delta arrives here as ground rules added and removed.  The model is
one :class:`~repro.core.semantics.wellfounded.AlternationPair` on that
index — the batch engine's own state — and an update is two calls on
it: :meth:`~repro.core.semantics.wellfounded.AlternationPair.over_delete`
moves every atom whose status lost its support to *undefined*, which
puts the pair below the new model in the precision order, and
:meth:`~repro.core.semantics.wellfounded.AlternationPair.resume` — the
loop :func:`~repro.core.semantics.wellfounded.well_founded_semantics`
runs from ``(∅, A(∅))`` — decides the region again.  The soundness
argument is in that module's docstring.  Work follows the region, not
the alternation's depth, and the changeset is read off the atoms whose
flags moved.

Universe growth is patched like any EDB change: the view hands the
fresh values over as insertions into the universe relation ``@U``, which
the grounding's range-restricted EDB projections read wherever a rule
has completion variables.  New ground rules may mention new atoms;
``over_delete`` numbers them false before deciding the region.
"""

from __future__ import annotations

from typing import FrozenSet, List, Mapping, Tuple

import numpy as np

from ..core.grounding import GroundAtom, LiveGroundProgram
from ..core.program import Program
from ..core.semantics.wellfounded import alternate
from ..db.database import Database
from ..obs import RECORDER, TRACER
from .delta import Tup

ChangePair = Tuple[FrozenSet[Tup], FrozenSet[Tup]]

Moves = Tuple[Tuple[List[GroundAtom], List[GroundAtom]], Tuple[List[GroundAtom], List[GroundAtom]]]
"""``((entered true, left true), (entered undefined, left undefined))``."""

UNDEF = "@undef"
"""Suffix naming a predicate's *undefined* partition in changesets."""


def undef_name(pred: str) -> str:
    """The changeset key for ``pred``'s undefined-partition changes."""
    return pred + UNDEF


class AlternatingState:
    """The well-founded model kept live: a patched grounding and one pair.

    ``rounds`` is the step count of the alternation that produced the
    current pair (the whole alternation at build, the resumed one after
    an update).
    """

    __slots__ = ("live", "pair", "rounds")

    def __init__(self, program: Program, db: Database) -> None:
        self.live = LiveGroundProgram(program, db)
        self.pair, self.rounds = alternate(self.live.index)

    def apply(self, new_db: Database, changes: Mapping[str, ChangePair]) -> Moves:
        """Maintain the three-valued model under an effective EDB delta.

        ``changes`` may carry ``@U`` insertions (see
        :meth:`~repro.core.grounding.LiveGroundProgram.apply`).  Returns
        the atoms whose status moved, per partition.
        """
        added, removed = self.live.apply(new_db, changes)
        if not added and not removed:
            return ([], []), ([], [])
        pair = self.pair
        true_before, possible_before = bytes(pair.true), bytes(pair.possible)
        work = pair.work
        with TRACER.span("wf.apply") as sp:
            fired, seeds, region = pair.over_delete(removed.values())
            self.rounds = pair.resume(fired, seeds)
            work = pair.work - work
            if sp:
                sp["ground_added"] = len(added)
                sp["ground_removed"] = len(removed)
                sp["region"] = region
                sp["propagations"] = work
                sp["rounds"] = self.rounds
        if RECORDER.enabled:
            RECORDER.inc("repro_wf_propagations_total", work)
        return _moves(pair, true_before, possible_before)


def _moves(pair, true_before: bytes, possible_before: bytes) -> Moves:
    """The status changes between the saved flags and the pair's."""
    grown = bytes(len(pair.true) - len(true_before))  # new atoms were false
    true_before += grown
    possible_before += grown
    if true_before == pair.true and possible_before == pair.possible:
        return ([], []), ([], [])
    t0 = np.frombuffer(true_before, np.uint8)
    p0 = np.frombuffer(possible_before, np.uint8)
    t1 = np.frombuffer(pair.true, np.uint8)
    p1 = np.frombuffer(pair.possible, np.uint8)
    atoms = pair.index.atoms
    t_in: List[GroundAtom] = []
    t_out: List[GroundAtom] = []
    u_in: List[GroundAtom] = []
    u_out: List[GroundAtom] = []
    for a in np.flatnonzero((t0 != t1) | (p0 != p1)).tolist():
        was_true, is_true = true_before[a], pair.true[a]
        if was_true != is_true:
            (t_in if is_true else t_out).append(atoms[a])
        was_undef = bool(possible_before[a] and not was_true)
        is_undef = bool(pair.possible[a] and not is_true)
        if was_undef != is_undef:
            (u_in if is_undef else u_out).append(atoms[a])
    return (t_in, t_out), (u_in, u_out)
