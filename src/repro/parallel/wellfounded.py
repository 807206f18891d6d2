"""The sharded alternating fixpoint the pool workers run.

The sequential engine (:mod:`repro.core.semantics.wellfounded`) resumes
one propagation state across the whole alternation and has no per-round
barrier to shard.  What shards is the older shape kept here: every
application of the stability operator restarts from the empty set and
sweeps the ground rules, each replica sweeping its slice and the
replicas unioning what they derived at a barrier.
"""

from __future__ import annotations

from typing import Set

from ..core.grounding import GroundAtom, ground_program
from ..core.program import Program
from ..core.semantics.wellfounded import WellFoundedResult
from ..db.database import Database
from .shard import SHARD


def _sharded_least_model(
    mine, arities, reference: Set[GroundAtom]
) -> Set[GroundAtom]:
    """``A(reference)``, split by head atom across shards.

    Each worker filters and drains local propagation on ``mine``, its
    slice of the ground rules, then the pass's new atoms are unioned at
    a barrier and adopted as positive support for the next pass.  The
    loop ends when a barrier merges nothing new — a global condition,
    so every replica exits together.
    """
    true: Set[GroundAtom] = set()
    active = [r for r in mine if all(n not in reference for n in r.neg)]
    while True:
        fresh: Set[GroundAtom] = set()
        changed = True
        while changed:
            changed = False
            remaining = []
            for r in active:
                if r.head in true or r.head in fresh:
                    continue
                if all(p in true or p in fresh for p in r.pos):
                    fresh.add(r.head)
                    changed = True
                else:
                    remaining.append(r)
            active = remaining
        merged = SHARD.merge_atoms(fresh, arities)
        gained = merged - true
        if not gained:
            return true
        true |= gained


def sharded_well_founded(program: Program, db: Database) -> WellFoundedResult:
    """The well-founded model, computed in lockstep with the other shards.

    Must run with the shard context active.  The ground rules are sliced
    once, by head-atom content (never list position: ground rules come
    out of set iteration, whose order differs between processes); the
    barrier key set — every predicate a derived atom could mention —
    comes from the *pre-slice* heads, which are content-identical on all
    replicas (local slices are not, so they cannot define the barrier
    shape).
    """
    gp = ground_program(program, db)
    arities = {r.head[0]: len(r.head[1]) for r in gp.rules}
    mine = SHARD.ground_rule_slice(gp.rules)
    true: Set[GroundAtom] = set()
    rounds = 0
    while True:
        rounds += 1
        possible = _sharded_least_model(mine, arities, true)
        next_true = _sharded_least_model(mine, arities, possible)
        if next_true == true:
            break
        true = next_true
    return WellFoundedResult(
        program=program,
        db=db,
        true=frozenset(true),
        undefined=frozenset(possible - true),
        rounds=rounds,
    )
