"""The sharded alternating fixpoint the pool workers run.

The sequential engine (:mod:`repro.core.semantics.wellfounded`) resumes
one propagation state across the whole alternation and has no per-round
barrier to shard.  What shards is the older shape kept here: every
application of the stability operator restarts from the empty set and
sweeps the ground rules, each worker sweeping its slice and the workers
unioning what they derived at a barrier.  Every decision is taken on
merged data, so all workers reach every barrier the same number of
times.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Dict, List, Set

from ..core.grounding import GroundAtom, GroundRule, ground_program
from ..core.program import Program
from ..core.semantics.wellfounded import WellFoundedResult
from ..db.database import Database
from ..db.kernel import SymbolTable
from . import ship
from .pool import UNION_MAP

Exchange = Callable[[str, Any], Any]


def _owns(rule: GroundRule, wid: int, nshards: int) -> bool:
    """Whether shard ``wid`` sweeps ``rule``: a content hash of its head.

    Ground rules come out of set iteration, whose order differs between
    processes under hash randomisation, so slicing by list position
    would drop rules; ``hash()`` is salted per process, so the hash is a
    CRC of the head's ``repr``.  All derivations of one atom land on
    one shard.
    """
    head = repr(rule.head).encode("utf-8", "backslashreplace")
    return zlib.crc32(head) % nshards == wid


def _union_atoms(
    atoms: Set[GroundAtom],
    arities: Dict[str, int],
    table: SymbolTable,
    exchange: Exchange,
) -> Set[GroundAtom]:
    """Union ``(pred, args)`` atom sets across all shards at a barrier.

    ``arities`` names every predicate an atom *could* mention,
    identically on all workers: the barrier's key set may not come from
    the local atoms, which differ per shard.
    """
    grouped: Dict[str, Set[tuple]] = {p: set() for p in arities}
    for pred, args in atoms:
        grouped[pred].add(args)
    payload = {
        pred: (arities[pred], ship.encode_tuples(table, arities[pred], tuples))
        for pred, tuples in grouped.items()
    }
    merged = exchange(UNION_MAP, payload)
    return {
        (pred, args)
        for pred, (arity, enc) in merged.items()
        for args in ship.decode_tuples(table, arity, enc)
    }


def _sharded_least_model(
    mine: List[GroundRule],
    reference: Set[GroundAtom],
    union: Callable[[Set[GroundAtom]], Set[GroundAtom]],
) -> Set[GroundAtom]:
    """``A(reference)``, split by head atom across shards.

    Each worker filters and drains local propagation on ``mine``, its
    slice of the ground rules, then the pass's new atoms are unioned at
    a barrier and adopted as positive support for the next pass.  The
    loop ends when a barrier merges nothing new — a global condition,
    so every worker exits together.
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
        gained = union(fresh) - true
        if not gained:
            return true
        true |= gained


def sharded_well_founded(
    program: Program,
    db: Database,
    wid: int,
    nshards: int,
    table: SymbolTable,
    exchange: Exchange,
) -> WellFoundedResult:
    """The well-founded model, computed in lockstep with the other shards.

    ``wid`` / ``nshards`` place this worker, ``table`` is the symbol
    table every worker built identically (atoms cross the barrier as
    codes under it) and ``exchange`` is the pool's barrier call.  The
    barrier key set — every predicate a derived atom could mention —
    comes from the *pre-slice* heads, which are content-identical on all
    workers.
    """
    gp = ground_program(program, db)
    arities = {r.head[0]: len(r.head[1]) for r in gp.rules}
    mine = [r for r in gp.rules if _owns(r, wid, nshards)]

    def union(atoms: Set[GroundAtom]) -> Set[GroundAtom]:
        return _union_atoms(atoms, arities, table, exchange)

    true: Set[GroundAtom] = set()
    rounds = 0
    while True:
        rounds += 1
        possible = _sharded_least_model(mine, true, union)
        next_true = _sharded_least_model(mine, possible, union)
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
