"""Shard context: the seam between the sequential engines and the pool.

The parallel executor runs *replica lockstep*: every worker executes the
unchanged sequential engine (or view) code on a full replica of the
database, with the module-global :data:`SHARD` context active.  The
context narrows each worker's share of the per-round work — frontier
relations, flip aliases, ground rules — to its shard, and re-merges the
derived tuples at round barriers through an exchange callback wired to
the parent hub.  Because every *decision* (convergence tests, stratum
order, recompute-vs-maintain branches) is taken on merged data, all
workers take the same branches and reach every barrier the same number
of times; the parent only ferries and unions code buffers.

When the context is inactive — in the parent, and in any plain
sequential run — every method is the identity, so the engines pay one
``SHARD.active`` attribute check per hook and nothing else.

Tuples are partitioned by the packed code of their partition-key columns
modulo the shard count (``key_codes % nshards``); the key columns come
from the :class:`~repro.parallel.planner.ShardPlan`.  Partitioning only
needs to be *deterministic and identical across processes*, never
stable across runs, so values missing from the shared symbol table fall
back to a content hash of their ``repr``.
"""

from __future__ import annotations

import zlib
from collections import Counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..db.kernel import SymbolTable

Tup = Tuple[Any, ...]

#: Exchange payload kinds understood by the pool hub.
UNION_MAP = "union_map"
COUNTS = "counts"

_MASK = (1 << 61) - 1
_MIX = 1000003


def _content_hash(value: Any) -> int:
    """Deterministic, process-independent hash (``hash()`` is salted)."""
    return zlib.crc32(repr(value).encode("utf-8", "backslashreplace"))


def flip_base(name: str) -> Optional[str]:
    """Base predicate of an ``@ins``/``@del`` alias, else ``None``."""
    if name.endswith("@ins") or name.endswith("@del"):
        return name[:-4]
    return None


class ShardContext:
    """Per-process sharding state; inactive identity outside workers."""

    def __init__(self) -> None:
        self.active = False
        self.wid = 0
        self.nshards = 1
        self.table: Optional[SymbolTable] = None
        self.columns: Dict[str, Tuple[int, ...]] = {}
        self._exchange: Optional[Callable[[str, Any], Any]] = None

    # -- lifecycle ---------------------------------------------------------

    def activate(
        self,
        wid: int,
        nshards: int,
        table: SymbolTable,
        columns: Dict[str, Tuple[int, ...]],
        exchange: Callable[[str, Any], Any],
    ) -> None:
        if self.active:
            raise RuntimeError("shard context is already active")
        self.wid = wid
        self.nshards = nshards
        self.table = table
        self.columns = columns
        self._exchange = exchange
        self.active = True

    def deactivate(self) -> None:
        self.active = False
        self.wid = 0
        self.nshards = 1
        self.table = None
        self.columns = {}
        self._exchange = None

    # -- partitioning ------------------------------------------------------

    def _partition_id(self, value: Any) -> Tuple[int, bool]:
        table = self.table
        if table is not None:
            ident = table.id_of(value)
            if ident is not None:
                return ident, True
        return _content_hash(value), False

    def tuple_shard(self, pred: str, t: Tup) -> int:
        """Shard owning ``t`` under ``pred``'s partition columns."""
        cols = self.columns.get(pred)
        indices: Sequence[int] = cols if cols is not None else range(len(t))
        table = self.table
        shift = table.shift if table is not None else 8
        code = 0
        packed = True
        for i in indices:
            ident, interned = self._partition_id(t[i])
            if interned and packed:
                code = (code << shift) | ident
            else:
                packed = False
                code = ((code * _MIX) ^ ident) & _MASK
        return code % self.nshards

    def owns(self, pred: str, t: Tup) -> bool:
        return self.tuple_shard(pred, t) == self.wid

    def shard_tuples(self, pred: str, tuples: Iterable[Tup]) -> Set[Tup]:
        """This worker's slice of ``tuples`` (identity when inactive)."""
        if not self.active:
            return tuples if isinstance(tuples, set) else set(tuples)
        wid = self.wid
        return {t for t in tuples if self.tuple_shard(pred, t) == wid}

    def frontier(self, pred: str, relation: Any) -> Any:
        """Shard a frontier/delta relation by its base predicate."""
        if not self.active:
            return relation
        mine = self.shard_tuples(pred, relation.tuples)
        if len(mine) == len(relation.tuples):
            return relation
        return type(relation)(relation.name, relation.arity, mine)

    def flip_shard(self, name: str, relation: Any) -> Any:
        """Shard an ``@ins``/``@del`` flip alias; other relations pass."""
        if not self.active:
            return relation
        base = flip_base(name)
        if base is None:
            return relation
        return self.frontier(base, relation)

    def flip_sharded_interp(self, interp: Any) -> Any:
        """``interp`` with every flip alias narrowed to our shard (same family)."""
        if not self.active:
            return interp
        return interp.derive(
            self.flip_shard(rel.name, rel) for rel in interp.relations.values()
        )

    # -- rule partitioning -------------------------------------------------

    def plan_slice(self, plans: Sequence[Any]) -> List[Any]:
        """Round-robin slice of a *deterministically ordered* plan list."""
        if not self.active:
            return list(plans)
        n, wid = self.nshards, self.wid
        return [p for i, p in enumerate(plans) if i % n == wid]

    rule_slice = plan_slice

    def ground_rule_slice(self, rules: Sequence[Any]) -> List[Any]:
        """Slice ground rules by their *head atom*, not list position.

        Ground rules come out of set iteration, whose order differs
        between processes under hash randomisation — position-based
        slicing would silently drop rules.  Hashing the head keeps all
        derivations of one atom on one shard.
        """
        if not self.active:
            return list(rules)
        wid = self.wid
        return [r for r in rules if self.tuple_shard(r.head[0], r.head[1]) == wid]

    # -- barrier exchanges -------------------------------------------------

    def _require_exchange(self) -> Callable[[str, Any], Any]:
        if self._exchange is None:
            raise RuntimeError("shard context active without an exchange channel")
        return self._exchange

    def merge_tuple_map(
        self, derived: Dict[str, Set[Tup]], arities: Dict[str, int]
    ) -> Dict[str, Set[Tup]]:
        """Union per-predicate tuple sets across all shards."""
        if not self.active:
            return derived
        from . import ship

        table = self.table
        assert table is not None
        payload = {
            pred: (arities[pred], ship.encode_tuples(table, arities[pred], tuples))
            for pred, tuples in derived.items()
        }
        merged = self._require_exchange()(UNION_MAP, payload)
        return {
            pred: ship.decode_tuples(table, arity, enc)
            for pred, (arity, enc) in merged.items()
        }

    def merge_relations(self, derived: Dict[str, Any]) -> Dict[str, Any]:
        """Union a ``{pred: Relation}`` map across all shards.

        The fixpoint driver's round barrier.  Code-only relations are
        externed here: the exchange ships tuples packed under the
        *shared* table, which need not be the one they were derived
        under.
        """
        if not self.active:
            return derived
        arities = {pred: rel.arity for pred, rel in derived.items()}
        merged = self.merge_tuple_map(
            {pred: rel.tuples for pred, rel in derived.items()}, arities
        )
        return {
            pred: type(rel)(pred, rel.arity, merged[pred])
            for pred, rel in derived.items()
        }

    def merge_atoms(
        self, atoms: Set[Tuple[str, Tup]], arities: Dict[str, int]
    ) -> Set[Tuple[str, Tup]]:
        """Union ``(pred, args)`` ground-atom sets across all shards.

        ``arities`` must name every predicate an atom *could* mention
        (identically on all replicas) — the barrier's key set may not be
        derived from the local atoms, which differ per shard.
        """
        if not self.active:
            return atoms
        grouped: Dict[str, Set[Tup]] = {p: set() for p in arities}
        for pred, args in atoms:
            grouped[pred].add(args)
        merged = self.merge_tuple_map(grouped, arities)
        return {(pred, args) for pred, tuples in merged.items() for args in tuples}

    def merge_counter(self, diff: "Counter[Tup]", arity: int) -> "Counter[Tup]":
        """Sum per-tuple derivation-count deltas across all shards."""
        if not self.active:
            return diff
        from . import ship

        table = self.table
        assert table is not None
        items = [(t, c) for t, c in diff.items() if c]
        keys = ship.encode_tuple_list(table, arity, [t for t, _ in items])
        merged = self._require_exchange()(
            COUNTS, (arity, keys, [c for _, c in items])
        )
        _, keys_enc, counts = merged
        decoded = ship.decode_tuple_list(table, arity, keys_enc)
        out: Counter[Tup] = Counter()
        for t, c in zip(decoded, counts):
            out[t] = c
        return out

#: Process-global context.  Inactive (identity) except inside pool workers.
SHARD = ShardContext()
