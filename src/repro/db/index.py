"""Hash indexes over relations, used by the join operators.

Besides the plain :class:`HashIndex`, this module holds
:class:`KeyedComplement` — the delta-aware per-key allowed-sets behind
the batch executor's keyed
:class:`~repro.core.planning.plan.ComplementJoin`.  Both structures can
be *patched* from a predecessor relation's cached instance with just the
tuple delta (see :meth:`repro.db.relation.Relation._inherit_caches`), so
fixpoint rounds and materialized-view updates never rebuild them from
scratch for relations that changed by a few tuples.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Sequence, Tuple

from .relation import Relation, Tup, universe_product


class HashIndex:
    """An index mapping key-column values to the tuples carrying them.

    Parameters
    ----------
    relation:
        The relation to index.
    columns:
        The 0-based key columns, in key order.
    """

    __slots__ = ("columns", "_buckets")

    def __init__(self, relation: Relation, columns: Sequence[int]) -> None:
        for c in columns:
            if not 0 <= c < relation.arity:
                raise IndexError(
                    "column %d out of range for %s/%d"
                    % (c, relation.name, relation.arity)
                )
        self.columns = tuple(columns)
        buckets: Dict[Tuple, List[Tup]] = {}
        for t in relation:
            key = tuple(t[c] for c in self.columns)
            buckets.setdefault(key, []).append(t)
        self._buckets = buckets

    @classmethod
    def patched(
        cls,
        parent: "HashIndex",
        added: FrozenSet[Tup],
        removed: FrozenSet[Tup],
    ) -> "HashIndex":
        """An index for ``parent``'s relation after a tuple delta.

        Copies the bucket map shallowly and rewrites only the buckets the
        delta touches (copy-on-write — the parent index is never
        mutated), so deriving costs ``O(|delta| + #buckets)`` instead of
        a full rescan.  ``removed`` must be tuples the parent indexed.
        """
        self = object.__new__(cls)
        self.columns = parent.columns
        cols = parent.columns
        buckets = dict(parent._buckets)
        touched: Dict[Tuple, List[Tup]] = {}
        for t in removed:
            key = tuple(t[c] for c in cols)
            if key not in touched:
                touched[key] = list(buckets.get(key, ()))
            touched[key].remove(t)
        for t in added:
            key = tuple(t[c] for c in cols)
            if key not in touched:
                touched[key] = list(buckets.get(key, ()))
            touched[key].append(t)
        for key, bucket in touched.items():
            if bucket:
                buckets[key] = bucket
            else:
                buckets.pop(key, None)
        self._buckets = buckets
        return self

    def lookup(self, key: Tuple) -> List[Tup]:
        """All indexed tuples whose key columns equal ``key``."""
        return self._buckets.get(tuple(key), [])

    def keys(self):
        """The distinct key values present in the index."""
        return self._buckets.keys()

    def project(self, key: Tuple, positions: Sequence[int]) -> frozenset:
        """Projections onto ``positions`` of the tuples matching ``key``.

        This is the *excluded set* of a keyed complement step: the batch
        executor subtracts it from ``universe**len(positions)`` to get the
        values a completed variable may take under a negated literal.
        """
        return frozenset(
            tuple(t[p] for p in positions) for t in self._buckets.get(tuple(key), ())
        )

    def __len__(self) -> int:
        return sum(len(v) for v in self._buckets.values())

    def __contains__(self, key: Tuple) -> bool:
        return tuple(key) in self._buckets


class KeyedComplement:
    """Per-key allowed-sets of a keyed negated completion, patchable.

    For a negated literal ``!pred(args)`` with bound columns and ``k``
    completion positions, the allowed assignments under key ``key`` are
    ``universe**k`` minus the projections of ``pred``'s tuples matching
    the key.  Instances are cached on the relation
    (:meth:`repro.db.relation.Relation.keyed_complement_on`), memoise
    allowed-sets lazily per requested key, and derive from a predecessor
    relation's instance by patching exactly the keys a tuple delta
    touches — never recomputing untouched keys.

    Because ``bound_columns`` and ``free_positions`` together cover every
    atom position, a tuple corresponds to exactly one ``(key,
    projection)`` pair, so add/remove patches are one set op per delta
    tuple.
    """

    __slots__ = ("relation", "universe", "bound_columns", "free_positions", "_full", "_allowed")

    def __init__(
        self,
        relation: Relation,
        universe: FrozenSet[Any],
        bound_columns: Tuple[int, ...],
        free_positions: Tuple[int, ...],
        _allowed: Dict[Tuple, FrozenSet[Tuple]] = None,
    ) -> None:
        self.relation = relation
        self.universe = universe
        self.bound_columns = bound_columns
        self.free_positions = free_positions
        self._full = universe_product(universe, len(free_positions))
        self._allowed = {} if _allowed is None else _allowed

    def get(self, key: Tuple) -> FrozenSet[Tuple]:
        """The allowed completion tuples under ``key`` (memoised)."""
        allowed = self._allowed.get(key)
        if allowed is None:
            excluded = self.relation.index_on(self.bound_columns).project(
                key, self.free_positions
            )
            allowed = self._full - excluded if excluded else self._full
            self._allowed[key] = allowed
        return allowed

    def derived(
        self,
        relation: Relation,
        added: FrozenSet[Tup],
        removed: FrozenSet[Tup],
    ) -> "KeyedComplement":
        """The keyed complement of ``relation`` after a tuple delta.

        Only keys already materialised here *and* touched by the delta
        are patched; everything else stays lazy.
        """
        allowed = dict(self._allowed)
        bound = self.bound_columns
        free = self.free_positions
        for t in added:
            key = tuple(t[c] for c in bound)
            have = allowed.get(key)
            if have is not None:
                allowed[key] = have - {tuple(t[p] for p in free)}
        for t in removed:
            key = tuple(t[c] for c in bound)
            have = allowed.get(key)
            if have is not None:
                proj = tuple(t[p] for p in free)
                if proj in self._full:
                    allowed[key] = have | {proj}
        return KeyedComplement(
            relation, self.universe, bound, free, _allowed=allowed
        )

    def materialised_keys(self):
        """The keys whose allowed-sets are currently materialised."""
        return self._allowed.keys()
