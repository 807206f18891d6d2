"""Interned columnar kernel: dense-int terms and array-backed relations.

Every constant a :class:`~repro.db.database.Database` mentions is
*interned* to a dense non-negative int by a per-database
:class:`SymbolTable` (monotone: ids are only ever appended, so they
survive ``apply_delta`` update streams and WAL replay within a process).
A relation's tuples then become a sorted, duplicate-free vector of
fixed-width *row codes* — each tuple packed into one int64 by
bit-shifting its field ids — and the set algebra the fixpoint engines
grind on (union, difference, subset, equality, membership, complement,
semi-join filtering) turns into integer-vector arithmetic:

* joins probe sorted runs — the rows re-packed key columns first and
  sorted, so one vector is both index and data — by binary search
  instead of hashing Python tuples per row, and a relation's delta
  patches its runs the way it patches its codes;
* semi-join reduction is sorted-key membership filtering over key codes;
* complements are range arithmetic over the interned universe instead
  of materialising ``|A|^k`` Python tuples;
* per-tuple hashing and allocation leave the hot path entirely — tuples
  are rebuilt only by :meth:`RelationCodes.decode`, one column at a
  time, when a consumer asks a code-backed relation for Python tuples
  (counted in ``repro_relation_decoded_rows_total``).

Code vectors are ``np.int64`` ndarrays: numpy is a declared dependency
of the package and is imported unconditionally — there is no second
storage backend.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as _np

from ..obs import RECORDER

_MAX_CODE_BITS = 63
"""Row codes must fit a signed 64-bit int (int64)."""


def backend() -> str:
    """The kernel's storage backend (reported by bench metadata and ``stats``)."""
    return "numpy"


def canon_columns(columns) -> Tuple[int, ...]:
    """Normalise a column specification to a tuple of plain ints.

    Cache keys for :meth:`RelationCodes.sorted_run` must compare by
    *value*: a caller passing a list, a generator, an ``array('q')``
    slice or numpy ints must hit the same cached structure as one
    passing a tuple of ints.  Every cache at the kernel boundary routes
    its column spec through here exactly once.
    """
    return tuple(int(c) for c in columns)


# ----------------------------------------------------------------------
# Symbol table
# ----------------------------------------------------------------------


class SymbolTable:
    """Dense interning of constants: value ↔ contiguous non-negative id.

    Interning is *monotone*: an id, once assigned, never changes and is
    never reused, so code vectors built against this table stay valid as
    the table grows — until the per-field bit width must widen to fit
    new ids, which bumps :attr:`generation` and retires codes built
    under the old width (:meth:`RelationCodes.repacked` moves them to
    the new one without decoding).  ``shift``, the bits per tuple field
    under the current generation, is a plain attribute read on every
    payload check (:meth:`RelationCodes.valid`); only :meth:`intern`
    writes it.
    """

    __slots__ = ("_values", "_ids", "shift", "generation", "_misc")

    _MIN_SHIFT = 8

    def __init__(self, values: Iterable[Any] = ()) -> None:
        self._values: List[Any] = []
        self._ids: Dict[Any, int] = {}
        self.shift = self._MIN_SHIFT
        self.generation = 0
        # Scratch caches keyed by kernel helpers (universe products and
        # the like); cleared on generation bumps.
        self._misc: Dict[Any, Any] = {}
        for v in values:
            self.intern(v)
        if RECORDER.enabled:
            RECORDER.inc("repro_symbol_tables_total")

    def __len__(self) -> int:
        return len(self._values)

    def intern(self, value: Any) -> int:
        """The dense id of ``value``, assigning the next id when new."""
        ids = self._ids
        i = ids.get(value)
        if i is None:
            i = len(self._values)
            ids[value] = i
            self._values.append(value)
            if i >= (1 << self.shift):
                while i >= (1 << self.shift):
                    self.shift += 4
                self.generation += 1
                self._misc.clear()
        return i

    def intern_many(self, values: Iterable[Any]) -> None:
        """Intern every value (bulk form of :meth:`intern`)."""
        for v in values:
            self.intern(v)

    def id_of(self, value: Any) -> Optional[int]:
        """The id of ``value`` if already interned, else ``None``."""
        return self._ids.get(value)

    def extern(self, ident: int) -> Any:
        """The value behind a dense id."""
        return self._values[ident]

    def extern_rows(self, cols, nrows: int) -> List[tuple]:
        """Rows from id columns: each column externed once, then zipped."""
        if not cols:
            return [()] * nrows
        values = self._values
        return list(zip(*([values[i] for i in col.tolist()] for col in cols)))

    def encode_tuple(self, t: Sequence[Any]) -> int:
        """Pack a tuple into one row code under the current shift."""
        b = self.shift
        intern = self.intern
        code = 0
        for v in t:
            code = (code << b) | intern(v)
        return code

    def fits(self, width: int) -> bool:
        """Whether ``width`` packed fields fit a signed 64-bit code."""
        return width * self.shift <= _MAX_CODE_BITS

    def scratch(self) -> Dict[Any, Any]:
        """A per-generation scratch cache for kernel helpers."""
        return self._misc

    def __repr__(self) -> str:
        return "SymbolTable(%d symbols, %d bits/field, gen %d)" % (
            len(self._values),
            self.shift,
            self.generation,
        )


# ----------------------------------------------------------------------
# Code vectors
# ----------------------------------------------------------------------
#
# A "code vector" is the kernel's unit of columnar storage: a sorted,
# duplicate-free ``np.int64`` ndarray of row codes.


def dedup_sorted(arr):
    """Distinct values of an already *sorted* int64 ndarray.

    Returns ``arr`` itself (no copy) when all values are distinct — the
    common case for code vectors, which are unique by construction.
    """
    n = len(arr)
    if n <= 1:
        return arr
    keep = _np.empty(n, dtype=bool)
    keep[0] = True
    _np.not_equal(arr[1:], arr[:-1], out=keep[1:])
    if keep.all():
        return arr
    return arr[keep]


def sorted_unique(arr):
    """Sorted distinct values of an int64 ndarray (sort + boundary scan).

    The kernel's replacement for ``np.unique`` on code vectors: numpy
    2's hash-based unique kernel is measurably slower than one sort
    plus a neighbour comparison on the small-to-medium int64 vectors
    the executors produce, and this variant avoids the copy entirely
    when the input is already duplicate-free.
    """
    if len(arr) <= 1:
        return arr
    return dedup_sorted(_np.sort(arr))


def as_codes(codes: Iterable[int]):
    """A code vector from arbitrary (unsorted, duplicated) codes."""
    return sorted_unique(_np.fromiter(codes, dtype=_np.int64))


def empty_codes():
    """The empty code vector."""
    return _np.empty(0, dtype=_np.int64)


def codes_equal(a, b) -> bool:
    if a is b:
        return True
    return len(a) == len(b) and bool(_np.array_equal(a, b))


_MERGE_RATIO = 8
"""A delta at most ``1/_MERGE_RATIO`` of the vector it changes is merged
in place of a re-sort / full mask: binary-search the small side's
positions in the big one, then splice (:func:`_inserted` /
:func:`_removed`); the sort wins again once the sides are comparable.
Sorted runs follow the same rule (:meth:`SortedRun.patched`)."""

_SPLICE_SEGMENTS = 16
"""Up to this many rows, a splice copies the untouched segments into one
preallocated vector, 2-3x faster than ``np.insert`` / ``np.delete``,
whose ~15 µs of argument handling per call only pays off above it."""


def _inserted(a, at, fresh):
    """``a`` with sorted ``fresh`` inserted before the positions ``at``."""
    k = len(fresh)
    if k > _SPLICE_SEGMENTS:
        return _np.insert(a, at, fresh)
    out = _np.empty(len(a) + k, dtype=_np.int64)
    prev = 0
    for i, p in enumerate(at.tolist()):
        out[prev + i:p + i] = a[prev:p]
        out[p + i] = fresh[i]
        prev = p
    out[prev + k:] = a[prev:]
    return out


def _removed(a, at):
    """``a`` without the rows at the sorted positions ``at``."""
    k = len(at)
    if k > _SPLICE_SEGMENTS:
        return _np.delete(a, at)
    out = _np.empty(len(a) - k, dtype=_np.int64)
    prev = 0
    for i, p in enumerate(at.tolist()):
        out[prev - i:p - i] = a[prev:p]
        prev = p + 1
    out[prev - k:] = a[prev:]
    return out


def codes_absorbed(a, b):
    """``(b - a, a | b)`` from one binary search of ``b``'s rows in ``a``.

    The search that finds which rows of ``b`` are new also says where
    they go, so the union needs no second membership filter: a few new
    rows are spliced in (:func:`_inserted`), more are merged with ``a``
    by a stable sort (timsort: two sorted runs cost one linear merge;
    disjoint, so nothing repeats) — the rule of :data:`_MERGE_RATIO`.
    Either result is an input itself when nothing changes: ``a`` when
    ``b`` adds nothing, ``b`` when all of it is new.
    """
    if len(b) == 0:
        return b, a
    if len(a) == 0:
        return b, b
    at = a.searchsorted(b)
    hit = a[_np.minimum(at, len(a) - 1)] == b
    if _np.count_nonzero(hit):
        fresh, at = b[~hit], at[~hit]
        if len(fresh) == 0:
            return fresh, a
    else:
        fresh = b
    if _MERGE_RATIO * len(fresh) <= len(a):
        return fresh, _inserted(a, at, fresh)
    return fresh, _np.sort(_np.concatenate((a, fresh)), kind="stable")


def codes_union(a, b):
    return codes_absorbed(a, b)[1]


def codes_difference(a, b):
    if len(b) == 0 or len(a) == 0:
        return a
    if _MERGE_RATIO * len(b) <= len(a):
        gone = b[_sorted_isin(b, a)]
        if len(gone) == 0:
            return a
        return _removed(a, a.searchsorted(gone))
    mask = _sorted_isin(a, b)
    if not mask.any():
        return a
    return a[~mask]


def codes_intersection(a, b):
    if len(a) == 0 or len(b) == 0:
        return empty_codes()
    return a[_sorted_isin(a, b)]


def codes_issubset(a, b) -> bool:
    if len(a) > len(b):
        return False
    if len(a) == 0:
        return True
    return bool(_sorted_isin(a, b).all())


def _sorted_isin(a, b):
    """Boolean mask of ``a``'s membership in sorted-unique ``b``.

    Big probe vectors over a dense code range (single-column keys of
    interned ids) go through a lookup table; everything else is one
    vectorised binary search per probe.  (Left to choose, ``np.isin``
    falls to a sort-merge of both operands once the range is too wide
    for its table — measured 7-20x slower than the binary search on
    10^4..10^5 packed row codes, sorted or not.)
    """
    if len(b) == 0:
        return _np.zeros(len(a), dtype=bool)
    if len(a) >= 512 and int(b[-1]) - int(b[0]) < 4 * (len(a) + len(b)):
        return _np.isin(a, b, kind="table")
    idx = b.searchsorted(a)
    idx[idx == len(b)] = len(b) - 1
    return b[idx] == a


# ----------------------------------------------------------------------
# Membership structures: the semi-join filtering face
# ----------------------------------------------------------------------


class KeyMembership:
    """Membership over a sorted vector of key codes.

    What :func:`semijoin_filter` filters through (:func:`_sorted_isin`).
    """

    __slots__ = ("_sorted",)

    def __init__(self, codes) -> None:
        self._sorted = codes

    def mask(self, probe):
        """Batch membership of a probe vector."""
        return _sorted_isin(probe, self._sorted)


# ----------------------------------------------------------------------
# Columnar relations
# ----------------------------------------------------------------------


def _fold(cols, shift: int):
    """Pack id columns, first column most significant, into a new vector."""
    out = cols[0].copy()
    for col in cols[1:]:
        out <<= shift
        out |= col
    return out


class RelationCodes:
    """One relation's tuples as a code vector under one symbol table.

    Held in the (immutable) relation's one payload slot
    (:meth:`~repro.db.relation.Relation.codes_on`); derived relations
    patch rather than re-encode (see :meth:`evolved`).  Per-column
    views and per-key-column sorted join runs are materialised lazily
    and also cached here, so a fixpoint builds each at most once per
    relation value; :meth:`evolved` patches the runs along with the
    codes, so an update stream builds each once.
    """

    __slots__ = ("symbols", "shift", "arity", "codes", "_columns", "_runs")

    def __init__(self, symbols: SymbolTable, arity: int, codes) -> None:
        self.symbols = symbols
        self.shift = symbols.shift
        self.arity = arity
        self.codes = codes
        self._columns = None
        self._runs: Dict[Tuple[int, ...], Any] = {}

    @classmethod
    def encode(cls, symbols: SymbolTable, arity: int, tuples) -> "RelationCodes":
        """Encode an iterable of tuples (two passes: intern, then pack).

        Interning first means the pack pass runs under the final shift —
        a mid-encode widening cannot corrupt earlier codes.
        """
        seqs = tuples if isinstance(tuples, (list, tuple)) else list(tuples)
        if RECORDER.enabled:
            RECORDER.inc("repro_relation_encoded_rows_total", len(seqs))
        intern = symbols.intern
        if arity == 1:
            ids = [intern(t[0]) for t in seqs]
            return cls(symbols, 1, as_codes(ids))
        for t in seqs:
            for v in t:
                intern(v)
        b = symbols.shift
        ids = symbols._ids
        codes = []
        append = codes.append
        for t in seqs:
            code = 0
            for v in t:
                code = (code << b) | ids[v]
            append(code)
        return cls(symbols, arity, as_codes(codes))

    def valid(self) -> bool:
        """Codes stay valid until the table's field width widens."""
        return self.shift == self.symbols.shift

    def __len__(self) -> int:
        return len(self.codes)

    def rows(self) -> List[tuple]:
        """The tuples back, in code-vector order, under *this payload's* width.

        Ids never change once assigned, so codes built before a width
        widening still decode exactly — with their own recorded shift,
        not the table's current one.  One pass per column (ids to
        values), then one ``zip``: no per-row bit arithmetic in Python.
        """
        if RECORDER.enabled:
            RECORDER.inc("repro_relation_decoded_rows_total", len(self.codes))
        return self.symbols.extern_rows(self.columns(), len(self.codes))

    def decode(self) -> frozenset:
        """The tuple set (see :meth:`rows`)."""
        return frozenset(self.rows())

    def repacked(self) -> Optional["RelationCodes"]:
        """These rows under the table's *current* field width, or ``None``.

        The answer to a generation bump: ids are stable, so a payload
        packed under a retired width is re-folded from its own id
        columns — vectorised, no tuple is decoded.  Widening keeps the
        row order (lexicographic in the ids either way), so the result
        is still sorted unique.  ``None`` when the arity no longer fits
        64 bits under the new width.
        """
        if self.valid():
            return self
        symbols = self.symbols
        if not symbols.fits(self.arity):
            return None
        if self.arity <= 1:
            return RelationCodes(symbols, self.arity, self.codes)
        return RelationCodes(symbols, self.arity, _fold(self.columns(), symbols.shift))

    def contains_tuple(self, t: tuple) -> bool:
        """Membership of one tuple, without decoding the vector."""
        if len(t) != self.arity:
            return False
        ids = self.symbols._ids
        b = self.shift
        cap = 1 << b
        code = 0
        for v in t:
            i = ids.get(v)
            if i is None or i >= cap:
                # Unknown value, or one interned after this payload's
                # width was fixed — either way it cannot be in the codes.
                return False
            code = (code << b) | i
        at = int(self.codes.searchsorted(code))
        return at < len(self.codes) and int(self.codes[at]) == code

    def columns(self):
        """Per-column id vectors, decoded from the codes once."""
        cols = self._columns
        if cols is None:
            b = self.shift
            arity = self.arity
            cols = self._columns = tuple(
                (self.codes >> (b * (arity - 1 - k))) & ((1 << b) - 1)
                for k in range(arity)
            )
        return cols

    def key_codes(self, key_columns: Tuple[int, ...]):
        """Mixed key codes of every row for the given columns (row order)."""
        cols = self.columns()
        if len(key_columns) == 1:
            return cols[key_columns[0]]
        return _fold([cols[c] for c in key_columns], self.shift)

    def sorted_run(self, key_columns) -> "SortedRun":
        """The sorted-run join index on ``key_columns``, cached (a key that
        is a prefix of the row layout needs no build: the codes are its run)."""
        key = canon_columns(key_columns)
        run = self._runs.get(key)
        if run is None:
            if key == tuple(range(len(key))):
                drop = self.shift * (self.arity - len(key))
                run = SortedRun._over(tuple(range(self.arity)), drop, self.shift, self.codes)
            else:
                run = SortedRun(self, key)
            self._runs[key] = run
        return run

    def evolved(self, added=None, removed=None) -> "RelationCodes":
        """The payload after a tuple delta (payloads, or ``None``); ``self``
        when it is a no-op.

        The maintenance fast path: a small delta is merged into the
        sorted vector (:func:`codes_union` / :func:`codes_difference`),
        and every run built on ``self`` is patched with it
        (:meth:`SortedRun.patched`) — nothing is re-encoded or re-sorted.
        Runs never cross a widening: a payload of a retired width is
        re-packed into a fresh one (:meth:`repacked`) before it evolves.
        """
        out = self.codes
        if removed is not None:
            out = codes_difference(out, removed.codes)
        if added is not None:
            out = codes_union(out, added.codes)
        if out is self.codes:
            return self
        rc = RelationCodes(self.symbols, self.arity, out)
        rc._runs = {k: run.patched(out, added, removed) for k, run in self._runs.items()}
        return rc

    def absorbed(self, other: "RelationCodes") -> Tuple["RelationCodes", "RelationCodes"]:
        """``(other - self, self | other)``: the rows ``other`` adds, and
        this payload with them (:func:`codes_absorbed`: one search).

        Either is an input itself when nothing moves; a new union patches
        this payload's runs with the added rows, as :meth:`evolved` does.
        """
        fresh, out = codes_absorbed(self.codes, other.codes)
        added = other if fresh is other.codes else RelationCodes(self.symbols, self.arity, fresh)
        if out is self.codes:
            return added, self
        rc = RelationCodes(self.symbols, self.arity, out)
        rc._runs = {k: run.patched(out, added, None) for k, run in self._runs.items()}
        return added, rc

    @classmethod
    def disjoint_union(cls, parts: Sequence["RelationCodes"]) -> "RelationCodes":
        """Pairwise disjoint payloads of one table and width as one: their
        sorted vectors merged by one stable sort (no row repeats)."""
        codes = _np.sort(_np.concatenate([rc.codes for rc in parts]), kind="stable")
        return cls(parts[0].symbols, parts[0].arity, codes)


class SortedRun:
    """A relation's rows sorted by key: the kernel's join index.

    ``rows`` holds the relation's rows re-packed with the key columns
    first (``layout``: the key, then the other columns in order) and
    sorted, so one vector is index and data at once: a probe is two
    binary searches on it (:meth:`bounds`), and :meth:`take` decodes the
    matched rows' fields.  ``__init__`` is the from-scratch build, for a
    key that is not a prefix of the row layout: for one that is (``(0,)``,
    ``(0, 1)``) the run *is* the payload's code vector
    (:meth:`RelationCodes.sorted_run`).  A payload's delta carries the
    run forward with :meth:`patched`.
    """

    __slots__ = ("layout", "drop", "shift", "rows")

    def __init__(self, relation: RelationCodes, key_columns: Tuple[int, ...]) -> None:
        b = relation.shift
        layout = key_columns + tuple(c for c in range(relation.arity) if c not in key_columns)
        cols = relation.columns()
        self.layout, self.shift = layout, b
        self.rows = _np.sort(_fold([cols[c] for c in layout], b))
        self.drop = b * (len(layout) - len(key_columns))

    @classmethod
    def _over(cls, layout, drop: int, shift: int, rows) -> "SortedRun":
        """A run over already sorted ``rows``: no build."""
        run = cls.__new__(cls)
        run.layout, run.drop, run.shift, run.rows = layout, drop, shift, rows
        return run

    @property
    def sorted_keys(self):
        """The rows' key prefix: ``rows`` with the ``drop`` non-key bits shifted out."""
        return self.rows >> self.drop if self.drop else self.rows

    def patched(self, codes, added, removed) -> "SortedRun":
        """This run after its relation's delta (payloads, or ``None``),
        ``codes`` the new payload's vector.

        The delta's rows, re-packed like the run's, merge under the
        payload's own rule (:func:`codes_difference` / :func:`codes_union`:
        small deltas merged, large ones re-sorted); a prefix run adopts
        ``codes``.
        """
        rows = codes
        if self.layout != tuple(range(len(self.layout))):
            rows = self.rows
            for delta, merge in ((removed, codes_difference), (added, codes_union)):
                if delta is not None and len(delta):
                    cols = delta.columns()
                    rows = merge(rows, _np.sort(_fold([cols[c] for c in self.layout], self.shift)))
        return SortedRun._over(self.layout, self.drop, self.shift, rows)

    def bounds(self, probe):
        """``(lefts, rights)``: key ``k``'s rows are the codes in ``[k << drop,
        (k + 1) << drop)``, which cannot overflow: a row is at most 60 bits
        (fields are multiples of 4 bits, rows fit 63)."""
        rows = self.rows
        if not self.drop:
            return rows.searchsorted(probe, side="left"), rows.searchsorted(probe, side="right")
        return rows.searchsorted(probe << self.drop), rows.searchsorted((probe + 1) << self.drop)

    def take(self, at, columns) -> List[Any]:
        """The id columns ``columns`` (relation positions) of the rows at ``at``."""
        hit, b, last = self.rows[at], self.shift, len(self.layout) - 1
        out = []
        for j in map(self.layout.index, columns):
            col = hit >> (b * (last - j)) if j < last else hit
            out.append(col & ((1 << b) - 1) if j else col)
        return out


# ----------------------------------------------------------------------
# Complements as range arithmetic over the interned universe
# ----------------------------------------------------------------------


def universe_ids(symbols: SymbolTable, universe: frozenset):
    """The sorted id vector of a universe, cached per generation."""
    cache = symbols.scratch()
    key = ("universe", universe)
    ids = cache.get(key)
    if ids is None:
        ids = as_codes(symbols.intern(v) for v in universe)
        # Interning may have widened the shift mid-build; re-read the
        # scratch cache afterwards so a stale dict is never populated.
        cache = symbols.scratch()
        cache[key] = ids
    return ids


def universe_product_codes(symbols: SymbolTable, universe: frozenset, k: int):
    """``A^k`` as mixed row codes, cached per (universe, k, generation).

    For a freshly interned database the universe ids are the contiguous
    range ``[0, |A|)`` and the product is pure range arithmetic — no
    tuple is ever materialised.
    """
    if k == 0:
        return as_codes((0,))
    ids = universe_ids(symbols, universe)
    if k == 1:
        return ids
    cache = symbols.scratch()
    key = ("product", universe, k)
    full = cache.get(key)
    if full is None:
        b = symbols.shift
        full = ids
        for _ in range(k - 1):
            full = _np.repeat(full << b, len(ids)) | _np.tile(ids, len(full))
        cache[key] = full
    return full


def complement_codes(symbols: SymbolTable, universe: frozenset, rel: RelationCodes):
    """``A^arity`` minus the relation, as codes (range arithmetic).

    Values the relation holds *outside* the universe simply never occur
    in the product, so the plain sorted difference is exact — mirroring
    the tuple path's semantics for out-of-universe constants.
    """
    full = universe_product_codes(symbols, universe, rel.arity)
    return codes_difference(full, rel.codes)


def semijoin_filter(rel: RelationCodes, key_columns, allowed: KeyMembership):
    """Rows of ``rel`` whose key code is in ``allowed``.

    Returns a code vector of the surviving rows — the kernel face of
    the Yannakakis reduction step.
    """
    key = canon_columns(key_columns)
    return rel.codes[allowed.mask(rel.key_codes(key))]


def antijoin_codes(rel: RelationCodes, key_columns, excluded: "RelationCodes"):
    """Rows of ``rel`` with no key match in ``excluded`` (same columns)."""
    key = canon_columns(key_columns)
    excl = sorted_unique(excluded.key_codes(key))
    return rel.codes[~_sorted_isin(rel.key_codes(key), excl)]


_DENSE_JOIN_LIMIT = 1 << 18
"""Largest key-code span the join direct-addresses (two int64
tables of that span, ~2 MiB each, beat binary search comfortably)."""

_DENSE_JOIN_FLOOR = 1 << 12
"""Spans this small are always worth direct-addressing — the tables fit
in L1/L2 regardless of how few keys occupy them."""

_DENSE_JOIN_RATIO = 16
"""Above the floor, direct-address only while the span stays within
this factor of the distinct-key cardinality.  Interned ids are dense,
so well-used keys sit near ratio 1; a sparse-but-wide key set (packed
multi-column keys, or a join on a nearly-empty relation) would allocate
and zero a span-sized table to serve a handful of probes."""


def dense_join_eligible(span: int, cardinality: int) -> bool:
    """Whether ``join_codes`` may build span-sized start/count tables.

    ``span`` is ``max_key + 1`` over the build side's key codes and
    ``cardinality`` the number of *rows* on that side (an upper bound on
    distinct keys, which is all the guard needs).  Dense addressing pays
    off only when the tables stay small in absolute terms *and* are
    reasonably occupied — otherwise sorted-run probing wins.
    """
    if span <= _DENSE_JOIN_FLOOR:
        return True
    if span > _DENSE_JOIN_LIMIT:
        return False
    return span <= _DENSE_JOIN_RATIO * cardinality


def join_codes(left: RelationCodes, right: RelationCodes, on):
    """Matched row indices of an equi-join (kernel microbench op).

    ``on`` is ``[(left_col, right_col), ...]``; returns a pair of
    int64 index vectors ``(left_rows, right_rows)`` — the
    engine's shape: no tuple is ever materialised, callers project
    whichever columns they need.  When the key codes span a dense range
    (the normal case — interned ids *are* dense), the join goes
    by direct addressing into per-key start/count tables instead of one
    binary search per probe: the payoff of interning to dense ints.
    """
    lcols = canon_columns(c for c, _ in on)
    rcols = canon_columns(c for _, c in on)
    run = right.sorted_run(rcols)
    lkeys = left.key_codes(lcols)
    sk = run.sorted_keys
    empty = _np.empty(0, dtype=_np.int64)
    if len(sk) == 0 or len(lkeys) == 0:
        return empty, empty
    span = int(sk[-1]) + 1
    if dense_join_eligible(span, len(sk)):
        first = _np.empty(len(sk), dtype=bool)
        first[0] = True
        _np.not_equal(sk[1:], sk[:-1], out=first[1:])
        starts = _np.flatnonzero(first)
        lefts_t = _np.zeros(span, dtype=_np.int64)
        counts_t = _np.zeros(span, dtype=_np.int64)
        distinct = sk[starts]
        lefts_t[distinct] = starts
        counts_t[distinct] = _np.diff(starts, append=len(sk))
        # Probes above every right key clamp onto the last slot, whose
        # count they must not inherit — zero them explicitly.
        probe = _np.minimum(lkeys, span - 1)
        counts = _np.where(lkeys < span, counts_t[probe], 0)
        lefts = lefts_t[probe]
    else:
        lefts = sk.searchsorted(lkeys, side="left")
        counts = sk.searchsorted(lkeys, side="right") - lefts
    cum = counts.cumsum()
    total = int(cum[-1])
    if total == 0:
        return empty, empty
    rows = _np.arange(len(lkeys)).repeat(counts)
    pos = (lefts - (cum - counts)).repeat(counts) + _np.arange(total)
    # Run positions back to row indices: each run row, re-packed in the
    # relation's own layout, located in its code vector.
    back = right.codes.searchsorted(_fold(run.take(slice(None), range(right.arity)), right.shift))
    return rows, back[pos]
