"""Property tests for the interned columnar kernel (``repro.db.kernel``).

The kernel's contract has four load-bearing faces, each tested here
with Hypothesis over the shared strategies:

* interning is a dense, stable bijection: ids are contiguous,
  first-intern ordered, and ``extern`` inverts ``intern`` exactly;
* a database's symbol table is *identity-shared* across its whole
  derivation family: ``apply_delta`` streams — applied one by one or
  fused through ``Delta.then`` — keep the same table, so dense ids
  survive update streams;
* WAL replay over interned databases reconstructs exactly the contents
  a live update stream produced, with the replayed family again
  sharing one monotone table;
* CSV persistence cannot tell a code-backed relation from a plain one:
  dumping a relation adopted from the kernel equals dumping its
  decoded twin byte for byte (dump == dump ∘ extern).

The cache-key normalisation regression (``canon_columns`` at the
kernel boundary) rides along at the bottom: every column-spec spelling
must hit the same cached sorted run.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import databases_and_deltas, persistable_values, small_databases

from repro import Relation
from repro.db import kernel
from repro.db.csvio import dump_relation
from repro.db.kernel import RelationCodes, SymbolTable, canon_columns
from repro.server.wal import DeltaLog


def test_import_without_numpy_is_an_import_error():
    # numpy is a declared dependency: a missing install must fail at
    # import, not fall back to a silent slow path.
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "try:\n"
        "    import repro\n"
        "except ImportError:\n"
        "    sys.exit(42)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert proc.returncode == 42


# ----------------------------------------------------------------------
# Interning: dense ids, exact round trip
# ----------------------------------------------------------------------


@given(st.lists(persistable_values(), unique=True))
def test_intern_assigns_dense_ids_and_extern_inverts(values):
    sym = SymbolTable()
    ids = [sym.intern(v) for v in values]
    assert ids == list(range(len(values)))
    assert [sym.extern(i) for i in ids] == values
    # Re-interning is the identity on ids (monotone, never reassigns).
    assert [sym.intern(v) for v in values] == ids
    assert len(sym) == len(values)


@given(st.lists(persistable_values(), unique=True, min_size=1))
def test_encode_decode_round_trip(values):
    sym = SymbolTable()
    tuples = [(a, b) for a in values[:3] for b in values[:3]]
    rc = RelationCodes.encode(sym, 2, tuples)
    assert rc.decode() == frozenset(tuples)
    for t in tuples:
        assert rc.contains_tuple(t)
    assert not rc.contains_tuple(("missing-value", "missing-value"))
    # Probing interns nothing and stays exact after the table widens
    # past this payload's field width.
    assert sym.id_of("missing-value") is None
    sym.intern_many(range(1000, 1300))
    assert not rc.valid()
    assert all(rc.contains_tuple(t) for t in tuples)
    assert not rc.contains_tuple((1200, 1200))


@given(small_databases())
def test_relation_codes_on_database_table(db):
    """``codes_on`` under the database's own table decodes to the tuples."""
    rel = db["E"]
    rc = rel.codes_on(db.symbols())
    assert rc is not None
    assert rc.decode() == frozenset(rel)
    assert len(rc) == len(rel)


# ----------------------------------------------------------------------
# Symbol-table identity under update streams and Delta.then
# ----------------------------------------------------------------------


@given(databases_and_deltas())
def test_symbol_table_shared_under_delta_streams_and_compose(case):
    db, deltas = case
    sym = db.symbols()
    before = {v: sym.intern(v) for v in db.sorted_universe()}

    stepped = db
    for d in deltas:
        stepped = stepped.apply_delta(d)
    composed = deltas[0]
    for d in deltas[1:]:
        composed = composed.then(d)
    fused = db.apply_delta(composed.normalize(db))

    # One table for the whole family, however the stream was applied.
    assert stepped.symbols() is sym
    assert fused.symbols() is sym
    # Monotone: every previously interned value keeps its dense id.
    for v, i in before.items():
        assert sym.intern(v) == i
    # And the two application orders agree on contents.
    assert stepped["E"] == fused["E"]


# ----------------------------------------------------------------------
# WAL replay over interned databases
# ----------------------------------------------------------------------


@given(databases_and_deltas())
@settings(max_examples=15)
def test_wal_replay_matches_live_stream_on_interned_dbs(case):
    db, deltas = case
    live = db
    with tempfile.TemporaryDirectory() as tmp:
        log = DeltaLog.initialise(
            Path(tmp) / "view",
            view="v",
            program_text="T(X) :- E(X, Y).",
            semantics="stratified",
            carrier=None,
            db=db,
        )
        for seq, d in enumerate(deltas, start=1):
            log.append(seq, d)
            live = live.apply_delta(d)

        recovered = log.recover()
        log.close()
        replayed = recovered.db
        base_sym = replayed.symbols()
        for _, d in recovered.entries:
            replayed = replayed.apply_delta(d)

    assert replayed["E"] == live["E"]
    assert replayed.universe == live.universe
    # The replayed family shares one monotone table with its snapshot.
    assert replayed.symbols() is base_sym
    # Codes built under the replayed table decode to the live contents.
    rc = replayed["E"].codes_on(replayed.symbols())
    assert rc is not None and rc.decode() == frozenset(live["E"])


# ----------------------------------------------------------------------
# CSV persistence: dump == dump ∘ extern
# ----------------------------------------------------------------------


@given(small_databases())
@settings(max_examples=20)
def test_dump_of_code_backed_relation_equals_dump_of_decoded(db):
    rel = db["E"]
    sym = db.symbols()
    coded = Relation._from_codes("E", 2, RelationCodes.encode(sym, 2, list(rel)))
    plain = Relation("E", 2, list(rel))
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp) / "coded.csv", Path(tmp) / "plain.csv"
        dump_relation(coded, a)
        dump_relation(plain, b)
        assert a.read_bytes() == b.read_bytes()


# ----------------------------------------------------------------------
# Cache-key normalisation at the kernel boundary (regression)
# ----------------------------------------------------------------------


def test_canon_columns_normalises_every_spelling():
    expected = (0, 1)
    assert canon_columns([0, 1]) == expected
    assert canon_columns((0, 1)) == expected
    assert canon_columns(iter((0, 1))) == expected
    assert canon_columns(array("q", [0, 1])) == expected
    out = canon_columns(np.array([0, 1], dtype=np.int64))
    assert out == expected
    assert all(type(c) is int for c in out)


def test_sorted_run_cache_hits_across_column_spellings():
    rc = Relation("R", 2, [(1, 2), (2, 3), (3, 1)]).codes_on(SymbolTable())
    run = rc.sorted_run((0,))
    assert rc.sorted_run([0]) is run
    assert rc.sorted_run(iter((0,))) is run
    assert rc.sorted_run(array("q", [0])) is run
    assert rc.sorted_run(np.array([0])) is run
    assert rc.sorted_run((1, 0)) is rc.sorted_run([np.int64(1), 0])


# ----------------------------------------------------------------------
# Dense-join guard: span/cardinality eligibility (regression)
# ----------------------------------------------------------------------


class TestDenseJoinGuard:
    def test_small_spans_always_direct_address(self):
        assert kernel.dense_join_eligible(1, 1)
        assert kernel.dense_join_eligible(kernel._DENSE_JOIN_FLOOR, 1)

    def test_huge_spans_never_direct_address(self):
        assert not kernel.dense_join_eligible(kernel._DENSE_JOIN_LIMIT + 1, 10**6)
        assert not kernel.dense_join_eligible(10**9 + 1, 10**6)

    def test_mid_spans_require_occupancy(self):
        span = kernel._DENSE_JOIN_FLOOR * 2
        dense_enough = span // kernel._DENSE_JOIN_RATIO
        assert kernel.dense_join_eligible(span, dense_enough)
        assert not kernel.dense_join_eligible(span, dense_enough - 1)

    def test_sparse_but_wide_keys_join_correctly(self):
        # Regression: a packed multi-column key over a well-populated
        # table spans a huge code range even when only a handful of keys
        # exist — the dense path used to allocate and zero two span-sized
        # tables for a two-row join.  The guard must route this through
        # the sorted probe path and still match exactly.
        table = SymbolTable()
        for v in range(300):  # widen the field: per-column ids need 2^12
            table.intern(v)
        lo, hi = (0, 0, 0), (299, 299, 299)
        left = RelationCodes.encode(table, 3, [lo, hi, (7, 7, 7)])
        right = RelationCodes.encode(table, 3, [hi, lo])
        span = int(max(right.key_codes((0, 1, 2)))) + 1
        assert span > kernel._DENSE_JOIN_LIMIT  # genuinely sparse-but-wide
        assert not kernel.dense_join_eligible(span, 2)
        li, ri = kernel.join_codes(left, right, [(0, 0), (1, 1), (2, 2)])
        matched = sorted(
            (int(left.codes[i]), int(right.codes[j])) for i, j in zip(li, ri)
        )
        pairs = [(int(c), int(c)) for c in sorted(int(x) for x in right.codes)]
        assert matched == pairs


# ----------------------------------------------------------------------
# Sorted runs evolve with their relation
# ----------------------------------------------------------------------


@st.composite
def _run_cases(draw):
    """A relation of arity 1-3, a key in any column order, and a delta
    smaller than ``1/_MERGE_RATIO`` of it (merged) or not (re-sorted)."""
    arity = draw(st.integers(1, 3))
    key = draw(st.permutations(range(arity)))[: draw(st.integers(1, arity))]
    row = st.tuples(*[st.integers(0, 11)] * arity)
    small = draw(st.booleans())
    base = draw(st.sets(row, min_size=2 * kernel._MERGE_RATIO if small else 0, max_size=120))
    side = st.sets(row, max_size=2 if small else 40)
    return arity, tuple(key), base, draw(side), draw(side)


@given(_run_cases())
def test_patched_run_equals_a_fresh_build(case):
    arity, key, base, ins, dels = case
    sym = SymbolTable(range(12))
    rc = RelationCodes.encode(sym, arity, sorted(base))
    run = rc.sorted_run(key)
    out = rc.evolved(RelationCodes.encode(sym, arity, ins), RelationCodes.encode(sym, arity, dels))
    assert out.decode() == (base - dels) | ins
    # The delta patched the run: it is carried, not rebuilt on demand.
    patched = out._runs[key] if out is not rc else run
    fresh = kernel.SortedRun(out, key)
    assert np.array_equal(patched.rows, fresh.rows)
    assert np.array_equal(patched.sorted_keys, fresh.sorted_keys)
    assert patched.layout == fresh.layout == key + tuple(c for c in range(arity) if c not in key)


@given(
    st.sets(st.integers(0, 1 << 40), max_size=200),
    st.sets(st.integers(0, 1 << 40), max_size=30),
    st.booleans(),
)
def test_codes_union_and_difference_are_set_algebra(a, b, overlap):
    if overlap:  # deltas that hit the vector, not only miss it
        b = b | set(sorted(a)[: len(b)])
    va = np.array(sorted(a), dtype=np.int64)
    vb = np.array(sorted(b), dtype=np.int64)
    for got, want in (
        (kernel.codes_union(va, vb), a | b),
        (kernel.codes_difference(va, vb), a - b),
    ):
        assert got.tolist() == sorted(want)


@pytest.mark.parametrize("k", [1, 5, kernel._SPLICE_SEGMENTS, kernel._SPLICE_SEGMENTS + 1, 60])
def test_merge_splices_match_insert_and_delete(k):
    # Both regimes of the small-delta merge: per-segment copies up to
    # _SPLICE_SEGMENTS changed rows, one mask above.
    rng = np.random.default_rng(k)
    a = kernel.sorted_unique(rng.integers(0, 1 << 40, 8 * k + 50))
    fresh = kernel.sorted_unique(rng.integers(0, 1 << 40, k))
    fresh = fresh[~np.isin(fresh, a)]
    at = a.searchsorted(fresh)
    assert np.array_equal(kernel._inserted(a, at, fresh), np.insert(a, at, fresh))
    gone = np.sort(rng.choice(len(a), k, replace=False))
    assert np.array_equal(kernel._removed(a, gone), np.delete(a, gone))
