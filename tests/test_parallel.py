"""Differential tests for the sharded well-founded engine.

``well_founded_semantics(..., parallel=N)`` is *defined* by "same model
as the sequential engine": every engine test here compares the two on
the same input across shard counts.  The shipping tests pin the
symbol-table discipline the code-buffer exchange rests on.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parser import parse_program
from repro.core.semantics.wellfounded import well_founded_semantics
from repro.db.database import Database
from repro.db.relation import Relation
from repro.parallel import ship
from repro.parallel.pool import fork_available

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="needs the fork start method"
)

WIN = parse_program("WIN(X) :- MOVE(X,Y), !WIN(Y).")
TC = parse_program("T(X,Y) :- E(X,Y).\nT(X,Z) :- E(X,Y), T(Y,Z).")


def _db(rel: str, edges, universe) -> Database:
    return Database(frozenset(universe), [Relation(rel, 2, set(edges))])


class TestEngineDifferential:
    @pytest.mark.parametrize("nshards", [1, 2, 4])
    def test_wellfounded_partitions_match(self, nshards):
        # path: alternating won/lost (all atoms decided); cycle: all undefined
        for edges, universe in [
            ([(i, i + 1) for i in range(9)], range(10)),
            ([(i, (i + 1) % 5) for i in range(5)], range(5)),
        ]:
            db = _db("MOVE", edges, universe)
            seq = well_founded_semantics(WIN, db)
            par = well_founded_semantics(WIN, db, parallel=nshards)
            assert par.true == seq.true
            assert par.undefined == seq.undefined


class TestEngineProperties:
    @settings(max_examples=8, deadline=None)
    @given(
        edges=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=14)
    )
    def test_wellfounded_matches_on_random_move_graphs(self, edges):
        db = _db("MOVE", edges, range(6))
        seq = well_founded_semantics(WIN, db)
        par = well_founded_semantics(WIN, db, parallel=2)
        assert par.true == seq.true
        assert par.undefined == seq.undefined


class TestSymbolTableShipping:
    def test_canonical_table_is_reproducible(self):
        universe = frozenset([3, 1, "a", 2, "b"])
        t1 = ship.build_table(universe, TC)
        t2 = ship.build_table(universe, TC)
        assert ship.table_fingerprint(t1) == ship.table_fingerprint(t2)

    def test_encode_decode_round_trip(self):
        table = ship.build_table(frozenset(range(6)), TC)
        tuples = {(0, 1), (4, 5), (2, 2)}
        enc = ship.encode_tuples(table, 2, tuples)
        assert enc[0] == ship.CODES
        assert ship.decode_tuples(table, 2, enc) == tuples

    def test_uninterned_values_fall_back_to_plain(self):
        table = ship.build_table(frozenset(range(4)), TC)
        tuples = {(0, "never-interned")}
        enc = ship.encode_tuples(table, 2, tuples)
        assert enc[0] == ship.PLAIN
        assert ship.decode_tuples(table, 2, enc) == tuples
