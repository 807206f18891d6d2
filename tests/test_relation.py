"""Unit tests for repro.db.relation."""

import pytest
from hypothesis import given, strategies as st

from repro.db.relation import Relation


def test_basic_construction():
    rel = Relation("E", 2, [(1, 2), (2, 3)])
    assert rel.name == "E"
    assert rel.arity == 2
    assert len(rel) == 2
    assert (1, 2) in rel
    assert (9, 9) not in rel


def test_duplicate_tuples_collapse():
    rel = Relation("E", 2, [(1, 2), (1, 2)])
    assert len(rel) == 1


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        Relation("E", 2, [(1, 2, 3)])


def test_negative_arity_rejected():
    with pytest.raises(ValueError):
        Relation("E", -1, [])


def test_zero_arity_relation_behaves_as_boolean():
    empty = Relation("Q", 0, [])
    full = Relation("Q", 0, [()])
    assert not empty
    assert full
    assert () in full


def test_empty_constructor():
    rel = Relation.empty("T", 1)
    assert len(rel) == 0
    assert rel.arity == 1


def test_full_constructor():
    rel = Relation.full("Q", 2, {1, 2})
    assert len(rel) == 4
    assert (1, 1) in rel and (2, 1) in rel


def test_full_arity_zero():
    rel = Relation.full("Q", 0, {1, 2})
    assert rel.tuples == frozenset({()})


def test_equality_is_by_value():
    a = Relation("E", 2, [(1, 2)])
    b = Relation("E", 2, [(1, 2)])
    c = Relation("F", 2, [(1, 2)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != c


def test_with_name_preserves_tuples():
    a = Relation("E", 2, [(1, 2)])
    b = a.with_name("F")
    assert b.name == "F"
    assert b.tuples == a.tuples


def test_union_intersection_difference():
    a = Relation("T", 1, [(1,), (2,)])
    b = Relation("T", 1, [(2,), (3,)])
    assert set(a.union(b).tuples) == {(1,), (2,), (3,)}
    assert set(a.intersection(b).tuples) == {(2,)}
    assert set(a.difference(b).tuples) == {(1,)}


def test_setops_arity_mismatch():
    a = Relation("T", 1, [(1,)])
    b = Relation("T", 2, [(1, 2)])
    with pytest.raises(ValueError):
        a.union(b)
    with pytest.raises(ValueError):
        a.issubset(b)


def test_complement():
    a = Relation("T", 1, [(1,)])
    comp = a.complement({1, 2, 3})
    assert set(comp.tuples) == {(2,), (3,)}


def test_issubset():
    a = Relation("T", 1, [(1,)])
    b = Relation("T", 1, [(1,), (2,)])
    assert a.issubset(b)
    assert not b.issubset(a)


def test_filter():
    a = Relation("E", 2, [(1, 2), (2, 1), (3, 3)])
    diag = a.filter(lambda t: t[0] == t[1])
    assert set(diag.tuples) == {(3, 3)}


def test_add():
    a = Relation("T", 1, [(1,)])
    b = a.add((2,), (3,))
    assert len(a) == 1  # immutability
    assert len(b) == 3


@given(
    st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5))),
    st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5))),
)
def test_union_commutes_and_difference_disjoint(xs, ys):
    a = Relation("A", 2, xs)
    b = Relation("A", 2, ys)
    assert a.union(b).tuples == b.union(a).tuples
    assert not (a.difference(b).tuples & b.tuples)


@given(st.sets(st.tuples(st.integers(0, 3))))
def test_complement_is_involutive(xs):
    universe = set(range(0, 4))
    a = Relation("T", 1, xs)
    assert a.complement(universe).complement(universe) == a


def test_complement_of_zero_ary_relations():
    empty = Relation("B", 0, [])
    full = Relation("B", 0, [()])
    assert set(empty.complement(frozenset({1}))) == {()}
    assert set(full.complement(frozenset({1}))) == set()


# ----------------------------------------------------------------------
# The stored size and the one payload slot
# ----------------------------------------------------------------------

_PAIRS = st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=10)


def _assert_sized(rel):
    """``len`` / ``bool`` (stored at construction) agree with the tuples."""
    size = len(rel)
    assert bool(rel) == (size > 0)
    assert size == len(rel.tuples)


@given(xs=_PAIRS, ys=_PAIRS, zs=_PAIRS)
def test_stored_size_matches_the_tuples_for_every_constructor(xs, ys, zs):
    """Every way to make a relation stores the row count its tuples have:
    the set operations on each pairing of tuple-backed, payload-holding
    and code-only operands (a disjoint union among them, equal to the
    plain union), an evolve, a rename, a re-pack after the table's field
    width widens, and an encode under a second table."""
    from repro.db.kernel import RelationCodes, SymbolTable

    symbols = SymbolTable()
    plain = Relation("R", 2, xs)
    held = Relation("R", 2, ys)
    held.codes_on(symbols)
    coded = Relation._from_codes("R", 2, RelationCodes.encode(symbols, 2, zs))
    made = [plain, held, coded, Relation._from_frozenset("R", 2, frozenset(xs))]
    for left in (plain, held, coded):
        for right in (plain, held, coded):
            gathered = Relation.disjoint_union("R", 2, [left.difference(right), right])
            assert gathered == left.union(right)
            made += [
                left.union(right),
                left.difference(right),
                left.intersection(right),
                *left.absorb(right),
                left.evolve(right, xs),
                gathered,
            ]
    made += [coded.with_name("S"), held.with_name("S"), plain.with_name("S")]
    for rel in made:
        _assert_sized(rel)
    # Widen the field width: the code-only relation re-packs, same size.
    before = len(coded)
    symbols.intern_many(range(1000, 1300))
    assert coded.codes_on(symbols).shift == symbols.shift
    assert len(coded) == before
    _assert_sized(coded.union(held))
    # Encoded under another table, it still holds the same rows.
    other = SymbolTable(range(9, -1, -1))
    assert len(coded.codes_on(other)) == len(coded) == len(zs)
    _assert_sized(coded)
    assert coded.tuples == frozenset(zs)


def test_one_relation_read_under_two_tables_answers_alike():
    """One relation object in two independently built databases (two
    symbol tables, interning its values in different orders) gives each
    engine run the same answer, however often the reads alternate."""
    from repro import Database, parse_program
    from repro.core.semantics import stratified_semantics

    program = parse_program(
        "T(X, Y) :- E(X, Y).  T(X, Y) :- E(X, Z), T(Z, Y).  N(X, Y) :- E(X, Y), !T(Y, X)."
    )
    edge = Relation("E", 2, [(1, 2), (2, 3), (3, 1), (3, 4), (5, 4)])
    first = Database(range(1, 6), [edge])
    second = Database(["x", 5, 4, 3, 2, 1], [edge])
    expected = None
    for db in (first, second, first, second):
        assert db.symbols() is not (second if db is first else first).symbols()
        idb = stratified_semantics(program, db).idb
        answer = {p: rel.tuples for p, rel in idb.items()}
        assert expected is None or answer == expected
        expected = answer
        assert len(edge) == 5 and (3, 4) in edge and (4, 3) not in edge
    assert expected["N"] == {(3, 4), (5, 4)}
