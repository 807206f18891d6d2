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
