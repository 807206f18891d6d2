"""Unit tests for repro.db.database."""

import pytest

from repro.db.database import Database
from repro.db.relation import Relation


def test_basic_access():
    db = Database({1, 2}, [Relation("E", 2, [(1, 2)])])
    assert "E" in db
    assert db["E"].arity == 2
    assert db.arity_of("E") == 2
    assert db.get("missing") is None


def test_missing_relation_raises_keyerror():
    db = Database({1}, [])
    with pytest.raises(KeyError):
        db["E"]


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        Database({1}, [Relation("E", 1, []), Relation("E", 2, [])])


def test_a_stored_universe_relation_is_refused():
    # ``@U`` is the universe itself: a stored relation of that name would
    # shadow it and make completion range over the wrong set.  Here the
    # complement of R = {1, 2} must range over all of {1, 2, 3, 4}.
    from repro.core.parser import parse_program
    from repro.core.semantics import stratified_semantics

    edges = Relation("E", 2, [(1, 2), (2, 3)])
    with pytest.raises(ValueError, match="reserved"):
        Database({1, 2, 3, 4}, [edges, Relation("@U", 1, [(1,)])])
    with pytest.raises(ValueError, match="reserved"):
        Database({1}, []).with_relation(Relation("@U", 1, [(1,)]))
    program = parse_program("N(X) :- !R(X). R(X) :- E(X, Y).", carrier="N")
    db = Database({1, 2, 3, 4}, [edges])
    assert stratified_semantics(program, db).idb["N"].tuples == {(3,), (4,)}


def test_domain_check():
    with pytest.raises(ValueError):
        Database({1}, [Relation("E", 2, [(1, 99)])])


def test_domain_check_can_be_skipped():
    db = Database({1}, [Relation("E", 2, [(1, 99)])], check=False)
    assert (1, 99) in db["E"]


def test_from_dict_infers_arity():
    db = Database.from_dict({1, 2}, {"E": [(1, 2)]})
    assert db["E"].arity == 2


def test_from_dict_empty_needs_arity():
    with pytest.raises(ValueError):
        Database.from_dict({1}, {"E": []})
    db = Database.from_dict({1}, {"E": []}, arities={"E": 2})
    assert db["E"].arity == 2


def test_with_relation_replaces():
    db = Database({1, 2}, [Relation("E", 2, [(1, 2)])])
    db2 = db.with_relation(Relation("E", 2, [(2, 1)]))
    assert (1, 2) in db["E"]  # original untouched
    assert set(db2["E"].tuples) == {(2, 1)}


def test_with_relations_adds_new():
    db = Database({1, 2}, [])
    db2 = db.with_relations([Relation("T", 1, [(1,)]), Relation("U", 1, [])])
    assert "T" in db2 and "U" in db2


def test_without_and_restrict():
    db = Database({1}, [Relation("A", 1, []), Relation("B", 1, [])])
    assert db.without("A").relation_names() == ("B",)
    assert db.restrict(["A"]).relation_names() == ("A",)


def test_active_domain():
    db = Database({1, 2, 3, 4}, [Relation("E", 2, [(1, 2)])])
    assert db.active_domain() == {1, 2}
    assert db.universe == {1, 2, 3, 4}


def test_equality_and_hash():
    a = Database({1, 2}, [Relation("E", 2, [(1, 2)])])
    b = Database({1, 2}, [Relation("E", 2, [(1, 2)])])
    c = Database({1, 2, 3}, [Relation("E", 2, [(1, 2)])])
    assert a == b
    assert hash(a) == hash(b)
    assert a != c


def test_relation_names_sorted():
    db = Database({1}, [Relation("Z", 1, []), Relation("A", 1, [])])
    assert db.relation_names() == ("A", "Z")


def test_active_domain_cached_per_instance():
    db = Database({1, 2, 3, 4}, [Relation("E", 2, [(1, 2), (2, 3)])])
    first = db.active_domain()
    assert first == frozenset({1, 2, 3})
    assert db.active_domain() is first  # computed once per instance


def test_sorted_universe_cached_and_deterministic():
    db = Database({3, 1, 2}, [])
    ordered = db.sorted_universe()
    assert ordered == (1, 2, 3)
    assert db.sorted_universe() is ordered
    # Functional updates are fresh instances with fresh caches.
    assert db.with_relation(Relation("E", 2, [])).sorted_universe() == (1, 2, 3)
