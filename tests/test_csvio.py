"""Round-trip tests for CSV I/O."""

import pytest

from repro.db import csvio
from repro.db.database import Database
from repro.db.relation import Relation


def test_relation_roundtrip(tmp_path):
    rel = Relation("E", 2, [(1, 2), (2, 3)])
    path = tmp_path / "E.csv"
    csvio.dump_relation(rel, path)
    back = csvio.load_relation(path, "E", 2)
    assert back == rel


def test_mixed_value_coercion(tmp_path):
    rel = Relation("M", 2, [(1, "a"), ("b", 2)])
    path = tmp_path / "M.csv"
    csvio.dump_relation(rel, path)
    back = csvio.load_relation(path, "M", 2)
    assert back == rel


def test_arity_mismatch_raises(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n")
    with pytest.raises(ValueError):
        csvio.load_relation(path, "E", 2)


def test_database_roundtrip(tmp_path):
    db = Database(
        {1, 2, 3},
        [Relation("E", 2, [(1, 2), (2, 3)]), Relation("V", 1, [(1,), (3,)])],
    )
    csvio.dump_database(db, tmp_path)
    back = csvio.load_database(tmp_path, {"E": 2, "V": 1})
    assert back["E"] == db["E"]
    assert back["V"] == db["V"]
    # The reloaded universe is the active domain.
    assert back.universe == {1, 2, 3}


def test_loaded_database_equals_the_checked_construction(tmp_path):
    # load_database skips the domain check (its universe is the loaded
    # values); the checked constructor must accept and equal the result.
    (tmp_path / "E.csv").write_text("1,2\n2,a\nb,1\n")
    (tmp_path / "V.csv").write_text("c\n1\n")
    back = csvio.load_database(tmp_path, {"E": 2, "V": 1})
    checked = Database(back.universe, [back["E"], back["V"]])
    assert back == checked
    assert back.universe == {1, 2, "a", "b", "c"}


def test_delta_roundtrip(tmp_path):
    from repro.materialize import Delta

    delta = Delta(
        inserts={"E": [(1, 2), (2, 3)], "V": [(4,)]},
        deletes={"E": [(3, 1)]},
    )
    csvio.dump_delta(delta, tmp_path)
    back = csvio.load_delta(tmp_path, {"E": 2, "V": 1})
    assert back == delta


def test_load_delta_missing_files_are_empty(tmp_path):
    back = csvio.load_delta(tmp_path, {"E": 2})
    assert back.is_empty()


def test_load_delta_rejects_unknown_relation(tmp_path):
    (tmp_path / "R.insert.csv").write_text("1,2\n")
    with pytest.raises(ValueError):
        csvio.load_delta(tmp_path, {"E": 2})


def test_load_delta_rejects_arity_mismatch(tmp_path):
    (tmp_path / "E.insert.csv").write_text("1,2,3\n")
    with pytest.raises(ValueError):
        csvio.load_delta(tmp_path, {"E": 2})


def test_load_delta_rejects_typoed_file(tmp_path):
    (tmp_path / "E.inserts.csv").write_text("1,2\n")  # note the plural typo
    with pytest.raises(ValueError):
        csvio.load_delta(tmp_path, {"E": 2})


# ----------------------------------------------------------------------
# Zero-ary relations: "contains the empty tuple" vs "empty" must survive
# the round trip (the on-disk marker row disambiguates what a blank CSV
# file could not).
# ----------------------------------------------------------------------


def test_zeroary_relation_roundtrip(tmp_path):
    true_rel = Relation("B", 0, [()])
    false_rel = Relation("B", 0, [])
    true_path = tmp_path / "B_true.csv"
    false_path = tmp_path / "B_false.csv"
    csvio.dump_relation(true_rel, true_path)
    csvio.dump_relation(false_rel, false_path)
    assert csvio.load_relation(true_path, "B", 0) == true_rel
    assert csvio.load_relation(false_path, "B", 0) == false_rel
    # The two files are distinguishable on disk, not just in memory.
    assert true_path.read_text() != false_path.read_text()


def test_zeroary_marker_does_not_clash_with_unary_values(tmp_path):
    rel = Relation("V", 1, [("()",), (1,)])
    path = tmp_path / "V.csv"
    csvio.dump_relation(rel, path)
    assert csvio.load_relation(path, "V", 1) == rel


def test_zeroary_delta_roundtrip(tmp_path):
    from repro.materialize import Delta

    delta = Delta(inserts={"B": [()]}, deletes={"C": [()]})
    csvio.dump_delta(delta, tmp_path)
    back = csvio.load_delta(tmp_path, {"B": 0, "C": 0})
    assert back == delta
    assert back.inserts("B") == frozenset([()])
    assert back.deletes("C") == frozenset([()])


def test_zeroary_empty_delta_roundtrip(tmp_path):
    from repro.materialize import Delta

    # Nothing changed: no files are written, and loading yields the
    # empty change — NOT "insert the empty tuple".
    delta = Delta(inserts={"B": []})
    csvio.dump_delta(delta, tmp_path)
    assert list(tmp_path.iterdir()) == []
    back = csvio.load_delta(tmp_path, {"B": 0})
    assert back.is_empty()


# ----------------------------------------------------------------------
# Value-corruption regressions: only the *canonical* decimal form of an
# integer reloads as an int.  The old bare-int() coercion also captured
# "01", " 7", "+5", "1_0", ... — silently rewriting stored strings,
# which would have poisoned the server's WAL replay.
# ----------------------------------------------------------------------


def test_int_lookalike_strings_roundtrip_as_strings(tmp_path):
    rel = Relation("E", 2, [("01", "1_0"), (" 7", "+5")])
    path = tmp_path / "E.csv"
    csvio.dump_relation(rel, path)
    assert csvio.load_relation(path, "E", 2) == rel


@pytest.mark.parametrize(
    "lookalike",
    ["01", "007", "1_0", " 7", "7 ", "+5", "-0", "- 1", "٣", "１", "1e3"],
)
def test_noncanonical_int_forms_stay_strings(tmp_path, lookalike):
    path = tmp_path / "V.csv"
    csvio.dump_relation(Relation("V", 1, [(lookalike,)]), path)
    (loaded,) = next(iter(csvio.load_relation(path, "V", 1)))
    assert loaded == lookalike and isinstance(loaded, str)


def test_repeated_lookalikes_stay_strings_beside_canonical_ints(tmp_path):
    # Each distinct field is coerced once and shared by every row that
    # repeats it: a lookalike must not borrow an equal int's coercion.
    path = tmp_path / "E.csv"
    path.write_text(
        "".join(
            '"%s",%d\n%d,"%s"\n' % (text, number, number, text)
            for text, number in (("01", 1), ("+5", 5), ("-0", 0), (" 7", 7))
            for _ in range(3)
        )
    )
    rel = csvio.load_relation(path, "E", 2)
    assert rel.tuples == frozenset(
        pair
        for text, number in (("01", 1), ("+5", 5), ("-0", 0), (" 7", 7))
        for pair in ((text, number), (number, text))
    )
    for row in rel:
        assert {type(v) for v in row} == {str, int}


def test_canonical_negative_int_still_coerces(tmp_path):
    rel = Relation("V", 1, [(-12,), (0,), (345,)])
    path = tmp_path / "V.csv"
    csvio.dump_relation(rel, path)
    assert csvio.load_relation(path, "V", 1) == rel


def test_empty_string_value_roundtrips(tmp_path):
    # Arity-1 ("",) used to vanish: an unquoted empty field is a blank
    # line, which csv.reader skips.  QUOTE_NONNUMERIC keeps it visible.
    rel = Relation("V", 1, [("",), ("x",)])
    path = tmp_path / "V.csv"
    csvio.dump_relation(rel, path)
    assert csvio.load_relation(path, "V", 1) == rel


def test_dump_rejects_bool_values(tmp_path):
    # bool is an int subclass; unquoted "True" would reload as a string.
    with pytest.raises(ValueError, match="bool"):
        csvio.dump_relation(Relation("V", 1, [(True,)]), tmp_path / "V.csv")


def test_dump_rejects_nonpersistable_types(tmp_path):
    with pytest.raises(ValueError):
        csvio.dump_relation(Relation("V", 1, [(1.5,)]), tmp_path / "V.csv")


# ----------------------------------------------------------------------
# load_delta error reporting
# ----------------------------------------------------------------------


def test_load_delta_missing_directory_is_a_clear_error(tmp_path):
    with pytest.raises(ValueError, match="does not exist"):
        csvio.load_delta(tmp_path / "nope", {"E": 2})


def test_load_delta_on_a_file_is_a_clear_error(tmp_path):
    stray = tmp_path / "delta"
    stray.write_text("1,2\n")
    with pytest.raises(ValueError, match="not a directory"):
        csvio.load_delta(stray, {"E": 2})


def test_load_delta_empty_relation_name_is_a_clear_error(tmp_path):
    # A file named exactly ".insert.csv" has an empty relation name; the
    # old code reported it as an "unknown relation ''" confusion.
    (tmp_path / ".insert.csv").write_text("1,2\n")
    with pytest.raises(ValueError, match="empty relation name"):
        csvio.load_delta(tmp_path, {"E": 2})
