"""Property tests: CSV persistence is a round-trip identity.

The WAL replay path (``repro.server.wal``) recovers a server by
re-applying logged CSV deltas, so ``load(dump(x)) == x`` must hold for
*every* persistable relation, database and delta — not just friendly
examples.  The adversarial part of the value universe is strings that
``int()`` would parse (``"01"``, ``" 7"``, ``"+5"``, ``"-0"``, ...):
the old coercion turned those into integers on reload, which is exactly
the corruption that would have poisoned replay.  The convention tested
here is the fixed one: a value reloads as an ``int`` iff its text is
the canonical decimal form (``repr`` of an int), so every other string
— including every int-lookalike — reloads as itself.

Dumps and query responses are built row by row from text fragments
(:class:`~repro.db.csvio.SortedRows`) and patched as relations change,
so the last group pins them byte for byte to ``csv.writer`` and
``json.dumps``, fresh and after any sequence of patches.
"""

import csv
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import csvio
from repro.db.database import Database
from repro.db.relation import Relation
from repro.materialize import Delta
from repro.server.protocol import encode_tuples, tuple_rows
from strategies import persistable_strings, persistable_values


def _tuples(arity, max_size=6):
    return st.lists(
        st.tuples(*([persistable_values()] * arity)), max_size=max_size
    )


@st.composite
def relations(draw, name="R", min_arity=0, max_arity=3):
    arity = draw(st.integers(min_value=min_arity, max_value=max_arity))
    return Relation(name, arity, draw(_tuples(arity)))


@given(rel=relations())
def test_relation_roundtrip_identity(rel, tmp_path_factory):
    path = tmp_path_factory.mktemp("rel") / "R.csv"
    csvio.dump_relation(rel, path)
    assert csvio.load_relation(path, rel.name, rel.arity) == rel


@given(data=st.data())
def test_database_roundtrip_identity(data, tmp_path_factory):
    rels = [
        data.draw(relations(name=name), label=name) for name in ("E", "S", "V")
    ]
    active = {v for rel in rels for t in rel for v in t}
    db = Database(active, rels, check=False)
    directory = tmp_path_factory.mktemp("db")
    csvio.dump_database(db, directory)
    back = csvio.load_database(
        directory, {rel.name: rel.arity for rel in rels}
    )
    for rel in rels:
        assert back[rel.name] == rel
    # The reloaded universe is the active domain, by contract.
    assert back.universe == active


@given(data=st.data())
def test_delta_roundtrip_identity(data, tmp_path_factory):
    schema = {"E": 2, "V": 1, "B": 0}
    inserts = {
        name: data.draw(_tuples(arity), label="ins " + name)
        for name, arity in schema.items()
    }
    deletes = {
        # A tuple may not be on both sides of one relation's change.
        name: [
            t
            for t in data.draw(_tuples(arity), label="del " + name)
            if t not in set(inserts[name])
        ]
        for name, arity in schema.items()
    }
    delta = Delta(inserts=inserts, deletes=deletes)
    directory = tmp_path_factory.mktemp("delta")
    csvio.dump_delta(delta, directory)
    assert csvio.load_delta(directory, schema) == delta


@given(value=st.integers())
def test_every_int_reloads_as_int(value, tmp_path_factory):
    path = tmp_path_factory.mktemp("int") / "V.csv"
    csvio.dump_relation(Relation("V", 1, [(value,)]), path)
    back = csvio.load_relation(path, "V", 1)
    (loaded,) = next(iter(back))
    assert loaded == value and isinstance(loaded, int)


@given(value=persistable_strings())
def test_every_noncanonical_string_reloads_as_string(value, tmp_path_factory):
    path = tmp_path_factory.mktemp("str") / "V.csv"
    csvio.dump_relation(Relation("V", 1, [(value,)]), path)
    back = csvio.load_relation(path, "V", 1)
    (loaded,) = next(iter(back))
    assert loaded == value and isinstance(loaded, str)


@given(value=st.integers())
def test_canonical_string_form_collapses_to_the_int(value, tmp_path_factory):
    # The one deliberate non-identity: a string that IS the canonical
    # decimal form reloads as the integer.  This is the documented
    # convention ("7" and 7 are the same stored value), not corruption —
    # the pair never coexists distinctly on disk.
    path = tmp_path_factory.mktemp("canon") / "V.csv"
    csvio.dump_relation(Relation("V", 1, [(str(value),)]), path)
    (loaded,) = next(iter(csvio.load_relation(path, "V", 1)))
    assert loaded == value and isinstance(loaded, int)


@given(
    rows=st.lists(
        st.tuples(persistable_values(), persistable_values()), max_size=5
    )
)
@settings(max_examples=50)
def test_double_roundtrip_is_stable(rows, tmp_path_factory):
    # dump∘load is idempotent: a second round trip changes nothing
    # (replay of a replayed log converges).
    directory = tmp_path_factory.mktemp("stable")
    rel = Relation("E", 2, rows)
    csvio.dump_relation(rel, directory / "a.csv")
    once = csvio.load_relation(directory / "a.csv", "E", 2)
    csvio.dump_relation(once, directory / "b.csv")
    twice = csvio.load_relation(directory / "b.csv", "E", 2)
    assert twice == once


# ----------------------------------------------------------------------
# Kept renderings: fragment-built text equals the library renderers
# ----------------------------------------------------------------------

_AWKWARD = st.sampled_from(['"', ",", "\r\n", "", "01", " 7", "-0", "()", 'a"b,c'])
_FIELDS = st.one_of(st.integers(min_value=-5, max_value=5), _AWKWARD, persistable_values())


def _row_sets(arity, max_size=8):
    return st.frozensets(st.tuples(*([_FIELDS] * arity)), max_size=max_size)


def _csv_writer_oracle(rows):
    """The CSV a ``csv.writer(QUOTE_NONNUMERIC)`` loop writes for ``rows``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, quoting=csv.QUOTE_NONNUMERIC)
    for t in sorted(rows, key=repr):
        writer.writerow(t if t else ("()",))
    return buffer.getvalue()


def _json_oracle(rows):
    return json.dumps(encode_tuples(rows), separators=(",", ":"))


@given(data=st.data())
def test_fragment_csv_equals_csv_writer_and_round_trips(data, tmp_path_factory):
    arity = data.draw(st.integers(min_value=0, max_value=3), label="arity")
    rows = data.draw(_row_sets(arity), label="rows")
    rel = Relation("R", arity, rows)
    path = tmp_path_factory.mktemp("frag") / "R.csv"
    csvio.dump_relation(rel, path)
    with open(path, newline="") as f:
        assert f.read() == _csv_writer_oracle(rows)
    assert csvio.csv_rows(rows).text() == _csv_writer_oracle(rows)
    back = csvio.load_relation(path, "R", arity)
    # Canonical-int strings reload as the int by convention.
    assert back == Relation(
        "R", arity, [tuple(csvio._coerce(v) if isinstance(v, str) else v for v in t) for t in rows]
    )


@pytest.mark.parametrize("value,kind", [(True, "bool"), (1.5, "float")])
def test_fragment_csv_rejects_what_the_convention_rejects(value, kind, tmp_path):
    message = (
        "value %r of relation V is %s; the CSV format persists int and str "
        "values only" % (value, kind)
    )
    with pytest.raises(ValueError, match=re.escape(message)):
        csvio.dump_relation(Relation("V", 1, [(2,), (value,)]), tmp_path / "V.csv")
    kept = csvio.csv_rows([(1,)], "relation V")
    with pytest.raises(ValueError, match=re.escape(message)):
        kept.patch([(value,)], [(1,)])
    assert kept.text() == "1\r\n"  # a refused patch moves nothing


@given(data=st.data())
def test_fragment_json_equals_json_dumps(data):
    arity = data.draw(st.integers(min_value=0, max_value=3), label="arity")
    rows = data.draw(_row_sets(arity), label="rows")
    assert tuple_rows(rows).text() == _json_oracle(rows)


@given(data=st.data())
def test_patched_text_equals_a_fresh_rendering(data):
    arity = data.draw(st.integers(min_value=1, max_value=2), label="arity")
    current = set(data.draw(_row_sets(arity), label="initial"))
    csv_kept = csvio.csv_rows(current)
    json_kept = tuple_rows(current)
    for _ in range(data.draw(st.integers(min_value=0, max_value=6), label="steps")):
        inserted = data.draw(_row_sets(arity, max_size=3), label="inserted")
        deleted = data.draw(_row_sets(arity, max_size=3), label="deleted") - inserted
        for kept in (csv_kept, json_kept):
            kept.text()  # memoised text must be dropped by the patch
            kept.patch(inserted, deleted)
        current = (current - deleted) | inserted
        assert len(csv_kept) == len(current)
    assert csv_kept.text() == csvio.csv_rows(current).text() == _csv_writer_oracle(current)
    assert json_kept.text() == tuple_rows(current).text() == _json_oracle(current)
