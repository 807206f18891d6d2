"""The codes-resident fixpoint: engines, set algebra and printing on row codes.

Every plan runs columnar, so every relational engine here is checked
against the ``theta_legacy`` / enumeration oracles on the one executor.
The rest pins what keeps that path honest: stale-width payloads, rows
too wide for 63 bits (the one case the Θ spec evaluates), zero-ary
programs, mixed representations that must not decode the big side, the
decode counters, and the CLI printing straight from id columns.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, Relation, parse_program
from repro.cli import _print_relations, _rows_text_from_codes
from repro.core.fixpoint import idb_union, least_among
from repro.core.operator import empty_idb, theta_legacy
from repro.core.program import Program
from repro.core.semantics import (
    SemanticsError,
    all_fixpoints,
    inflationary_semantics,
    is_semipositive,
    naive_least_fixpoint,
    seminaive_least_fixpoint,
    stratified_semantics,
    stratify,
)
from repro.db.kernel import RelationCodes, SymbolTable
from repro.graphs import generators as gg, graph_to_database
from repro.queries import distance_program, transitive_closure_program

from strategies import (
    metrics,
    positive_programs,
    random_programs,
    small_databases,
)

DECODED = "repro_relation_decoded_rows_total"
ENCODED = "repro_relation_encoded_rows_total"


def coded(name, arity, tuples, sym):
    """A code-only relation over ``tuples`` under ``sym``."""
    return Relation._from_codes(
        name, arity, RelationCodes.encode(sym, arity, list(tuples))
    )


# ----------------------------------------------------------------------
# Oracles: the paper's definitions through the reference evaluator
# ----------------------------------------------------------------------


def legacy_stages(program, db, inflationary):
    """``[stage_0, stage_1, ...]`` up to (and including) the fixpoint."""
    stages = [empty_idb(program)]
    while True:
        nxt = theta_legacy(program, db, stages[-1])
        if inflationary:
            nxt = idb_union([stages[-1], nxt])
        if nxt == stages[-1]:
            return stages
        stages.append(nxt)


def legacy_stratified(program, db):
    working = db
    final = {}
    for layer in stratify(program):
        sub = Program([r for r in program.rules if r.head.pred in layer])
        idb = legacy_stages(sub, working, inflationary=False)[-1]
        final.update(idb)
        working = working.with_relations(idb.values())
    return final


def check_engines(program, db):
    """Every engine that accepts ``program`` against its oracle."""
    stages = legacy_stages(program, db, inflationary=True)
    rounds = len(stages) - 1
    result = inflationary_semantics(program, db, keep_trace=True)
    assert result.idb == stages[-1]
    assert result.rounds == rounds
    assert result.trace == stages
    capped = [inflationary_semantics]

    if is_semipositive(program):
        stages = legacy_stages(program, db, inflationary=False)
        rounds = len(stages) - 1
        for engine in (naive_least_fixpoint, seminaive_least_fixpoint):
            result = engine(program, db, keep_trace=True)
            assert result.idb == stages[-1]
            assert result.rounds == rounds
            assert result.trace == stages
        capped += [naive_least_fixpoint, seminaive_least_fixpoint]

    for engine in capped:
        reached = engine(program, db).rounds
        assert engine(program, db, max_rounds=reached).rounds == reached
        if reached:
            with pytest.raises(SemanticsError):
                engine(program, db, max_rounds=reached - 1)

    try:
        expected = legacy_stratified(program, db)
    except SemanticsError:
        return  # not stratifiable
    assert stratified_semantics(program, db).idb == expected


# ----------------------------------------------------------------------
# Engines on the columnar form
# ----------------------------------------------------------------------


@given(random_programs(include_zeroary=True), small_databases())
@settings(max_examples=30)
def test_engines_match_the_oracles_on_the_columnar_form(program, db):
    check_engines(program, db)


@given(positive_programs(max_rules=3), small_databases(max_size=2))
@settings(max_examples=15)
def test_least_fixpoint_is_the_least_enumerated_fixpoint(program, db):
    least = least_among(all_fixpoints(program, db, limit_atoms=12))
    assert least is not None
    for engine in (naive_least_fixpoint, seminaive_least_fixpoint):
        assert engine(program, db).idb == least


MIXED_VALUES = parse_program(
    """
    T('out') :- E(X, Y).
    T(X) :- E(X, Y), !E(Y, X).
    S(X, 7) :- T(X).
    S(X, Y) :- E(X, Z), S(Z, Y).
    P(X, Y, 'tag', X) :- S(X, Y), X != Y.
    B() :- S(X, X).
    T(X) :- B(), E(X, X).
    """
)
MIXED_DB = Database(
    {1, 2, "a", "b", "7", -3},
    [Relation("E", 2, [(1, 2), (2, "a"), ("a", "b"), ("b", "b"), (-3, 1), ("7", -3)])],
)


def test_head_constants_outside_the_universe_and_mixed_value_types():
    check_engines(MIXED_VALUES, MIXED_DB)


# ----------------------------------------------------------------------
# The one fallback: rows wider than 63 bits go to the Θ spec
# ----------------------------------------------------------------------

WIDE = parse_program(
    """
    W(A, B, C, D, E, F, G) :- R(A, B, C, D, E, F, G).
    W(A, B, C, D, E, F, G) :- W(G, A, B, C, D, E, F).
    H(A) :- W(A, B, C, D, E, F, G), K(A).
    V(A, B, C, D, E, F, G) :- K(A), K(B), K(C), K(D), K(E), K(F), K(G).
    T(X, Y) :- K(X), K(Y), X != Y.
    """
)
WIDE_NEG = Program(
    list(WIDE.rules) + list(parse_program("N(X) :- K(X), !H(X).").rules)
)


def wide_db():
    # 301 values: 12-bit ids, so a 7-ary row needs 84 bits.
    rows = [tuple(range(7 * i, 7 * i + 7)) for i in range(43)]
    return Database(range(301), [Relation("R", 7, rows), Relation("K", 1, [(0,), (8,), (300,)])])


@pytest.fixture
def spec_calls(monkeypatch):
    """Counts the plan executions routed to the Θ spec."""
    from repro.core import operator

    calls = []
    spec = operator.evaluate_rule_legacy

    def counted(rule, interp, arities=None):
        calls.append(rule)
        return spec(rule, interp, arities)

    monkeypatch.setattr(operator, "evaluate_rule_legacy", counted)
    return calls


def test_rows_wider_than_63_bits_go_to_the_spec_and_nothing_else_does(spec_calls):
    from repro.materialize import Delta, MaterializedView

    db = wide_db()
    expected = legacy_stages(WIDE, db, inflationary=False)[-1]
    expected_neg = legacy_stratified(WIDE_NEG, db)
    del spec_calls[:]
    with metrics() as value:
        assert seminaive_least_fixpoint(WIDE, db).idb == expected
        assert stratified_semantics(WIDE_NEG, db).idb == expected_neg
        assert spec_calls
        assert value("repro_kernel_declined_total") == len(spec_calls)
        assert value("repro_engine_kernel_executions_total") > 0
        assert value("repro_engine_rule_executions_total") - value(
            "repro_engine_kernel_executions_total"
        ) == len(spec_calls)
    assert db.symbols().shift * 7 > 63
    view = MaterializedView(WIDE_NEG, db, semantics="stratified")
    del spec_calls[:]
    with metrics() as value:
        view.apply(Delta.insert("R", tuple(range(294, 301))))
        view.apply(Delta.delete("R", tuple(range(0, 7))))
        view.apply(Delta.delete("K", (8,)))  # V: only its head is wide
        assert spec_calls
        assert value("repro_kernel_declined_total") == len(spec_calls)
    # V's variants read only K and its aliases: counting takes their
    # wide head from the id columns, never from the spec.
    k_aliases = {"K"} | {"K" + suffix for suffix in ("@old", "@ins", "@del")}
    assert not [r for r in spec_calls if r.body_predicates() <= k_aliases]
    assert view.result.idb == legacy_stratified(WIDE_NEG, view.db)


def test_a_propositional_program_runs_on_the_kernel():
    program = parse_program("P() :- !Q().  Q() :- E(X, X).")
    for edges in ([(1, 2)], [(1, 2), (2, 2)]):
        db = Database({1, 2}, [Relation("E", 2, edges)])
        with metrics() as value:
            check_engines(program, db)
            assert value("repro_kernel_declined_total") == 0
            assert value("repro_engine_kernel_executions_total") > 0


# ----------------------------------------------------------------------
# Stale-width payloads and generation bumps
# ----------------------------------------------------------------------


def test_set_algebra_on_payloads_of_a_retired_width():
    sym = SymbolTable(range(10))
    a = coded("R", 2, [(1, 2), (3, 4)], sym)
    b = coded("R", 2, [(5, 6), (3, 4)], sym)
    sym.intern_many(range(10, 300))  # 8 -> 12 bits per field
    assert not a.code_only.valid() and not b.code_only.valid()
    c = coded("R", 2, [(1, 2), (299, 0)], sym)  # packed under the new width
    assert a.union(b).tuples == {(1, 2), (3, 4), (5, 6)}
    assert a.union(c).tuples == {(1, 2), (3, 4), (299, 0)}
    assert c.union(a).tuples == {(1, 2), (3, 4), (299, 0)}
    assert a.intersection(b).tuples == {(3, 4)}
    assert a.intersection(c).tuples == {(1, 2)}
    assert a.difference(b).tuples == {(1, 2)}
    assert c.difference(a).tuples == {(299, 0)}
    assert a != b and a == coded("R", 2, [(3, 4), (1, 2)], sym)
    assert coded("R", 2, [(1, 2)], sym).issubset(a)
    assert not c.issubset(a)
    # Re-packing is vectorised: nothing above decoded a payload to get there.
    fresh = coded("R", 2, [(1, 2), (3, 4)], sym)
    assert fresh.code_only.valid()
    assert a.codes_on(sym).valid() and a == fresh


def test_codes_that_no_longer_fit_64_bits_fall_back_to_tuples():
    sym = SymbolTable(range(10))
    wide = coded("W", 7, [tuple(range(7)), tuple(range(1, 8))], sym)  # 7 x 8 bits
    other = coded("W", 7, [tuple(range(7))], sym)
    sym.intern_many(range(10, 300))  # 7 x 12 bits > 63
    assert wide.codes_on(sym) is None
    assert wide.union(other).tuples == wide.tuples
    assert wide.difference(other).tuples == {tuple(range(1, 8))}


WIDENING = parse_program(
    "S(X, Y) :- E(X, Y).  S(X, Y) :- E(X, Z), S(Z, Y).\n"
    + "\n".join("T(X, 'k%d') :- S(X, Y)." % i for i in range(8))
)


def widening_db():
    # 250 universe elements (8-bit ids); the eight head constants of T are
    # first interned when T's delta variants run, in round 2: the table
    # widens to 12 bits while S and T already live in codes.
    edges = [(8 * block + i, 8 * block + i + 1) for block in range(10) for i in range(7)]
    return Database(range(250), [Relation("E", 2, edges)])


@pytest.mark.parametrize(
    "engine",
    [
        naive_least_fixpoint,
        seminaive_least_fixpoint,
        inflationary_semantics,
        stratified_semantics,
    ],
)
def test_a_generation_bump_mid_fixpoint_is_absorbed(engine):
    db = widening_db()
    expected = legacy_stages(WIDENING, db, inflationary=False)[-1]
    assert db.interned_size() is None
    with metrics() as value:
        result = engine(WIDENING, db)
        assert value("repro_engine_kernel_executions_total") > 0
        # The bump is absorbed before each plan's first op: nothing goes
        # to the spec, and nothing is decoded.
        assert value("repro_kernel_declined_total") == 0
        assert value(DECODED) == 0
    assert db.symbols().generation >= 1  # the run widened the table ...
    assert result.idb["T"].code_only is not None  # ... and stayed in codes
    assert result.idb == expected


# ----------------------------------------------------------------------
# Mixed representations
# ----------------------------------------------------------------------


def test_mixed_operands_never_decode_the_code_only_side():
    sym = SymbolTable(range(2000))
    big = coded("R", 2, [(i, i + 1) for i in range(1500)], sym)
    small = Relation("R", 2, [(0, 1), (5, 5)])
    empty = Relation.empty("R", 2)
    with metrics() as value:
        results = [
            big.union(small),
            small.union(big),
            empty.union(big),
            big.difference(small),
            small.difference(big),
            big.intersection(small),
        ]
        assert big != small and not big.issubset(small) and small != big
        assert Relation("R", 2, [(0, 1)]).issubset(big)
        assert big == coded("R", 2, [(i, i + 1) for i in range(1500)], sym)
        assert value(DECODED) == 0
        assert all(r.code_only is not None for r in results)
        # Only the small tuple-backed sides were ever interned.
        assert value(ENCODED) <= 1500 + 8
    sizes = [len(r) for r in results]
    assert sizes == [1501, 1501, 1500, 1499, 1, 1]
    assert results[4].tuples == {(5, 5)}


# ----------------------------------------------------------------------
# Observability: nothing is externed between entry and return
# ----------------------------------------------------------------------


def test_seminaive_decodes_nothing_until_the_caller_asks_for_tuples():
    db = graph_to_database(gg.path(70))
    with metrics() as value:
        result = seminaive_least_fixpoint(transitive_closure_program(), db)
        assert value("repro_engine_kernel_executions_total") > 0
        assert value(DECODED) == 0
        tuples = result.idb["S"].tuples
        assert value(DECODED) == len(tuples) == 69 * 70 // 2
    assert tuples == {(i, j) for i in range(1, 71) for j in range(i + 1, 71)}


def test_inflationary_decodes_nothing_until_the_caller_asks_for_tuples():
    program = distance_program()
    db = graph_to_database(gg.path(9))
    with metrics() as value:
        result = inflationary_semantics(program, db)
        # the carrier's rules complete through a negation: always columnar
        assert value("repro_engine_kernel_executions_total") > 0
        assert value(DECODED) == 0
        tuples = result.idb[program.carrier].tuples
        assert value(DECODED) == len(tuples) > 64
    assert result.idb == legacy_stages(program, db, inflationary=True)[-1]


def test_round_spans_carry_decoded_rows():
    from repro.obs import TRACER, walk

    program = transitive_closure_program()
    db = graph_to_database(gg.path(70))
    with metrics():
        TRACER.start()
        try:
            seminaive_least_fixpoint(program, db)
        finally:
            roots = TRACER.stop()
    rounds = [s for s, _parent in walk(roots) if s.name == "seminaive.round"]
    assert len(rounds) == 70  # 69 growing rounds and the confirming one
    assert all(s.attrs["decoded_rows"] == 0 for s in rounds)
    assert sorted(s.attrs["round"] for s in rounds) == list(range(1, 71))


# ----------------------------------------------------------------------
# Printing from codes
# ----------------------------------------------------------------------


def spec_output(name, arity, tuples):
    lines = ["%s/%d (%d tuples):" % (name, arity, len(tuples))]
    lines += ["  " + ", ".join(str(v) for v in t) for t in sorted(tuples, key=repr)]
    return "\n".join(lines) + "\n"


def printed(idb):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _print_relations(idb)
    return out.getvalue()


PRINTABLE = st.one_of(
    st.integers(min_value=-1200, max_value=1200),
    st.text(alphabet="ab1-,' \"\\)(", max_size=5),
    st.text(max_size=3),
)


@given(st.data(), st.sampled_from([0, 1, 2, 4]))
def test_printing_from_codes_is_byte_identical_to_the_spec(data, arity):
    tuples = data.draw(
        st.sets(st.tuples(*([PRINTABLE] * arity)), max_size=12 if arity else 1)
    )
    rel = coded("R", arity, tuples, SymbolTable())
    assert rel.code_only is not None
    if arity and tuples:
        # ints and strings: the id-column path itself, not the fallback
        assert _rows_text_from_codes(rel) is not None
    assert printed({"R": rel}) == spec_output("R", arity, tuples)
    assert printed({"R": Relation("R", arity, tuples)}) == spec_output("R", arity, tuples)


def test_printing_falls_back_when_reprs_are_not_prefix_free():
    class Odd:
        def __init__(self, text):
            self.text = text

        def __repr__(self):
            return self.text

    x, xy, z = Odd("x"), Odd("x, y"), Odd("a")
    tuples = {(x, z), (xy, z), (z, x)}
    rel = coded("R", 2, tuples, SymbolTable())
    assert _rows_text_from_codes(rel) is None  # "x, " is a prefix of "x, y, "
    assert printed({"R": rel}) == spec_output("R", 2, tuples)


def test_print_relations_orders_predicates_and_engine_results():
    db = graph_to_database(gg.path(70))
    result = seminaive_least_fixpoint(transitive_closure_program(), db)
    assert result.idb["S"].code_only is not None
    text = printed(result.idb)
    assert text == spec_output("S", 2, result.idb["S"].tuples)
