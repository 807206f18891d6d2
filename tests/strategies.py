"""Hypothesis strategies and small fixtures shared across the test-suite.

This is a proper importable module (``from strategies import ...``) rather
than part of ``conftest.py``: importing from ``conftest`` is ambiguous when
several conftests are collected in one run — ``benchmarks/conftest.py``
used to shadow the tests' one and break collection from the repo root.
"""

from __future__ import annotations

import contextlib

from hypothesis import strategies as st

from repro import Database, Relation
from repro.core.literals import Atom, Eq, Negation, Neq
from repro.core.program import Program
from repro.core.rules import Rule
from repro.core.terms import Variable
from repro.obs import MetricsRegistry, disable_metrics, enable_metrics

_VARS = [Variable(n) for n in ("X", "Y", "Z")]


@contextlib.contextmanager
def metrics():
    """A scratch registry bound to the recorder for the body."""
    scratch = MetricsRegistry()
    enable_metrics(scratch)
    try:
        yield lambda name: scratch.counter(name).value
    finally:
        disable_metrics()


def assert_index_matches(index, rules):
    """A ground-program index lists exactly ``rules``, atom by atom."""
    current = {g for g in index.rules if g is not None}
    assert current == set(rules)
    assert len(index.atom_ids) == len(index.atoms) == len(index.by_head)
    assert {a for g in current for a in (g.head, *g.pos, *g.neg)} <= set(index.atom_ids)
    for r, g in enumerate(index.rules):
        if g is not None:
            assert index.head[r] == index.atom_ids[g.head]
            assert index.npos[r] == len(set(g.pos))
    for a, atom in enumerate(index.atoms):
        assert index.atom_ids[atom] == a
        for occurrences, reads in (
            (index.by_head, lambda g: g.head == atom),
            (index.by_pos, lambda g: atom in g.pos),
            (index.by_neg, lambda g: atom in g.neg),
        ):
            listed = [index.rules[r] for r in occurrences[a]]
            assert len(listed) == len(set(listed))
            assert set(listed) == {g for g in current if reads(g)}


# ----------------------------------------------------------------------
# Persistable values for the CSV round-trip properties
# ----------------------------------------------------------------------

_INT_LOOKALIKES = [
    # Strings ``int()`` would happily parse but which are NOT the
    # canonical decimal form — the exact shapes the old bare-``int()``
    # coercion corrupted on reload.  They must stay strings.
    "01",
    "007",
    "1_0",
    " 7",
    "7 ",
    "+5",
    "-0",
    "٣",  # Arabic-Indic digit: int("٣") == 3, but it is not canonical
    "１",  # fullwidth digit
    "1e3",
    "0x10",
]

# ``csv`` cannot carry NUL, and lone surrogates cannot be encoded.
_TEXT = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",), blacklist_characters="\0"
    ),
    max_size=8,
)


def _is_canonical_int(s: str) -> bool:
    from repro.db.csvio import _CANONICAL_INT

    return _CANONICAL_INT.fullmatch(s) is not None


def persistable_strings():
    """Strings that survive the CSV round trip as themselves.

    A string that *is* the canonical decimal form of an integer (``"7"``,
    ``"-12"``) reloads as that integer by convention, so identity holds
    exactly for the complement — which includes every int-lookalike
    (``"01"``, ``" 7"``, ``"+5"``, ...) the old coercion corrupted.
    """
    return st.one_of(
        st.sampled_from(_INT_LOOKALIKES),
        _TEXT.filter(lambda s: not _is_canonical_int(s)),
    )


def persistable_values():
    """The CSV-persistable value universe: ints and non-lookalike strings."""
    return st.one_of(st.integers(), persistable_strings())
_IDB_UNARY = "T"
_IDB_BINARY = "S"
_IDB_ZEROARY = "B"
_EDB = "E"


@st.composite
def small_databases(draw, max_size: int = 4):
    """A database over {1..n} with a binary EDB relation E."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    universe = list(range(1, n + 1))
    pairs = st.tuples(st.sampled_from(universe), st.sampled_from(universe))
    edges = draw(st.lists(pairs, max_size=8))
    return Database(universe, [Relation(_EDB, 2, edges)])


def _atom_strategy(pred: str, arity: int):
    return st.builds(
        lambda args: Atom(pred, args),
        st.tuples(*([st.sampled_from(_VARS)] * arity)),
    )


@st.composite
def body_literals(draw, allow_idb_negation: bool, include_zeroary: bool = False):
    """One random body literal over E/2, T/1, S/2 (and B/0) and X, Y, Z."""
    kinds = ["edb", "idb1", "idb2", "neg_edb", "eq", "neq"]
    if allow_idb_negation:
        kinds += ["neg_idb1", "neg_idb2"]
    if include_zeroary:
        kinds += ["idb0"] + (["neg_idb0"] if allow_idb_negation else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "edb":
        return draw(_atom_strategy(_EDB, 2))
    if kind == "idb1":
        return draw(_atom_strategy(_IDB_UNARY, 1))
    if kind == "idb2":
        return draw(_atom_strategy(_IDB_BINARY, 2))
    if kind == "idb0":
        return Atom(_IDB_ZEROARY, ())
    if kind == "neg_edb":
        return Negation(draw(_atom_strategy(_EDB, 2)))
    if kind == "neg_idb1":
        return Negation(draw(_atom_strategy(_IDB_UNARY, 1)))
    if kind == "neg_idb2":
        return Negation(draw(_atom_strategy(_IDB_BINARY, 2)))
    if kind == "neg_idb0":
        return Negation(Atom(_IDB_ZEROARY, ()))
    left, right = draw(st.tuples(st.sampled_from(_VARS), st.sampled_from(_VARS)))
    return Eq(left, right) if kind == "eq" else Neq(left, right)


@st.composite
def random_programs(
    draw,
    allow_idb_negation: bool = True,
    max_rules: int = 4,
    include_zeroary: bool = False,
):
    """A random program with IDB predicates T/1 and S/2 over EDB E/2.

    Both IDB predicates always head at least one rule, so arities are
    well-defined and every engine can run.  With ``include_zeroary`` the
    program also defines and uses a zero-ary (propositional) predicate
    B/0 — the degenerate relation shape the batch executor must handle.
    """
    signatures = [(_IDB_UNARY, 1), (_IDB_BINARY, 2)]
    if include_zeroary:
        signatures.append((_IDB_ZEROARY, 0))
    rules = []
    for pred, arity in signatures:
        n_rules = draw(st.integers(min_value=1, max_value=max_rules))
        for _ in range(n_rules):
            head = draw(_atom_strategy(pred, arity)) if arity else Atom(pred, ())
            body = draw(
                st.lists(
                    body_literals(allow_idb_negation, include_zeroary),
                    min_size=0,
                    max_size=3,
                )
            )
            rules.append(Rule(head, body))
    return Program(rules, carrier=_IDB_UNARY)


_LEFT_VARS = [Variable(n) for n in ("X", "Y")]
_RIGHT_VARS = [Variable(n) for n in ("U", "W")]


@st.composite
def _component_literals(draw, vars_pool, allow_negation: bool):
    """A body literal whose variables come from one pool only."""
    kinds = ["edb", "idb1", "idb2"]
    if allow_negation:
        kinds += ["neg_edb", "neg_idb1"]
    kind = draw(st.sampled_from(kinds))
    pick = st.sampled_from(vars_pool)
    if kind == "edb":
        return Atom(_EDB, (draw(pick), draw(pick)))
    if kind == "idb1":
        return Atom(_IDB_UNARY, (draw(pick),))
    if kind == "idb2":
        return Atom(_IDB_BINARY, (draw(pick), draw(pick)))
    if kind == "neg_edb":
        return Negation(Atom(_EDB, (draw(pick), draw(pick))))
    return Negation(Atom(_IDB_UNARY, (draw(pick),)))


@st.composite
def disconnected_programs(draw, allow_negation: bool = True):
    """Programs whose rule bodies have *disconnected* variable graphs.

    Each rule's body splits into two components over disjoint variable
    pools ({X, Y} and {U, W}) with at least one positive atom each, so
    evaluating it takes a genuine cross product — the shape the join
    order and the projections before a product must leave intact (there
    is no shared variable to key through).  Heads mix variables from
    both components, so a dropped component is observable in the
    derived tuples.
    """
    rules = []
    # T/1 and S/2 both head at least one rule so arities are defined.
    for pred, arity in ((_IDB_UNARY, 1), (_IDB_BINARY, 2)):
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            left = [Atom(_EDB, (draw(st.sampled_from(_LEFT_VARS)), draw(st.sampled_from(_LEFT_VARS))))]
            left += draw(
                st.lists(_component_literals(_LEFT_VARS, allow_negation), max_size=2)
            )
            right = [
                draw(
                    st.sampled_from(
                        [
                            Atom(_EDB, (_RIGHT_VARS[0], _RIGHT_VARS[1])),
                            Atom(_IDB_BINARY, (_RIGHT_VARS[0], _RIGHT_VARS[1])),
                            Atom(_IDB_UNARY, (_RIGHT_VARS[0],)),
                        ]
                    )
                )
            ]
            right += draw(
                st.lists(_component_literals(_RIGHT_VARS, allow_negation), max_size=2)
            )
            if arity == 1:
                head = Atom(pred, (draw(st.sampled_from(_LEFT_VARS + _RIGHT_VARS)),))
            else:
                # One head variable from each component: the cross
                # product is visible in the head tuples.
                head = Atom(
                    pred,
                    (
                        draw(st.sampled_from(_LEFT_VARS)),
                        draw(st.sampled_from(_RIGHT_VARS)),
                    ),
                )
            rules.append(Rule(head, left + right))
    return Program(rules, carrier=_IDB_UNARY)


@st.composite
def nonstratifiable_programs(draw, max_cycle: int = 3, max_extra_rules: int = 2):
    """Programs with recursion through negation, around a negation cycle.

    The core is a cycle of unary predicates ``W0 -> !W1 -> ... -> !W0``
    of random length (hence random *parity* — odd cycles are where the
    paper's fixpoint semantics loses all fixpoints, even cycles where it
    loses uniqueness), guarded by an ``E`` step so the game is played on
    the database graph: length 1 is exactly the win–move program.  On
    top, random extra rules mix EDB and IDB negation: extra disjuncts
    for the cycle predicates (win–move variants), a positive-recursion
    side predicate ``T``, and a stratified observer ``U`` negating into
    the cycle — so the well-founded undefined region both arises and
    propagates.  No draw is stratifiable (the cycle guarantees it).
    """
    k = draw(st.integers(min_value=1, max_value=max_cycle))
    preds = ["W%d" % i for i in range(k)]
    x, y, z = _VARS
    rules = [
        Rule(
            Atom(preds[i], (x,)),
            [Atom(_EDB, (x, y)), Negation(Atom(preds[(i + 1) % k], (y,)))],
        )
        for i in range(k)
    ]

    extra_kinds = st.sampled_from(["variant", "observer", "positive"])
    for _ in range(draw(st.integers(min_value=0, max_value=max_extra_rules))):
        kind = draw(extra_kinds)
        if kind == "variant":
            # Another disjunct for a cycle predicate, mixing EDB negation.
            head = Atom(draw(st.sampled_from(preds)), (x,))
            body = [Atom(_EDB, (x, y))]
            if draw(st.booleans()):
                body.append(Negation(Atom(_EDB, (y, x))))
            body.append(
                draw(st.sampled_from([Atom(preds[0], (y,)), Negation(Atom(preds[k - 1], (y,)))]))
            )
            rules.append(Rule(head, body))
        elif kind == "observer":
            # A stratified layer on top: negates into the undefined region.
            rules.append(
                Rule(
                    Atom("U", (x,)),
                    [Atom(_EDB, (x, y)), Negation(Atom(preds[0], (x,)))],
                )
            )
        else:
            # Positive recursion alongside the negation cycle.
            rules.append(Rule(Atom("T", (x,)), [Atom(_EDB, (y, x))]))
            rules.append(
                Rule(Atom("T", (x,)), [Atom(_EDB, (z, x)), Atom("T", (z,))])
            )
    return Program(rules, carrier=preds[0])


@st.composite
def databases_and_deltas(draw, max_deltas: int = 4, insert_only: bool = False,
                         delete_only: bool = False, grow: bool = True):
    """A small database plus a sequence of deltas over its E relation.

    Delta values are drawn from the universe plus, when ``grow`` is left
    on and the sequence may insert, up to two fresh elements (in about
    half the examples, two in a sixth).  Each fresh element is inserted
    by at least one delta, so the sequence grows the universe: the
    ``@U`` insertion every view semantics maintains.  Delete-only
    sequences draw no fresh element, since deleting an unseen value is
    never effective.
    """
    from repro.materialize import Delta

    db = draw(small_databases())
    universe = sorted(db.universe)
    n_fresh = 0
    if grow and not delete_only:
        n_fresh = draw(st.sampled_from((0, 0, 0, 1, 1, 2)))
    fresh = [max(universe) + 1 + i for i in range(n_fresh)]
    pool = universe + fresh
    pairs = st.tuples(st.sampled_from(pool), st.sampled_from(pool))
    count = draw(st.integers(min_value=1, max_value=max_deltas))
    growing = {}
    for value in fresh:
        partner = draw(st.sampled_from(pool))
        pair = (value, partner) if draw(st.booleans()) else (partner, value)
        growing.setdefault(draw(st.integers(0, count - 1)), []).append(pair)
    deltas = []
    for i in range(count):
        ins = [] if delete_only else draw(st.lists(pairs, max_size=3))
        ins += growing.get(i, [])
        dels = [] if insert_only else draw(st.lists(pairs, max_size=3))
        dels = [t for t in dels if t not in set(ins)]
        deltas.append(Delta(inserts={"E": ins}, deletes={"E": dels}))
    return db, deltas


@st.composite
def positive_programs(draw, max_rules: int = 4):
    """A random negation-free program (paper's DATALOG class)."""
    rules = []
    for pred, arity in ((_IDB_UNARY, 1), (_IDB_BINARY, 2)):
        n_rules = draw(st.integers(min_value=1, max_value=max_rules))
        for _ in range(n_rules):
            head = draw(_atom_strategy(pred, arity))
            literal_kinds = st.sampled_from(["edb", "idb1", "idb2", "eq"])

            def make(kind, a=None):
                if kind == "edb":
                    return draw(_atom_strategy(_EDB, 2))
                if kind == "idb1":
                    return draw(_atom_strategy(_IDB_UNARY, 1))
                if kind == "idb2":
                    return draw(_atom_strategy(_IDB_BINARY, 2))
                left = draw(st.sampled_from(_VARS))
                right = draw(st.sampled_from(_VARS))
                return Eq(left, right)

            body = [
                make(draw(literal_kinds))
                for _ in range(draw(st.integers(min_value=0, max_value=3)))
            ]
            rules.append(Rule(head, body))
    return Program(rules, carrier=_IDB_UNARY)
