"""Integration: the E1–E9 experiment suite must reproduce the paper.

These are the heaviest tests in the suite — each one regenerates a whole
experiment and asserts every `ok` cell.  They double as the executable
record behind EXPERIMENTS.md.
"""

import gc

import pytest

from repro.bench import all_experiments, experiment
from repro.bench.harness import Table, collector_paused, timed


def test_registry_complete():
    idents = [e.ident for e in all_experiments()]
    assert set(idents) >= {"e%d" % i for i in range(1, 10)}
    assert "perf" in idents  # the planner's compiled-vs-legacy experiment


def test_unknown_experiment():
    with pytest.raises(KeyError):
        experiment("e99")


@pytest.mark.parametrize("ident", ["e%d" % i for i in range(1, 10)])
def test_experiment_reproduces_paper_claim(ident):
    exp = experiment(ident)
    tables = exp.run()
    assert tables, "experiment %s produced no tables" % ident
    for table in tables:
        assert table.all_ok(), "failing rows in %r:\n%s" % (
            table.title,
            table.render(),
        )


class TestHarness:
    def test_row_arity_check(self):
        table = Table("t", ["a", "b"])
        with pytest.raises(ValueError):
            table.add(1)

    def test_all_ok_uses_ok_columns(self):
        table = Table("t", ["value", "ok"])
        table.add("x", True)
        assert table.all_ok()
        table.add("y", False)
        assert not table.all_ok()

    def test_render_contains_cells_and_notes(self):
        table = Table("title", ["col"])
        table.add(42)
        table.note("a note")
        text = table.render()
        assert "42" in text and "a note" in text and "title" in text

    def test_render_markdown(self):
        table = Table("m", ["c1", "c2"])
        table.add(True, 1.25)
        md = table.render_markdown()
        assert md.startswith("### m")
        assert "| yes | 1.25 |" in md

    def test_duplicate_registration_rejected(self):
        from repro.bench.harness import register

        with pytest.raises(ValueError):
            register("e1", "dup", "dup")(lambda: [])


class TestTimingProtocol:
    """``collector_paused`` / ``timed``: the one way ``repro.bench`` times a cell."""

    @pytest.fixture(autouse=True)
    def collector_on(self):
        was = gc.isenabled()
        gc.enable()
        yield
        if not was:
            gc.disable()

    def test_collector_is_off_inside_and_restored_after(self):
        with collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_collector_is_restored_when_the_timed_call_raises(self):
        def fail():
            assert not gc.isenabled()
            raise KeyError("boom")

        with pytest.raises(KeyError):
            timed(fail)
        assert gc.isenabled()
        with pytest.raises(KeyError):
            with collector_paused():
                fail()
        assert gc.isenabled()

    def test_a_nested_use_leaves_the_collector_off_until_the_outer_block_ends(self):
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
            timed(lambda: None)
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_a_disabled_collector_stays_disabled(self):
        gc.disable()
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_collects_once_per_measurement_not_per_call(self):
        collections = []

        def count(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        gc.callbacks.append(count)
        try:
            with collector_paused():
                for _ in range(3):
                    timed(lambda: None, repeat=2)
        finally:
            gc.callbacks.remove(count)
        assert collections == [2]

    def test_timed_returns_the_calls_own_result_and_its_seconds(self):
        calls = []

        def call():
            calls.append(object())
            return calls[-1]

        result, seconds = timed(call, repeat=3)
        assert result is calls[-1] and len(calls) == 3
        assert 0.0 <= seconds < 1.0
