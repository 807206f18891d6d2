"""Experiment harness: declarative tables with expected-vs-measured rows.

The paper is a theory paper — its "tables" are worked examples and theorem
statements.  Each experiment here regenerates one of those claims as an
executable table: columns of measured values next to the value the paper
predicts, plus an ``ok`` column.  EXPERIMENTS.md is generated from these
tables, and the pytest benchmarks call the same runners.
"""

from __future__ import annotations

import gc
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple, TypeVar

T = TypeVar("T")

PROTOCOL = "timed with the cyclic collector collected once, then paused for the measurement"
"""How every timed cell is taken (:func:`collector_paused`); table notes cite it."""


@contextmanager
def collector_paused() -> Iterator[None]:
    """Collect once, then keep the cyclic collector off until the block ends.

    The one timing protocol of ``repro.bench``: a generation-2 pass costs
    milliseconds, and whether it lands in a timed window depends on the
    heap's history, not on the code under test.  Collecting first means
    each measurement starts from the same clean heap; pausing means no
    pass is billed to whichever call happens to trip it.  A nested use
    neither collects nor re-enables: the collector stays off until the
    outermost block ends, then returns to the state it was in.
    """
    enabled = gc.isenabled()
    if enabled:
        gc.collect()
        gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def timed(fn: Callable[[], T], repeat: int = 1) -> Tuple[T, float]:
    """``(result, seconds)``: ``fn()`` run ``repeat`` times, the fastest call.

    The calls run under :func:`collector_paused`, so inside an enclosing
    measurement nothing is collected between them.  The minimum estimates
    the code's own cost (the work is deterministic; what a call takes
    beyond the fastest is the machine); the result is the last call's.
    """
    best = float("inf")
    with collector_paused():
        for _ in range(repeat):
            start = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - start)
    return result, best


@dataclass
class Table:
    """A titled table of rows; all cells are stringified on render."""

    title: str
    columns: Sequence[str]
    rows: List[Sequence[Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, *cells: Any) -> None:
        """Append a row (must match the column count)."""
        if len(cells) != len(self.columns):
            raise ValueError(
                "row has %d cells, table %r has %d columns"
                % (len(cells), self.title, len(self.columns))
            )
        self.rows.append(cells)

    def note(self, text: str) -> None:
        """Attach a free-text note rendered under the table."""
        self.notes.append(text)

    def all_ok(self) -> bool:
        """True when every cell of every ``ok``-ish column is truthy.

        Columns named ``ok`` (case-insensitive) are treated as checks.
        """
        check_idx = [
            i for i, c in enumerate(self.columns) if c.strip().lower() == "ok"
        ]
        return all(bool(row[i]) for row in self.rows for i in check_idx)

    def render(self) -> str:
        """Fixed-width text rendering."""
        header = [str(c) for c in self.columns]
        body = [[_cell(v) for v in row] for row in self.rows]
        widths = [len(h) for h in header]
        for row in body:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title, "-" * len(self.title)]
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
        for note in self.notes:
            lines.append("note: %s" % note)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable view (``python -m repro.bench --json``).

        Cells that are not JSON scalars are stringified, so the output is
        loadable anywhere; floats (the timing cells the regression gate
        compares) survive as numbers.
        """

        def scalar(value: Any) -> Any:
            if isinstance(value, (bool, int, float, str)) or value is None:
                return value
            return str(value)

        return {
            "title": self.title,
            "columns": [str(c) for c in self.columns],
            "rows": [[scalar(v) for v in row] for row in self.rows],
            "notes": list(self.notes),
            "all_ok": self.all_ok(),
        }

    def render_markdown(self) -> str:
        """GitHub-flavoured markdown rendering (for EXPERIMENTS.md)."""
        lines = ["### %s" % self.title, ""]
        lines.append("| " + " | ".join(str(c) for c in self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(_cell(v) for v in row) + " |")
        for note in self.notes:
            lines.append("")
            lines.append("*%s*" % note)
        return "\n".join(lines)


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of ``log y`` against ``log x``: the ``e`` of ``y ~ x^e``."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / sum(
        (x - mx) ** 2 for x in lx
    )


def scaling_table(
    title: str,
    size_column: str,
    time_column: str,
    inputs: Sequence[Tuple[str, int]],
    measure: Callable[[int], Tuple[float, int, int, bool]],
    exponent_bound: float,
    largest_bound_s: float = float("inf"),
    repetitions: int = 5,
) -> Table:
    """Time a public entry point on doubling inputs and fit ``time ~ x^e``.

    ``inputs`` is ``[(label, n)]``; ``measure(n)`` builds a fresh input,
    times one call and returns ``(seconds, size, rounds, correct)`` —
    ``size`` being the work the call must produce (``size_column``).
    Every repetition is a row.  Repetitions run outside the size loop:
    this box's speed drifts over tens of seconds, and a drift must hit
    every size alike or it bends the fit.  The two last rows fit, by
    least squares in log-log space over the *fastest* repetition per
    size (the work is deterministic, so whatever a repetition takes
    beyond the fastest is the machine), the time against ``n`` and
    against ``size``; the second one's ``ok`` requires the exponent
    within ``exponent_bound`` and the largest input under
    ``largest_bound_s``.
    """
    table = Table(
        title, ["input / repetition", size_column, "rounds", time_column, "exponent", "ok"]
    )
    runs: Dict[int, list] = {n: [] for _, n in inputs}
    for _ in range(repetitions):
        for _, n in inputs:
            runs[n].append(measure(n))
    for label, n in inputs:
        for repetition, (seconds, size, rounds, correct) in enumerate(runs[n], start=1):
            table.add("%s #%d" % (label, repetition), size, rounds, seconds, "", correct)
    fastest = [min(run[0] for run in runs[n]) for _, n in inputs]
    span = "%s..%s" % (inputs[0][0], inputs[-1][0])
    by_n = loglog_slope([n for _, n in inputs], fastest)
    by_size = loglog_slope([runs[n][0][1] for _, n in inputs], fastest)
    table.add("fit over fastest vs n, " + span, "", "", fastest[-1], "%.2f" % by_n, True)
    table.add(
        "fit over fastest vs %s, %s" % (size_column, span),
        "",
        "",
        fastest[-1],
        "%.2f" % by_size,
        by_size <= exponent_bound and fastest[-1] < largest_bound_s,
    )
    return table


def _cell(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return "%.3g" % value
    return str(value)


@dataclass(frozen=True)
class Experiment:
    """A registered experiment: id, paper claim, and a runner."""

    ident: str
    title: str
    claim: str
    run: Callable[[], List[Table]]


_REGISTRY: Dict[str, Experiment] = {}


def register(ident: str, title: str, claim: str):
    """Decorator registering an experiment runner under an id (e.g. e1)."""

    def wrap(fn: Callable[[], List[Table]]) -> Callable[[], List[Table]]:
        if ident in _REGISTRY:
            raise ValueError("experiment %r already registered" % ident)
        _REGISTRY[ident] = Experiment(ident=ident, title=title, claim=claim, run=fn)
        return fn

    return wrap


def experiment(ident: str) -> Experiment:
    """Look up a registered experiment."""
    try:
        return _REGISTRY[ident]
    except KeyError:
        raise KeyError(
            "unknown experiment %r; known: %s" % (ident, sorted(_REGISTRY))
        ) from None


def all_experiments() -> List[Experiment]:
    """All experiments in id order."""
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]
