"""Seeded input generation: graphs, CSV databases and update streams.

The program under test sees only what is written here as CSV files or
sent as wire requests; nothing in this module imports ``repro``.

Random graphs are G(n, m) digraphs without self-loops.  On G(n, m) the
cost of a fixpoint follows a statistic that varies a lot from graph to
graph -- the size of the transitive closure (interquartile range 6 % of
the median on G(400, 800), 15 % on G(2000, 1400)) or the number of
retrograde layers of the win-move game (27 to 75 on G(8000, 16000)).  A
benchmark whose numbers move that much with the seed cannot resolve a
10 % change, so each random case *conditions* the sampler: graphs are
drawn from the seed's stream until the statistic falls in a narrow band
around the family's median.  The band is part of the case's definition
in :data:`SIZES`; the seed still decides which graph is used.
"""

from __future__ import annotations

import random
from pathlib import Path

import reference

SIZES = {
    # case: full-size parameters.  "closure" / "depth" are the accepted
    # bands of the conditioning statistic (inclusive).
    "tc": {"n": 400, "m": 800, "closure": (102200, 102800)},
    "notc": {"n": 300, "m": 600, "closure": (57420, 57990)},
    "distance": {"n": 16},
    "path": {"n": 1200},
    "random": {"n": 8000, "m": 16000, "depth": (36, 37)},
    "maintain": {"n": 2000, "m": 1400, "closure": (4520, 4610), "window": 50},
    "serve": {"n": 2000, "m": 4000, "depth": (25, 26)},
}

SMOKE_DIVISOR = 10
"""``--smoke`` divides every n, m and window by this and drops the bands."""


def sizes(case, smoke=False):
    """The parameters of ``case``, scaled down for ``--smoke``."""
    full = SIZES[case]
    if not smoke:
        return dict(full)
    return {
        key: max(2, value // SMOKE_DIVISOR)
        for key, value in full.items()
        if key in ("n", "m", "window")
    }


def stream(seed, label):
    """The random stream of one named part of one seed's inputs."""
    return random.Random("%d/%s" % (seed, label))


def gnm(rng, n, m):
    """A uniform digraph on ``0..n-1`` with ``m`` distinct non-loop edges."""
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((u, v))
    return edges


def path_edges(n):
    """The paper's ``L_n``: vertices ``1..n``, edges ``(i, i+1)``."""
    return [(i, i + 1) for i in range(1, n)]


def conditioned_gnm(rng, params):
    """Draw G(n, m) graphs from ``rng`` until the case's band accepts one."""
    n, m = params["n"], params["m"]
    for _ in range(5000):
        edges = gnm(rng, n, m)
        if "closure" in params:
            lo, hi = params["closure"]
            if not lo <= reference.closure_size(n, edges) <= hi:
                continue
        if "depth" in params:
            lo, hi = params["depth"]
            _won, _lost, drawn, depth = reference.win_move(range(n), edges)
            # At least one drawn position, so the undefined partition of
            # the well-founded model is exercised.
            if not (lo <= depth <= hi and drawn):
                continue
        return edges
    raise RuntimeError("no graph in the band %r after 5000 draws" % (params,))


def write_relation(directory, name, rows):
    """Write ``rows`` as the headerless CSV ``directory/name.csv``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / (name + ".csv"), "w") as f:
        for row in sorted(rows):
            f.write(",".join(str(v) for v in row) + "\n")


def update_stream(rng, nodes, edges, count, owner=None):
    """``count`` single-edge updates, strictly alternating insert / delete.

    Yields ``("insert" | "delete", (u, v))``.  An insert adds a fresh
    random edge between two of ``nodes`` (the values the initial database
    already mentions, so no update enlarges the universe), a delete
    removes a random present edge; ``edges`` (a set) is updated as the
    stream is consumed, so it always holds the database the stream has
    produced so far.  With ``owner = (i, k)`` only edges with
    ``u mod k == i`` are touched, so ``k`` streams with distinct ``i``
    commute.
    """
    def mine(u):
        return owner is None or u % owner[1] == owner[0]

    present = sorted(e for e in edges if mine(e[0]))
    for i in range(count):
        if i % 2 == 0 or not present:
            while True:
                u, v = rng.choice(nodes), rng.choice(nodes)
                if u != v and mine(u) and (u, v) not in edges:
                    break
            edges.add((u, v))
            present.append((u, v))
            yield "insert", (u, v)
        else:
            k = rng.randrange(len(present))
            present[k], present[-1] = present[-1], present[k]
            edge = present.pop()
            edges.discard(edge)
            yield "delete", edge
