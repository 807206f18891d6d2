"""Graph families used throughout the paper and the experiments.

Section 2 of the paper works with the directed path ``L_n``, the directed
cycle ``C_n``, and ``G_n``, the disjoint union of ``n`` copies of an even
cycle — the family witnessing exponentially many pairwise-incomparable
fixpoints.  The remaining generators supply workloads for the coloring and
distance experiments.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from .digraph import Digraph


def path(n: int) -> Digraph:
    """The paper's ``L_n``: vertices ``1..n``, edges ``(i, i+1)``."""
    if n < 1:
        raise ValueError("a path needs at least one vertex")
    return Digraph(range(1, n + 1), [(i, i + 1) for i in range(1, n)])


def cycle(n: int) -> Digraph:
    """The paper's ``C_n``: vertices ``1..n``, edges ``(i, i+1)`` and ``(n, 1)``."""
    if n < 1:
        raise ValueError("a cycle needs at least one vertex")
    edges = [(i, i + 1) for i in range(1, n)]
    edges.append((n, 1))
    return Digraph(range(1, n + 1), edges)


def disjoint_cycles(copies: int, length: int = 4) -> Digraph:
    """The paper's ``G_n``: ``copies`` disjoint directed cycles.

    With an even ``length`` (default 4, the smallest even cycle), the
    program ``pi_1`` has exactly ``2**copies`` pairwise-incomparable
    fixpoints on this graph and hence no least fixpoint.
    """
    if copies < 1:
        raise ValueError("need at least one copy")
    nodes: List[int] = []
    edges: List[Tuple[int, int]] = []
    for c in range(copies):
        base = c * length
        ring = list(range(base + 1, base + length + 1))
        nodes.extend(ring)
        edges.extend((ring[i], ring[(i + 1) % length]) for i in range(length))
    return Digraph(nodes, edges)


def complete(n: int) -> Digraph:
    """``K_n`` with both edge directions (used as a non-3-colorable case
    for n >= 4)."""
    nodes = range(1, n + 1)
    return Digraph(nodes, [(u, v) for u in nodes for v in nodes if u != v])


def wheel(spokes: int) -> Digraph:
    """A wheel: a hub (node 0) joined to an outer cycle ``1..spokes``.

    Odd-spoke wheels are not 3-colorable; even-spoke wheels are.
    """
    if spokes < 3:
        raise ValueError("a wheel needs at least 3 spokes")
    edges = []
    for i in range(1, spokes + 1):
        j = i % spokes + 1
        edges += [(i, j), (j, i), (0, i), (i, 0)]
    return Digraph(range(0, spokes + 1), edges)


def petersen() -> Digraph:
    """The Petersen graph (3-colorable, both directions per edge)."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    undirected = outer + inner + spokes
    edges = [(u, v) for u, v in undirected] + [(v, u) for u, v in undirected]
    return Digraph(range(10), edges)


def bipartite_complete(left: int, right: int) -> Digraph:
    """``K_{left,right}`` with both directions (always 2-colorable)."""
    lnodes = ["l%d" % i for i in range(left)]
    rnodes = ["r%d" % i for i in range(right)]
    edges = [(u, v) for u in lnodes for v in rnodes]
    edges += [(v, u) for u in lnodes for v in rnodes]
    return Digraph(lnodes + rnodes, edges)


def grid(rows: int, cols: int) -> Digraph:
    """A directed grid: edges rightwards and downwards."""
    nodes = [(r, c) for r in range(rows) for c in range(cols)]
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append(((r, c), (r, c + 1)))
            if r + 1 < rows:
                edges.append(((r, c), (r + 1, c)))
    return Digraph(nodes, edges)


def random_digraph(n: int, edge_probability: float, seed: int) -> Digraph:
    """A seeded G(n, p) directed graph without self-loops."""
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge_probability must be in [0, 1]")
    rng = random.Random(seed)
    nodes = range(1, n + 1)
    edges = [
        (u, v)
        for u in nodes
        for v in nodes
        if u != v and rng.random() < edge_probability
    ]
    return Digraph(nodes, edges)


def random_dag(n: int, edge_probability: float, seed: int) -> Digraph:
    """A seeded random DAG (edges only from lower to higher labels)."""
    rng = random.Random(seed)
    nodes = range(1, n + 1)
    edges = [
        (u, v)
        for u in nodes
        for v in nodes
        if u < v and rng.random() < edge_probability
    ]
    return Digraph(nodes, edges)


def gnm(rng: random.Random, n: int, m: int, loops: bool) -> Digraph:
    """A uniform G(n, m) digraph on ``0..n-1``: ``m`` distinct edges from ``rng``.

    Each candidate edge draws its source, then its target, from the
    caller's generator (a self-loop is redrawn unless ``loops``), so the
    same generator state always yields the same graph and leaves the
    generator in the same state for the caller's next draws.
    """
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if loops or u != v:
            edges.add((u, v))
    return Digraph(range(n), edges)


def hypercube(dimension: int) -> Digraph:
    """The ``dimension``-cube on bit-string nodes, both edge directions."""
    if dimension < 1:
        raise ValueError("dimension must be positive")
    nodes = [tuple((i >> b) & 1 for b in range(dimension)) for i in range(2 ** dimension)]
    edges = []
    for u in nodes:
        for b in range(dimension):
            v = tuple(bit ^ 1 if i == b else bit for i, bit in enumerate(u))
            edges.append((u, v))
    return Digraph(nodes, edges)
