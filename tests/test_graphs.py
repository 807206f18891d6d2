"""Tests for the graph substrate: digraph, generators, algorithms, encode."""

import random

import pytest

from repro.db.database import Database
from repro.graphs import generators as gg
from repro.graphs.algorithms import (
    INFINITY,
    bfs_distances,
    count_3colorings,
    distance,
    distance_query,
    enumerate_3colorings,
    hamilton_circuits,
    has_unique_hamilton_circuit,
    is_3colorable,
    transitive_closure,
)
from repro.graphs.digraph import Digraph
from repro.graphs.encode import database_to_graph, graph_to_database


class TestDigraph:
    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError):
            Digraph([1], [(1, 2)])

    def test_successors_predecessors(self):
        g = gg.path(3)
        assert g.successors(1) == {2}
        assert g.predecessors(3) == {2}
        assert g.successors(3) == frozenset()

    def test_reversed(self):
        assert gg.path(2).reversed().edges == frozenset({(2, 1)})

    def test_undirected_edges_drop_loops_and_directions(self):
        g = Digraph([1, 2], [(1, 2), (2, 1), (1, 1)])
        assert g.undirected_edges() == {frozenset({1, 2})}

    def test_union(self):
        g = gg.path(2).union(gg.cycle(3))
        assert len(g.nodes) == 3
        assert (3, 1) in g.edges


class TestGenerators:
    def test_path_shape(self):
        g = gg.path(5)
        assert len(g.nodes) == 5 and len(g.edges) == 4

    def test_cycle_shape(self):
        g = gg.cycle(5)
        assert len(g.edges) == 5
        assert (5, 1) in g.edges

    def test_disjoint_cycles(self):
        g = gg.disjoint_cycles(3, length=4)
        assert len(g.nodes) == 12 and len(g.edges) == 12
        # No edges between copies.
        for u, v in g.edges:
            assert (u - 1) // 4 == (v - 1) // 4

    def test_complete(self):
        assert len(gg.complete(4).edges) == 12

    def test_wheel_colorability_parity(self):
        assert not is_3colorable(gg.wheel(5))
        assert is_3colorable(gg.wheel(6))

    def test_petersen_props(self):
        g = gg.petersen()
        assert len(g.nodes) == 10
        assert len(g.undirected_edges()) == 15
        assert is_3colorable(g)

    def test_bipartite(self):
        g = gg.bipartite_complete(2, 3)
        assert len(g.undirected_edges()) == 6

    def test_grid(self):
        g = gg.grid(2, 3)
        assert len(g.nodes) == 6 and len(g.edges) == 7

    def test_random_digraph_deterministic(self):
        assert gg.random_digraph(6, 0.4, seed=1) == gg.random_digraph(6, 0.4, seed=1)
        assert gg.random_digraph(6, 0.4, seed=1) != gg.random_digraph(6, 0.4, seed=2)

    @pytest.mark.parametrize("loops", [False, True])
    def test_gnm_draws_from_the_callers_generator(self, loops):
        """``gnm`` is the inline loop the benchmarks timed: same edges, same draws."""
        rng, reference = random.Random(7), random.Random(7)
        edges = set()
        while len(edges) < 300:
            u, v = reference.randrange(150), reference.randrange(150)
            if loops or u != v:
                edges.add((u, v))
        g = gg.gnm(rng, 150, 300, loops)
        assert g.edges == edges and g.nodes == frozenset(range(150))
        assert rng.random() == reference.random()

    def test_random_dag_is_acyclic(self):
        g = gg.random_dag(6, 0.5, seed=0)
        assert all(u < v for u, v in g.edges)

    def test_hypercube(self):
        g = gg.hypercube(3)
        assert len(g.nodes) == 8
        assert all(
            sum(a != b for a, b in zip(u, v)) == 1 for u, v in g.edges
        )

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            gg.path(0)
        with pytest.raises(ValueError):
            gg.random_digraph(3, 1.5, seed=0)


class TestAlgorithms:
    def test_bfs_distances(self):
        d = bfs_distances(gg.path(4), 1)
        assert d == {2: 1, 3: 2, 4: 3}

    def test_self_distance_needs_cycle(self):
        assert 1 not in bfs_distances(gg.path(3), 1)
        assert bfs_distances(gg.cycle(3), 1)[1] == 3

    def test_distance_inf(self):
        assert distance(gg.path(3), 3, 1) is INFINITY

    def test_transitive_closure(self):
        tc = transitive_closure(gg.path(3))
        assert tc == {(1, 2), (1, 3), (2, 3)}

    def test_distance_query_semantics(self):
        dq = distance_query(gg.path(3))
        assert (1, 2, 1, 3) in dq      # 1 <= 2
        assert (1, 3, 1, 2) not in dq  # 2 > 1
        assert (1, 3, 3, 1) in dq      # 2 <= infinity
        assert (3, 1, 1, 2) not in dq  # no path 3 -> 1 at all

    def test_coloring_counts(self):
        triangle = gg.cycle(3).union(gg.cycle(3).reversed())
        assert count_3colorings(triangle) == 6
        assert count_3colorings(gg.complete(4)) == 0
        assert count_3colorings(Digraph([1], [])) == 3

    def test_colorings_are_proper(self):
        g = gg.wheel(6)
        for coloring in enumerate_3colorings(g):
            for pair in g.undirected_edges():
                u, v = tuple(pair)
                assert coloring[u] != coloring[v]

    def test_hamilton_circuits(self):
        assert len(hamilton_circuits(gg.cycle(4))) == 1
        assert has_unique_hamilton_circuit(gg.cycle(4))
        assert not has_unique_hamilton_circuit(gg.path(4))
        assert len(hamilton_circuits(gg.complete(4))) == 6


class TestEncode:
    def test_roundtrip(self):
        g = gg.random_digraph(5, 0.3, seed=7)
        assert database_to_graph(graph_to_database(g)) == g

    def test_isolated_nodes_stay_in_universe(self):
        g = Digraph([1, 2, 3], [(1, 2)])
        db = graph_to_database(g)
        assert db.universe == {1, 2, 3}

    def test_arity_check(self):
        db = Database({1}, [__import__("repro").Relation("E", 1, [(1,)])])
        with pytest.raises(ValueError):
            database_to_graph(db)
