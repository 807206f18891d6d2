"""Tests for dependency graphs, stratification and classification."""

import pytest

from repro import parse_program
from repro.analysis import (
    DependencyGraph,
    EngineSupport,
    ProgramClass,
    classify,
)
from repro.queries import distance_program, pi1, transitive_closure_program


class TestDependencyGraph:
    def test_edges_and_polarity(self):
        p = parse_program("A(X) :- B(X), !C(X). B(X) :- E(X, X). C(X) :- E(X, X).")
        g = DependencyGraph(p)
        kinds = {(e.source, e.target): e.negative for e in g.edges}
        assert kinds == {("B", "A"): False, ("C", "A"): True}

    def test_edb_not_in_graph(self):
        g = DependencyGraph(pi1())
        assert g.nodes == {"T"}

    def test_sccs_of_mutual_recursion(self):
        p = parse_program("A(X) :- B(X). B(X) :- A(X), E(X, X).")
        comps = DependencyGraph(p).sccs()
        assert frozenset({"A", "B"}) in comps

    def test_negative_self_loop_unstratifiable(self):
        g = DependencyGraph(pi1())
        assert not g.is_stratifiable()
        witness = g.negative_cycle_witness()
        assert witness.source == "T" and witness.target == "T"

    def test_strata_raise_on_unstratifiable(self):
        with pytest.raises(ValueError):
            DependencyGraph(pi1()).strata()

    def test_strata_levels(self):
        p = distance_program()
        sigma = DependencyGraph(p).strata()
        assert sigma["S1"] == 0 and sigma["S2"] == 0 and sigma["S3"] == 1

    def test_stratum_partition_order(self):
        p = distance_program()
        layers = DependencyGraph(p).stratum_partition()
        assert layers[0] == frozenset({"S1", "S2"})
        assert layers[1] == frozenset({"S3"})


class TestClassify:
    def test_positive(self):
        assert classify(transitive_closure_program()) is ProgramClass.POSITIVE

    def test_semipositive(self):
        p = parse_program("T(X) :- E(X, Y), !E(Y, X).")
        assert classify(p) is ProgramClass.SEMIPOSITIVE

    def test_inequality_makes_semipositive(self):
        p = parse_program("T(X) :- E(X, Y), X != Y.")
        assert classify(p) is ProgramClass.SEMIPOSITIVE

    def test_stratified(self):
        assert classify(distance_program()) is ProgramClass.STRATIFIED

    def test_general(self):
        assert classify(pi1()) is ProgramClass.GENERAL

    def test_engine_support_matrix(self):
        support = EngineSupport.for_program(pi1())
        assert not support.least_fixpoint and not support.stratified
        assert support.inflationary and support.well_founded
        support = EngineSupport.for_program(transitive_closure_program())
        assert support.least_fixpoint and support.stratified
