"""Engineering benchmark: the DPLL oracle on the reduction workloads.

The solver sits under every Theorem 1–4 experiment, so its throughput on
the grounded fixpoint encodings is the scaling bottleneck worth tracking.
"""

import pytest

from repro.core.satreduction import FixpointSAT, count_fixpoints_sat, has_fixpoint
from repro.graphs import generators as gg, graph_to_database
from repro.queries import pi1
from repro.reductions.coloring import coloring_database, pi_col
from repro.reductions.sat_encoding import cnf_to_database, pi_sat
from repro.sat import Solver
from repro.workloads.cnf_gen import random_kcnf


@pytest.mark.parametrize("n", [4, 8, 12])
def test_encode_pi1_on_gn(benchmark, n):
    db = graph_to_database(gg.disjoint_cycles(n))
    enc = benchmark(FixpointSAT, pi1(), db)
    assert len(enc.atoms) == 4 * n


@pytest.mark.parametrize("n", [4, 8])
def test_solve_pi1_on_gn(benchmark, n):
    db = graph_to_database(gg.disjoint_cycles(n))
    enc = FixpointSAT(pi1(), db)
    model = benchmark(lambda: Solver(enc.cnf).solve())
    assert model is not None


@pytest.mark.parametrize("seed", [0, 1])
def test_pi_sat_existence(benchmark, seed):
    inst = random_kcnf(6, 18, 3, seed=seed)
    db = cnf_to_database(inst)
    result = benchmark(has_fixpoint, pi_sat(), db)
    assert result == inst.is_satisfiable()


def test_pi_sat_count_models(benchmark):
    inst = random_kcnf(5, 12, 3, seed=3)
    db = cnf_to_database(inst)
    count = benchmark(count_fixpoints_sat, pi_sat(), db)
    assert count == inst.count_models()


def test_pi_col_on_petersen(benchmark):
    db = coloring_database(gg.petersen())
    result = benchmark(has_fixpoint, pi_col(), db)
    assert result
