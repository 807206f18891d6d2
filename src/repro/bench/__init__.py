"""Experiment harness and the E1–E9 (+ perf) registry."""

from . import experiments  # noqa: F401  (registers the experiments)
from . import perf  # noqa: F401  (registers the planner perf experiment)
from . import kernel_perf  # noqa: F401  (registers the columnar kernel bench)
from . import serve_perf  # noqa: F401  (registers the server load harness)
from . import parallel_perf  # noqa: F401  (registers the sharded well-founded table)
from .harness import Experiment, Table, all_experiments, experiment

__all__ = ["Experiment", "Table", "all_experiments", "experiment"]
