"""Learning zero loci of p-adically continuous maps from finite samples.

The pipeline: fill a residue grid with p**v, v the best valuation any
sample achieves against each node (counted in residue classes mod p**k),
Mahler-transform the grid into coefficients of the product binomial basis,
and evaluate the truncated series to predict membership of unseen points.
A three-heap Nim benchmark (members: zero-XOR positions) exercises it all.
"""

from .learner import DefiningFunctionEstimate, SampleSet, build_value_grid, learn
from .mahler import ResidueGrid, dump_coefficients, evaluate_on_grid, mahler_transform
from .nim import (
    BENCHMARK_PARAMS,
    BenchmarkReport,
    generate_p_positions,
    run_task,
    sample_p_positions,
    trivial_baseline,
)
from .padic import LearningParams, binomial_table

__version__ = "0.1.0"

__all__ = [
    "BENCHMARK_PARAMS",
    "BenchmarkReport",
    "DefiningFunctionEstimate",
    "LearningParams",
    "ResidueGrid",
    "SampleSet",
    "binomial_table",
    "build_value_grid",
    "dump_coefficients",
    "evaluate_on_grid",
    "generate_p_positions",
    "learn",
    "mahler_transform",
    "run_task",
    "sample_p_positions",
    "trivial_baseline",
]
