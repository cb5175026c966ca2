"""Learning zero loci of p-adically continuous maps from finite samples.

The pipeline: index sample points in a digit-interleaving trie, read off
max-valuation distances to fill a residue grid, Mahler-transform the
grid into coefficients of the product binomial basis, and evaluate the
truncated series to predict membership of unseen points.  A three-heap
Nim benchmark exercises the whole stack end to end.
"""

from .learner import DefiningFunctionEstimate, SampleSet, build_value_grid, learn
from .mahler import ResidueGrid, dump_coefficients, evaluate_on_grid, mahler_transform
from .nim import (
    BENCHMARK_PARAMS,
    BenchmarkReport,
    generate_p_positions,
    grundy_nim,
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
    "grundy_nim",
    "learn",
    "mahler_transform",
    "run_task",
    "sample_p_positions",
    "trivial_baseline",
]
