"""Nim ground truth and the four membership benchmark tasks.

A position is a D-vector of heap sizes and belongs to the target set
exactly when the XOR of its coordinates vanishes.  The tasks probe a
trained estimate over [0, 2**E)**D:

  1. uniform random points, graded against the XOR rule;
  2. the full x_0 = 0 coordinate plane, exhaustively;
  3. uniform random zero-XOR points, which the estimate should accept;
  4. every zero-XOR point with x_0 < 64, exhaustively.

Detection is `member iff residue == 0`, so a failure is either a missed
member or a false alarm, whichever the task can exhibit.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import padic
from .learner import DefiningFunctionEstimate
from .padic import MAX_GRID_CELLS, LearningParams, as_coordinates, chunk_ranges

BENCHMARK_PARAMS = LearningParams(p=2, E=10, D=3, M=100)

_WILSON_Z = 1.959963984540054  # two-sided 95%


def _xor_close(free: np.ndarray) -> np.ndarray:
    """The (n, k) free coordinates with their XOR appended: n zero-XOR points of D = k + 1.

    A free block of k = 0 columns closes to zeros, the one zero-XOR point of D = 1.
    """
    return np.column_stack([free, np.bitwise_xor.reduce(free, axis=1)])


def generate_p_positions(D: int, bounds) -> np.ndarray:
    """All zero-XOR points of the box prod_d [0, bounds[d]), lex order.

    The first D-1 coordinates range freely and _xor_close appends their XOR,
    a point kept only when it fits under the final bound.  bounds may be one
    integer (a cube) or a length-D sequence.  A free box of more than
    MAX_GRID_CELLS points raises ValueError.
    """
    if padic._check_natural("D", D) < 1:
        raise ValueError(f"D must be at least 1, got {D}")
    arr = as_coordinates(bounds)
    arr = np.full(D, arr) if arr.ndim == 0 else arr
    if arr.shape != (D,):
        raise ValueError(f"expected one bound or {D} bounds, got shape {arr.shape}")
    bounds = tuple(arr.tolist())
    if any(b < 0 for b in bounds):
        raise ValueError(f"bounds must be non-negative, got {bounds}")
    if min(bounds) == 0:
        return np.empty((0, D), dtype=np.int64)
    free = bounds[:-1]
    if math.prod(free) > MAX_GRID_CELLS:
        raise ValueError(f"the free box {free} exceeds the supported grid size {MAX_GRID_CELLS}")
    pts = _xor_close(np.indices(free, dtype=np.int64).reshape(D - 1, math.prod(free)).T)
    return pts[pts[:, -1] < bounds[-1]]


def sample_p_positions(rng: np.random.Generator, D: int, bound: int, size: int) -> np.ndarray:
    """Uniform draws from the zero-XOR points of [0, bound)**D.

    The first D-1 coordinates are drawn uniformly in one call of shape
    (size, D-1) and _xor_close appends their XOR.  bound must be a power
    of two so the forced coordinate stays inside the box, which also makes
    the draw exactly uniform over the zero-XOR set.
    """
    if padic._check_natural("D", D) < 1:
        raise ValueError(f"D must be at least 1, got {D}")
    if padic._check_natural("bound", bound) < 1 or bound & (bound - 1):
        raise ValueError(f"bound must be a positive power of two, got {bound}")
    size = padic._check_natural("size", size)
    return _xor_close(rng.integers(0, bound, size=(size, D - 1), dtype=np.int64))


def _wilson_95(successes: int, trials: int) -> tuple[float, float]:
    z = _WILSON_Z
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * np.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class BenchmarkReport:
    """Outcome of one task run; to_text gives the canonical serialization."""

    task: int
    params: LearningParams
    seed: int | None
    trials: int
    failures: int
    wall_time_ms: int
    mode: str = "exhaustive"
    ci95: tuple[float, float] | None = None

    @property
    def success_rate(self) -> float:
        return (self.trials - self.failures) / self.trials

    def to_text(self) -> str:
        """Key-value lines, one per field.

        The wall time is left out, so reruns with the same config and
        seed serialize to identical bytes.
        """
        lines = [
            f"task {self.task}",
            f"p {self.params.p}",
            f"E {self.params.E}",
            f"D {self.params.D}",
            f"M {self.params.M}",
            f"L {self.params.L}",
            f"seed {self.seed if self.seed is not None else '-'}",
            f"trials {self.trials}",
            f"failures {self.failures}",
            f"success_rate {self.success_rate:.6f}",
        ]
        if self.mode == "subsample" and self.ci95 is not None:
            lines.append("mode subsample")
            lines.append(f"ci95_low {self.ci95[0]:.6f}")
            lines.append(f"ci95_high {self.ci95[1]:.6f}")
        return "\n".join(lines) + "\n"


def _p_positions_x0(D: int, lo: int, hi: int, bound: int) -> np.ndarray:
    """Zero-XOR points of [lo, hi) x [0, bound)**(D-1), or 0 at D = 1; bound is a power of two."""
    sides = ((hi - lo,) + (bound,) * (D - 2))[: D - 1]
    free = np.indices(sides, dtype=np.int64).reshape(D - 1, math.prod(sides)).T
    free[:, :1] += lo
    return _xor_close(free)


def _check_task(task: int, params: LearningParams):
    if task not in (1, 2, 3, 4):
        raise ValueError(f"task must be 1, 2, 3 or 4, got {task}")
    if params.p != 2:
        raise ValueError("task/params mismatch: the Nim benchmark needs p = 2")
    if task == 4 and params.modulus < 64:
        raise ValueError("task/params mismatch: task 4 needs 64 <= 2**E")


def run_task(
    est: DefiningFunctionEstimate,
    task: int,
    trials: int | None = None,
    seed: int = 0,
    mode: str = "exhaustive",
    sample_size: int = 16384,
) -> BenchmarkReport:
    """Run one benchmark task and return its report.

    Tasks 1 and 3 draw `trials` seeded random points.  Tasks 2 and 4 are
    exhaustive and ignore `trials` and `seed`; task 2 alternatively runs
    with mode="subsample", which grades sample_size points spread evenly
    over the x_1 strata of the plane, other coordinates uniform, and
    attaches a 95% Wilson interval to the success rate.  A task is its
    rows, the cells of one row and a maker of rows lo..hi: x_1 rows of the
    plane x_0 = 0 as grid axes (exhaustive task 2), x_0 rows of points
    (task 4), or one point per row, drawn from the one seeded generator.
    All are graded in one sweep of slabs of at most CHUNK_CELLS cells, so
    memory does not grow with `trials`.  A row over the budget raises
    ValueError; for exhaustive task 2 it, or a grid slab over the grid
    evaluator's own, points at mode="subsample".
    """
    P = est.params
    _check_task(task, P)
    if mode not in ("exhaustive", "subsample"):
        raise ValueError(f"mode must be 'exhaustive' or 'subsample', got {mode!r}")
    if mode == "subsample" and task != 2:
        raise ValueError("subsample mode is defined for task 2 only")
    if task in (1, 3) and (trials is None or padic._check_natural("trials", trials) < 1):
        raise ValueError(f"task {task} needs a positive trial count")
    seed = padic._check_natural("seed", seed)
    rep_mode = "random" if task in (1, 3) else mode
    D, bound = P.D, P.modulus
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    grid = task == 2 and mode == "exhaustive"
    rows, row_cells = trials, D  # one point per row
    if grid:  # x1 rows of the plane x0 = 0, as grid axes; D = 1 keeps only x0
        rows, row_cells = (bound, bound ** (D - 2)) if D > 1 else (1, 1)
        make = lambda lo, hi: [np.array([0]), np.arange(lo, hi), *[np.arange(bound)] * (D - 2)][:D]
    elif task == 4:  # x0 rows of points; a row's cells are its points' coordinates
        rows, row_cells = (64, D * bound ** (D - 2)) if D > 1 else (1, 1)
        make = functools.partial(_p_positions_x0, D, bound=bound)
    elif task == 1:
        make = lambda lo, hi: rng.integers(0, bound, size=(hi - lo, D), dtype=np.int64)
    elif task == 3:
        make = lambda lo, hi: sample_p_positions(rng, D, bound, hi - lo)
    else:
        if D < 3:
            raise ValueError("subsample mode needs D >= 3: one stratified axis plus random axes")
        if padic._check_natural("sample_size", sample_size) < 1:
            raise ValueError(f"sample_size must be positive, got {sample_size}")
        per = -(-sample_size // bound)  # the points of one x1 stratum
        rows = per * bound

        def make(lo, hi):
            x1 = np.arange(lo, hi, dtype=np.int64) // per
            return np.column_stack([0 * x1, x1, rng.integers(0, bound, (hi - lo, D - 2), np.int64)])

    # tasks 3 and 4 query members only, so every failure there is a miss
    failures = n = 0
    try:
        for lo, hi in chunk_ranges([(0, rows, row_cells)], f"task {task} slab")[1]:
            got = make(lo, hi)
            if grid:
                verdict = est.predict_residue_grid(got) == 0
                truth = functools.reduce(np.bitwise_xor, np.ix_(*got)) == 0
            else:
                verdict, truth = est.is_member_batch(got), np.bitwise_xor.reduce(got, axis=1) == 0
            failures += int(np.count_nonzero(verdict != truth))
            n += truth.size
    except ValueError as exc:  # the axes are valid, so a grid error is a slab too large
        if not grid:
            raise
        raise ValueError(f"{exc}; run task 2 with --mode subsample instead") from exc
    ci = _wilson_95(n - failures, n) if rep_mode == "subsample" else None
    ms = int(round((time.perf_counter() - t0) * 1000))
    rep_seed = None if rep_mode == "exhaustive" else seed
    return BenchmarkReport(task, P, rep_seed, n, failures, ms, rep_mode, ci)


def trivial_baseline(task: int, params: LearningParams = BENCHMARK_PARAMS) -> BenchmarkReport:
    """Report card of the predictor that declares every point a non-member.

    Counts are exact over each task's exhaustive domain: tasks 1 and 2
    fail precisely on the zero-XOR points (density 2**-E), tasks 3 and 4
    fail every trial.
    """
    _check_task(task, params)
    bound = params.modulus
    D = params.D
    if task == 1:
        trials, failures = bound**D, bound ** (D - 1)
    elif task == 2:
        trials = bound ** (D - 1)
        failures = bound ** (D - 2) if D >= 2 else 1
    elif task == 3:
        trials = failures = bound ** (D - 1)
    else:
        trials = failures = 64 * bound ** (D - 2) if D >= 2 else 1
    return BenchmarkReport(task, params, None, trials, failures, 0, "exhaustive", None)
