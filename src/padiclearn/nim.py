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

import time
from dataclasses import dataclass

import numpy as np

from .learner import DefiningFunctionEstimate
from .padic import CHUNK_CELLS, LearningParams, as_coordinates

BENCHMARK_PARAMS = LearningParams(p=2, E=10, D=3, M=100)

_WILSON_Z = 1.959963984540054  # two-sided 95%


def grundy_nim(point) -> int:
    """Grundy value of a Nim position: the XOR of its heap sizes."""
    coords = np.atleast_1d(as_coordinates(point))
    if coords.ndim != 1:
        raise ValueError(f"expected one position of heap sizes, got shape {coords.shape}")
    if (coords < 0).any():
        raise ValueError(f"heap sizes must be natural numbers, got {tuple(coords.tolist())}")
    return int(np.bitwise_xor.reduce(coords))


def generate_p_positions(D: int, bounds) -> np.ndarray:
    """All zero-XOR points of the box prod_d [0, bounds[d]), lex order.

    The first D-1 coordinates range freely; the last is forced to their
    XOR and kept only when it fits under the final bound.  bounds may be
    one integer (a cube) or a length-D sequence.
    """
    if D < 1:
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
    if D == 1:
        return np.zeros((1, 1), dtype=np.int64)
    free = np.indices(bounds[:-1]).reshape(D - 1, -1).T.astype(np.int64)
    last = np.bitwise_xor.reduce(free, axis=1)
    keep = last < bounds[-1]
    return np.column_stack([free[keep], last[keep]])


def sample_p_positions(rng: np.random.Generator, D: int, bound: int, size: int) -> np.ndarray:
    """Uniform draws from the zero-XOR points of [0, bound)**D.

    The first D-1 coordinates are drawn uniformly in one call of shape
    (size, D-1); the last coordinate is their XOR.  bound must be a power
    of two so the forced coordinate stays inside the box, which also makes
    the draw exactly uniform over the zero-XOR set.
    """
    if D < 1:
        raise ValueError(f"D must be at least 1, got {D}")
    if bound < 1 or bound & (bound - 1):
        raise ValueError(f"bound must be a positive power of two, got {bound}")
    rest = rng.integers(0, bound, size=(size, D - 1), dtype=np.int64)
    last = np.bitwise_xor.reduce(rest, axis=1) if D > 1 else np.zeros(size, dtype=np.int64)
    return np.column_stack([rest, last])


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


def _xor_grid(axes) -> np.ndarray:
    acc = np.array(0, dtype=np.int64)
    for axis in axes:
        acc = np.bitwise_xor.outer(acc, axis)
    return acc


def _plane_slabs(bound: int, D: int, cap: int) -> list[tuple[int, int]]:
    """[lo, hi) ranges of x1 that cut the x0 = 0 plane into slabs of <= cap cells.

    With D = 1 the plane is the single point x0 = 0, one slab.
    """
    if D == 1:
        return [(0, 1)]
    per_x1 = bound ** (D - 2)
    if per_x1 > cap:
        raise ValueError(
            f"one x1 slab of the task 2 plane holds {per_x1} cells, over the sweep "
            f"limit of {cap}; run task 2 with --mode subsample instead"
        )
    step = cap // per_x1
    return [(lo, min(lo + step, bound)) for lo in range(0, bound, step)]


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
    exhaustive and ignore `trials` and `seed`.  Exhaustive task 2 sweeps
    the plane in x_1 slabs of bounded size and raises ValueError when one
    slab alone is too large; task 2 alternatively runs
    with mode="subsample", which grades a stratified random subset of the
    plane (sample_size points spread evenly over the x_1 strata, remaining
    coordinates uniform) and attaches a 95% Wilson interval to the
    measured success rate.
    """
    P = est.params
    _check_task(task, P)
    if mode not in ("exhaustive", "subsample"):
        raise ValueError(f"mode must be 'exhaustive' or 'subsample', got {mode!r}")
    if mode == "subsample" and task != 2:
        raise ValueError("subsample mode is defined for task 2 only")
    bound = P.modulus
    t0 = time.perf_counter()

    if task == 2 and mode == "exhaustive":
        failures = 0
        for lo, hi in _plane_slabs(bound, P.D, CHUNK_CELLS):
            # D = 1 keeps only the x0 axis
            axes = ([np.array([0]), np.arange(lo, hi)] + [np.arange(bound)] * (P.D - 2))[: P.D]
            residues = est.predict_residue_grid(axes)
            failures += int(np.count_nonzero((residues == 0) != (_xor_grid(axes) == 0)))
        n, rep_seed, rep_mode, ci = bound ** (P.D - 1), None, "exhaustive", None
    else:
        if task in (1, 3) and (trials is None or trials < 1):
            raise ValueError(f"task {task} needs a positive trial count")
        if task == 1:
            rng = np.random.default_rng(seed)
            pts = rng.integers(0, bound, size=(trials, P.D), dtype=np.int64)
            rep_seed, rep_mode = seed, "random"
        elif task == 2:
            if P.D < 3:
                raise ValueError(
                    "subsample mode needs D >= 3: one stratified axis plus random axes"
                )
            if sample_size < 1:
                raise ValueError(f"sample_size must be positive, got {sample_size}")
            rng = np.random.default_rng(seed)
            quota = -(-sample_size // bound)
            x1 = np.repeat(np.arange(bound, dtype=np.int64), quota)
            rest = rng.integers(0, bound, size=(x1.size, P.D - 2), dtype=np.int64)
            pts = np.column_stack([np.zeros(x1.size, dtype=np.int64), x1, rest])
            rep_seed, rep_mode = seed, "subsample"
        elif task == 3:
            pts = sample_p_positions(np.random.default_rng(seed), P.D, bound, trials)
            rep_seed, rep_mode = seed, "random"
        else:
            pts = generate_p_positions(P.D, (64,) + (bound,) * (P.D - 1))
            rep_seed, rep_mode = None, "exhaustive"
        # tasks 3 and 4 query members only, so every failure there is a miss
        truth = np.bitwise_xor.reduce(pts, axis=1) == 0
        failures = int(np.count_nonzero(est.is_member_batch(pts) != truth))
        n = pts.shape[0]
        ci = _wilson_95(n - failures, n) if rep_mode == "subsample" else None

    ms = int(round((time.perf_counter() - t0) * 1000))
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
        trials = bound ** (D - 1)
        failures = trials
    else:
        trials = 64 * bound ** (D - 2) if D >= 2 else 1
        failures = trials
    return BenchmarkReport(task, params, None, trials, failures, 0, "exhaustive", None)
