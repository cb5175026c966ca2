"""Correctness gates, run outside the timed regions.

Each check returns None when the output passes and a one-line reason when
it does not.  The Nim numbers are the paper's (README and
tests/test_acceptance.py): task 2 fails on exactly 2112 points of the
x0 = 0 plane, task 4 on exactly 48672 points, and tasks 1 and 3 stay
within the acceptance bands.
"""

from __future__ import annotations

import numpy as np

NIM_TASK1_RATE, NIM_TASK1_TOL = 0.9980, 0.0015
NIM_TASK3_RATE, NIM_TASK3_TOL = 0.1202, 0.03
NIM_TASK2_FAILURES = 2112
NIM_TASK4_FAILURES = 48672


def check_fit(est, w) -> str | None:
    """With L = M the series reproduces the value grid on [0, M)**D and
    vanishes on every sample; with L < M no coefficient lies outside
    the window [0, L)**D."""
    from padiclearn.learner import SampleSet, build_value_grid

    p = est.params
    if p.L < p.M:
        outside = est.coeffs.data.copy()
        outside[(slice(0, p.L),) * p.D] = 0
        nonzero = int(np.count_nonzero(outside))
        return f"{nonzero} coefficients outside [0, L)**D are nonzero" if nonzero else None
    series = est.predict_residue_grid([np.arange(p.M)] * p.D)
    values = build_value_grid(SampleSet(p, w.samples)).data
    if not np.array_equal(series, values):
        return "the series on [0, M)**D differs from build_value_grid"
    on_samples = int(np.count_nonzero(series[tuple(w.samples.T)]))
    return f"{on_samples} training samples have a nonzero residue" if on_samples else None


def check_scalar(expected: np.ndarray | None, scalar_outs: list) -> list[bool]:
    """Scalar call i queried point i mod n of the n scalar points, whose
    batch residues are `expected`."""
    n = 0 if expected is None else len(expected)
    return [
        n > 0 and out is not None and out == int(expected[i % n])
        for i, out in enumerate(scalar_outs)
    ]


def grid_sample(axes: list[np.ndarray], grid: np.ndarray, size: int = 2000):
    """A fixed random subset of grid points and their grid residues."""
    rng = np.random.default_rng(0)
    idx = tuple(rng.integers(0, len(a), size=size) for a in axes)
    pts = np.stack([a[i] for a, i in zip(axes, idx)], axis=1)
    return pts, grid[idx]


def check_grid(est, sample) -> str | None:
    """Grid residues equal batch residues at the same points."""
    pts, residues = sample
    bad = int(np.count_nonzero(est.predict_residue_batch(pts) != residues))
    return f"{bad} of {len(pts)} grid residues differ from batch residues" if bad else None


def nim_plane_failures(grid: np.ndarray) -> int:
    """Task 2: on the x0 = 0 plane the members are exactly x1 == x2."""
    side = grid.shape[-1]
    return int(np.count_nonzero((grid.reshape(side, side) == 0) != np.eye(side, dtype=bool)))


def nim_failures(w, batch: dict[str, np.ndarray], plane_failures: int) -> dict[int, int]:
    """Failures of Nim tasks 1, 2 and 4, counted the way run_task counts them."""
    truth1 = np.bitwise_xor.reduce(w.batch_sets["task1"], axis=1) == 0
    return {
        1: int(np.count_nonzero((batch["task1"] == 0) != truth1)),
        2: plane_failures,
        4: int(np.count_nonzero(batch["task4"] != 0)),
    }


def check_nim_plane(failures: int) -> str | None:
    if failures != NIM_TASK2_FAILURES:
        return f"task 2 has {failures} failures, expected {NIM_TASK2_FAILURES}"
    return None


def check_nim_batch(w, counts: dict[int, int]) -> str | None:
    """The paper's outcomes of the batch-queried Nim tasks 1 and 4."""
    rate1 = 1 - counts[1] / len(w.batch_sets["task1"])
    if abs(rate1 - NIM_TASK1_RATE) > NIM_TASK1_TOL:
        return f"task 1 success {rate1:.4f} outside {NIM_TASK1_RATE} +- {NIM_TASK1_TOL}"
    if counts[4] != NIM_TASK4_FAILURES:
        return f"task 4 has {counts[4]} failures, expected {NIM_TASK4_FAILURES}"
    return None


def check_nim_report(task: int, report, counts: dict[int, int]) -> str | None:
    """A traced run_task report agrees with the benchmark's own counts;
    task 3, which the timed calls do not query, stays in its band."""
    if report is None:
        return "run_task raised"
    if task == 3:
        rate = report.success_rate
        if abs(rate - NIM_TASK3_RATE) > NIM_TASK3_TOL:
            return f"task 3 success {rate:.4f} outside {NIM_TASK3_RATE} +- {NIM_TASK3_TOL}"
        return None
    if report.failures != counts[task]:
        return f"run_task reports {report.failures} failures, the timed calls {counts[task]}"
    return None
