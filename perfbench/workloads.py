"""The benchmark's workloads: parameters, inputs drawn from a seed, and time shares.

Only numpy is used here.  The library receives the generated arrays and
nothing else, so two commits measured with the same seed see the same
inputs whatever they change inside padiclearn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    """Everything one run feeds to the library, plus how it spends its time.

    params is the `(p, E, D, M, L)` tuple.  batch_sets are queried with
    one predict_residue_batch call each, in order; scalar calls cycle over
    the first scalar_points rows of the first batch set, so their
    residues can be checked against the batch output.  shares split the
    run's measured seconds across the timed phases.
    """

    name: str
    params: tuple[int, int, int, int, int]
    samples: np.ndarray
    batch_sets: dict[str, np.ndarray]
    grid_axes: list[np.ndarray]
    scalar_points: int
    shares: dict[str, float]
    nim_trials: dict[int, int] | None = None


def _xor_close(free: np.ndarray) -> np.ndarray:
    """Append the coordinate that makes every row's XOR vanish."""
    return np.column_stack([free, np.bitwise_xor.reduce(free, axis=1)])


def nim_stock(seed: int) -> Workload:
    """The paper's headline run: 3-heap Nim P-positions at p=2, E=10.

    The batch sets are the point sets of paper tasks 1 and 4; the task-1
    set is the draw run_task makes for the same seed and trial count, so
    the traced nim.task1 span sees the points the timed batch calls see.
    Task 3 is left to the traced run: its ~1024 first-coordinate groups
    would cost as much as task 1 again in every round.
    """
    bound = 2**10
    free = np.indices((100, 100)).reshape(2, -1).T.astype(np.int64)
    samples = _xor_close(free)
    samples = samples[samples[:, 2] < 100]
    task1 = np.random.default_rng(seed).integers(0, bound, size=(100_000, 3), dtype=np.int64)
    task4 = _xor_close(np.indices((64, bound)).reshape(2, -1).T.astype(np.int64))
    return Workload(
        name="nim_stock",
        params=(2, 10, 3, 100, 100),
        samples=samples,
        batch_sets={"task1": task1, "task4": task4},
        grid_axes=[np.zeros(1, dtype=np.int64), np.arange(bound), np.arange(bound)],
        scalar_points=1100,
        shares={"fit": 0.2, "save": 0.1, "load": 0.05, "scalar": 0.15, "batch": 0.25, "grid": 0.05},
        nim_trials={1: 100_000, 3: 50_000},
    )


def wide_modulus(seed: int) -> Workload:
    """Odd prime, huge binomial table, tiny model, many small batch groups."""
    rng = np.random.default_rng(seed)
    mod = 3**12
    side = 4096
    samples = rng.integers(0, 64, size=(200, 2), dtype=np.int64)
    batch = rng.integers(0, mod, size=(200_000, 2), dtype=np.int64)
    corner = rng.integers(0, mod - side, size=2, dtype=np.int64)
    return Workload(
        name="wide_modulus",
        params=(3, 12, 2, 64, 64),
        samples=samples,
        batch_sets={"uniform": batch},
        grid_axes=[np.arange(c, c + side, dtype=np.int64) for c in corner],
        scalar_points=5000,
        shares={"fit": 0.2, "save": 0.05, "load": 0.2, "scalar": 0.05, "batch": 0.3, "grid": 0.2},
    )


def deep_trunc(seed: int) -> Workload:
    """Five axes with L < M: a deep trie and a coefficient window of 1/32."""
    rng = np.random.default_rng(seed)
    samples = rng.integers(0, 16, size=(5000, 5), dtype=np.int64)
    batch = rng.integers(0, 64, size=(10_000, 5), dtype=np.int64)
    return Workload(
        name="deep_trunc",
        params=(2, 6, 5, 16, 8),
        samples=samples,
        batch_sets={"uniform": batch},
        grid_axes=[np.zeros(1, dtype=np.int64)] + [np.arange(64)] * 4,
        scalar_points=1100,
        shares={"fit": 0.2, "save": 0.2, "load": 0.05, "scalar": 0.2, "batch": 0.2, "grid": 0.15},
    )


WORKLOADS = {fn.__name__: fn for fn in (nim_stock, wide_modulus, deep_trunc)}
