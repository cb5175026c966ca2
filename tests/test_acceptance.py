"""Acceptance suite: ten gate criteria, one printed verdict line each.

Run as `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
every criterion also asserts, so a plain pytest run enforces the gate.
"""

import time

import numpy as np
from oracles import mahler_coeffs_1d, valuation

from padiclearn.mahler import ResidueGrid, evaluate_on_grid, mahler_transform
from padiclearn.nim import generate_p_positions, run_task, trivial_baseline
from padiclearn.padic import LearningParams, binomial_table
from padiclearn.trie import PadicTrie


def verdict(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_c01_exact_sample_count():
    t0 = time.perf_counter()
    pts = generate_p_positions(3, (100, 100, 100))
    elapsed = time.perf_counter() - t0
    ok = pts.shape[0] == 7984 and elapsed < 1.0
    verdict(1, ok, f"7984 expected, got {pts.shape[0]} in {elapsed * 1000:.1f} ms")


def test_c02_task2_exhaustive_and_subsample(benchmark_estimate):
    rep = run_task(benchmark_estimate, 2)
    in_band = rep.trials == 1048576 and 1901 <= rep.failures <= 2323
    sub = run_task(benchmark_estimate, 2, mode="subsample", seed=101, sample_size=16384)
    lo, hi = sub.ci95
    sub_ok = (
        sub.trials >= 10**4
        and 0.0 <= lo <= sub.success_rate <= hi <= 1.0
        and lo <= rep.success_rate <= hi
    )
    verdict(
        2,
        in_band and sub_ok,
        f"exhaustive {rep.failures} failures of {rep.trials} "
        f"(band [1901, 2323], target 2112); subsample n={sub.trials} "
        f"ci95=[{lo:.6f}, {hi:.6f}] covers {rep.success_rate:.6f}",
    )


def test_c03_task4_success_band(benchmark_estimate):
    rep = run_task(benchmark_estimate, 4)
    ok = rep.trials == 65536 and 0.20 <= rep.success_rate <= 0.32
    verdict(
        3,
        ok,
        f"{rep.failures} failures of {rep.trials}, success {rep.success_rate:.4f} "
        f"(band [0.20, 0.32], target 0.2573)",
    )


def test_c04_random_task_statistics(benchmark_estimate):
    r1 = run_task(benchmark_estimate, 1, trials=100000, seed=20260818)
    r3 = run_task(benchmark_estimate, 3, trials=50000, seed=20260818)
    ok1 = abs(r1.success_rate - 0.9980) <= 0.0015
    ok3 = abs(r3.success_rate - 0.1202) <= 0.03
    verdict(
        4,
        ok1 and ok3,
        f"task 1 success {r1.success_rate:.4f} (0.9980 +- 0.0015), "
        f"task 3 success {r3.success_rate:.4f} (0.1202 +- 0.03)",
    )


def test_c05_trivial_baseline():
    b2 = trivial_baseline(2)
    b3 = trivial_baseline(3)
    b4 = trivial_baseline(4)
    ok = b2.success_rate == 1023 / 1024 and b3.success_rate == 0.0 and b4.success_rate == 0.0
    verdict(
        5,
        ok,
        f"baseline task 2 success {b2.success_rate} (want 1023/1024 exactly), "
        f"tasks 3 and 4 {b3.success_rate}, {b4.success_rate} (want 0)",
    )


def test_c06_mahler_round_trip_suite():
    rng = np.random.default_rng(202608)
    failures = 0
    total = 1000
    for _ in range(total):
        p = int(rng.choice([2, 3]))
        E = int(rng.integers(1, 7))
        D = int(rng.integers(1, 4))
        extent = int(rng.integers(1, 7))
        params = LearningParams(p=p, E=E, D=D, M=extent)
        grid = ResidueGrid(params, rng.integers(0, p**E, size=(extent,) * D))
        coeffs = mahler_transform(grid)
        table = binomial_table(p, E, extent - 1, extent - 1)
        axes = [np.arange(extent)] * D
        if not np.array_equal(evaluate_on_grid(coeffs, axes, table), grid.data):
            failures += 1
    verdict(6, failures == 0, f"{failures} of {total} random grids failed the round trip")


def test_c07_transform_oracle_equivalence():
    rng = np.random.default_rng(202609)
    bad_1d = 0
    for _ in range(1000):
        p = int(rng.choice([2, 3]))
        E = int(rng.integers(1, 7))
        n = int(rng.integers(1, 9))
        params = LearningParams(p=p, E=E, D=1, M=n)
        values = rng.integers(0, p**E, size=n)
        got = mahler_transform(ResidueGrid(params, values)).data
        if got.tolist() != mahler_coeffs_1d(values, params).tolist():
            bad_1d += 1
    bad_nd = 0
    for _ in range(100):
        p = int(rng.choice([2, 3]))
        E = int(rng.integers(1, 6))
        D = int(rng.choice([2, 3]))
        extent = int(rng.integers(1, 6))
        params = LearningParams(p=p, E=E, D=D, M=extent)
        grid = ResidueGrid(params, rng.integers(0, p**E, size=(extent,) * D))
        ref = grid.data.copy()
        for axis in range(D):
            moved = np.moveaxis(ref, axis, 0)
            flat = moved.reshape(moved.shape[0], -1)
            for col in range(flat.shape[1]):
                flat[:, col] = mahler_coeffs_1d(flat[:, col], params)
            ref = np.moveaxis(flat.reshape(moved.shape), 0, axis)
        if not np.array_equal(mahler_transform(grid).data, ref):
            bad_nd += 1
    verdict(
        7,
        bad_1d == 0 and bad_nd == 0,
        f"{bad_1d} of 1000 1-d and {bad_nd} of 100 tensor-product comparisons failed",
    )


def test_c08_trie_oracle_equivalence():
    rng = np.random.default_rng(202610)
    failures = 0
    total = 1000
    for _ in range(total):
        p = int(rng.choice([2, 3]))
        E = int(rng.integers(1, 5))
        D = int(rng.integers(1, 4))
        params = LearningParams(p=p, E=E, D=D, M=p**E)
        size = int(rng.integers(1, 51))
        pts = rng.integers(0, p**E, size=(size, D))
        query = [int(c) for c in rng.integers(0, p**E, size=D)]
        trie = PadicTrie(params, pts)
        brute = max(
            min(valuation(q - int(s), p, E) for q, s in zip(query, row)) for row in pts
        )
        if trie.nns_valuation_batch([query])[0] != brute:
            failures += 1
    verdict(8, failures == 0, f"{failures} of {total} trie-vs-brute-force instances failed")


def test_c09_exact_on_training_samples(benchmark_estimate):
    samples = generate_p_positions(3, 100)
    member = benchmark_estimate.is_member_batch(samples)
    hits = int(member.sum())
    spot = benchmark_estimate.predict_residue((1, 2, 3))
    ok = hits == samples.shape[0] and spot == 0
    verdict(
        9,
        ok,
        f"{hits} of {samples.shape[0]} training samples accepted; residue at (1,2,3) = {spot}",
    )


def test_c10_deterministic_reports(benchmark_estimate):
    pairs = [
        (
            run_task(benchmark_estimate, 1, trials=10000, seed=77),
            run_task(benchmark_estimate, 1, trials=10000, seed=77),
        ),
        (
            run_task(benchmark_estimate, 3, trials=10000, seed=78),
            run_task(benchmark_estimate, 3, trials=10000, seed=78),
        ),
        (
            run_task(benchmark_estimate, 2, mode="subsample", seed=79),
            run_task(benchmark_estimate, 2, mode="subsample", seed=79),
        ),
    ]
    identical = all(a.to_text().encode() == b.to_text().encode() for a, b in pairs)
    verdict(10, identical, "repeated runs with equal config and seed serialize identically")
