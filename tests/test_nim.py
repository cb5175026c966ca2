import tracemalloc

import numpy as np
import pytest

from padiclearn import nim, padic
from padiclearn.learner import DefiningFunctionEstimate, SampleSet, learn
from padiclearn.mahler import ResidueGrid
from padiclearn.nim import (
    BENCHMARK_PARAMS,
    BenchmarkReport,
    generate_p_positions,
    run_task,
    sample_p_positions,
    trivial_baseline,
)
from padiclearn.padic import LearningParams, chunk_ranges


@pytest.fixture(scope="module")
def small_estimate():
    """Nim model at reduced scale: E=6, grid bound 16, full domain 64**3."""
    params = LearningParams(p=2, E=6, D=3, M=16)
    samples = SampleSet(params, generate_p_positions(3, 16))
    return learn(samples)


class TestGeneratePPositions:
    def test_benchmark_count(self):
        assert generate_p_positions(3, (100, 100, 100)).shape[0] == 7984

    def test_full_cube_count(self):
        assert generate_p_positions(3, (1024, 1024, 1024)).shape[0] == 1048576

    def test_single_heap(self):
        assert generate_p_positions(1, (10,)).tolist() == [[0]]

    def test_cube_shorthand(self):
        assert np.array_equal(generate_p_positions(3, 100), generate_p_positions(3, (100,) * 3))

    def test_zero_bound(self):
        assert generate_p_positions(2, (4, 0)).shape == (0, 2)

    def test_all_rows_are_p_positions(self):
        pts = generate_p_positions(3, (20, 20, 20))
        assert np.all(np.bitwise_xor.reduce(pts, axis=1) == 0)
        assert pts.min() >= 0 and pts.max() < 20

    def test_lexicographic_order(self):
        pts = generate_p_positions(3, (6, 6, 6))
        as_tuples = [tuple(r) for r in pts.tolist()]
        assert as_tuples == sorted(as_tuples)

    def test_density_in_power_of_two_cubes(self):
        for k in range(1, 6):
            n = 2**k
            assert generate_p_positions(3, n).shape[0] == n * n

    def test_completeness_brute_force(self):
        pts = {tuple(r) for r in generate_p_positions(3, (7, 5, 9)).tolist()}
        want = {
            (a, b, c)
            for a in range(7)
            for b in range(5)
            for c in range(9)
            if a ^ b ^ c == 0
        }
        assert pts == want

    def test_bad_args(self):
        with pytest.raises(ValueError):
            generate_p_positions(0, (3,))
        with pytest.raises(ValueError):
            generate_p_positions(2, (3, 3, 3))
        with pytest.raises(ValueError):
            generate_p_positions(2, (3, -1))

    @pytest.mark.parametrize(
        "bounds",
        [(3.7, 4), 4.0, True, (True, True)],
        ids=["float-pair", "float", "bool", "bool-pair"],
    )
    def test_non_integer_bounds_rejected(self, bounds):
        with pytest.raises(ValueError, match="expected integer values"):
            generate_p_positions(2, bounds)

    @pytest.mark.parametrize("D", [True, 2.0, 2.5])
    def test_non_integer_dimension_rejected(self, D):
        with pytest.raises(ValueError, match="D must be an integer"):
            generate_p_positions(D, 4)

    def test_numpy_integer_dimension(self):
        assert np.array_equal(generate_p_positions(np.int64(3), 8), generate_p_positions(3, 8))

    def test_free_box_capped(self, monkeypatch):
        # the free box is every axis but the last: 10 * 10 fits a cap of 100, 10 * 11 does not
        monkeypatch.setattr(nim, "MAX_GRID_CELLS", 100)
        assert generate_p_positions(3, (10, 10, 1000)).shape[0] == 100
        assert generate_p_positions(1, (1000,)).shape[0] == 1
        with pytest.raises(ValueError, match="supported grid size"):
            generate_p_positions(3, (10, 11, 1))


class TestSamplePPositions:
    def test_all_draws_are_members(self):
        rng = np.random.default_rng(40)
        pts = sample_p_positions(rng, 3, 64, 500)
        assert pts.shape == (500, 3)
        assert np.all(np.bitwise_xor.reduce(pts, axis=1) == 0)
        assert pts.min() >= 0 and pts.max() < 64

    def test_single_heap_degenerates(self):
        rng = np.random.default_rng(41)
        assert np.all(sample_p_positions(rng, 1, 8, 10) == 0)

    def test_uniform_over_member_set(self):
        # 64 equally likely positions for bound 8; chi-square at df 63
        rng = np.random.default_rng(42)
        draws = sample_p_positions(rng, 3, 8, 64000)
        codes = draws[:, 0] * 8 + draws[:, 1]  # last coordinate is forced
        counts = np.bincount(codes, minlength=64)
        assert counts.size == 64 and counts.min() > 0
        chi2 = float((((counts - 1000.0) ** 2) / 1000.0).sum())
        assert chi2 < 103.4  # 99.9% quantile of chi-square with 63 dof

    def test_bound_must_be_power_of_two(self):
        rng = np.random.default_rng(43)
        with pytest.raises(ValueError):
            sample_p_positions(rng, 3, 100, 10)

    def test_dimension_must_be_positive(self):
        with pytest.raises(ValueError, match="D must be at least 1, got 0"):
            sample_p_positions(np.random.default_rng(44), 0, 8, 10)

    @pytest.mark.parametrize(
        "D, bound, size, name",
        [(True, 8, 10, "D"), (2, True, 3, "bound"), (2, 8.0, 3, "bound"), (2, 8, 2.5, "size")],
        ids=["bool-D", "bool-bound", "float-bound", "float-size"],
    )
    def test_non_integer_counts_rejected(self, D, bound, size, name):
        # True is 1, a power of two, to a range check: it would draw zeros, not raise
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            sample_p_positions(np.random.default_rng(45), D, bound, size)

    def test_numpy_integer_counts(self):
        got = sample_p_positions(np.random.default_rng(46), np.int64(3), np.int64(8), np.int64(5))
        want = sample_p_positions(np.random.default_rng(46), 3, 8, 5)
        assert np.array_equal(got, want)


class TestRunTask(object):
    def test_task_counts_and_domains(self, small_estimate):
        bound = 64
        r1 = run_task(small_estimate, 1, trials=2000, seed=5)
        assert r1.trials == 2000 and 0 <= r1.failures <= 2000
        r2 = run_task(small_estimate, 2)
        assert r2.trials == bound * bound and r2.seed is None
        r3 = run_task(small_estimate, 3, trials=1500, seed=5)
        assert r3.trials == 1500
        r4 = run_task(small_estimate, 4)
        assert r4.trials == 64 * bound

    def test_small_model_learns_something(self, small_estimate):
        # inside the sampled region the model is exact, so the miss rate on
        # random members (task 3) must be far below the baseline's 100%
        r3 = run_task(small_estimate, 3, trials=4000, seed=9)
        assert r3.failures < 4000 * 0.95
        r1 = run_task(small_estimate, 1, trials=4000, seed=9)
        assert r1.success_rate > 0.9

    def test_same_seed_reproduces(self, small_estimate):
        a = run_task(small_estimate, 1, trials=3000, seed=17)
        b = run_task(small_estimate, 1, trials=3000, seed=17)
        assert a.to_text() == b.to_text()
        c = run_task(small_estimate, 3, trials=3000, seed=17)
        d = run_task(small_estimate, 3, trials=3000, seed=17)
        assert c.to_text() == d.to_text()

    def test_different_seeds_differ(self, small_estimate):
        a = run_task(small_estimate, 1, trials=3000, seed=1)
        b = run_task(small_estimate, 1, trials=3000, seed=2)
        assert a.failures != b.failures  # would collide only by accident

    def test_exhaustive_task2_matches_batch_detection(self, small_estimate):
        # the plane sweep must agree with pointwise predictions
        bound = 64
        r2 = run_task(small_estimate, 2)
        pts = np.array([(0, a, b) for a in range(bound) for b in range(bound)])
        member = small_estimate.is_member_batch(pts)
        truth = np.bitwise_xor.reduce(pts, axis=1) == 0
        assert r2.failures == int(np.count_nonzero(member != truth))

    def test_plane_slab_planner(self, monkeypatch):
        def slabs(rows, row_cells):
            return list(chunk_ranges([(0, rows, row_cells)], "task 2 slab")[1])

        monkeypatch.setattr(padic, "CHUNK_CELLS", 1 << 22)
        # task 2 at E=10: one x1 row of the plane holds 1024**(D-2) cells; D=1 is one row
        assert slabs(1, 1) == [(0, 1)]
        assert slabs(1024, 1) == [(0, 1024)]
        assert slabs(1024, 1024) == [(0, 1024)]
        # D=4 at E=10: 2**20 cells per x1 value, four x1 values per slab
        got = slabs(1024, 1 << 20)
        assert len(got) == 256 and got[0] == (0, 4) and got[-1] == (1020, 1024)
        with pytest.raises(ValueError, match="one task 2 slab holds 1073741824 cells"):
            slabs(1024, 1 << 30)
        # uneven split: slabs tile [0, rows) in order, none over the cap
        monkeypatch.setattr(padic, "CHUNK_CELLS", 64 * 5)
        got = slabs(64, 64)
        assert got[0][0] == 0 and got[-1] == (60, 64)
        assert all(a[1] == b[0] for a, b in zip(got, got[1:]))
        assert all(0 < (hi - lo) * 64 <= 64 * 5 for lo, hi in got)
        with pytest.raises(ValueError, match="one task 2 slab holds 321 cells, over 320"):
            slabs(64, 64 * 5 + 1)

    def test_task2_slabs_match_one_sweep(self, small_estimate, monkeypatch):
        whole = run_task(small_estimate, 2)
        monkeypatch.setattr(padic, "CHUNK_CELLS", 64 * 5)
        assert len(list(chunk_ranges([(0, 64, 64)], "task 2 slab")[1])) == 13
        sliced = run_task(small_estimate, 2)
        assert sliced.failures == whole.failures and sliced.trials == whole.trials

    def test_task4_slabs_match_one_sweep(self, small_estimate, monkeypatch):
        # E=6, D=3: 64 x0 rows of 64 points, 3 coordinates each; 16 rows per slab
        whole = run_task(small_estimate, 4)
        budget = 3 * 64 * 16
        monkeypatch.setattr(padic, "CHUNK_CELLS", budget)
        tracemalloc.start()
        try:
            sliced = run_task(small_estimate, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sliced.to_text() == whole.to_text() and whole.trials == 64 * 64
        # the slab's points, their gathered table rows (L = 16 per point) and
        # sort order; the whole 4096-point sweep at once reads 17 budgets
        assert peak < 8 * budget * 8

    def test_point_tasks_sweep_bounded_slabs(self, small_estimate, monkeypatch):
        # 1001 rows of 3 cells per slab: 4000 trials take 4 slabs and the subsample's
        # 63 * 64 = 4032 points 5, the first boundary at an odd row count; the draws
        # come slab by slab from one generator, so every report equals the one-slab one
        cases = [
            dict(task=1, trials=4000, seed=11),
            dict(task=3, trials=4000, seed=11),
            dict(task=2, mode="subsample", sample_size=4000, seed=11),
        ]
        whole = [run_task(small_estimate, **kw).to_text() for kw in cases]
        budget = 3 * 1001
        monkeypatch.setattr(padic, "CHUNK_CELLS", budget)
        for kw, want in zip(cases, whole):
            tracemalloc.start()
            try:
                got = run_task(small_estimate, **kw)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got.to_text() == want
            # a slab's points and the evaluator's scratch read about 4 budgets; all
            # the points at once read 14 for tasks 1 and 3 and 17 for the subsample
            assert peak < 8 * budget * 8, kw

    def test_task4_oversized_slab_rejected(self, small_estimate, monkeypatch):
        monkeypatch.setattr(padic, "CHUNK_CELLS", 3 * 64 - 1)
        with pytest.raises(ValueError, match="one task 4 slab holds 192 cells") as info:
            run_task(small_estimate, 4)
        # task 4 has no subsample mode to point at
        assert "subsample" not in str(info.value)

    @pytest.mark.parametrize("D", [1, 2])
    def test_task4_low_dimensions_keep_their_points(self, D, monkeypatch):
        params = LearningParams(p=2, E=6, D=D, M=4)
        est = learn(SampleSet(params, generate_p_positions(D, 4)))
        pts = generate_p_positions(D, (64,) + (64,) * (D - 1))
        assert pts.shape[0] == (1 if D == 1 else 64)
        monkeypatch.setattr(padic, "CHUNK_CELLS", 5 * D)
        rep = run_task(est, 4)
        assert rep.trials == pts.shape[0]
        assert rep.failures == int(np.count_nonzero(~est.is_member_batch(pts)))

    def test_task2_oversized_slab_points_at_subsample(self):
        # D=5 at E=10: one x1 slab is 2**30 cells, over the sweep limit
        params = LearningParams(p=2, E=10, D=5, M=2)
        est = learn(SampleSet(params, generate_p_positions(5, 2)))
        with pytest.raises(ValueError, match="--mode subsample"):
            run_task(est, 2)

    def test_task2_oversized_grid_slab_points_at_subsample(self):
        # one x1 slab of 4 * 4**9 output cells fits, but the grid evaluator's own
        # slab inside it does not
        params = LearningParams(p=2, E=2, D=11, M=4)
        zeros = np.zeros((4,) * 11, dtype=params.residue_dtype)
        est = DefiningFunctionEstimate(params, ResidueGrid(params, zeros))
        with pytest.raises(ValueError, match=r"one grid slab holds .*--mode subsample"):
            run_task(est, 2)

    def test_task4_oversized_slab_at_d4(self, monkeypatch):
        # D=4 at E=10: one x0 value holds 4 * 1024**2 point coordinates, over the
        # budget, while task 2 still fits with one x1 value per slab
        params = LearningParams(p=2, E=10, D=4, M=2)
        est = learn(SampleSet(params, generate_p_positions(4, 2)))
        with pytest.raises(ValueError, match="one task 4 slab holds 4194304 cells"):
            run_task(est, 4)
        slabs = []

        class Stop(Exception):
            pass

        def first_slab(self, axes):
            slabs.append([len(a) for a in axes])
            raise Stop  # before sweeping 2**30 points

        monkeypatch.setattr(DefiningFunctionEstimate, "predict_residue_grid", first_slab)
        with pytest.raises(Stop):
            run_task(est, 2)
        assert slabs == [[1, 1, 1024, 1024]]

    def test_subsample_mode(self, small_estimate):
        r = run_task(small_estimate, 2, mode="subsample", seed=3, sample_size=1000)
        assert r.mode == "subsample"
        assert r.trials >= 1000
        lo, hi = r.ci95
        assert 0.0 <= lo <= r.success_rate <= hi <= 1.0
        again = run_task(small_estimate, 2, mode="subsample", seed=3, sample_size=1000)
        assert r.to_text() == again.to_text()

    def test_validation_errors(self, small_estimate):
        with pytest.raises(ValueError):
            run_task(small_estimate, 5)
        with pytest.raises(ValueError):
            run_task(small_estimate, 1)  # no trials
        with pytest.raises(ValueError):
            run_task(small_estimate, 3, trials=0)
        with pytest.raises(ValueError):
            run_task(small_estimate, 1, trials=10, mode="subsample")
        with pytest.raises(ValueError):
            run_task(small_estimate, 2, mode="nope")

    @pytest.mark.parametrize(
        "task, kwargs, name",
        [
            (1, dict(trials=10, seed=True), "seed"),
            (1, dict(trials=10, seed=1.0), "seed"),
            (1, dict(trials=True, seed=1), "trials"),
            (3, dict(trials=10.0, seed=1), "trials"),
            (2, dict(mode="subsample", seed=1, sample_size=2.5), "sample_size"),
            (2, dict(mode="subsample", seed=1, sample_size=True), "sample_size"),
        ],
        ids=["bool-seed", "float-seed", "bool-trials", "float-trials", "float-size", "bool-size"],
    )
    def test_non_integer_counts_rejected(self, small_estimate, task, kwargs, name):
        # refused, not coerced: seed True would print `seed True` in the canonical report
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            run_task(small_estimate, task, **kwargs)

    def test_numpy_integer_counts(self, small_estimate):
        for task, kwargs in [(1, dict(trials=20)), (2, dict(mode="subsample", sample_size=100))]:
            want = run_task(small_estimate, task, seed=7, **kwargs)
            numpy_kwargs = {k: np.int64(v) if k != "mode" else v for k, v in kwargs.items()}
            got = run_task(small_estimate, task, seed=np.int64(7), **numpy_kwargs)
            assert got.seed == 7 and type(got.seed) is int
            assert got.to_text() == want.to_text()

    def test_subsample_input_checks(self, small_estimate):
        with pytest.raises(ValueError, match="sample_size must be positive, got 0"):
            run_task(small_estimate, 2, mode="subsample", sample_size=0)
        params = LearningParams(p=2, E=3, D=2, M=4)
        est = learn(SampleSet(params, generate_p_positions(2, 4)))
        with pytest.raises(ValueError, match="subsample mode needs D >= 3"):
            run_task(est, 2, mode="subsample")

    def test_task4_needs_enough_precision(self):
        params = LearningParams(p=2, E=4, D=3, M=8)
        est = learn(SampleSet(params, generate_p_positions(3, 8)))
        with pytest.raises(ValueError):
            run_task(est, 4)

    def test_odd_prime_rejected(self):
        params = LearningParams(p=3, E=2, D=1, M=3)
        est = learn(SampleSet(params, [(0,)]))
        with pytest.raises(ValueError):
            run_task(est, 1, trials=10)


class TestTrivialBaseline:
    def test_task2_exact_success(self):
        rep = trivial_baseline(2)
        assert rep.trials == 1048576
        assert rep.failures == 1024
        assert rep.success_rate == 1023 / 1024

    def test_task1_exact_success(self):
        rep = trivial_baseline(1)
        assert rep.trials == 1024**3
        assert rep.failures == 1024**2
        assert rep.success_rate == 1023 / 1024

    def test_members_always_missed(self):
        assert trivial_baseline(3).success_rate == 0.0
        rep4 = trivial_baseline(4)
        assert rep4.success_rate == 0.0
        assert rep4.trials == 65536

    def test_bad_task(self):
        with pytest.raises(ValueError):
            trivial_baseline(0)

    def test_odd_prime_rejected(self):
        with pytest.raises(ValueError):
            trivial_baseline(1, LearningParams(p=3, E=2, D=1, M=3))


class TestReportText:
    def test_canonical_fields(self):
        rep = BenchmarkReport(
            task=2,
            params=BENCHMARK_PARAMS,
            seed=None,
            trials=1048576,
            failures=2112,
            wall_time_ms=1234,
        )
        assert rep.to_text() == (
            "task 2\np 2\nE 10\nD 3\nM 100\nL 100\nseed -\n"
            "trials 1048576\nfailures 2112\nsuccess_rate 0.997986\n"
        )

    def test_timing_line_is_optional(self):
        rep = BenchmarkReport(
            task=1, params=BENCHMARK_PARAMS, seed=7, trials=10, failures=1, wall_time_ms=55
        )
        assert rep.to_text().endswith("success_rate 0.900000\n")
        assert "seed 7" in rep.to_text()

    def test_subsample_lines(self):
        rep = BenchmarkReport(
            task=2,
            params=BENCHMARK_PARAMS,
            seed=3,
            trials=16384,
            failures=33,
            wall_time_ms=1,
            mode="subsample",
            ci95=(0.99712345, 0.99912345),
        )
        text = rep.to_text()
        assert "mode subsample\nci95_low 0.997123\nci95_high 0.999123\n" in text
