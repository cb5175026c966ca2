import numpy as np
import pytest

from padiclearn import nim
from padiclearn.learner import SampleSet, learn
from padiclearn.nim import (
    BENCHMARK_PARAMS,
    BenchmarkReport,
    _plane_slabs,
    generate_p_positions,
    grundy_nim,
    run_task,
    sample_p_positions,
    trivial_baseline,
)
from padiclearn.padic import LearningParams


@pytest.fixture(scope="module")
def small_estimate():
    """Nim model at reduced scale: E=6, grid bound 16, full domain 64**3."""
    params = LearningParams(p=2, E=6, D=3, M=16)
    samples = SampleSet(params, generate_p_positions(3, 16))
    return learn(samples)


class TestGrundy:
    def test_examples(self):
        assert grundy_nim((0, 0, 0)) == 0
        assert grundy_nim((1, 2, 3)) == 0
        assert grundy_nim((5, 7, 9)) == 11

    def test_single_heap(self):
        assert grundy_nim((13,)) == 13

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            grundy_nim((1, -2))


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

    def test_plane_slab_planner(self):
        cap = 1 << 22
        assert _plane_slabs(1024, 1, cap) == [(0, 1)]
        assert _plane_slabs(1024, 2, cap) == [(0, 1024)]
        assert _plane_slabs(1024, 3, cap) == [(0, 1024)]
        # D=4 at E=10: 2**20 cells per x1 value, four x1 values per slab
        slabs = _plane_slabs(1024, 4, cap)
        assert len(slabs) == 256 and slabs[0] == (0, 4) and slabs[-1] == (1020, 1024)
        # uneven split: slabs tile [0, bound) in order, none over the cap
        slabs = _plane_slabs(64, 3, 64 * 5)
        assert slabs[0][0] == 0 and slabs[-1] == (60, 64)
        assert all(a[1] == b[0] for a, b in zip(slabs, slabs[1:]))
        assert all(0 < (hi - lo) * 64 <= 64 * 5 for lo, hi in slabs)
        with pytest.raises(ValueError, match="subsample"):
            _plane_slabs(1024, 5, cap)
        with pytest.raises(ValueError, match="subsample"):
            _plane_slabs(64, 3, 63)

    def test_task2_slabs_match_one_sweep(self, small_estimate, monkeypatch):
        whole = run_task(small_estimate, 2)
        monkeypatch.setattr(nim, "CHUNK_CELLS", 64 * 5)
        assert len(_plane_slabs(64, 3, nim.CHUNK_CELLS)) == 13
        sliced = run_task(small_estimate, 2)
        assert sliced.failures == whole.failures and sliced.trials == whole.trials

    def test_task2_oversized_slab_points_at_subsample(self):
        # D=5 at E=10: one x1 slab is 2**30 cells, over the sweep limit
        params = LearningParams(p=2, E=10, D=5, M=2)
        est = learn(SampleSet(params, generate_p_positions(5, 2)))
        with pytest.raises(ValueError, match="--mode subsample"):
            run_task(est, 2)

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
