import io
import itertools
import lzma
import os
import re
import tracemalloc
import zlib

import numpy as np
import pytest
from oracles import (
    digit_order,
    digit_planes,
    lowered,
    mahler_coeffs_1d,
    raw_lzma2,
    sample_distance,
    series_value,
    valuation,
    value_window,
)

from padiclearn import learner, mahler
from padiclearn.learner import (
    DefiningFunctionEstimate,
    SampleSet,
    build_value_grid,
    learn,
    read_coefficient_rows,
    write_coefficient_rows,
)
from padiclearn.nim import BENCHMARK_PARAMS, generate_p_positions
from padiclearn.padic import MAX_AXIS_EXTENT, MAX_MODULUS, LearningParams, binomial_table
from padiclearn.trie import PadicTrie

# the hint every model body check ends with, as a pattern
EARLIER = re.escape(
    "; the file may be a model saved in an earlier layout, to be learned again from its samples"
)


def same_table(a, b) -> bool:
    fields = ("p", "E", "shape", "U", "Uinv", "V")
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in fields)


def model_window(path) -> bytes:
    """The raw window of a model file, read through read_coefficient_rows."""
    with open(path, "rb") as fh:
        return read_coefficient_rows(fh)[1].tobytes()


def lzma2_chunks(stream: bytes) -> list[str]:
    """The kind of each chunk of a raw LZMA2 stream, "stored" or "lzma", by its control byte.

    A stored chunk is the control byte, its size - 1 in 2 bytes and the data; a
    compressed one is the control byte, 2 bytes of unpacked size, its packed size
    - 1 in 2 bytes, a properties byte where the control byte is 0xC0 or more, then
    the packed data.  The end byte 0 stops the walk.
    """
    kinds, i = [], 0
    while stream[i]:
        control = stream[i]
        if control < 0x80:
            kinds.append("stored")
            i += 3 + int.from_bytes(stream[i + 1 : i + 3], "big") + 1
        else:
            kinds.append("lzma")
            i += 5 + (control >= 0xC0) + int.from_bytes(stream[i + 3 : i + 5], "big") + 1
    assert i == len(stream) - 1
    return kinds


def random_setup(rng, max_E=5, max_D=3, max_M=6):
    """Random params with M <= p**E so the whole grid is predictable."""
    p = int(rng.choice([2, 3]))
    E = int(rng.integers(1, max_E + 1))
    D = int(rng.integers(1, max_D + 1))
    M = int(rng.integers(1, min(max_M, p**E) + 1))
    params = LearningParams(p=p, E=E, D=D, M=M)
    size = int(rng.integers(1, 9))
    pts = rng.integers(0, M, size=(size, D))
    return params, SampleSet(params, pts)


class TestSampleSet:
    def test_dedupe_and_sort(self):
        params = LearningParams(p=2, E=3, D=2, M=4)
        ss = SampleSet(params, [(3, 1), (0, 2), (3, 1)])
        assert ss.points.tolist() == [[0, 2], [3, 1]]
        assert ss.points.shape[0] == 2

    def test_single_point_row(self):
        params = LearningParams(p=2, E=3, D=2, M=4)
        assert SampleSet(params, (1, 2)).points.tolist() == [[1, 2]]

    def test_empty_rejected(self):
        params = LearningParams(p=2, E=3, D=2, M=4)
        with pytest.raises(ValueError):
            SampleSet(params, np.empty((0, 2), dtype=np.int64))

    def test_out_of_range_rejected(self):
        params = LearningParams(p=2, E=3, D=2, M=4)
        with pytest.raises(ValueError):
            SampleSet(params, [(0, 4)])
        with pytest.raises(ValueError):
            SampleSet(params, [(-1, 0)])

    def test_dimension_mismatch(self):
        params = LearningParams(p=2, E=3, D=2, M=4)
        with pytest.raises(ValueError):
            SampleSet(params, [(1, 2, 3)])


class TestValueGrid:
    def test_samples_hit_zero(self):
        params = LearningParams(p=2, E=3, D=2, M=4)
        grid = build_value_grid(SampleSet(params, [(1, 2), (3, 3)]))
        assert grid.data[1, 2] == 0
        assert grid.data[3, 3] == 0

    def test_powers_of_distance(self):
        params = LearningParams(p=2, E=3, D=1, M=5)
        grid = build_value_grid(SampleSet(params, [(0,)]))
        # valuations of 0..4 against {0}: E,0,1,0,2
        assert grid.data.tolist() == [0, 1, 2, 1, 4]

    def test_min_over_coordinates(self):
        params = LearningParams(p=2, E=3, D=2, M=2)
        grid = build_value_grid(SampleSet(params, [(0, 0)]))
        assert grid.data.tolist() == [[0, 1], [1, 1]]

    def test_entries_are_p_powers_or_zero(self):
        rng = np.random.default_rng(30)
        for _ in range(40):
            params, samples = random_setup(rng)
            grid = build_value_grid(samples)
            allowed = {params.p**v % params.modulus for v in range(params.E)} | {0}
            assert set(np.unique(grid.data).tolist()) <= allowed

    def test_window_is_the_corner_of_the_whole_grid(self):
        # at L < M only [0, L)**D is filled, against every sample, inside it or not
        params = LearningParams(p=2, E=3, D=1, M=5, L=2)
        assert build_value_grid(SampleSet(params, [(4,)])).data.tolist() == [4, 1]
        rng = np.random.default_rng(39)
        for _ in range(30):
            params, samples = random_setup(rng)
            L = int(rng.integers(1, params.M + 1))
            window = LearningParams(params.p, params.E, params.D, params.M, L)
            grid = build_value_grid(SampleSet(window, samples.points))
            whole = build_value_grid(samples)
            assert grid.extent == L
            assert np.array_equal(grid.data, whole.data[(slice(0, L),) * params.D])

    def test_fill_peak_at_deep_trunc(self):
        # the benchmark's deep_trunc parameters: 8**5 nodes in one step against six levels
        params = LearningParams(p=2, E=6, D=5, M=16, L=8)
        samples = SampleSet(params, np.random.default_rng(40).integers(0, 16, size=(5000, 5)))
        tracemalloc.start()
        try:
            grid = build_value_grid(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.extent == 8
        assert peak < 5.5 * 2**20

    def test_refinement_is_monotone(self):
        # more samples can only raise the valuation read at each node
        rng = np.random.default_rng(31)
        for _ in range(30):
            params, samples = random_setup(rng)
            extra = rng.integers(0, params.M, size=(3, params.D))
            bigger = SampleSet(params, np.vstack([samples.points, extra]))
            small_trie = PadicTrie(params, samples.points)
            big_trie = PadicTrie(params, bigger.points)
            total = params.M**params.D
            pts = np.stack(
                np.unravel_index(np.arange(total), (params.M,) * params.D), axis=1
            )
            assert np.all(
                big_trie.nns_valuation_batch(pts) >= small_trie.nns_valuation_batch(pts)
            )


class TestLearn:
    def test_tiny_one_dimensional_case(self):
        params = LearningParams(p=2, E=2, D=1, M=2)
        est = learn(SampleSet(params, [(0,)]))
        grid = build_value_grid(SampleSet(params, [(0,)]))
        assert grid.data.tolist() == [0, 1]
        assert est.coeffs.data.tolist() == [0, 1]
        assert [est.predict_residue((x,)) for x in range(4)] == [0, 1, 2, 3]

    def test_full_space_collapses_to_zero(self):
        params = LearningParams(p=2, E=3, D=2, M=2)
        all_points = [(a, b) for a in range(2) for b in range(2)]
        est = learn(SampleSet(params, all_points))
        assert not est.coeffs.data.any()
        for pt in all_points:
            assert est.predict_residue(pt) == 0
            assert est.is_member(pt)

    def test_grid_consistency(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            params, samples = random_setup(rng)
            est = learn(samples)
            grid = build_value_grid(samples)
            axes = [np.arange(params.M)] * params.D
            assert np.array_equal(est.predict_residue_grid(axes), grid.data)

    def test_exact_on_samples(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            params, samples = random_setup(rng)
            est = learn(samples)
            assert bool(est.is_member_batch(samples.points).all())

    def test_truncation_zeroes_tail(self):
        params = LearningParams(p=2, E=4, D=2, M=4, L=2)
        rng = np.random.default_rng(34)
        samples = SampleSet(params, rng.integers(0, 4, size=(5, 2)))
        est = learn(samples)
        full = learn(SampleSet(LearningParams(p=2, E=4, D=2, M=4), samples.points))
        assert est.coeffs.data.shape == (2, 2)
        assert np.array_equal(est.coeffs.data, full.coeffs.data[:2, :2])

    def test_fit_memory_follows_the_window(self):
        # the 4**4 window is 1/256 of the 16**4 grid, whose fill and transform
        # alone would peak at 8.6 MiB
        params = LearningParams(p=2, E=6, D=4, M=16, L=4)
        rng = np.random.default_rng(38)
        samples = SampleSet(params, rng.integers(0, 16, size=(500, 4)))
        tracemalloc.start()
        try:
            est = learn(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.coeffs.extent == 4
        assert peak < 2 * 2**20

    def test_truncated_prediction_is_window_sum(self):
        params = LearningParams(p=2, E=4, D=1, M=4, L=2)
        samples = SampleSet(params, [(0,), (3,)])
        est = learn(samples)
        full = learn(SampleSet(LearningParams(p=2, E=4, D=1, M=4), samples.points))
        c = full.coeffs.data
        for x in range(16):
            want = (c[0] * 1 + c[1] * x) % 16
            assert est.predict_residue((x,)) == want


class TestPredict:
    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(35)
        for _ in range(15):
            params, samples = random_setup(rng)
            est = learn(samples)
            pts = rng.integers(0, params.modulus, size=(25, params.D))
            batch = est.predict_residue_batch(pts)
            for row, pt in zip(batch, pts):
                want = series_value(est.coeffs.data, pt, params.modulus)
                assert int(row) == want
                assert est.predict_residue(tuple(int(c) for c in pt)) == want

    def test_domain_errors(self):
        params = LearningParams(p=2, E=2, D=1, M=2)
        est = learn(SampleSet(params, [(0,)]))
        with pytest.raises(ValueError):
            est.predict_residue((4,))
        with pytest.raises(ValueError):
            est.predict_residue((-1,))
        with pytest.raises(ValueError):
            est.predict_residue_batch(np.array([[4]]))
        with pytest.raises(ValueError):
            est.predict_residue_grid([np.array([0, 4])])

    def test_empty_batch(self):
        params = LearningParams(p=2, E=2, D=1, M=2)
        est = learn(SampleSet(params, [(0,)]))
        assert est.predict_residue_batch(np.empty((0, 1), dtype=np.int64)).size == 0

    def test_passed_table_must_match_the_params(self):
        params = LearningParams(p=2, E=4, D=2, M=4)
        est = learn(SampleSet(params, [(0, 1), (2, 3)]))
        # a table mod 2**3 covers the rows but not the modulus
        for table in (
            binomial_table(2, 3, 15, 3),
            binomial_table(3, 4, 15, 3),
            binomial_table(2, 4, 14, 3),
        ):
            with pytest.raises(ValueError, match=r"the model needs mod 2\*\*4 for n < 16"):
                DefiningFunctionEstimate(params, est.coeffs, table)
        # rows are exact for every k, so neither a narrow nor a wide dense form matters
        pts = np.array([(a, b) for a in range(16) for b in range(16)])
        axes = [np.arange(16)] * 2
        for kmax in (0, 2, 9):
            other = DefiningFunctionEstimate(params, est.coeffs, binomial_table(2, 4, 15, kmax))
            assert np.array_equal(other.predict_residue_batch(pts), est.predict_residue_batch(pts))
            assert np.array_equal(other.predict_residue_grid(axes), est.predict_residue_grid(axes))

    @pytest.mark.parametrize("first", ["scalar", "batch", "grid", "member"])
    def test_only_the_first_query_builds_the_modulus_table(self, monkeypatch, tmp_path, first):
        params = LearningParams(p=3, E=4, D=2, M=9)
        build, calls = learner.binomial_table, []

        def counted(p, E, nmax, kmax):
            calls.append(nmax)
            return build(p, E, nmax, kmax)

        monkeypatch.setattr(learner, "binomial_table", counted)
        queries = {
            "scalar": lambda est: est.predict_residue((40, 2)),
            "batch": lambda est: est.predict_residue_batch(np.array([(40, 2), (0, 80)])),
            "grid": lambda est: est.predict_residue_grid([np.arange(81)] * 2),
            "member": lambda est: est.is_member((0, 1)),
        }
        est = learn(SampleSet(params, [(0, 1), (4, 7)]))
        est.save(tmp_path / "model.bin")
        back = DefiningFunctionEstimate.load(tmp_path / "model.bin")
        # the save's and the load's transforms take tables of the window's L rows
        assert calls and max(calls) < params.L
        for model in (est, back):
            calls.clear()
            queries[first](model)
            assert calls == [params.modulus - 1]
            for query in queries.values():
                query(model)
            assert calls == [params.modulus - 1]
        # a table passed in, the third argument, is checked and read as is
        table = build(3, 4, params.modulus - 1, 0)
        calls.clear()
        given = DefiningFunctionEstimate(params, back.coeffs, table)
        queries[first](given)
        assert given.table is table and calls == []
        with pytest.raises(ValueError, match=r"the model needs mod 3\*\*4 for n < 81"):
            DefiningFunctionEstimate(params, back.coeffs, build(3, 4, 79, 8))

    def test_learn_and_load_at_the_modulus_cap_skip_its_table(self, tmp_path):
        # a table of the 2**20 rows is 9 MiB; learn and load need only the 8 x 8 window
        params = LearningParams(p=2, E=20, D=2, M=8)
        samples = SampleSet(params, [(0, 0), (3, 3), (5, 6)])
        path = tmp_path / "model.bin"
        peaks = []
        for step in (lambda: learn(samples), lambda: DefiningFunctionEstimate.load(path)):
            tracemalloc.start()
            try:
                est = step()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            est.save(path)
        assert max(peaks) < 2**20, peaks
        assert est.predict_residue((3, 3)) == 0 and est.table.shape[0] == params.modulus

    def test_coefficients_under_other_params_rejected(self):
        # saved and loaded, this window would answer under its own params, not these
        coeffs = mahler.ResidueGrid(LearningParams(2, 4, 1, 8), np.arange(8) % 9)
        with pytest.raises(ValueError, match=r"coeffs must be a window of extent L = 8 under"):
            DefiningFunctionEstimate(LearningParams(3, 2, 1, 8), coeffs)

    def test_coefficient_window_past_l_rejected(self):
        params = LearningParams(2, 4, 1, 8, L=4)
        coeffs = mahler.ResidueGrid(params, np.arange(8))
        with pytest.raises(ValueError, match="extent L = 4 .* got extent 8"):
            DefiningFunctionEstimate(params, coeffs)

    def test_table_past_the_domain_rejected(self):
        # 64 rows would answer x = 20, outside [0, 16), where the model's own table refuses
        params = LearningParams(2, 4, 1, 8)
        est = learn(SampleSet(params, [(1,), (5,)]))
        with pytest.raises(ValueError, match="must lie in"):
            est.predict_residue((20,))
        with pytest.raises(ValueError, match=r"mod 2\*\*4 for n < 64; the model needs .* n < 16"):
            DefiningFunctionEstimate(params, est.coeffs, binomial_table(2, 4, 63, 3))


def oracle_window(params, samples) -> np.ndarray:
    """The expected L**D coefficient window, from tests/oracles.py alone.

    Every node of [0, M)**D gets p**v with v the best brute-force valuation
    any sample achieves against it, each axis is transformed by the 1-d
    closed form, and the [0, L)**D window is kept.
    """
    p, E, D, M, L = params.p, params.E, params.D, params.M, params.L
    grid = np.empty((M,) * D, dtype=np.int64)
    for node in np.ndindex(grid.shape):
        v = max(min(valuation(x - int(s), p, E) for x, s in zip(node, row)) for row in samples)
        grid[node] = pow(p, v, p**E)
    for axis in range(D):
        grid = np.apply_along_axis(mahler_coeffs_1d, axis, grid, params)
    return grid[(slice(0, L),) * D]


def test_end_to_end_matches_oracle():
    # learn, batch and grid queries against the oracle window and series_value
    rng = np.random.default_rng(36)
    for _ in range(300):
        p = int(rng.choice([2, 3, 5]))
        E = int(rng.integers(1, 7 if p == 2 else 4))
        D = int(rng.integers(1, 4))
        M = int(rng.integers(1, 7))
        params = LearningParams(p=p, E=E, D=D, M=M, L=int(rng.integers(1, M + 1)))
        samples = rng.integers(0, M, size=(int(rng.integers(1, 6)), D))
        want = oracle_window(params, samples)
        est = learn(SampleSet(params, samples))
        assert np.array_equal(est.coeffs.data, want)
        mod = p**E
        pts = rng.integers(0, mod, size=(6, D))
        assert est.predict_residue_batch(pts).tolist() == [series_value(want, x, mod) for x in pts]
        axes = [rng.integers(0, mod, size=3) for _ in range(D)]
        grid = [series_value(want, x, mod) for x in itertools.product(*axes)]
        assert est.predict_residue_grid(axes).reshape(-1).tolist() == grid


def distance_cases(rng):
    """(params, samples, points) over random configs, p past 256 and L < M included.

    Half of each config's points are a sample plus a multiple of a random power of
    p, so the sample distance d(x) takes every value up to E.
    """
    configs = []
    for _ in range(150):
        p = int(rng.choice([2, 3, 5, 7]))
        top = 1
        while p ** (top + 1) <= 5000:
            top += 1
        D, M = int(rng.integers(1, 4)), int(rng.integers(1, 30))
        params = LearningParams(p, int(rng.integers(1, top + 1)), D, M, int(rng.integers(1, M + 1)))
        configs.append((params, rng.integers(0, M, size=(int(rng.integers(1, 20)), D))))
    for p, D, M, L in ((257, 1, 300, 280), (263, 2, 280, 270)):
        configs.append((LearningParams(p, 2, D, M, L), rng.integers(0, M, size=(40, D))))
    for params, samples in configs:
        mod, D = params.modulus, params.D
        pts = rng.integers(0, mod, size=(200, D))
        step = params.p ** rng.integers(0, params.E + 1, size=(100, 1))
        pts[:100] = (samples[rng.integers(0, len(samples), 100)] + step * pts[:100]) % mod
        yield params, samples, pts


@pytest.mark.parametrize("stock", [False, True], ids=["random", "stock"])
def test_residue_valuation_is_the_sample_distance_below_kappa(request, stock):
    # with kappa = floor(log_p L) and d(x) the all-pairs sample distance capped at
    # E, v_p(F(x)) = d(x) where d(x) < kappa and v_p(F(x)) >= kappa elsewhere, a
    # zero residue reading as E: the series is pinned at points far from the window
    rng = np.random.default_rng(53)
    if stock:
        est = request.getfixturevalue("benchmark_estimate")
        draw = np.random.default_rng(20260818).integers(0, 1024, size=(100_000, 3))  # c04's task 1
        cases = [(est, generate_p_positions(3, 100), draw[rng.choice(len(draw), 3000, replace=False)])]
    else:
        cases = ((learn(SampleSet(*case[:2])), *case[1:]) for case in distance_cases(rng))
    exact = 0
    for est, samples, pts in cases:
        p, E, L = est.params.p, est.params.E, est.params.L
        kappa = 0
        while p ** (kappa + 1) <= L:
            kappa += 1
        d = sample_distance(samples, pts, p, E)
        F = est.predict_residue_batch(pts).astype(np.int64)
        v = sum((F % p**k == 0).astype(np.int64) for k in range(1, E + 1))
        below = d < kappa
        assert np.array_equal(v[below], d[below]), est.params
        assert (v[~below] >= kappa).all(), est.params
        exact += int(below.sum())
    assert exact > (2000 if stock else 5000)  # not vacuous: many points are pinned exactly


@pytest.mark.parametrize("stock", [False, True], ids=["random", "stock"])
def test_coefficient_valuation_is_bounded_by_the_levels(request, stock):
    # the fill is 1 + sum_{k=1..E} p**(k-1) * (p-1) * g_k with g_k p**k-periodic on
    # every axis, so for l != 0 the coefficient c_l has valuation at least
    # B(l) = min_k [(k - 1) + sum_d floor(l_d / p**k)]; a zero coefficient has
    # infinite valuation, and B(l) >= E forces one.  Checked over whole windows
    rng = np.random.default_rng(54)
    if stock:
        ests = [request.getfixturevalue("benchmark_estimate")]
    else:
        ests = []
        for _ in range(150):
            D, M = int(rng.integers(1, 4)), int(rng.integers(1, 30))
            p, E, L = int(rng.choice([2, 3, 5, 7])), int(rng.integers(1, 7)), int(rng.integers(1, M + 1))
            samples = rng.integers(0, M, size=(int(rng.integers(1, 12)), D))
            ests.append(learn(SampleSet(LearningParams(p, E, D, M, L), samples)))
    tight = forced = 0
    for est in ests:
        p, E, D, L = est.params.p, est.params.E, est.params.D, est.params.L
        c = est.coeffs.data.astype(np.int64)
        v = sum((c % p**k == 0).astype(np.int64) for k in range(1, E + 1))  # E where c == 0
        bound = np.full(c.shape, E)  # k = E + 1 and past add nothing below E
        for k in range(1, E + 1):
            np.minimum(bound, k - 1 + sum(np.ix_(*[np.arange(L) // p**k] * D)), out=bound)
        nonzero_l = np.arange(c.size).reshape(c.shape) > 0
        assert ((c == 0) | (v >= bound))[nonzero_l].all(), est.params
        tight += int(((c != 0) & (v == bound) & nonzero_l).sum())
        forced += int(((bound >= E) & nonzero_l).sum())
    assert tight > 1000 and (stock or forced > 1000)  # not vacuous: the bound is met and forces zeros


@pytest.mark.parametrize("case", ["grid", "point"])
def test_query_scratch_at_the_default_budget(request, case):
    # the evaluators give the kernel at most KERNEL_CELLS of their half of
    # CHUNK_CELLS: with the whole half, the grid read 4.42 MiB of scratch and the
    # stock one-point query 4.08 MiB
    if case == "grid":
        params = LearningParams(p=2, E=6, D=5, M=8)
        coeffs = np.random.default_rng(55).integers(0, 64, (8,) * 5)
        est = DefiningFunctionEstimate(params, mahler.ResidueGrid(params, coeffs))
        axes = [np.array([5])] + [np.arange(64)] * 4
        query, bound = lambda: est.predict_residue_grid(axes), 2 << 20
    else:
        est = request.getfixturevalue("benchmark_estimate")
        query, bound = lambda: np.array(est.predict_residue((1, 2, 3))), 3 << 19
    tracemalloc.start()
    try:
        out = query()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes < bound
    pts = np.array([[5, 0, 9, 63, 17], [5, 1, 2, 3, 4]] if case == "grid" else [[1, 2, 3]])
    got = [out[(0, *pt[1:])] for pt in pts] if case == "grid" else [out]
    assert got == est.predict_residue_batch(pts).tolist()


@pytest.mark.parametrize("stock", [False, True], ids=["random", "stock"])
def test_mulmod_premise(monkeypatch, stock):
    # every product has residue operands and a contracted extent within
    # MAX_AXIS_EXTENT: the premise of the 2**52 bound asserted in padic.py; the
    # transforms of the fit, the save and the load, the grid rounds and the x0
    # partials multiply 2-d float64 operands, and the per-point rounds stacked
    # 3-d float64 ones
    rng = np.random.default_rng(37)
    configs = [(BENCHMARK_PARAMS, generate_p_positions(3, 100))] if stock else []
    for _ in range(0 if stock else 40):
        D, M = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        p, E, L = int(rng.choice([2, 3, 5])), int(rng.integers(1, 5)), int(rng.integers(1, M + 1))
        samples = rng.integers(0, M, size=(int(rng.integers(1, 9)), D))
        configs.append((LearningParams(p, E, D, M, L), samples))
    calls = []
    real = mahler._mulmod

    def checked(a, b, mod):
        assert mod == params.modulus  # the config under test, set below
        assert a.shape[-1] == b.shape[-2] <= MAX_AXIS_EXTENT
        assert a.dtype == b.dtype
        for x in (a, b):
            assert 0 <= x.min() and x.max() < mod
        calls.append((a.ndim, a.dtype.name))
        return real(a, b, mod)

    monkeypatch.setattr(mahler, "_mulmod", checked)
    for params, samples in configs:
        mod = params.modulus
        est = learn(SampleSet(params, samples))
        fit_calls = len(calls)
        est.predict_residue_batch(rng.integers(0, mod, size=(300, params.D)))
        batch_calls = len(calls)
        est.predict_residue_grid([rng.integers(0, mod, size=5)] * params.D)
        grid_calls = len(calls)
        buf = io.BytesIO()
        write_coefficient_rows(buf, params, est.coeffs.data)
        save_calls = len(calls)
        buf.seek(0)
        assert np.array_equal(read_coefficient_rows(buf)[1], est.coeffs.data)
        assert 0 < fit_calls < batch_calls < grid_calls < save_calls < len(calls)
        kernel = calls[:fit_calls] + calls[batch_calls:]  # transforms and grid rounds
        assert set(kernel) == {(2, "float64")}
        per_point = {(3, "float64")} if params.D > 1 else set()
        assert set(calls[fit_calls:batch_calls]) == {(2, "float64")} | per_point
        calls.clear()


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(36)
        params, samples = random_setup(rng)
        est = learn(samples)
        path = tmp_path / "model.bin"
        est.save(path)
        back = DefiningFunctionEstimate.load(path)
        assert back.params == est.params
        assert np.array_equal(back.coeffs.data, est.coeffs.data)
        assert same_table(back.table, est.table)
        path2 = tmp_path / "model2.bin"
        back.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_predictions_survive_reload(self, tmp_path):
        params = LearningParams(p=2, E=4, D=2, M=4, L=3)
        samples = SampleSet(params, [(0, 0), (1, 3), (2, 2)])
        est = learn(samples)
        path = tmp_path / "model.bin"
        est.save(path)
        back = DefiningFunctionEstimate.load(path)
        pts = np.array([(a, b) for a in range(8) for b in range(8)])
        assert np.array_equal(est.predict_residue_batch(pts), back.predict_residue_batch(pts))

    def test_truncated_round_trip(self, tmp_path):
        params = LearningParams(p=2, E=5, D=3, M=6, L=3)
        rng = np.random.default_rng(37)
        est = learn(SampleSet(params, rng.integers(0, 6, size=(9, 3))))
        path = tmp_path / "model.bin"
        est.save(path)
        # the window holds one byte per value: p**E - 1 = 31 fits uint8
        assert len(model_window(path)) == 3**3
        back = DefiningFunctionEstimate.load(path)
        assert back.params == est.params
        assert np.array_equal(back.coeffs.data, est.coeffs.data)
        assert same_table(back.table, est.table)
        path2 = tmp_path / "model2.bin"
        back.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_golden_bytes(self, tmp_path):
        est = learn(SampleSet(LearningParams(p=2, E=2, D=1, M=2), [(0,)]))
        path = tmp_path / "model.bin"
        est.save(path)
        head = path.read_bytes().split(b"\n", 1)[0]
        # the compressed bytes depend on the liblzma build; header and window do not
        assert head + b"\n" + model_window(path) == (
            b"2 2 1 2 2 d91b44947c0e7d464d6ba8b3ed39bf14\n\x00\x01"
        )

    @pytest.mark.parametrize(
        "p, E, dtype",
        [
            (2, 8, np.uint8),
            (2, 9, np.uint16),
            (2, 16, np.uint16),
            (2, 17, np.uint32),
            (3, 11, np.uint32),
        ],
    )
    def test_body_dtype_follows_modulus(self, tmp_path, p, E, dtype):
        # the smallest unsigned dtype that holds p**E - 1
        params = LearningParams(p=p, E=E, D=2, M=3)
        est = learn(SampleSet(params, [(0, 1), (2, 2)]))
        path = tmp_path / "model.bin"
        est.save(path)
        body = model_window(path)
        assert body == est.coeffs.data.astype(np.dtype(dtype).newbyteorder("<")).tobytes()
        assert len(body) == 9 * np.dtype(dtype).itemsize
        assert np.array_equal(DefiningFunctionEstimate.load(path).coeffs.data, est.coeffs.data)
        # batch and grid residues come in the same dtype; a scalar stays a Python int
        pts = np.array([[0, 1], [5, 7]])
        batch = est.predict_residue_batch(pts)
        grid = est.predict_residue_grid([np.array([0, 5]), np.array([1, 7])])
        assert batch.dtype == grid.dtype == dtype
        assert batch.tolist() == [est.predict_residue(x) for x in pts] == np.diag(grid).tolist()
        assert type(est.predict_residue((5, 7))) is int

    @pytest.mark.parametrize("piece", [None, 64])
    def test_body_is_the_window_in_digit_order(self, monkeypatch, piece):
        # the body holds the window's values, the series at each of its cells
        # a 64-byte piece cuts 8-cell slabs over a trailing block of at most 8 cells
        if piece:
            monkeypatch.setattr(learner, "_PIECE", piece)
        # (p, D, L): L = 1, D = 1, p >= L, L = p**k, L = p**k + 1, a partial top digit
        configs = [(2, 3, 1), (3, 1, 1), (2, 1, 37), (5, 3, 5), (7, 2, 4), (2, 2, 16)]
        configs += [(3, 3, 9), (2, 2, 17), (3, 2, 10), (3, 2, 20), (2, 3, 12), (2, 5, 5)]
        rng = np.random.default_rng(42)
        while len(configs) < 40:
            p, D = int(rng.choice([2, 3, 5, 7, 11])), int(rng.integers(1, 5))
            configs.append((p, D, int(rng.integers(1, int(2000 ** (1 / D)) + 1))))
        for p, D, L in configs:
            # coefficients 0 .. L**D - 1 tell every cell apart
            E = next(E for E in range(1, 30) if p**E >= L**D)
            params = LearningParams(p=p, E=E, D=D, M=L)
            window = np.arange(L**D).reshape((L,) * D)
            buf = io.BytesIO()
            write_coefficient_rows(buf, params, window)
            stream = buf.getvalue().split(b"\n", 1)[1]
            raw = lzma.decompress(stream, lzma.FORMAT_RAW, filters=[{"id": lzma.FILTER_LZMA2}])
            values = value_window(window, p**E).reshape(-1)[digit_order(p, D, L)]
            assert raw == digit_planes(p, E, lowered(p, E, L, values)), (p, D, L)
            buf.seek(0)
            assert np.array_equal(read_coefficient_rows(buf)[1], window), (p, D, L)

    def test_learned_planes_are_the_level_indicators(self):
        # a learned window holds p**d(x) and the body lowers its c low digits, c the
        # least count with p**c >= M, at most E: digit plane k - 1 is the fill's
        # level indicator, (p - 1) * [d(x) >= k], for k <= c, and a higher plane is 0
        rng = np.random.default_rng(48)
        # L < M at deep_trunc's p and E; c = E, as 3**2 < 20; c = 3 < E
        configs = [(2, 6, 3, 16, 8), (3, 2, 2, 20, 20), (5, 6, 2, 30, 11)]
        while len(configs) < 12:
            p, D = int(rng.choice([2, 3, 5, 7, 11])), int(rng.integers(1, 4))
            M = int(rng.integers(2, int(1500 ** (1 / D)) + 1))
            top = next(E for E in range(1, 21) if p ** (E + 1) > MAX_MODULUS)
            configs.append((p, int(rng.integers(1, top + 1)), D, M, int(rng.integers(1, M + 1))))
        assert any(L < M for *_, M, L in configs)
        for p, E, D, M, L in configs:
            params = LearningParams(p=p, E=E, D=D, M=M, L=L)
            samples = rng.integers(0, M, (int(rng.integers(1, 2 * M)), D))
            buf = io.BytesIO()
            write_coefficient_rows(buf, params, learn(SampleSet(params, samples)).coeffs.data)
            stream = buf.getvalue().split(b"\n", 1)[1]
            raw = lzma.decompress(stream, lzma.FORMAT_RAW, filters=[{"id": lzma.FILTER_LZMA2}])
            cells = np.array(list(itertools.product(range(L), repeat=D)))[digit_order(p, D, L)]
            d = sample_distance(samples, cells, p, E)
            c = next(c for c in range(E + 1) if c == E or p**c >= M)
            size = len(raw) // E
            for k in range(1, E + 1):
                digits = (p - 1) * (d >= k) if k <= c else np.zeros_like(d)
                plane = raw[(E - k) * size : (E - k + 1) * size]  # high digit first
                assert plane == digit_planes(p, 1, digits), (p, E, D, M, L, k)

    @pytest.mark.parametrize(
        "p, E, D, M, L, plane_bytes",
        [
            (3, 2, 2, 20, 20, 160),  # c = E, as 3**2 < 20: every digit is lowered
            (2, 8, 1, 200, 200, 200),  # p**c = p**E = 2**8, the uint8 width
            (2, 8, 2, 16, 16, 256),  # the uint8 width at c = 4 < E
            (2, 16, 1, MAX_AXIS_EXTENT, 64, 128),  # the uint16 width; c = 12, as M <= 2**12
            (257, 1, 2, 5, 5, 50),  # one uint16 digit a cell, c = E = 1
            (65521, 1, 2, 5, 5, 50),  # the largest uint16 digit
        ],
    )
    def test_low_digit_round_trip(self, p, E, D, M, L, plane_bytes):
        # every residue through T and back, against the oracle's Python integers
        params = LearningParams(p=p, E=E, D=D, M=M, L=L)
        every = np.arange(params.modulus, dtype=params.residue_dtype)
        low = learner._lower(every, params)
        assert low.dtype == every.dtype
        assert low.tolist() == lowered(p, E, M, every.tolist())
        assert np.array_equal(learner._lower(low, params, inverse=True), every)
        # then through a save and a load, with the values 0, p**E - 1, p**(E-1) and 1
        values = np.random.default_rng(p + E).choice(every, (L,) * D)
        values.reshape(-1)[:4] = [0, params.modulus - 1, p ** (E - 1), 1]
        table = binomial_table(p, E, L - 1, L - 1)
        mahler.transform_window(values, table, inverse=True)  # the values' coefficients
        self._round_trip(params, values, plane_bytes)

    def test_incompressible_window_round_trip(self):
        # random bytes are stored as raw chunks, the longest stream the read admits
        params = LearningParams(p=2, E=8, D=2, M=256)
        window = np.random.default_rng(39).integers(0, 256, size=(256, 256))
        buf = io.BytesIO()
        write_coefficient_rows(buf, params, window)
        assert 256**2 < len(buf.getvalue().split(b"\n", 1)[1]) <= learner._stream_bound(256**2)
        buf.seek(0)
        back_params, back = read_coefficient_rows(buf)
        assert back_params == params and np.array_equal(back, window)

    @pytest.mark.parametrize("size", [65_535, 65_536, 65_537, 2**21 - 1, 2**21 + 1])
    def test_incompressible_stream_fits_the_read_bound(self, size):
        # sizes at the 64 KiB raw-chunk and 2 MiB compressed-chunk edges, which no
        # window of L**D cells hits exactly, so the model's filter runs on bytes
        raw = np.random.default_rng(size).bytes(size)
        filters = [learner._lzma2(np.dtype(np.uint8), size)]
        stream = lzma.compress(raw, format=lzma.FORMAT_RAW, filters=filters)
        assert size < len(stream) <= learner._stream_bound(size)
        decoder = lzma.LZMADecompressor(lzma.FORMAT_RAW, filters=filters)
        assert decoder.decompress(stream) == raw and decoder.eof

    def test_one_cell_window_round_trip(self):
        # one byte of window under the 4 KiB dictionary floor
        params = LearningParams(p=2, E=2, D=1, M=1)
        assert learner._lzma2(params.residue_dtype, 1)["dict_size"] == 4096
        buf = io.BytesIO()
        write_coefficient_rows(buf, params, np.array([3]))
        buf.seek(0)
        back_params, back = read_coefficient_rows(buf)
        assert back_params == params and back.tolist() == [3]

    def test_load_peak_is_stream_window_and_dictionary(self, tmp_path):
        # 1 MiB of sparse values, where the dictionary is as large as the window
        # and 8 one-bit planes take the window's size, so decoding sets the peak: a
        # whole decode output buffer beside the planes would add 1 MiB to it; the
        # fold into a body and the gather into a new window come after the stream
        # and the decoder are freed (see the next test)
        params = LearningParams(p=2, E=8, D=2, M=1024)
        rng = np.random.default_rng(41)
        window = rng.integers(0, 256, size=(1024, 1024)) * (rng.random((1024, 1024)) < 0.25)
        path = tmp_path / "model.bin"
        with open(path, "wb") as fh:
            write_coefficient_rows(fh, params, window)
        stream = len(path.read_bytes().split(b"\n", 1)[1])
        size = 1024**2
        tracemalloc.start()
        try:
            with open(path, "rb") as fh:
                back = read_coefficient_rows(fh)[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back, window)
        # the stream, the window plus one byte, the decoder's dictionary (the window
        # size here) and its 32 KiB of state, and per call an input tail, an output
        # piece and its copy when short, then 64 KiB for small objects
        assert peak < stream + (size + 1) + size + 4 * learner._PIECE + 2**16

    def test_load_peak_past_the_dictionary_is_body_and_window(self, tmp_path):
        # sparse values just over the 8 MiB dictionary: the fold of the planes into
        # a body and the gather into a new window, not the decode, set the peak, at
        # about twice the window (8 one-bit planes take its size); the transform
        # back to coefficients comes after the body is freed, in its place
        params = LearningParams(p=2, E=8, D=2, M=2900)
        size = 2900**2
        assert learner._lzma2(params.residue_dtype, size)["dict_size"] == 8 << 20 < size
        rng = np.random.default_rng(47)
        window = np.zeros(size, np.uint8)
        window[rng.integers(0, size, 1000)] = rng.integers(1, 256, 1000)
        window = window.reshape(2900, 2900)
        table = binomial_table(2, 8, 2899, 2899)
        mahler.transform_window(window, table, inverse=True)  # the values' coefficients
        path = tmp_path / "model.bin"
        with open(path, "wb") as fh:
            write_coefficient_rows(fh, params, window)
        tracemalloc.start()
        try:
            with open(path, "rb") as fh:
                back = read_coefficient_rows(fh)[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back, window)
        # the planes plus one byte or the window, the body or the transform's
        # scratch, the positions' trailing rows (2n rows of at most _PIECE bytes,
        # n = 12 digits here), a few slab-sized temporaries, then 64 KiB for small
        # objects
        assert peak < (size + 1) + size + (2 * 12 + 4) * learner._PIECE + 2**16

    @pytest.mark.parametrize("p, E, M", [(3, 12, 64), (2, 4, 8)])
    def test_small_load_transforms_each_axis_in_one_block(self, monkeypatch, p, E, M):
        # the transform's scratch is sized from the window with a floor of 2**16
        # cells, so a small load makes one row block per axis, not one per few rows
        params = LearningParams(p=p, E=E, D=2, M=M)
        window = np.random.default_rng(M).integers(0, params.modulus, size=(M, M))
        buf = io.BytesIO()
        write_coefficient_rows(buf, params, window)
        calls = []
        block_matrix = mahler._block_matrix

        def counted(*args):
            calls.append(args)
            return block_matrix(*args)

        monkeypatch.setattr(mahler, "_block_matrix", counted)
        buf.seek(0)
        back = read_coefficient_rows(buf)[1]
        assert np.array_equal(back, window)
        assert len(calls) == params.D

    def test_failed_save_keeps_the_old_model(self, tmp_path, monkeypatch):
        params = LearningParams(p=2, E=4, D=2, M=4)
        est = learn(SampleSet(params, [(0, 1), (2, 2), (3, 0)]))
        other = learn(SampleSet(params, [(1, 1)]))
        path = tmp_path / "model.bin"
        est.save(path)
        before = path.read_bytes()

        class FailingCompressor:
            def __init__(self, *args, **kwargs):
                pass

            def compress(self, data):
                raise OSError("disk full")

        # the header line is written by then, so a save in place would leave half a file
        monkeypatch.setattr(lzma, "LZMACompressor", FailingCompressor)
        with pytest.raises(OSError, match="disk full"):
            other.save(path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.bin"]
        back = DefiningFunctionEstimate.load(path)
        assert np.array_equal(back.coeffs.data, est.coeffs.data)
        other.save(path)
        assert np.array_equal(DefiningFunctionEstimate.load(path).coeffs.data, other.coeffs.data)
        assert os.listdir(tmp_path) == ["model.bin"]

    def _saved(self, tmp_path):
        params = LearningParams(p=2, E=4, D=2, M=4)
        est = learn(SampleSet(params, [(0, 1), (2, 2), (3, 0)]))
        path = tmp_path / "model.bin"
        est.save(path)
        head, stream = path.read_bytes().split(b"\n", 1)
        return path, head, stream

    @staticmethod
    def _planes(window: bytes) -> bytes:
        """The body planes of a row-major p=2 E=4 D=2 L=4 window of uint8 coefficients."""
        values = value_window(np.frombuffer(window, np.uint8).reshape(4, 4), 16).reshape(-1)
        return digit_planes(2, 4, lowered(2, 4, 4, values[digit_order(2, 2, 4)]))

    def test_flipped_body_byte_rejected(self, tmp_path):
        path, head, stream = self._saved(tmp_path)
        window = model_window(path)
        path.write_bytes(head + b"\n" + raw_lzma2(self._planes(window)))
        assert model_window(path) == window
        for i in (0, 7, len(window) - 1):
            # values stay below 16 and the stream is well formed, so only the digest can tell
            flipped = window[:i] + bytes([window[i] ^ 1]) + window[i + 1 :]
            path.write_bytes(head + b"\n" + raw_lzma2(self._planes(flipped)))
            with pytest.raises(ValueError, match="digest"):
                DefiningFunctionEstimate.load(path)

    def test_row_major_body_names_older_models(self):
        # bodies written before digit planes held residues, row-major and then in
        # digit order; they fail the size check, the group check or the digest,
        # and each error ends with the one hint
        cases = [
            (2, 4, 2, 4, np.arange(16), r"must be 8 bytes, 4 digit planes"),
            # 16 bytes either way
            (2, 8, 2, 4, np.arange(16) * 7, "digest does not match"),
            # 3**10 - 1 fits uint16, whose low byte 250 is no 5 base-3 digits
            (3, 10, 1, 5, np.array([250, 1, 2, 3, 4]), "digit plane 9 has a byte 250 >= 3\\*\\*5"),
        ]
        for p, E, D, M, values, message in cases:
            params = LearningParams(p=p, E=E, D=D, M=M)
            window = values.reshape((M,) * D)
            buf = io.BytesIO()
            write_coefficient_rows(buf, params, window)
            head = buf.getvalue().split(b"\n", 1)[0]
            cells = window.reshape(-1).astype(params.residue_dtype)
            row_major, digit_ordered = cells.tobytes(), cells[digit_order(p, D, M)].tobytes()
            assert (row_major != digit_ordered) == (D > 1)  # p = 2 < L = 4: the orders differ
            for older in (row_major, digit_ordered):
                with pytest.raises(ValueError, match=message + ".*" + EARLIER + "$"):
                    read_coefficient_rows(io.BytesIO(head + b"\n" + raw_lzma2(older)))
        # bodies written before they held window values are the digit planes of the
        # coefficients, and bodies written before their low digits were lowered are
        # the digit planes of the values: both have the size and groups of the
        # lowered value planes, so only the digest fails
        for p, E, D, M in [(2, 4, 2, 4), (3, 2, 1, 5), (17, 1, 2, 4), (257, 2, 2, 3)]:
            params = LearningParams(p=p, E=E, D=D, M=M)
            window = np.random.default_rng(p).integers(0, p**E, (M,) * D)
            buf = io.BytesIO()
            write_coefficient_rows(buf, params, window)
            head = buf.getvalue().split(b"\n", 1)[0]
            coefficients = digit_planes(p, E, window.reshape(-1)[digit_order(p, D, M)])
            values = value_window(window, p**E).reshape(-1)[digit_order(p, D, M)]
            unlowered = digit_planes(p, E, values)
            assert coefficients != digit_planes(p, E, lowered(p, E, M, values))
            assert unlowered != digit_planes(p, E, lowered(p, E, M, values))
            message = "digest does not match its header and body" + EARLIER + "$"
            for older in (coefficients, unlowered):
                with pytest.raises(ValueError, match=message):
                    read_coefficient_rows(io.BytesIO(head + b"\n" + raw_lzma2(older)))
        # at L = 1 the value is the coefficient; at E = 1 and p > 16 a byte holds one
        # digit, a residue, so a digit-ordered body is one plane too.  At M = 1, where
        # no digit is lowered, either older body loads; at M = 4 the body holds 9 - 1
        # and the older 9 fails the digest, with the hint like any other flipped byte
        for M, body, older in [(1, 9, 8), (4, 8, 9)]:
            params = LearningParams(p=17, E=1, D=2, M=M, L=1)
            buf = io.BytesIO()
            write_coefficient_rows(buf, params, np.array([[9]]))
            head = buf.getvalue().split(b"\n", 1)[0]
            assert digit_planes(17, 1, lowered(17, 1, M, [9])) == bytes([body])
            back = read_coefficient_rows(io.BytesIO(head + b"\n" + raw_lzma2(bytes([body]))))[1]
            assert back.tolist() == [[9]]
            message = "digest does not match its header and body" + EARLIER + "$"
            with pytest.raises(ValueError, match=message):
                read_coefficient_rows(io.BytesIO(head + b"\n" + raw_lzma2(bytes([older]))))
        # at L = 1 with more planes the planes of 11 lowered to 10 load, the older
        # planes of 11 fail the digest, and a residue body fails the size
        params = LearningParams(p=2, E=4, D=3, M=2, L=1)
        buf = io.BytesIO()
        write_coefficient_rows(buf, params, np.array([[[11]]]))
        head = buf.getvalue().split(b"\n", 1)[0]
        assert lowered(2, 4, 2, [11]) == [10]
        planes = digit_planes(2, 4, [10])
        back = read_coefficient_rows(io.BytesIO(head + b"\n" + raw_lzma2(planes)))[1]
        assert back.tolist() == [[[11]]]
        older = digit_planes(2, 4, [11])
        with pytest.raises(ValueError, match="digest does not match.*" + EARLIER):
            read_coefficient_rows(io.BytesIO(head + b"\n" + raw_lzma2(older)))
        with pytest.raises(ValueError, match="must be 4 bytes.*" + EARLIER):
            read_coefficient_rows(io.BytesIO(head + b"\n" + raw_lzma2(bytes([11]))))

    @pytest.mark.parametrize(
        "p, E, values, planes, message",
        [
            # one byte of 5 base-3 digits per plane; 3**5 = 243
            (3, 2, [1, 2, 0, 1, 2], [243, 0], r"plane 1 has a byte 243 >= 3\*\*5, not 5 digits"),
            (3, 2, [1, 2, 0, 1, 2], [0, 255], r"digit plane 0 has a byte 255 >= 3\*\*5"),
            # 4 cells in one byte of 8 bits, the low 4 bits padding
            (2, 3, [1, 0, 1, 1], [0, 0b1011_0001, 0], "digit plane 1 has a nonzero digit past"),
            (2, 3, [1, 0, 1, 1], [0b1000, 0, 0], "digit plane 2 has a nonzero digit past"),
        ],
    )
    def test_malformed_byte_group_rejected(self, p, E, values, planes, message):
        # each case passes the size check, and would reach the digit table or the digest
        params = LearningParams(p=p, E=E, D=1, M=len(values))
        buf = io.BytesIO()
        write_coefficient_rows(buf, params, np.array(values))
        head, stream = buf.getvalue().split(b"\n", 1)
        filters = [{"id": lzma.FILTER_LZMA2}]
        assert len(lzma.decompress(stream, lzma.FORMAT_RAW, filters=filters)) == len(planes)
        with pytest.raises(ValueError, match=message + ".*" + EARLIER + "$"):
            read_coefficient_rows(io.BytesIO(head + b"\n" + raw_lzma2(bytes(planes))))

    def test_wide_digit_at_least_p_rejected(self):
        # p = 257 stores each digit as a little-endian uint16, which holds 257 .. 65535
        params = LearningParams(p=257, E=2, D=1, M=3)
        buf = io.BytesIO()
        write_coefficient_rows(buf, params, np.array([0, 300, 66048]))
        head = buf.getvalue().split(b"\n", 1)[0]
        planes = digit_planes(257, 2, [0, 300, 66048])
        assert len(planes) == 2 * 3 * 2
        bad = planes[:8] + (257).to_bytes(2, "little") + planes[10:]
        with pytest.raises(ValueError, match=r"digit plane 0 has a digit 257 >= 257"):
            read_coefficient_rows(io.BytesIO(head + b"\n" + raw_lzma2(bad)))

    @pytest.mark.parametrize(
        "p, E, D, M, plane_bytes",
        [
            (7, 5, 2, 40, 4000),  # 2 digits a byte: 5 planes of 800 outgrow 1600 uint16 cells
            (257, 2, 2, 6, 144),  # wide digits, 2 planes of 36 uint16
            (65521, 1, 2, 6, 72),
            (2, 1, 2, 9, 11),  # 81 cells, 8 to a byte, the last byte 1 cell and 7 pad bits
            (3, 4, 1, 30, 24),  # D = 1: 4 planes of 6 bytes
            (5, 3, 2, 30, 900),  # 3 base-5 digits a byte: 3 planes of 300
            (17, 2, 2, 20, 800),  # 1 digit a byte, p below 256: 2 planes of 400
        ],
    )
    def test_edge_layout_round_trip(self, p, E, D, M, plane_bytes):
        params = LearningParams(p=p, E=E, D=D, M=M)
        window = np.random.default_rng(p + M).integers(0, params.modulus, size=(M,) * D)
        self._round_trip(params, window, plane_bytes)

    def test_learned_layout_round_trip(self):
        # a learned window's planes compress, so its stream is compressed chunks,
        # which differ under any other encoder setting; its 8 planes of 8,192 bytes
        # go to the compressor in 16 pieces of 4,096 groups
        params = LearningParams(p=2, E=8, D=2, M=256)
        samples = SampleSet(params, np.random.default_rng(43).integers(0, 256, (200, 2)))
        window = learn(samples).coeffs.data
        stream = self._round_trip(params, window, 65_536)
        assert set(lzma2_chunks(stream)) == {"lzma"}

    @staticmethod
    def _round_trip(params, window, plane_bytes) -> bytes:
        """Save window, check its stream and its load, and return the stream."""
        p, E, D, M, L = params.p, params.E, params.D, params.M, params.L
        buf = io.BytesIO()
        write_coefficient_rows(buf, params, window)
        stream = buf.getvalue().split(b"\n", 1)[1]
        values = value_window(window, params.modulus).reshape(-1)
        planes = digit_planes(p, E, lowered(p, E, M, values[digit_order(p, D, L)]))
        assert len(planes) == plane_bytes
        # fed piece by piece, the compressor writes what one call would
        dtype = learner._digit_groups(params)[1]
        filters = [learner._lzma2(dtype, plane_bytes)]
        assert stream == lzma.compress(planes, format=lzma.FORMAT_RAW, filters=filters)
        buf.seek(0)
        back_params, back = read_coefficient_rows(buf)
        assert back_params == params and np.array_equal(back, window)
        assert back.dtype == params.residue_dtype
        return stream

    def test_tampered_header_field_rejected(self, tmp_path):
        path, head, body = self._saved(tmp_path)
        p, E, D, M, L, digest = head.split()
        assert (p, E, D, M, L) == (b"2", b"4", b"2", b"4", b"4")
        # same window size under each, so the digest catches them
        for fields in ([b"2", b"4", b"2", b"5", b"4"], [b"02", b"4", b"2", b"4", b"4"]):
            path.write_bytes(b" ".join([*fields, digest]) + b"\n" + body)
            with pytest.raises(ValueError, match="digest"):
                DefiningFunctionEstimate.load(path)
        other = digest[:-1] + (b"1" if digest.endswith(b"0") else b"0")
        path.write_bytes(b" ".join([p, E, D, M, L, other]) + b"\n" + body)
        with pytest.raises(ValueError, match="digest"):
            DefiningFunctionEstimate.load(path)

    def test_body_one_byte_short_or_long(self, tmp_path):
        path, head, stream = self._saved(tmp_path)
        planes = self._planes(model_window(path))
        for bad, got in [(planes[:-1], "got 7"), (planes + b"\x00", "got more")]:
            path.write_bytes(head + b"\n" + raw_lzma2(bad))
            message = rf"must be 8 bytes, 4 digit planes of 2 uint8 groups, {got}"
            with pytest.raises(ValueError, match=message):
                DefiningFunctionEstimate.load(path)

    def test_malformed_stream_rejected(self, tmp_path):
        path, head, stream = self._saved(tmp_path)
        window = model_window(path)
        # control bytes LZMA2 forbids: the end byte first, a first chunk that keeps
        # a dictionary it never had (raw or compressed), an unassigned value; LZMA2
        # has no checksum, so a flip inside chunk data is left to the digest
        invalid = [b"\x00" + stream[1:], b"\x02" + stream[1:], b"\x80" + stream[1:]]
        invalid.append(stream[:-1] + b"\x03")
        cases = [(body, "not a valid LZMA2 stream") for body in invalid] + [
            (window, "not a valid LZMA2 stream.*" + EARLIER),
            (zlib.compress(window), "not a valid LZMA2 stream.*" + EARLIER),
            (stream[:-1], "LZMA2 stream is truncated"),
            (stream[: len(stream) // 2], "LZMA2 stream is truncated"),
            (b"", "LZMA2 stream is truncated"),
            (stream + b"\x00", "bytes after its LZMA2 stream"),
            (stream + stream, "bytes after its LZMA2 stream"),
        ]
        for body, message in cases:
            path.write_bytes(head + b"\n" + body)
            with pytest.raises(ValueError, match=message):
                DefiningFunctionEstimate.load(path)

    def test_stream_past_compress_bound_rejected(self, tmp_path):
        # one raw chunk per plane byte (control, 2-byte size - 1, the byte): a
        # valid stream of 33 bytes, longer than any encoder output for 8 bytes,
        # so the read stops at the bound of 8 + 6 * 2 + 1
        path, head, stream = self._saved(tmp_path)
        planes = self._planes(model_window(path))
        body = b"".join(bytes([1 if i == 0 else 2, 0, 0, v]) for i, v in enumerate(planes))
        body += b"\x00"
        filters = [{"id": lzma.FILTER_LZMA2}]
        assert lzma.decompress(body, lzma.FORMAT_RAW, filters=filters) == planes
        fh = io.BytesIO(head + b"\n" + body)
        with pytest.raises(ValueError, match="LZMA2 stream runs past 21 bytes"):
            read_coefficient_rows(fh)
        assert fh.tell() == len(head) + 1 + 21 + 1

    def test_long_body_read_is_bounded(self, tmp_path):
        # a decompression bomb: a valid stream that decodes to 64 MiB under a
        # 16-cell window header, 8 bytes of planes
        path, head, stream = self._saved(tmp_path)
        filters = [{"id": lzma.FILTER_LZMA2, "preset": 0}]
        encoder = lzma.LZMACompressor(lzma.FORMAT_RAW, filters=filters)
        zeros = bytes(1 << 20)
        bomb = b"".join(encoder.compress(zeros) for _ in range(64)) + encoder.flush()
        fh = io.BytesIO(head + b"\n" + bomb)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="got more"):
                read_coefficient_rows(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert fh.tell() <= len(head) + 1 + 21 + 1

    def test_cutoff_header_with_outside_coefficients_rejected(self, tmp_path):
        # the M**D window under an L < M header fails the L**D window's planes:
        # at D = 1, 4 cells fill half a byte of each plane as 2 cells would, so the
        # outside coefficients land in the padding; at D = 2, 16 cells take 2 bytes
        # a plane and 4 cells 1
        for D, message in [(1, r"digit plane \d has a nonzero digit past"), (2, "must be 4 bytes")]:
            params = LearningParams(p=2, E=4, D=D, M=4)
            est = learn(SampleSet(params, [(0,) * D]))
            assert est.coeffs.data[(slice(2, None),) * D].any()
            path = tmp_path / "model.bin"
            est.save(path)
            head, body = path.read_bytes().split(b"\n", 1)
            assert head.split()[:5] == [b"2", b"4", str(D).encode(), b"4", b"4"]
            assert len(digit_planes(2, 4, est.coeffs.data.reshape(-1))) == 4 * D
            path.write_bytes(f"2 4 {D} 4 2 ".encode() + head.split()[5] + b"\n" + body)
            with pytest.raises(ValueError, match=message):
                DefiningFunctionEstimate.load(path)

    def test_header_validation(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 4 1\n0 0\n")
        with pytest.raises(ValueError):
            DefiningFunctionEstimate.load(bad)
        bad.write_text("2 4 1 x 2\n")
        with pytest.raises(ValueError):
            DefiningFunctionEstimate.load(bad)
        digest = "0" * 32
        for head, message in [
            (f"2 4 1 x 2 {digest}\n", "bad model header"),
            (f"2 4 1 2 2 {digest}", "one line"),  # no newline: no body either
            (f"2 4 1 2 2 {digest}" + " " * 200 + "\n", "one line"),
            (f"{2**61 - 1} 1 1 1 1 {digest}\n", "supported modulus"),
        ]:
            bad.write_text(head)
            with pytest.raises(ValueError, match=message):
                DefiningFunctionEstimate.load(bad)

    def test_row_validation(self, tmp_path):
        bad = tmp_path / "bad.bin"
        params = LearningParams(p=2, E=2, D=1, M=2)
        # a value outside [0, p**E) = [0, 4) has no place in E digit planes, so
        # the writer refuses it rather than drop its high digits
        for window in ([1, 4], [1, 255], [-1, 0]):
            with open(bad, "wb") as fh, pytest.raises(ValueError, match=r"\[0, 4\)"):
                write_coefficient_rows(fh, params, np.array(window))
        # a load rejects a header with no body at all
        with open(bad, "wb") as fh:
            write_coefficient_rows(fh, params, np.array([1, 3]))
        head = bad.read_bytes().split(b"\n", 1)[0]
        bad.write_bytes(head + b"\n")
        with pytest.raises(ValueError, match="LZMA2 stream is truncated"):
            DefiningFunctionEstimate.load(bad)

    @pytest.mark.parametrize(
        "window, message",
        [
            (np.zeros((4, 16), np.int64), r"grid must be a cube, got shape \(4, 16\)"),
            (np.zeros(64, np.int64), "grid has 1 axes, expected D = 2"),
            (np.full((8, 8), 1.5), "integer values, got dtype float64"),
            (np.ones((8, 8), bool), "integer values, got dtype bool"),
            (np.zeros((16, 16), np.int64), "window must have extent L = 8, got 16"),
        ],
        ids=["wrong-shape", "flat", "float", "bool", "extent-M"],
    )
    def test_malformed_window_rejected_before_the_header(self, window, message):
        # the same 64 cells in another shape, or not integers, are refused, not coerced;
        # so is the whole M-sided cube where the model keeps its L-sided window
        params = LearningParams(p=2, E=4, D=2, M=16, L=8)
        buf = io.BytesIO()
        with pytest.raises(ValueError, match=message):
            write_coefficient_rows(buf, params, window)
        assert buf.getvalue() == b""

    def test_indexed_model_rejected(self, tmp_path):
        # a `p E D M L` header over `l_0 ... l_{D-1} value` lines, an older layout
        idx = np.indices((3, 3)).reshape(2, -1).T
        rows = [f"{a} {b} {(a + b) % 16}" for a, b in idx.tolist()]
        path = tmp_path / "model.txt"
        path.write_text("\n".join(["2 4 2 3 3", *rows]) + "\n")
        with pytest.raises(ValueError, match="p E D M L <digest>"):
            DefiningFunctionEstimate.load(path)

    def test_text_model_rejected(self, tmp_path):
        # a `p E D M L` header over one bare decimal value per line
        values = [str(v % 16) for v in range(9)]
        path = tmp_path / "model.txt"
        path.write_text("\n".join(["2 4 2 3 3", *values]) + "\n")
        with pytest.raises(ValueError, match="p E D M L <digest>"):
            DefiningFunctionEstimate.load(path)
