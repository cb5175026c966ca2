import io
import math
import tracemalloc

import numpy as np
import pytest
from oracles import digit_planes, mahler_coeffs_1d, raw_lzma2, series_value, value_window

from padiclearn import mahler, padic
from padiclearn.learner import read_coefficient_rows, write_coefficient_rows
from padiclearn.mahler import (
    ResidueGrid,
    dump_coefficients,
    evaluate_at_points,
    evaluate_on_grid,
    mahler_transform,
    transform_window,
)
from padiclearn.padic import LearningParams, binomial_table


def params_1d(p=2, E=10, M=4):
    return LearningParams(p=p, E=E, D=1, M=M)


def random_grid(rng):
    p = int(rng.choice([2, 3]))
    E = int(rng.integers(1, 7))
    D = int(rng.integers(1, 4))
    extent = int(rng.integers(1, 7))
    params = LearningParams(p=p, E=E, D=D, M=max(extent, 1))
    data = rng.integers(0, p**E, size=(extent,) * D)
    return ResidueGrid(params, data)


def oracle_tensor_transform(grid):
    """Apply the 1-d closed-form coefficients along every axis in turn."""
    out = grid.data.copy()
    for axis in range(out.ndim):
        moved = np.moveaxis(out, axis, 0)
        flat = moved.reshape(moved.shape[0], -1)
        for col in range(flat.shape[1]):
            flat[:, col] = mahler_coeffs_1d(flat[:, col], grid.params)
        out = np.moveaxis(flat.reshape(moved.shape), 0, axis)
    return out


class TestResidueGrid:
    def test_validates_dimension(self):
        with pytest.raises(ValueError):
            ResidueGrid(params_1d(), np.zeros((2, 2), dtype=np.int64))

    def test_validates_cube(self):
        params = LearningParams(p=2, E=2, D=2, M=4)
        with pytest.raises(ValueError):
            ResidueGrid(params, np.zeros((2, 3), dtype=np.int64))

    def test_validates_range(self):
        with pytest.raises(ValueError):
            ResidueGrid(params_1d(E=2), np.array([0, 4]))
        with pytest.raises(ValueError):
            ResidueGrid(params_1d(E=2), np.array([-1, 0]))

    def test_rejects_non_integer_data(self):
        params = LearningParams(p=2, E=4, D=1, M=3)
        with pytest.raises(ValueError):
            ResidueGrid(params, np.array([0.5, 1.9, 3.99]))
        with pytest.raises(ValueError):
            ResidueGrid(params, np.array([True, False, True]))

    def test_minimum_extent(self):
        with pytest.raises(ValueError):
            ResidueGrid(params_1d(), np.zeros(0, dtype=np.int64))


class TestTransform:
    def test_identity_on_linear(self):
        grid = ResidueGrid(params_1d(M=3), np.array([0, 1, 2]))
        assert mahler_transform(grid).data.tolist() == [0, 1, 0]

    def test_squares(self):
        grid = ResidueGrid(params_1d(), np.array([0, 1, 4, 9]))
        assert mahler_transform(grid).data.tolist() == [0, 1, 2, 0]

    def test_product_xy(self):
        params = LearningParams(p=2, E=10, D=2, M=2)
        grid = ResidueGrid(params, np.array([[0, 0], [0, 1]]))
        assert mahler_transform(grid).data.tolist() == [[0, 0], [0, 1]]

    def test_constant(self):
        grid = ResidueGrid(params_1d(E=5, M=5), np.full(5, 7))
        assert mahler_transform(grid).data.tolist() == [7, 0, 0, 0, 0]

    def test_input_not_mutated(self):
        data = np.array([0, 1, 4, 9])
        grid = ResidueGrid(params_1d(), data)
        mahler_transform(grid)
        assert grid.data.tolist() == [0, 1, 4, 9]

    def test_extent_one(self):
        params = LearningParams(p=2, E=3, D=2, M=1)
        grid = ResidueGrid(params, np.array([[5]]))
        assert mahler_transform(grid).data.tolist() == [[5]]

    def test_axis_order_irrelevant(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            grid = random_grid(rng)
            mod = grid.params.modulus
            n = grid.extent
            # reversed-order reference: run the per-axis pass last axis first
            ref = grid.data.copy()
            for axis in reversed(range(ref.ndim)):
                lines = np.moveaxis(ref, axis, 0)
                for k in range(n - 1):
                    lines[k + 1 :] = (lines[k + 1 :] - lines[k:-1]) % mod
            assert np.array_equal(mahler_transform(grid).data, ref)

    def test_linearity(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            g1 = random_grid(rng)
            mod = g1.params.modulus
            data2 = rng.integers(0, mod, size=g1.data.shape)
            g2 = ResidueGrid(g1.params, data2)
            gsum = ResidueGrid(g1.params, (g1.data + g2.data) % mod)
            lhs = mahler_transform(gsum).data
            rhs = (mahler_transform(g1).data + mahler_transform(g2).data) % mod
            assert np.array_equal(lhs, rhs)


class TestTransformWindow:
    # (p, E, D, L): D = 1..4, L = 1, L past and not a multiple of a small budget's
    # row block, odd and wide primes, and E = 20, whose residues are uint32
    CONFIGS = [
        (2, 3, 2, 1), (3, 2, 4, 1), (2, 10, 1, 37), (2, 20, 1, 50), (3, 5, 1, 23),
        (65521, 1, 1, 19), (2, 7, 2, 9), (3, 4, 2, 13), (65521, 1, 2, 6), (2, 20, 2, 11),
        (2, 6, 3, 7), (3, 3, 3, 5), (2, 20, 3, 6), (65521, 1, 3, 4), (2, 5, 4, 5),
        (3, 2, 4, 4), (2, 20, 4, 3), (65521, 1, 4, 3),
    ]

    @pytest.mark.parametrize("budget", [None, 64], ids=["default", "small"])
    def test_matches_the_oracles_and_inverts(self, monkeypatch, budget):
        # a 64-cell budget cuts the triangle into blocks of 1 to 5 rows and every
        # axis's columns into slabs of a few; the default takes each axis whole
        if budget:
            monkeypatch.setattr(padic, "CHUNK_CELLS", budget)
        rng = np.random.default_rng(49)
        for p, E, D, L in self.CONFIGS:
            params = LearningParams(p=p, E=E, D=D, M=L)
            values = rng.integers(0, params.modulus, size=(L,) * D)
            want = oracle_tensor_transform(ResidueGrid(params, values))
            table = binomial_table(p, E, L - 1, L - 1)
            for dtype in (np.int64, params.residue_dtype):
                window = values.astype(dtype)
                transform_window(window, table, inverse=True)
                assert np.array_equal(window, want), (p, E, D, L, dtype)
                assert window.dtype == dtype
                transform_window(window, table, inverse=False)
                assert np.array_equal(window, values), (p, E, D, L, dtype)
            coeffs = values.copy()  # read as coefficients, the forward direction's input
            transform_window(coeffs, table, inverse=False)
            assert np.array_equal(coeffs, value_window(values, params.modulus))
            assert np.array_equal(mahler_transform(ResidueGrid(params, values)).data, want)

    def test_rejects_a_strided_window(self):
        params = LearningParams(p=2, E=4, D=2, M=4)
        window = np.zeros((4, 8), np.int64)[:, ::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            transform_window(window, binomial_table(params.p, params.E, 3, 3), inverse=True)

    def test_rejects_a_table_short_of_the_window(self):
        # rows past the table's last would clip to it and give wrong residues
        window = np.zeros((4, 4), np.int64)
        with pytest.raises(ValueError, match="side 4 needs a table of 4 rows, got 3"):
            transform_window(window, binomial_table(2, 4, 2, 2), inverse=True)

    @pytest.mark.parametrize("D, L", [(2, 512), (3, 64)])
    def test_fit_transform_peaks_at_input_copy_and_budget(self, monkeypatch, D, L):
        # 2**18 int64 cells: the input, its copy transformed in place, and 2**14
        # float64 cells of scratch; contracting an axis into a new array each
        # round would hold about two windows beside the input
        budget = 1 << 14
        monkeypatch.setattr(padic, "CHUNK_CELLS", budget)
        params = LearningParams(p=2, E=10, D=D, M=L)
        data = np.random.default_rng(50).integers(0, 1024, size=(L,) * D)
        want = oracle_tensor_transform(ResidueGrid(params, data[(slice(0, 4),) * D]))
        tracemalloc.start()
        try:
            grid = ResidueGrid(params, data.copy())
            out = mahler_transform(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the transform's corner is the corner's transform: the matrix is triangular
        assert np.array_equal(out.data[(slice(0, 4),) * D], want)
        # the input, the copy, the budget, then 64 KiB for the table and small objects
        assert peak < 2 * data.nbytes + 8 * budget + 2**16


class TestOracle1d:
    def test_constant(self):
        out = mahler_coeffs_1d([5, 5, 5, 5], params_1d(E=4))
        assert out.tolist() == [5, 0, 0, 0]

    def test_linear(self):
        assert mahler_coeffs_1d([0, 1, 2], params_1d(M=3)).tolist() == [0, 1, 0]

    def test_delta_alternates(self):
        params = params_1d(p=3, E=2)
        mod = 9
        out = mahler_coeffs_1d([1, 0, 0, 0], params)
        assert out.tolist() == [1, mod - 1, 1, mod - 1]

    def test_transform_matches_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            p = int(rng.choice([2, 3]))
            E = int(rng.integers(1, 7))
            n = int(rng.integers(1, 9))
            params = LearningParams(p=p, E=E, D=1, M=n)
            values = rng.integers(0, p**E, size=n)
            grid = ResidueGrid(params, values)
            assert mahler_transform(grid).data.tolist() == mahler_coeffs_1d(values, params).tolist()
        # the extents the workloads use, where the signed matrix is large
        for p, E, n in ((2, 10, 100), (3, 12, 64)):
            params = LearningParams(p=p, E=E, D=1, M=n)
            values = rng.integers(0, p**E, size=n)
            grid = ResidueGrid(params, values)
            assert mahler_transform(grid).data.tolist() == mahler_coeffs_1d(values, params).tolist()

    def test_tensor_product_oracle_matches(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            grid = random_grid(rng)
            if grid.params.D == 1:
                continue
            assert np.array_equal(mahler_transform(grid).data, oracle_tensor_transform(grid))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mahler_coeffs_1d([], params_1d())


class TestEvaluate:
    def test_linear_extrapolation(self):
        params = params_1d(M=3)
        coeffs = ResidueGrid(params, np.array([0, 1, 0]))
        table = binomial_table(2, 10, 8, 2)
        assert evaluate_on_grid(coeffs, [np.array([5])], table).tolist() == [5]

    def test_zero_function(self):
        params = LearningParams(p=3, E=3, D=2, M=2)
        coeffs = ResidueGrid(params, np.zeros((2, 2), dtype=np.int64))
        table = binomial_table(3, 3, 20, 1)
        axes = [np.array([7]), np.array([13])]
        assert evaluate_on_grid(coeffs, axes, table).tolist() == [[0]]

    def test_squares_at_ten(self):
        params = params_1d()
        coeffs = ResidueGrid(params, np.array([0, 1, 2, 0]))
        table = binomial_table(2, 10, 10, 3)
        assert evaluate_on_grid(coeffs, [np.array([10])], table).tolist() == [100]

    def test_round_trip_on_grid(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            grid = random_grid(rng)
            params = grid.params
            coeffs = mahler_transform(grid)
            table = binomial_table(params.p, params.E, grid.extent - 1, grid.extent - 1)
            axes = [np.arange(grid.extent)] * params.D
            assert np.array_equal(evaluate_on_grid(coeffs, axes, table), grid.data)

    def test_grid_matches_pointwise(self):
        rng = np.random.default_rng(25)
        params = LearningParams(p=2, E=5, D=2, M=3)
        coeffs = ResidueGrid(params, rng.integers(0, 32, size=(3, 3)))
        table = binomial_table(2, 5, 12, 2)
        axes = [np.array([0, 5, 9]), np.array([2, 11])]
        grid_vals = evaluate_on_grid(coeffs, axes, table)
        for i, x in enumerate(axes[0]):
            for j, y in enumerate(axes[1]):
                assert grid_vals[i, j] == series_value(coeffs.data, (x, y), params.modulus)

    def test_polynomial_exactness(self):
        # any polynomial of degree < extent is reproduced beyond the grid
        rng = np.random.default_rng(26)
        for _ in range(50):
            E = int(rng.integers(4, 11))
            deg = int(rng.integers(0, 4))
            n = deg + 1 + int(rng.integers(0, 3))
            params = LearningParams(p=2, E=E, D=1, M=n)
            poly = [int(c) for c in rng.integers(0, 5, size=deg + 1)]
            f = lambda x: sum(c * x**k for k, c in enumerate(poly))
            mod = params.modulus
            values = np.array([f(x) % mod for x in range(n)])
            coeffs = mahler_transform(ResidueGrid(params, values))
            table = binomial_table(2, E, mod - 1, n - 1)
            for x in (n, n + 3, mod - 1):
                assert evaluate_on_grid(coeffs, [np.array([x])], table)[0] == f(x) % mod

    @pytest.mark.parametrize("D, L", [(2, 1024), (3, 128)])
    def test_float64_point_rounds_exact_near_the_bound(self, D, L):
        # every coefficient m - 1 at m = 2**20, so the per-point rounds' float64 sums
        # reach about L * m**2 / 4, 2**48 at L = 1024, and the series is
        # (m - 1) * prod_d S(x_d) with S(x) = sum_{l < L} C(x, l) mod m
        m = 1 << 20
        params = LearningParams(p=2, E=20, D=D, M=L)
        coeffs = ResidueGrid(params, np.full((L,) * D, m - 1))
        table = binomial_table(2, 20, m - 1, L - 1)
        pts = np.random.default_rng(56).integers(0, m, size=(40, D))
        pts[:20, 0] = pts[0, 0]  # at D = 3 a run of 20 points shares one partial
        S = [table.rows(x, L).sum(axis=1).tolist() for x in pts.T]
        want = [(m - 1) * math.prod(s[i] for s in S) % m for i in range(len(pts))]
        assert evaluate_at_points(coeffs, pts, table).tolist() == want

    def test_table_coverage_errors(self):
        params = params_1d(M=4)
        coeffs = ResidueGrid(params, np.array([0, 1, 2, 0]))
        # rows are exact for every k, so a kmax = 0 table evaluates like the model's own
        xs = np.arange(params.modulus)
        own, no_k = (binomial_table(2, 10, params.modulus - 1, kmax) for kmax in (3, 0))
        for evaluate, query in ((evaluate_at_points, xs[:, None]), (evaluate_on_grid, [xs])):
            assert np.array_equal(evaluate(coeffs, query, no_k), evaluate(coeffs, query, own))
        small_n = binomial_table(2, 10, 5, 3)
        with pytest.raises(ValueError):
            evaluate_on_grid(coeffs, [np.array([6])], small_n)

    def test_point_shape_errors(self):
        params = params_1d(M=2)
        coeffs = ResidueGrid(params, np.array([0, 1]))
        table = binomial_table(2, 10, 4, 1)
        with pytest.raises(ValueError):
            evaluate_on_grid(coeffs, [np.array([1]), np.array([2])], table)
        with pytest.raises(ValueError):
            evaluate_on_grid(coeffs, [], table)
        with pytest.raises(ValueError):
            evaluate_on_grid(coeffs, [np.array([[0, 1], [2, 3]])], table)

    def test_empty_axis_gives_empty_grid(self):
        params = LearningParams(p=3, E=2, D=2, M=3)
        coeffs = ResidueGrid(params, np.arange(9).reshape(3, 3))
        table = binomial_table(3, 2, 8, 2)
        got = evaluate_on_grid(coeffs, [np.arange(4), np.array([], dtype=np.int64)], table)
        assert got.shape == (4, 0) and got.dtype == params.residue_dtype

    def test_small_budget_keeps_residues(self, monkeypatch):
        # a 40-cell budget cuts every partial block and every long group
        rng = np.random.default_rng(43)
        table = binomial_table(2, 10, 1023, 15)
        cases = []
        for D in (1, 2, 3, 4):
            params = LearningParams(p=2, E=10, D=D, M=16)
            coeffs = ResidueGrid(params, rng.integers(0, 1024, (16,) * D))
            pts = rng.integers(0, 1024, size=(60, D))
            pts[:40, 0] = 7
            cases.append((coeffs, pts, evaluate_at_points(coeffs, pts, table)))
        monkeypatch.setattr(padic, "CHUNK_CELLS", 40)
        for coeffs, pts, want in cases:
            assert evaluate_at_points(coeffs, pts, table).tolist() == want.tolist()

    def test_shared_first_coordinate_stays_in_budget(self, monkeypatch):
        # 8192 points in one x0 group would need a 16 MiB per-point array
        # (256 cells each at D=4, L=16); runs of 64 points keep it at 128 KiB
        rng = np.random.default_rng(44)
        params = LearningParams(p=2, E=10, D=4, M=16)
        coeffs = ResidueGrid(params, rng.integers(0, 1024, (16,) * 4))
        table = binomial_table(2, 10, 1023, 15)
        pts = rng.integers(0, 1024, size=(8192, 4))
        pts[:, 0] = 0
        monkeypatch.setattr(padic, "CHUNK_CELLS", 1 << 14)
        tracemalloc.start()
        try:
            evaluate_at_points(coeffs, pts, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


    @pytest.mark.parametrize("D, L", [(2, 128), (3, 32)])
    def test_run_arrays_share_the_budget(self, monkeypatch, D, L):
        # a run's gathered table rows and both partials count together:
        # sized by its per-point partial alone, a run of these 2048 points
        # sharing x0 would hold about 2x (D=3) or 4x (D=2) the budget
        budget = 1 << 16
        rng = np.random.default_rng(45)
        params = LearningParams(p=2, E=10, D=D, M=L)
        coeffs = ResidueGrid(params, rng.integers(0, 1024, (L,) * D))
        table = binomial_table(2, 10, 1023, L - 1)
        pts = rng.integers(0, 1024, size=(budget // 32, D))
        pts[:, 0] = 5
        want = evaluate_at_points(coeffs, pts, table)
        monkeypatch.setattr(padic, "CHUNK_CELLS", budget)
        tracemalloc.start()
        try:
            got = evaluate_at_points(coeffs, pts, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tolist() == want.tolist()
        # the sorted points, order and output add 0.13-0.16 of the budget
        assert peak < 1.5 * 8 * budget

    @pytest.mark.parametrize("D", [1, 2])
    def test_group_block_counts_gathered_rows(self, monkeypatch, D):
        # 4096 distinct x0: a block's gathered table rows coexist with its
        # partials; sized by the partials alone, the block of these groups
        # would hold about 2.5x (D=2) or 4.5x (D=1) the budget
        budget = 1 << 16
        rng = np.random.default_rng(46)
        params = LearningParams(p=2, E=12, D=D, M=64)
        coeffs = ResidueGrid(params, rng.integers(0, 4096, (64,) * D))
        table = binomial_table(2, 12, 4095, 63)
        pts = rng.integers(0, 4096, size=(4096, D))
        pts[:, 0] = rng.permutation(4096)
        want = evaluate_at_points(coeffs, pts, table)
        monkeypatch.setattr(padic, "CHUNK_CELLS", budget)
        tracemalloc.start()
        try:
            got = evaluate_at_points(coeffs, pts, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tolist() == want.tolist()
        # the sorted points, order, group bounds and output add 0.38-0.45
        assert peak < 1.5 * 8 * budget

    @pytest.mark.parametrize("D", [1, 2])
    def test_runs_span_groups_sharing_x0(self, monkeypatch, D):
        # 4096 points over 64 first coordinates: a run crosses groups and
        # copies out each point's partial row beside the block's partials
        budget = 1 << 16
        rng = np.random.default_rng(47)
        params = LearningParams(p=2, E=12, D=D, M=64)
        coeffs = ResidueGrid(params, rng.integers(0, 4096, (64,) * D))
        table = binomial_table(2, 12, 4095, 63)
        pts = rng.integers(0, 4096, size=(4096, D))
        pts[:, 0] = rng.integers(0, 64, size=4096)
        want = evaluate_at_points(coeffs, pts, table)
        for j in range(6):
            assert want[j] == series_value(coeffs.data, pts[j], params.modulus)
        monkeypatch.setattr(padic, "CHUNK_CELLS", budget)
        tracemalloc.start()
        try:
            got = evaluate_at_points(coeffs, pts, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tolist() == want.tolist()
        assert peak < 1.5 * 8 * budget

    @pytest.mark.parametrize(
        "E, L, sides, budget",
        [
            (6, 8, (1, 64, 64, 64, 64), 1 << 19),
            (10, 32, (64, 64, 1), 1 << 14),
            (10, 16, (3, 200, 200), 1 << 12),
        ],
        ids=["one-long-last-round", "head-over-budget", "strided-output-slab"],
    )
    def test_grid_slabs_share_the_budget(self, monkeypatch, E, L, sides, budget):
        # the length-1 first axis leaves a 64**4-cell last round over a
        # 2**21-cell head, and the 64 x 64 head of the second case is 8x the
        # budget: in one piece both would hold many budgets of int64 scratch.  The
        # third slabs axis 1 behind a leading axis of 3, so a slab of the output
        # is not contiguous and its last round is stored per leading index
        rng = np.random.default_rng(48)
        D, mod = len(sides), 2**E
        params = LearningParams(p=2, E=E, D=D, M=L)
        coeffs = ResidueGrid(params, rng.integers(0, mod, (L,) * D))
        table = binomial_table(2, E, mod - 1, L - 1)
        axes = [rng.integers(0, mod, size=n) for n in sides]
        want = evaluate_on_grid(coeffs, axes, table)
        for j in range(3):
            idx = tuple(rng.integers(0, n) for n in sides)
            pt = [a[i] for a, i in zip(axes, idx)]
            assert want[idx] == series_value(coeffs.data, pt, mod)
        monkeypatch.setattr(padic, "CHUNK_CELLS", budget)
        tracemalloc.start()
        try:
            got = evaluate_on_grid(coeffs, axes, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert peak < got.nbytes + 1.5 * 8 * budget
        assert got.dtype == params.residue_dtype

    @pytest.mark.parametrize("E", [4, 10])
    def test_grid_head_rounds_share_the_budget(self, monkeypatch, E):
        # a one-point grid at L = 2 slabs a late axis: at D = 12 and 2**8 cells, built
        # whole, its head rounds held 4 budgets.  At D = 16 and 2**12 cells, where
        # arrays rather than the interpreter fill the trace, they held 2-4 budgets; the
        # head is now built a slab of its columns at a time
        rng = np.random.default_rng(49)
        D, mod = 16, 2**E
        params = LearningParams(p=2, E=E, D=D, M=2)
        coeffs = ResidueGrid(params, rng.integers(0, mod, (2,) * D))
        table = binomial_table(2, E, mod - 1, 1)
        axes = [rng.integers(0, mod, size=1) for _ in range(D)]
        want = evaluate_on_grid(coeffs, axes, table)
        assert want.item() == series_value(coeffs.data, [a[0] for a in axes], mod)
        budget = 1 << 12
        monkeypatch.setattr(padic, "CHUNK_CELLS", budget)
        tracemalloc.start()
        try:
            got = evaluate_on_grid(coeffs, axes, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert peak < got.nbytes + 1.5 * 8 * budget

    def test_partial_over_budget_splits_axis_zero(self, monkeypatch):
        # at L = 2 and D = 16 one group's partial is 2**15 cells, 8x a 2**12-cell
        # budget, as 2**23 cells are of CHUNK_CELLS at D = 24: the series splits along
        # axis 0 until a partial and a run fit, and keeps its residues.  Unsplit, these
        # points traced 14 budgets
        rng = np.random.default_rng(50)
        D = 16
        params = LearningParams(p=2, E=10, D=D, M=2)
        coeffs = ResidueGrid(params, rng.integers(0, 1024, (2,) * D))
        table = binomial_table(2, 10, 1023, 1)
        pts = rng.integers(0, 1024, size=(16, D))
        pts[:8, 0] = 3
        want = evaluate_at_points(coeffs, pts, table)
        assert want[0] == series_value(coeffs.data, pts[0], 1024)
        budget = 1 << 12
        monkeypatch.setattr(padic, "CHUNK_CELLS", budget)
        tracemalloc.start()
        try:
            got = evaluate_at_points(coeffs, pts, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tolist() == want.tolist()
        assert peak < 1.5 * 8 * budget


# a well-formed header for p=2 E=3 D=2 M=2 L=2 with a placeholder digest
DUMMY_HEAD = b"2 3 2 2 2 " + b"0" * 32 + b"\n"


class TestDumpFormat:
    def test_header_and_rows(self, tmp_path):
        params = LearningParams(p=2, E=3, D=2, M=2)
        coeffs = ResidueGrid(params, np.array([[1, 2], [3, 4]]))
        path = tmp_path / "coeffs.txt"
        dump_coefficients(coeffs, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "2 3 2 2"
        assert lines[1:] == ["0 0 1", "0 1 2", "1 0 3", "1 1 4"]

    def test_slabbed_dump_stays_in_budget(self, monkeypatch, tmp_path):
        # 32768 rows of 8 int64 scratch cells each, in 32 slabs of 1024 rows; one
        # slab traces about 2.2 budgets with the open file, the whole window 29
        params = LearningParams(p=2, E=10, D=3, M=32)
        rng = np.random.default_rng(28)
        coeffs = ResidueGrid(params, rng.integers(0, 1024, size=(32,) * 3, dtype=np.uint16))
        whole, sliced = tmp_path / "whole.txt", tmp_path / "sliced.txt"
        dump_coefficients(coeffs, whole)
        budget = 1 << 13
        monkeypatch.setattr(padic, "CHUNK_CELLS", budget)
        tracemalloc.start()
        try:
            dump_coefficients(coeffs, sliced)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sliced.read_bytes() == whole.read_bytes()
        assert peak < 3 * 8 * budget

    # a dump is read from a model file: the window's LZMA2 stream under a digest header

    def test_row_parse_round_trip(self):
        rng = np.random.default_rng(27)
        grid = random_grid(rng)
        buf = io.BytesIO()
        write_coefficient_rows(buf, grid.params, grid.data)
        buf.seek(0)
        params, back = read_coefficient_rows(buf)
        assert params == grid.params
        assert np.array_equal(back, grid.data)
        assert back.dtype == np.min_scalar_type(grid.params.modulus - 1)

    def test_rejects_wrong_count(self):
        # 3 digit planes of one byte: short, long, and the older indexed
        # `l_0 l_1 value` rows, each compressed
        planes = digit_planes(2, 3, [1, 2, 3, 4])
        assert len(planes) == 3
        for body in (planes[:-1], planes + b"\x00", b"0 0 1\n0 1 2\n1 0 3\n1 1 4\n"):
            with pytest.raises(ValueError, match="must be 3 bytes"):
                read_coefficient_rows(io.BytesIO(DUMMY_HEAD + raw_lzma2(body)))

    @pytest.mark.parametrize(
        "text",
        ["1\n2.5\n3\n4\n", "1\n# 2\n3\n4\n", "", "\n \n", "1\n2\n"],
        ids=["non-integer", "comment", "empty", "blank", "text-of-body-size"],
    )
    def test_rejects_malformed_body(self, text):
        with pytest.raises(ValueError):
            read_coefficient_rows(io.BytesIO(DUMMY_HEAD + text.encode()))

