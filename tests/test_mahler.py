import io
import tracemalloc

import numpy as np
import pytest
from oracles import mahler_coeffs_1d, series_value

from padiclearn import mahler
from padiclearn.learner import read_coefficient_rows, write_coefficient_rows
from padiclearn.mahler import (
    ResidueGrid,
    dump_coefficients,
    evaluate_at_points,
    evaluate_on_grid,
    mahler_transform,
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

    def test_table_coverage_errors(self):
        params = params_1d(M=4)
        coeffs = ResidueGrid(params, np.array([0, 1, 2, 0]))
        small_k = binomial_table(2, 10, 10, 2)
        with pytest.raises(ValueError):
            evaluate_on_grid(coeffs, [np.array([1])], small_k)
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
        monkeypatch.setattr(mahler, "CHUNK_CELLS", 40)
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
        monkeypatch.setattr(mahler, "CHUNK_CELLS", 1 << 14)
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
        monkeypatch.setattr(mahler, "CHUNK_CELLS", budget)
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
        monkeypatch.setattr(mahler, "CHUNK_CELLS", budget)
        tracemalloc.start()
        try:
            got = evaluate_at_points(coeffs, pts, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tolist() == want.tolist()
        # the sorted points, order, group bounds and output add 0.38-0.45
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

    # a dump is read from a model file: the raw window under a digest header

    def test_row_parse_round_trip(self):
        rng = np.random.default_rng(27)
        grid = random_grid(rng)
        buf = io.BytesIO()
        write_coefficient_rows(buf, grid.params, grid.data)
        body = buf.getvalue().split(b"\n", 1)[1]
        assert body == grid.data.astype(np.min_scalar_type(grid.params.modulus - 1)).tobytes()
        buf.seek(0)
        params, back = read_coefficient_rows(buf)
        assert params == grid.params
        assert np.array_equal(back, grid.data)

    def test_rejects_wrong_count(self):
        # short, long, and the older indexed `l_0 l_1 value` rows
        for body in (b"\x01\x02\x03", b"\x01\x02\x03\x04\x05", b"0 0 1\n0 1 2\n1 0 3\n1 1 4\n"):
            with pytest.raises(ValueError, match="must be 4 bytes"):
                read_coefficient_rows(io.BytesIO(DUMMY_HEAD + body))

    @pytest.mark.parametrize(
        "text",
        ["1\n2.5\n3\n4\n", "1\n# 2\n3\n4\n", "", "\n \n", "1\n2\n"],
        ids=["non-integer", "comment", "empty", "blank", "text-of-body-size"],
    )
    def test_rejects_malformed_body(self, text):
        with pytest.raises(ValueError):
            read_coefficient_rows(io.BytesIO(DUMMY_HEAD + text.encode()))

