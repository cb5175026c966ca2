import math
import tracemalloc

import numpy as np
import pytest
from oracles import pascal_table, series_value, valuation

from padiclearn import padic
from padiclearn.learner import SampleSet, learn
from padiclearn.padic import LearningParams, binomial_table, is_prime


class TestValuation:
    def test_zero_maps_to_cap(self):
        assert valuation(0, 2, 10) == 10

    def test_examples(self):
        assert valuation(12, 2, 10) == 2
        assert valuation(7, 2, 10) == 0

    def test_negative_input(self):
        assert valuation(-12, 2, 10) == 2

    def test_cap_zero(self):
        assert valuation(12, 2, 0) == 0
        assert valuation(0, 2, 0) == 0

    def test_capping(self):
        assert valuation(2**8, 2, 4) == 4
        assert valuation(3**5, 3, 10) == 5

    def test_multiplicativity_under_cap(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            p = int(rng.choice([2, 3, 5]))
            a = int(rng.integers(1, 10**6))
            b = int(rng.integers(1, 10**6))
            cap = 40  # large enough that no factor is capped
            va, vb = valuation(a, p, cap), valuation(b, p, cap)
            assert valuation(a * b, p, cap) == va + vb

    def test_bad_args(self):
        with pytest.raises(ValueError):
            valuation(4, 2, -1)
        with pytest.raises(ValueError):
            valuation(4, 1, 3)


class TestLearningParams:
    def test_defaults_l_to_m(self):
        params = LearningParams(p=2, E=10, D=3, M=100)
        assert params.L == 100
        assert params.modulus == 1024

    def test_rejects_composite_p(self):
        for bad in (0, 1, 4, 9, 15):
            with pytest.raises(ValueError):
                LearningParams(p=bad, E=2, D=1, M=2)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            LearningParams(p=2, E=0, D=1, M=2)
        with pytest.raises(ValueError):
            LearningParams(p=2, E=2, D=0, M=2)
        with pytest.raises(ValueError):
            LearningParams(p=2, E=2, D=1, M=0)
        with pytest.raises(ValueError):
            LearningParams(p=2, E=2, D=1, M=2, L=3)
        with pytest.raises(ValueError):
            LearningParams(p=2, E=2, D=1, M=2, L=0)

    def test_rejects_capacity_blowups(self):
        with pytest.raises(ValueError):
            LearningParams(p=2, E=64, D=1, M=2)  # p**E too large
        with pytest.raises(ValueError):
            LearningParams(p=2, E=2, D=1, M=1 << 13)  # axis extent
        with pytest.raises(ValueError):
            LearningParams(p=2, E=2, D=9, M=1 << 3)  # grid cells: 2**27

    def test_caps_come_before_trial_division(self, monkeypatch):
        # trial division of 2**61 - 1 runs for minutes; the modulus cap rejects it first
        calls = []
        monkeypatch.setattr(padic, "is_prime", lambda n: calls.append(n) or True)
        with pytest.raises(ValueError, match="supported modulus"):
            LearningParams(p=2**61 - 1, E=1, D=1, M=1)
        with pytest.raises(ValueError, match="supported modulus"):
            binomial_table(2**61 - 1, 1, 1, 1)
        assert calls == []

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(p=2, E=10**8, D=1, M=1), "supported modulus"),
            (dict(p=3, E=10**8, D=1, M=1), "supported modulus"),
            (dict(p=2, E=2, D=10**8, M=2), "supported grid size"),
            (dict(p=2, E=2, D=25, M=2), "supported grid size"),
            (dict(p=2, E=1, D=10**8, M=1), "supported dimension"),
        ],
    )
    def test_huge_exponents_fail_fast(self, kwargs, message):
        # neither p**E nor M**D is built, nor printed
        with pytest.raises(ValueError, match=message) as info:
            LearningParams(**kwargs)
        assert len(str(info.value)) < 100

    def test_huge_table_exponent_fails_fast(self):
        with pytest.raises(ValueError, match="supported modulus") as info:
            binomial_table(2, 10**8, 1, 1)
        assert len(str(info.value)) < 100

    def test_dimension_capped(self):
        # M = 1 passes the grid cap at any D; numpy before 2.0 holds at most 32 axes
        edge = LearningParams(p=2, E=1, D=padic.MAX_DIMENSION, M=1)
        assert learn(SampleSet(edge, [(0,) * edge.D])).predict_residue((1,) * edge.D) == 0
        for D in (padic.MAX_DIMENSION + 1, 70):
            with pytest.raises(ValueError, match="supported dimension"):
                LearningParams(p=2, E=1, D=D, M=1)

    def test_caps_admit_their_edges(self):
        assert LearningParams(p=2, E=20, D=1, M=2).modulus == padic.MAX_MODULUS
        assert LearningParams(p=2, E=1, D=24, M=2).D == 24
        with pytest.raises(ValueError, match="supported modulus"):
            LearningParams(p=2, E=21, D=1, M=2)
        with pytest.raises(ValueError, match="supported modulus"):
            LearningParams(p=1048583, E=1, D=1, M=1)  # the first prime above 2**20

    def test_wide_modulus_long_window_learns(self):
        # p**E * L = 2**27 binomial entries: the model's table is its 2**20 rows alone
        params = LearningParams(p=2, E=20, D=1, M=128)
        rng = np.random.default_rng(5)
        est = learn(SampleSet(params, rng.integers(0, 128, size=(40, 1))))
        pts = rng.integers(0, params.modulus, size=(50, 1))
        got = est.predict_residue_batch(pts)
        for pt, residue in zip(pts, got):
            assert residue == series_value(est.coeffs.data, pt, params.modulus)

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            LearningParams(p=2.0, E=2, D=1, M=2)
        with pytest.raises(ValueError):
            LearningParams(p=True, E=2, D=1, M=2)

    def test_is_prime(self):
        primes = [n for n in range(60) if is_prime(n)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def dense(table) -> np.ndarray:
    """The table's whole (nmax + 1, kmax + 1) form, read through its row kernel."""
    return table.rows(np.arange(table.shape[0]), table.shape[1])


def comb_rows(xs, ext: int, mod: int) -> np.ndarray:
    return np.array([[math.comb(int(x), l) % mod for l in range(ext)] for x in xs])


class TestBinomialTable:
    def test_examples(self):
        assert dense(binomial_table(2, 10, 4, 2))[4, 2] == 6
        assert dense(binomial_table(2, 3, 10, 5))[10, 5] == 4
        assert dense(binomial_table(5, 1, 5, 2))[5, 2] == 0

    def test_matches_exact_binomials(self):
        rng = np.random.default_rng(4)
        table = dense(binomial_table(3, 4, 60, 40))
        for _ in range(300):
            n = int(rng.integers(0, 61))
            k = int(rng.integers(0, 41))
            assert table[n, k] == math.comb(n, k) % 3**4

    def test_pascal_recurrence(self):
        t = dense(binomial_table(2, 5, 30, 20))
        mod = 32
        assert np.array_equal(t[1:, 1:], (t[:-1, 1:] + t[:-1, :-1]) % mod)

    def test_zero_beyond_diagonal(self):
        t = dense(binomial_table(2, 4, 8, 8))
        for n in range(9):
            for k in range(n + 1, 9):
                assert t[n, k] == 0

    def test_first_column_ones(self):
        t = dense(binomial_table(7, 1, 12, 3))
        assert np.array_equal(t[:, 0], np.ones(13, dtype=np.int64))

    def test_build_validation(self):
        with pytest.raises(ValueError):
            binomial_table(4, 2, 4, 4)
        with pytest.raises(ValueError):
            binomial_table(2, 40, 4, 4)
        # capacity: the arrays run over n <= nmax, whatever kmax is
        with pytest.raises(ValueError, match="table of 1048577 rows exceeds the supported"):
            binomial_table(2, 2, padic.MAX_MODULUS, 1)
        widest = binomial_table(2, 2, padic.MAX_MODULUS - 1, 1 << 40)
        assert widest.shape == (1 << 20, 1 + (1 << 40))

    def test_negative_bounds_rejected(self):
        for nmax, kmax in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="table bounds must be non-negative"):
                binomial_table(2, 2, nmax, kmax)

    @pytest.mark.parametrize(
        "args, name",
        [
            ((2, True, 5, 3), "E"),  # a bool is an int subclass, not an integer here
            ((2, 4, True, 3), "nmax"),
            ((2, 4, 5.5, 3), "nmax"),
            ((2.0, 4, 5, 3), "p"),
            ((2, 4, 5, 2.5), "kmax"),
        ],
    )
    def test_non_integer_arguments_rejected(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            binomial_table(*args)

    def test_numpy_integers_pass_as_int(self):
        t = binomial_table(np.int64(2), np.int32(4), np.int64(5), np.uint8(3))
        assert all(type(n) is int for n in (t.p, t.E, *t.shape))
        assert t.shape == (6, 4)
        assert np.array_equal(dense(t), dense(binomial_table(2, 4, 5, 3)))

    def test_long_columns_match_row_recurrence(self):
        # every row of a 3**12-row table: the prefix products and the suffix
        # from the one inverse cross hundreds of blocks of the build
        t = binomial_table(3, 12, 3**12 - 1, 3)
        assert np.array_equal(dense(t), pascal_table(3**12, 3**12 - 1, 3))

    def test_compact_storage(self):
        t = binomial_table(2, 4, 8, 4)
        assert t.shape == (9, 5)
        # U and Uinv in int32 and V in uint8, of t = -1, ..., 8 at index t + 1
        assert t.U.dtype == t.Uinv.dtype == np.int32 and t.V.dtype == np.uint8
        assert t.U.shape == t.Uinv.shape == t.V.shape == (10,)
        # 8! = 2**7 * 315 and 315 = 11 mod 16
        assert t.U.tolist() == [1, 1, 1, 1, 3, 3, 15, 13, 11, 11]
        assert t.V.tolist() == [0, 0, 0, 1, 1, 3, 3, 4, 4, 7]
        # t = -1 has Uinv = 0: every entry with l > x reads it and vanishes
        assert t.Uinv[0] == 0
        assert (t.U[1:] * t.Uinv[1:] % 16).tolist() == [1] * 9
        assert np.array_equal(dense(t), pascal_table(16, 8, 4))

    def test_build_peaks_near_table_size(self):
        for E in (16, 20):
            tracemalloc.start()
            try:
                t = binomial_table(2, E, 2**E - 1, 15)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # two int32 entries and one uint8 per row, whatever kmax; wider entries fail
            size = t.U.nbytes + t.Uinv.nbytes + t.V.nbytes
            assert size == 9 * (2**E + 1)
            assert peak < 1.25 * size


class TestRowKernel:
    """BinomialTable.rows against math.comb(x, l) % p**E."""

    @pytest.mark.parametrize("p, E, L", [(2, 3, 16), (3, 2, 40), (5, 1, 12)])
    def test_more_columns_than_rows(self, p, E, L):
        mod = p**E
        xs = np.arange(mod)
        got = binomial_table(p, E, mod - 1, L - 1).rows(xs, L)
        assert np.array_equal(got, comb_rows(xs, L, mod))
        assert not got[:, mod:].any()

    def test_largest_prime_at_e_one(self):
        p = 65521  # below 2**16: no factor t < p carries a p
        xs = np.array([0, 1, 2, 100, 32760, p - 2, p - 1])
        got = binomial_table(p, 1, p - 1, 6).rows(xs, 7)
        assert np.array_equal(got, comb_rows(xs, 7, p))

    def test_largest_modulus_on_seeded_points(self):
        mod = padic.MAX_MODULUS
        xs = np.append(np.random.default_rng(6).integers(0, mod, size=40), [0, mod - 1])
        got = binomial_table(2, 20, mod - 1, 63).rows(xs, 64)
        assert got.dtype == np.int64 and got.flags.c_contiguous
        assert np.array_equal(got, comb_rows(xs, 64, mod))

    @pytest.mark.parametrize(
        "p, E, nmax, xs, L",
        [
            # x = 2**19 and an odd l carry 19 times in base 2
            (2, 2, 2**20 - 1, [2**19, 2**19 + 1, 3 * 2**18, 0xAAAAA, 2**20 - 2, 2**20 - 1], 64),
            (257, 2, 257**2 - 1, [257, 257 * 256, 257 * 129 + 128, 257**2 - 2, 257**2 - 1], 300),
            (65521, 1, 65520, [65519, 65520], 40),
        ],
    )
    def test_largest_carry_counts(self, p, E, nmax, xs, L):
        # V holds v_p(t!) mod 256; the exponent V[x] - V[x - l] - V[l], a carry count
        # of at most 20, is exact, however far V has wrapped
        t = binomial_table(p, E, nmax, L - 1)
        legendre = sum(nmax // p**i for i in range(1, 21))
        assert t.V[-1] == legendre % 256
        xs = np.array([0, 1, 5, *xs])  # the first three also have columns l > x
        got = t.rows(xs, L)
        assert np.array_equal(got, comb_rows(xs, L, p**E))
        assert all(not got[i, x + 1 :].any() for i, x in enumerate(xs[:3]))
        # a slice of columns is the same slice of the rows
        assert np.array_equal(t.rows(xs, L, first=L // 2), got[:, L // 2 :])

    def test_rows_below_their_columns_vanish(self):
        # x < l reads the t = -1 entry, whose Uinv of 0 zeroes the product
        xs = np.array([0, 1, 5, 9])
        got = binomial_table(3, 3, 9, 11).rows(xs, 12)
        assert np.array_equal(got, comb_rows(xs, 12, 27))
        assert all(not got[i, x + 1 :].any() for i, x in enumerate(xs))

    def test_no_points(self):
        got = binomial_table(2, 4, 15, 3).rows(np.array([], dtype=np.int64), 4)
        assert got.shape == (0, 4)


class TestChunkRanges:
    def test_first_level_that_fits_beside_its_held_cells(self, monkeypatch):
        monkeypatch.setattr(padic, "CHUNK_CELLS", 100)
        # one row of the first level is over budget; the second fits 3 rows beside 40 cells
        levels = [(0, 4, 101), (40, 7, 20), (0, 9, 1)]
        level, slabs = padic.chunk_ranges(levels, "slab")
        assert (level, list(slabs)) == (1, [(0, 3), (3, 6), (6, 7)])
        level, slabs = padic.chunk_ranges(levels[2:], "slab")
        assert (level, list(slabs)) == (0, [(0, 9)])
        # no level fits: the message names the smallest slab
        with pytest.raises(ValueError, match=r"^one grid slab holds 101 cells, over 100$"):
            padic.chunk_ranges([(90, 1, 12), (0, 5, 101)], "grid slab")

    def test_grid_over_budget_fails_fast(self, monkeypatch):
        # at 2**6 cells no axis of this 8 x 8 x 8 grid can be cut small enough
        params = LearningParams(p=2, E=6, D=3, M=4)
        est = learn(SampleSet(params, [(0, 1, 2)]))
        axes = [np.arange(8)] * 3
        want = est.predict_residue_grid(axes)
        monkeypatch.setattr(padic, "CHUNK_CELLS", 2**6)
        with pytest.raises(ValueError, match="one grid slab holds"):
            est.predict_residue_grid(axes)
        monkeypatch.setattr(padic, "CHUNK_CELLS", 2**7)
        assert np.array_equal(est.predict_residue_grid(axes), want)

    def test_slabs_come_one_at_a_time(self, monkeypatch):
        # 2**20 one-cell rows at a 2**9-cell budget are 2048 slabs: as a list
        # of tuples they would hold about 30 budgets beside the sweep
        monkeypatch.setattr(padic, "CHUNK_CELLS", 2**9)
        tracemalloc.start()
        try:
            count = sum(hi - lo for lo, hi in padic.chunk_ranges([(0, 2**20, 1)], "slab")[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 2**20
        assert peak < 8 * 2**9
