import math

import numpy as np
import pytest
from oracles import valuation

from padiclearn.padic import (
    LearningParams,
    binomial_table,
    expand,
    expand_batch,
    is_prime,
)


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
        assert params.digit_count == 30

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

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            LearningParams(p=2.0, E=2, D=1, M=2)
        with pytest.raises(ValueError):
            LearningParams(p=True, E=2, D=1, M=2)

    def test_is_prime(self):
        primes = [n for n in range(60) if is_prime(n)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


class TestExpand:
    def test_examples(self):
        assert expand(LearningParams(p=2, E=2, D=2, M=4), (1, 2)).tolist() == [1, 0, 0, 1]
        assert expand(LearningParams(p=2, E=3, D=1, M=2), (0,)).tolist() == [0, 0, 0]
        assert expand(LearningParams(p=3, E=2, D=2, M=9), (5, 7)).tolist() == [2, 1, 1, 2]

    def test_high_digits_truncated(self):
        params = LearningParams(p=2, E=2, D=1, M=4)
        assert expand(params, (4,)).tolist() == expand(params, (0,)).tolist()
        assert expand(params, (5,)).tolist() == expand(params, (1,)).tolist()

    def test_dimension_mismatch(self):
        params = LearningParams(p=2, E=2, D=2, M=4)
        with pytest.raises(ValueError):
            expand(params, (1,))
        with pytest.raises(ValueError):
            expand(params, (1, 2, 3))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            expand(LearningParams(p=2, E=2, D=1, M=4), (-1,))

    def test_injective_on_domain(self):
        params = LearningParams(p=2, E=2, D=2, M=4)
        seen = {tuple(expand(params, (a, b))) for a in range(4) for b in range(4)}
        assert len(seen) == 16
        params3 = LearningParams(p=3, E=2, D=1, M=9)
        seen3 = {tuple(expand(params3, (a,))) for a in range(9)}
        assert len(seen3) == 9

    def test_reconstruction(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = int(rng.choice([2, 3, 5]))
            E = int(rng.integers(1, 5))
            D = int(rng.integers(1, 4))
            params = LearningParams(p=p, E=E, D=D, M=2)
            point = [int(rng.integers(0, p**E * 3)) for _ in range(D)]
            digits = expand(params, point)
            for d in range(D):
                rebuilt = sum(int(digits[e * D + d]) * p**e for e in range(E))
                assert rebuilt == point[d] % p**E

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        params = LearningParams(p=3, E=3, D=2, M=9)
        pts = rng.integers(0, 40, size=(50, 2))
        batch = expand_batch(params, pts)
        for row, pt in zip(batch, pts):
            assert row.tolist() == expand(params, pt).tolist()

    def test_batch_shape_check(self):
        params = LearningParams(p=2, E=2, D=2, M=4)
        with pytest.raises(ValueError):
            expand_batch(params, np.zeros((3, 3), dtype=np.int64))


class TestBinomialTable:
    def test_examples(self):
        assert binomial_table(2, 10, 4, 2)[4, 2] == 6
        assert binomial_table(2, 3, 10, 5)[10, 5] == 4
        assert binomial_table(5, 1, 5, 2)[5, 2] == 0

    def test_matches_exact_binomials(self):
        rng = np.random.default_rng(4)
        table = binomial_table(3, 4, 60, 40)
        for _ in range(300):
            n = int(rng.integers(0, 61))
            k = int(rng.integers(0, 41))
            assert table[n, k] == math.comb(n, k) % 3**4

    def test_pascal_recurrence(self):
        t = binomial_table(2, 5, 30, 20)
        mod = 32
        assert np.array_equal(t[1:, 1:], (t[:-1, 1:] + t[:-1, :-1]) % mod)

    def test_zero_beyond_diagonal(self):
        t = binomial_table(2, 4, 8, 8)
        for n in range(9):
            for k in range(n + 1, 9):
                assert t[n, k] == 0

    def test_first_column_ones(self):
        t = binomial_table(7, 1, 12, 3)
        assert np.array_equal(t[:, 0], np.ones(13, dtype=np.int64))

    def test_build_validation(self):
        with pytest.raises(ValueError):
            binomial_table(4, 2, 4, 4)
        with pytest.raises(ValueError):
            binomial_table(2, 40, 4, 4)
        with pytest.raises(ValueError):
            binomial_table(2, 2, 1 << 14, 1 << 13)  # capacity

    def test_plain_int64_array(self):
        t = binomial_table(2, 4, 8, 4)
        assert isinstance(t, np.ndarray)
        assert t.dtype == np.int64
        assert t.shape == (9, 5)
