import tracemalloc

import numpy as np
import pytest
from oracles import residue_class_count, valuation

from padiclearn.padic import MAX_GRID_CELLS, LearningParams
from padiclearn.trie import PadicTrie


def brute_force_nns(params, points, query):
    """Max over the set of the min coordinate-wise capped valuation."""
    best = 0
    for pt in points:
        v = min(valuation(int(q) - int(s), params.p, params.E) for q, s in zip(query, pt))
        best = max(best, v)
    return best


def extent(p, E, D):
    """2 * p**E, so that samples reach past p**E, or the widest M with M**D <= 2**24."""
    M = 2 * p**E
    while M**D > MAX_GRID_CELLS:
        M -= 1
    return M


def random_instance(rng):
    p = int(rng.choice([2, 3]))
    E = int(rng.integers(1, 5))
    D = int(rng.integers(1, 4))
    params = LearningParams(p=p, E=E, D=D, M=extent(p, E, D))
    size = int(rng.integers(1, 51))
    # a sprinkle of coordinates beyond p**E exercises the reduction mod p**k
    hi = p**E * 2
    points = rng.integers(0, params.M, size=(size, D))
    query = tuple(int(c) for c in rng.integers(0, hi, size=D))
    return params, points, query


class TestBuild:
    def test_empty_set_is_root_only(self):
        trie = PadicTrie(LearningParams(p=2, E=2, D=1, M=2), np.empty((0, 1), np.int64))
        assert trie.node_count == 1

    def test_rejects_wrong_point_shape(self):
        # at D=1 a (1, 2) array is one 2-d point, not two 1-d points
        with pytest.raises(ValueError):
            PadicTrie(LearningParams(p=2, E=3, D=1, M=2), [[1, 2]])

    def test_rejects_points_outside_the_grid(self):
        # samples lie in [0, M)**D; queries may be any naturals
        params = LearningParams(p=2, E=3, D=2, M=4)
        with pytest.raises(ValueError, match=r"\[0, 4\)"):
            PadicTrie(params, [(1, 4)])
        assert PadicTrie(params, [(1, 3)]).nns_valuation_batch([(9, 11)]).tolist() == [3]

    def test_two_singletons(self):
        trie = PadicTrie(LearningParams(p=2, E=1, D=1, M=2), [(0,), (1,)])
        assert trie.node_count == 3

    def test_single_point_chain(self):
        trie = PadicTrie(LearningParams(p=2, E=2, D=2, M=2), [(0, 0)])
        assert trie.node_count == 3  # root plus one class per level

    def test_node_count_bound(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            params, points, _ = random_instance(rng)
            trie = PadicTrie(params, points)
            assert trie.node_count <= 1 + points.shape[0] * params.E

    def test_node_count_matches_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            params, points, _ = random_instance(rng)
            want = residue_class_count(points, params.p, params.E)
            assert PadicTrie(params, points).node_count == want

    @pytest.mark.parametrize("D", [1, 2, 3, 4])
    def test_node_count_matches_oracle_at_p5(self, D):
        rng = np.random.default_rng(15 + D)
        for E in (1, 2, 3):
            params = LearningParams(p=5, E=E, D=D, M=extent(5, E, D))
            points = rng.integers(0, params.M, size=(int(rng.integers(1, 80)), D))
            assert PadicTrie(params, points).node_count == residue_class_count(points, 5, E)

    def test_build_memory_is_bounded(self):
        # 5000 samples at deep_trunc's parameters: six levels in four cubes of at most 16**5 cells
        params = LearningParams(p=2, E=6, D=5, M=16)
        points = np.random.default_rng(16).integers(0, 16, size=(5000, 5))
        tracemalloc.start()
        try:
            trie = PadicTrie(params, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trie.node_count == residue_class_count(points, 2, 6)
        assert peak < 5 * 2**20

    def test_large_prime_builds_small(self):
        # at p > M one M**2 cube serves the only level, whatever p is
        params = LearningParams(p=1048573, E=1, D=2, M=64)
        points = np.random.default_rng(17).integers(0, 64, size=(100, 2))
        tracemalloc.start()
        try:
            trie = PadicTrie(params, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert trie.node_count == residue_class_count(points, params.p, params.E)
        p = params.p
        queries = np.concatenate(
            [
                points[:10],
                points[:10] + p,
                points[:10] + [[64, 0]],
                [(64, 64), (p, p), (p - 1, 0), (p + 63, 2 * p + 5)],
                np.random.default_rng(18).integers(0, 3 * p, size=(20, 2)),
            ]
        )
        got = trie.nns_valuation_batch(queries)
        assert got.tolist() == [brute_force_nns(params, points, q) for q in queries]
        assert got[:20].tolist() == [1] * 20

    def test_duplicates_are_idempotent(self):
        params = LearningParams(p=2, E=3, D=2, M=4)
        pts = [(1, 2), (3, 0), (1, 2), (1, 2)]
        trie_dup = PadicTrie(params, pts)
        trie_set = PadicTrie(params, [(1, 2), (3, 0)])
        assert trie_dup.node_count == trie_set.node_count


class TestNnsValuation:
    def test_examples(self):
        params = LearningParams(p=2, E=3, D=2, M=4)
        trie = PadicTrie(params, [(0, 0)])
        assert trie.nns_valuation_batch([(0, 0), (1, 0), (2, 2)]).tolist() == [3, 0, 1]

    def test_empty_trie_returns_zero(self):
        trie = PadicTrie(LearningParams(p=2, E=3, D=2, M=4), np.empty((0, 2), np.int64))
        assert trie.nns_valuation_batch(np.zeros((4, 2), dtype=np.int64)).tolist() == [0] * 4

    def test_membership_iff_full_valuation(self):
        params = LearningParams(p=3, E=2, D=2, M=9)
        points = [(1, 2), (4, 7)]
        trie = PadicTrie(params, points)
        mod = params.modulus
        for x in range(9):
            for y in range(9):
                expected = any((x - a) % mod == 0 and (y - b) % mod == 0 for a, b in points)
                assert (trie.nns_valuation_batch([(x, y)])[0] == params.E) == expected
        # congruent mod p**E counts as membership, even past M
        assert trie.nns_valuation_batch([(1 + mod, 2)])[0] == params.E

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(400):
            params, points, query = random_instance(rng)
            trie = PadicTrie(params, points)
            assert trie.nns_valuation_batch([query])[0] == brute_force_nns(params, points, query)
        # deeper strings than the random instances, with queries near the samples
        for p, E, D in ((2, 6, 5), (3, 3, 4)):
            params = LearningParams(p=p, E=E, D=D, M=extent(p, E, D))
            hi = 2 * p**E
            for _ in range(10):
                points = rng.integers(0, params.M, size=(int(rng.integers(1, 51)), D))
                near = points[rng.integers(0, points.shape[0], size=40)]
                near += p ** rng.integers(0, E + 1, size=(40, 1)) * rng.integers(0, 2, size=(40, D))
                queries = np.concatenate([rng.integers(0, hi, size=(40, D)), near % hi])
                got = PadicTrie(params, points).nns_valuation_batch(queries)
                assert got.tolist() == [brute_force_nns(params, points, q) for q in queries]

    def test_monotone_under_superset(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            params, points, query = random_instance(rng)
            half = points[: max(1, points.shape[0] // 2)]
            small = PadicTrie(params, half)
            big = PadicTrie(params, points)
            assert big.nns_valuation_batch([query])[0] >= small.nns_valuation_batch([query])[0]

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            params, points, _ = random_instance(rng)
            trie = PadicTrie(params, points)
            queries = rng.integers(0, params.modulus * 2, size=(40, params.D))
            batch = trie.nns_valuation_batch(queries)
            for row, q in zip(batch, queries):
                assert row == trie.nns_valuation_batch([q])[0]

    def test_dimension_mismatch(self):
        trie = PadicTrie(LearningParams(p=2, E=2, D=2, M=2), [(0, 0)])
        with pytest.raises(ValueError):
            trie.nns_valuation_batch([(1,)])
        with pytest.raises(ValueError):
            trie.nns_valuation_batch(np.zeros((3, 1), dtype=np.int64))
