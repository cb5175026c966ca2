import tracemalloc

import numpy as np
import pytest
from oracles import trie_node_count, valuation

from padiclearn.padic import MAX_TABLE_CELLS, LearningParams
from padiclearn.trie import PadicTrie


def brute_force_nns(params, points, query):
    """Max over the set of the min coordinate-wise capped valuation."""
    best = 0
    for pt in points:
        v = min(valuation(int(q) - int(s), params.p, params.E) for q, s in zip(query, pt))
        best = max(best, v)
    return best


def random_instance(rng):
    p = int(rng.choice([2, 3]))
    E = int(rng.integers(1, 5))
    D = int(rng.integers(1, 4))
    params = LearningParams(p=p, E=E, D=D, M=2)
    size = int(rng.integers(1, 51))
    # a sprinkle of coordinates beyond p**E exercises digit truncation
    hi = p**E * 2
    points = rng.integers(0, hi, size=(size, D))
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

    def test_two_singletons(self):
        trie = PadicTrie(LearningParams(p=2, E=1, D=1, M=2), [(0,), (1,)])
        assert trie.node_count == 3

    def test_single_point_chain(self):
        trie = PadicTrie(LearningParams(p=2, E=2, D=2, M=2), [(0, 0)])
        assert trie.node_count == 5  # root plus one edge per digit

    def test_node_count_bound(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            params, points, _ = random_instance(rng)
            trie = PadicTrie(params, points)
            assert trie.node_count <= 1 + points.shape[0] * params.E * params.D

    def test_node_count_matches_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            params, points, _ = random_instance(rng)
            want = trie_node_count(points, params.p, params.E)
            assert PadicTrie(params, points).node_count == want

    @pytest.mark.parametrize("D", [1, 2, 3, 4])
    def test_node_count_matches_oracle_at_p5(self, D):
        rng = np.random.default_rng(15 + D)
        for E in (1, 2, 3):
            params = LearningParams(p=5, E=E, D=D, M=2)
            points = rng.integers(0, 2 * 5**E, size=(int(rng.integers(1, 80)), D))
            assert PadicTrie(params, points).node_count == trie_node_count(points, 5, E)

    def test_build_memory_is_bounded(self):
        # 5000 samples of a 30-digit string: 93k nodes, a 1.5 MB child table
        params = LearningParams(p=2, E=6, D=5, M=16)
        points = np.random.default_rng(16).integers(0, 16, size=(5000, 5))
        tracemalloc.start()
        try:
            trie = PadicTrie(params, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trie.node_count > 90_000
        assert peak < 5 * 2**20

    def test_oversized_child_table_fails_fast(self):
        # about 150 nodes times 1048573 children is over 1 GiB of int64 cells
        params = LearningParams(p=1048573, E=1, D=2, M=64)
        points = np.random.default_rng(17).integers(0, 64, size=(100, 2))
        nodes = trie_node_count(points, params.p, params.E)
        assert nodes * params.p > MAX_TABLE_CELLS
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf"{nodes} nodes .* p = 1048573 .* 67108864"):
                PadicTrie(params, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_child_table_cap_boundary(self, monkeypatch):
        # the table holds one row per node plus the sink row
        params = LearningParams(p=3, E=2, D=2, M=9)
        points = np.random.default_rng(18).integers(0, 9, size=(6, 2))
        count = trie_node_count(points, params.p, params.E)
        cap = (count + 1) * params.p
        monkeypatch.setattr("padiclearn.trie.MAX_TABLE_CELLS", cap - 1)
        with pytest.raises(ValueError, match=rf"{count} nodes .* p = 3 .* {cap - 1}"):
            PadicTrie(params, points)
        monkeypatch.setattr("padiclearn.trie.MAX_TABLE_CELLS", cap)
        assert PadicTrie(params, points).node_count == count

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
        # congruent mod p**E counts as membership: digits beyond E are dropped
        assert trie.nns_valuation_batch([(1 + mod, 2)])[0] == params.E

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(400):
            params, points, query = random_instance(rng)
            trie = PadicTrie(params, points)
            assert trie.nns_valuation_batch([query])[0] == brute_force_nns(params, points, query)
        # deeper strings than the random instances, with queries near the samples
        for p, E, D in ((2, 6, 5), (3, 3, 4)):
            params = LearningParams(p=p, E=E, D=D, M=2)
            hi = 2 * p**E
            for _ in range(10):
                points = rng.integers(0, hi, size=(int(rng.integers(1, 51)), D))
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
