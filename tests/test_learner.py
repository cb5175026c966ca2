import io

import numpy as np
import pytest
from oracles import series_value

from padiclearn.learner import (
    DefiningFunctionEstimate,
    SampleSet,
    build_value_grid,
    learn,
    read_coefficient_rows,
    write_coefficient_rows,
)
from padiclearn.padic import LearningParams
from padiclearn.trie import PadicTrie


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
        assert len(ss) == 2

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
        assert np.array_equal(back.table, est.table)
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
        head = path.read_bytes().split(b"\n", 1)[0]
        # header line, then one byte per window value: p**E - 1 = 31 fits uint8
        assert path.stat().st_size == len(head) + 1 + 3**3
        back = DefiningFunctionEstimate.load(path)
        assert back.params == est.params
        assert np.array_equal(back.coeffs.data, est.coeffs.data)
        assert np.array_equal(back.table, est.table)
        path2 = tmp_path / "model2.bin"
        back.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_golden_bytes(self, tmp_path):
        est = learn(SampleSet(LearningParams(p=2, E=2, D=1, M=2), [(0,)]))
        path = tmp_path / "model.bin"
        est.save(path)
        assert path.read_bytes() == b"2 2 1 2 2 d91b44947c0e7d464d6ba8b3ed39bf14\n\x00\x01"

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
        body = path.read_bytes().split(b"\n", 1)[1]
        assert body == est.coeffs.data.astype(np.dtype(dtype).newbyteorder("<")).tobytes()
        assert len(body) == 9 * np.dtype(dtype).itemsize
        assert np.array_equal(DefiningFunctionEstimate.load(path).coeffs.data, est.coeffs.data)

    def _saved(self, tmp_path):
        params = LearningParams(p=2, E=4, D=2, M=4)
        est = learn(SampleSet(params, [(0, 1), (2, 2), (3, 0)]))
        path = tmp_path / "model.bin"
        est.save(path)
        head, body = path.read_bytes().split(b"\n", 1)
        return path, head, body

    def test_flipped_body_byte_rejected(self, tmp_path):
        path, head, body = self._saved(tmp_path)
        for i in (0, 7, len(body) - 1):
            # values stay below 16, so only the digest can tell
            flipped = body[:i] + bytes([body[i] ^ 1]) + body[i + 1 :]
            path.write_bytes(head + b"\n" + flipped)
            with pytest.raises(ValueError, match="digest"):
                DefiningFunctionEstimate.load(path)

    def test_tampered_header_field_rejected(self, tmp_path):
        path, head, body = self._saved(tmp_path)
        p, E, D, M, L, digest = head.split()
        assert (p, E, D, M, L) == (b"2", b"4", b"2", b"4", b"4")
        # same body size under each, so the digest catches them
        for fields in ([b"2", b"4", b"2", b"5", b"4"], [b"02", b"4", b"2", b"4", b"4"]):
            path.write_bytes(b" ".join([*fields, digest]) + b"\n" + body)
            with pytest.raises(ValueError, match="digest"):
                DefiningFunctionEstimate.load(path)
        other = digest[:-1] + (b"1" if digest.endswith(b"0") else b"0")
        path.write_bytes(b" ".join([p, E, D, M, L, other]) + b"\n" + body)
        with pytest.raises(ValueError, match="digest"):
            DefiningFunctionEstimate.load(path)

    def test_body_one_byte_short_or_long(self, tmp_path):
        path, head, body = self._saved(tmp_path)
        for bad, got in [(body[:-1], "got 15"), (body + b"\x00", "got more")]:
            path.write_bytes(head + b"\n" + bad)
            with pytest.raises(ValueError, match=rf"must be 16 bytes, L\*\*D uint8 values, {got}"):
                DefiningFunctionEstimate.load(path)

    def test_long_body_read_is_bounded(self, tmp_path):
        path, head, body = self._saved(tmp_path)
        fh = io.BytesIO(head + b"\n" + body + bytes(1 << 20))
        with pytest.raises(ValueError, match="got more"):
            read_coefficient_rows(fh)
        assert fh.tell() == len(head) + 1 + len(body) + 1

    def test_cutoff_header_with_outside_coefficients_rejected(self, tmp_path):
        # the M**D window under an L < M header fails the L**D body size
        params = LearningParams(p=2, E=4, D=1, M=4)
        est = learn(SampleSet(params, [(0,)]))
        assert est.coeffs.data[2:].any()
        path = tmp_path / "model.bin"
        est.save(path)
        head, body = path.read_bytes().split(b"\n", 1)
        assert head.split()[:5] == [b"2", b"4", b"1", b"4", b"4"]
        path.write_bytes(b"2 4 1 4 2 " + head.split()[5] + b"\n" + body)
        with pytest.raises(ValueError, match="must be 2 bytes"):
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
        # digest fine; a value outside [0, p**E) = [0, 4)
        for window in ([1, 4], [1, 255]):
            with open(bad, "wb") as fh:
                write_coefficient_rows(fh, params, np.array(window))
            with pytest.raises(ValueError, match=r"\[0, 4\)"):
                DefiningFunctionEstimate.load(bad)
        # or no body at all
        head = bad.read_bytes().split(b"\n", 1)[0]
        bad.write_bytes(head + b"\n")
        with pytest.raises(ValueError, match="must be 2 bytes"):
            DefiningFunctionEstimate.load(bad)

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
