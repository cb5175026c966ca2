"""Golden digests of model files, residues and report text.

Each digest is a blake2b over bytes the pipeline produces, so a change to
any coefficient, residue or report byte fails here.  A model's digest
covers its header line and its decoded window in row-major order: the
LZMA2 bytes depend on the liblzma build and the body order, while the
header and window do not.  A digest may change only together with a
stated break of the model or report format.
"""

import hashlib

import numpy as np
import pytest

from padiclearn.cli import parse_and_dispatch
from padiclearn.learner import SampleSet, learn, read_coefficient_rows
from padiclearn.nim import generate_p_positions, run_task
from padiclearn.padic import LearningParams


def digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def model_bytes(path) -> bytes:
    """The model file's header line and its window, read through read_coefficient_rows."""
    with open(path, "rb") as fh:
        head = fh.readline()
        fh.seek(0)
        return head + read_coefficient_rows(fh)[1].tobytes()


def residue_bytes(residues) -> bytes:
    return np.asarray(residues).astype("<i8").tobytes()


# (p, E, D, M, L) -> digests of the saved model, of predict_residue_batch
# on 300 seeded points and of one predict_residue_grid
GOLDEN = {
    (2, 10, 1, 64, 64): (
        "648f81f5f82ba70e81a37cca4ef53c8c",
        "6915f606c694bb9fc056e309f0b15e7d",
        "fafd88f87eaea9a9b6da45ed8acabdf0",
    ),
    (2, 12, 1, 100, 37): (
        "53345ed396d4427e2c8cd32b9da7d019",
        "7c61ba3678c3ea7df5b35fec7cc574a4",
        "0cb8cba8b9625b8df84c41cb6b2c87ff",
    ),
    (2, 8, 2, 24, 24): (
        "420b68e98db7c02e9ccd60c820b22753",
        "6957fe51f4b56a2adfd60f7628c68810",
        "0b315fda3db83342226756050b0b6740",
    ),
    (2, 10, 2, 32, 11): (
        "4f1f9f1931bbc0863138f4525f11d9ce",
        "916622dde1a6e7940c360e5fc6d50612",
        "4740f5947bdcd7022a4336d95a36d3c2",
    ),
    (2, 3, 2, 12, 12): (
        "250ddd0b391ea18aaebe6763112dec24",
        "e2097f75710b3b5f347137d6b96d8fff",
        "44a894eebd0912638c4693e31206807f",
    ),
    (2, 6, 3, 10, 10): (
        "52ab31edeef804bb83097a14642e49c5",
        "764a671e277a6e049aff2109fb68710d",
        "6915637a35e1c8d89ee804e5353f2e25",
    ),
    (2, 10, 3, 16, 6): (
        "9638fad68553ddfcfe31116114f37e13",
        "d499f17eef2391324a76cefda8ba0fdf",
        "3faf44e44fe65568043826f4a5cc1ff1",
    ),
    (2, 5, 4, 6, 6): (
        "0877b235938a8a832acb9f17d0f46dd1",
        "6402ec27a5bb1b55268e663e90b18796",
        "4c4d06fc64ce56fea298794c5b0049ba",
    ),
    (2, 8, 4, 8, 3): (
        "c9d5cba8e36139c1d13b817825f53f55",
        "b9c8dba3f572aa3d687cb49420e0bdd3",
        "dc83b3bc61a18e5dbc734ae49ff2b587",
    ),
    (3, 6, 1, 50, 50): (
        "6175e00b165328be0e1e90302e089c94",
        "7a3d6751672fbf77be32662c34c69be0",
        "eaec27be0921b404c68d0bb234725303",
    ),
    (3, 7, 1, 40, 17): (
        "efeb5937d016b1570e39b27e40d886e5",
        "171d3b05a2ac272ab3924306f603850c",
        "ff2af5317817bdbd2b5282c16e4ec1a4",
    ),
    (3, 4, 2, 20, 20): (
        "8b2a513e39573ef8c59609951159673d",
        "0638fb8d8e16874c95a7a24d85525f7b",
        "fb0a8ff6e03cd6fc38508df7ff0fc3c0",
    ),
    (3, 6, 2, 27, 8): (
        "01d61abb0ff65631d01b49aeb2299619",
        "125540fa1a93b0da6e3b06bd4e74776e",
        "fdb984f5269c05a56ec8fa4966c2959b",
    ),
    (3, 3, 3, 9, 9): (
        "9f33613b02ac3cf7329fca47fe059b57",
        "1e8d7ad616dfffd74779d822ea13efe5",
        "23ac967fbb88c1e114a2912b7c0a482e",
    ),
    (3, 5, 3, 12, 5): (
        "725524d9b0c9dcfdbb7116db877615fe",
        "d22456902ea11e77c43e02668732eef0",
        "34dbcf07ec3cbeef231972b6356f1927",
    ),
    (3, 3, 4, 5, 5): (
        "9c7185ecd304a62827a0ee6abc2e52eb",
        "92e23d9ab1473530abeb68501454fa26",
        "a4e630120941ebdbc1bf12ce27e0a5f8",
    ),
    (3, 4, 4, 6, 2): (
        "d30a313b2290ce4bbbe4891d8b22fc14",
        "1603482a064cf72d0e68bcd03a8bcd5d",
        "b942857e3e8e383812417cae266ec375",
    ),
    (5, 4, 1, 60, 60): (
        "4ef491858d1db020e1c2e7d43409f9ae",
        "812bed05479731df8832cd49dc6c9106",
        "619ac153cb64447cc31994b4cf6675c1",
    ),
    (5, 3, 1, 30, 9): (
        "ba591662797ec1728734bff2fc1f7c5f",
        "b76d286e63e22a9aeac9d23c289cf059",
        "92c2311ade671070e9f32389e650fcaf",
    ),
    (5, 3, 2, 15, 15): (
        "19bdc4cacbcbda29d3b59a99e9459e89",
        "b7308296bb1f1a5cb5d0243492fd3039",
        "e5e4a76be1968e8ce88c94a9b121796c",
    ),
    (5, 4, 2, 20, 7): (
        "d93b5725cf3f1a4a1c5f9dc0be9ff6cd",
        "783a253ade0d7cad142483ccf0a322cc",
        "cdbb7cf4358488789c19655c109c00bf",
    ),
    (5, 2, 3, 8, 8): (
        "c4e0bf475ab4354f9711f73efcf40237",
        "f32163ad544fe0570df39ee4eaf056b0",
        "aed085dd96a1be125fa5059645e11f56",
    ),
    (5, 3, 3, 10, 4): (
        "1b91e3d9308f7b5dd3ca066a8e475513",
        "5f5b67edc99ffc0dd510690626f67867",
        "be411fd0e751527f07ba15693cb6db7a",
    ),
    (5, 2, 4, 5, 5): (
        "5eeae1ec30cbdd7bfca0645a8eed54e8",
        "a01b00d644b474790561d0d51d41ccc0",
        "d995afa2e7d8908e39543ead7411c705",
    ),
}

GRID_SIDE = {1: 64, 2: 16, 3: 6, 4: 4}  # query grids of 64 to 256 points


def golden_run(config, tmp_path):
    """Model bytes, batch residues and grid residues of one seeded config."""
    p, E, D, M, L = config
    params = LearningParams(p=p, E=E, D=D, M=M, L=L)
    rng = np.random.default_rng(list(config))
    samples = rng.integers(0, M, size=(int(rng.integers(1, 4 * M)), D))
    est = learn(SampleSet(params, samples))
    path = tmp_path / "model.bin"
    est.save(path)
    mod = params.modulus
    batch = est.predict_residue_batch(rng.integers(0, mod, size=(300, D)))
    grid = est.predict_residue_grid([rng.integers(0, mod, size=GRID_SIDE[D]) for _ in range(D)])
    return model_bytes(path), residue_bytes(batch), residue_bytes(grid)


@pytest.mark.parametrize("config", list(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_small_config_digests(config, tmp_path):
    got = tuple(digest(data) for data in golden_run(config, tmp_path))
    assert got == GOLDEN[config]


def test_stock_model_digest(benchmark_estimate, tmp_path):
    path = tmp_path / "model.bin"
    benchmark_estimate.save(path)
    assert digest(model_bytes(path)) == "ba219c91f5985d38e588ddeae8e81781"
    # 2,000,048 bytes uncompressed, 168,046 as zlib 1.2.13 deflated it, 59,043 as
    # liblzma 5.4.1 packed the row-major window, 30,200 the digit-ordered one,
    # 18,199 its 10 digit planes, 2,409 the digit planes of the window's values,
    # 8 distinct powers of 2, 1,047 those planes under a hash-chain match finder
    # that stops early only at a 273-byte match, and 1,025 with the values' low
    # digits lowered; other liblzma builds may differ a little
    assert path.stat().st_size < 1_200


@pytest.mark.parametrize(
    "params, samples, bound",
    [
        # the deep_trunc benchmark workload at seed 1: 5,385 bytes as the planes of
        # the values, one-hot in the sample distance, and 3,046 as its level indicators
        (LearningParams(2, 6, 5, 16, 8), np.random.default_rng(1).integers(0, 16, (5000, 5)), 3600),
        # Nim at p=2 E=10 D=3 M=64: 253 bytes unlowered, 241 with c = 6 low digits
        # lowered, and 332 with all E lowered, which repeats the sample plane above c
        (LearningParams(2, 10, 3, 64), generate_p_positions(3, 64), 290),
    ],
    ids=["deep_trunc", "nim-64"],
)
def test_model_size_bound(params, samples, bound, tmp_path):
    path = tmp_path / "model.bin"
    learn(SampleSet(params, samples)).save(path)
    assert path.stat().st_size < bound


# stock report text: tasks 2 and 4 exhaustive, tasks 1 and 3 at 200 trials
REPORTS = {
    2: "851ef0938c71ca4e76df21ea6b43b6bf",
    4: "abfae17fbf322ae33289ce8dcb621de3",
    1: "8a6edc070fb335132ad2502a2e3f70c4",
    3: "5f2aeac6d0d09963c7600f0a37ad53ea",
}


@pytest.mark.parametrize("task", list(REPORTS))
def test_stock_report_digests(benchmark_estimate, task):
    trials = 200 if task in (1, 3) else None
    report = run_task(benchmark_estimate, task, trials=trials, seed=20260818)
    assert digest(report.to_text().encode()) == REPORTS[task]


# small Nim models at p=2 E=6, learned from every zero-XOR point of [0, M)**D:
# (D, M, task, mode) -> report text digest; tasks 1 and 3 at 300 trials,
# subsample mode at 500 points
SMALL_REPORTS = {
    (1, 8, 1, "exhaustive"): "33e183035ae40fd46a35d8049199b3e8",
    (1, 8, 2, "exhaustive"): "1022429b6eed5bfc6da4fdedd5488033",
    (1, 8, 3, "exhaustive"): "83a1772c7e5a1769a5e65f09fd7b470e",
    (1, 8, 4, "exhaustive"): "ea558a335472abd2d29a6b3120f9060c",
    (2, 16, 1, "exhaustive"): "47ff7824731ed7d8fe14a5bfaffa3962",
    (2, 16, 2, "exhaustive"): "6a1a28565a6d6cc792581ce7654778cf",
    (2, 16, 3, "exhaustive"): "c4ddfb515dffc28674baf1c2ea2c0440",
    (2, 16, 4, "exhaustive"): "d031c507e2c160e512cb5aacff2019a8",
    (4, 8, 1, "exhaustive"): "30d2a832e7d5637329774f0eeed365fe",
    (4, 8, 2, "exhaustive"): "8a396edd0737f74b11c6f5fd9d29458d",
    (4, 8, 3, "exhaustive"): "fb0aee47cc9c1ac0c23c9c942405cf6b",
    (4, 8, 4, "exhaustive"): "5b507ea76b983a48f518a5d9584d389d",
    (4, 8, 2, "subsample"): "2fe9de8133bc4585c31e260c50a68ab2",
}


@pytest.fixture(scope="module")
def small_nim_models():
    def fit(D, M):
        return learn(SampleSet(LearningParams(p=2, E=6, D=D, M=M), generate_p_positions(D, M)))

    return {(D, M): fit(D, M) for D, M in {key[:2] for key in SMALL_REPORTS}}


@pytest.mark.parametrize("key", list(SMALL_REPORTS), ids=lambda k: "-".join(map(str, k)))
def test_small_report_digests(small_nim_models, key):
    D, M, task, mode = key
    est = small_nim_models[D, M]
    report = run_task(est, task, trials=300, seed=7, mode=mode, sample_size=500)
    assert digest(report.to_text().encode()) == SMALL_REPORTS[key]


def test_cli_text_digests(tmp_path):
    samples, model, dump = (tmp_path / name for name in ("s.txt", "m.bin", "c.txt"))
    assert parse_and_dispatch(["gen-samples", "--D", "3", "--M", "12", "--out", str(samples)]) == 0
    flags = ["--p", "2", "--E", "6", "--D", "3", "--M", "12", "--L", "10"]
    assert parse_and_dispatch(["learn", *flags, "--in", str(samples), "--out", str(model)]) == 0
    assert parse_and_dispatch(["dump-coeffs", "--in", str(model), "--out", str(dump)]) == 0
    assert digest(samples.read_bytes()) == "530a20dbe795893b644d206c20cef961"
    assert digest(dump.read_bytes()) == "c0e7cc6df73eec910183fea7b7fcfe44"
