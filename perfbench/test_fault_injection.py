"""The benchmark's gates turn a corrupted model or residue into failed operations.

Runs the untimed-budget path of worker.run_untraced on a tiny workload:
clean, with one coefficient flipped in every loaded model, and with one
batch residue changed.
"""

import numpy as np
import pytest

from padiclearn import learner
from padiclearn.mahler import ResidueGrid
from worker import Bench, run_untraced
from workloads import Workload

Estimate = learner.DefiningFunctionEstimate


def tiny_workload() -> Workload:
    rng = np.random.default_rng(7)
    return Workload(
        name="tiny",
        params=(2, 4, 2, 8, 8),
        samples=rng.integers(0, 8, size=(12, 2)),
        batch_sets={"uniform": rng.integers(0, 16, size=(300, 2))},
        grid_axes=[np.arange(16), np.arange(16)],
        scalar_points=50,
        shares=dict.fromkeys(("fit", "save", "load", "scalar", "batch", "grid"), 0.0),
    )


@pytest.fixture
def run(tmp_path):
    def go():
        bench = Bench(tiny_workload(), 0, str(tmp_path))
        run_untraced(bench, seconds=0.0)
        return bench.ledger

    return go


def test_clean_run_fails_nothing(run):
    ledger = run()
    assert ledger.attempted > 0
    assert ledger.failed == 0


def test_flipped_coefficient_fails_the_loads(run, monkeypatch):
    load = Estimate.load.__func__

    def corrupt_load(cls, path):
        est = load(cls, path)
        data = est.coeffs.data.copy()
        data.flat[5] = (data.flat[5] + 1) % est.params.modulus
        return cls(est.params, ResidueGrid(est.params, data), est.table)

    monkeypatch.setattr(Estimate, "load", classmethod(corrupt_load))
    ledger = run()
    assert ledger.failed / ledger.attempted > 0
    assert not any(ledger.ok["load"])


def test_changed_batch_residue_fails_the_batch(run, monkeypatch):
    batch = Estimate.predict_residue_batch

    def corrupt_batch(self, points):
        out = batch(self, points).copy()
        out[0] = (out[0] + 1) % self.params.modulus
        return out

    monkeypatch.setattr(Estimate, "predict_residue_batch", corrupt_batch)
    ledger = run()
    assert ledger.failed / ledger.attempted > 0
    assert not any(ledger.ok["batch"])
