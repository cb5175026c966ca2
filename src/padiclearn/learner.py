"""Estimate the defining function of a sampled set and predict membership.

Training fills the value grid over [0, M)**D with p**v at every node,
where v is the best valuation any sample achieves against the node; the
valuation E collapses to 0 mod p**E, so samples themselves land exactly
on zero.  The grid's Mahler transform, truncated per axis at L, is
the model.  Evaluating the truncated series at a point estimates the
defining function mod p**E, and a zero residue is the membership verdict.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .mahler import (
    ResidueGrid,
    evaluate_at_points,
    evaluate_on_grid,
    mahler_transform,
)
from .padic import CHUNK_CELLS, LearningParams, as_points, binomial_table
from .trie import PadicTrie


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Finite, non-empty set of points inside [0, M)**D.

    Points are deduplicated and kept in lexicographic order, so a sample
    set has one canonical array form.
    """

    params: LearningParams
    points: np.ndarray

    def __post_init__(self):
        pts = as_points(np.atleast_2d(self.points), self.params.D, bound=self.params.M)
        if pts.shape[0] == 0:
            raise ValueError("sample set must not be empty")
        object.__setattr__(self, "points", np.unique(pts, axis=0))

    def __len__(self) -> int:
        return self.points.shape[0]


def build_value_grid(samples: SampleSet) -> ResidueGrid:
    """Fill [0, M)**D with p**v, v the trie valuation of each grid node."""
    params = samples.params
    trie = PadicTrie(params, samples.points)
    mod = params.modulus
    # powers[E] == p**E % p**E == 0: exact hits vanish
    powers = np.array([pow(params.p, v, mod) for v in range(params.E)] + [0], dtype=np.int64)
    total = params.M**params.D
    shape = (params.M,) * params.D
    values = np.empty(total, dtype=np.int64)
    step = max(1, CHUNK_CELLS // params.D)
    for start in range(0, total, step):
        flat = np.arange(start, min(start + step, total))
        pts = np.stack(np.unravel_index(flat, shape), axis=1)
        values[flat] = powers[trie.nns_valuation_batch(pts)]
    return ResidueGrid(params, values.reshape(shape))


def learn(samples: SampleSet) -> "DefiningFunctionEstimate":
    """Train an estimate: grid fill, Mahler transform, truncation.

    The model keeps the L**D window of coefficients whose every index is
    below L; the rest of the M**D transform is dropped.
    """
    params = samples.params
    coeffs = mahler_transform(build_value_grid(samples))
    return _estimate(params, coeffs.data[(slice(0, params.L),) * params.D])


def _estimate(params: LearningParams, window: np.ndarray) -> "DefiningFunctionEstimate":
    """Estimate over an L**D coefficient window, with its binomial table."""
    table = binomial_table(params.p, params.E, nmax=params.modulus - 1, kmax=params.L - 1)
    return DefiningFunctionEstimate(params, ResidueGrid(params, window), table)


@dataclass(frozen=True, eq=False)
class DefiningFunctionEstimate:
    """Trained model: the L**D coefficient window plus the table that evaluates it.

    Predictions are defined on [0, p**E)**D only; the series is a residue
    mod p**E and coordinates are read at precision E.
    """

    params: LearningParams
    coeffs: ResidueGrid
    table: np.ndarray

    def predict_residue(self, point) -> int:
        """Estimated defining-function value mod p**E at one point."""
        return int(self.predict_residue_batch([point])[0])

    def is_member(self, point) -> bool:
        """Membership verdict: the residue vanished at working precision."""
        return self.predict_residue(point) == 0

    def predict_residue_batch(self, points) -> np.ndarray:
        """Residues for an (n, D) array of points; see evaluate_at_points."""
        return evaluate_at_points(self.coeffs, points, self.table)

    def is_member_batch(self, points) -> np.ndarray:
        return self.predict_residue_batch(points) == 0

    def predict_residue_grid(self, axes) -> np.ndarray:
        """Residues over a product grid; axes as in evaluate_on_grid."""
        return evaluate_on_grid(self.coeffs, axes, self.table)

    def save(self, path):
        """Write the model file, in the format of write_coefficient_rows."""
        with open(path, "wb") as fh:
            write_coefficient_rows(fh, self.params, self.coeffs.data)

    @classmethod
    def load(cls, path) -> "DefiningFunctionEstimate":
        """Rebuild an estimate bit-exactly from its model file."""
        with open(path, "rb") as fh:
            params, window = read_coefficient_rows(fh)
        return _estimate(params, window)


# The model file.  These two stay apart from save and load because
# perfbench/tracer.py times the format by their names.


def _body_dtype(params: LearningParams) -> np.dtype:
    """The smallest unsigned little-endian dtype that holds p**E - 1."""
    return np.min_scalar_type(params.modulus - 1).newbyteorder("<")


def _digest(fields: bytes, body: bytes) -> bytes:
    return hashlib.blake2b(fields + b"\n" + body, digest_size=16).hexdigest().encode()


def write_coefficient_rows(fh, params: LearningParams, window: np.ndarray):
    """Write the text line `p E D M L <digest>`, then the L**D window.

    The window goes in row-major order as little-endian _body_dtype bytes;
    the digest is a hex blake2b over the five header fields and the body.
    """
    fields = f"{params.p} {params.E} {params.D} {params.M} {params.L}".encode()
    body = window.astype(_body_dtype(params)).tobytes()
    fh.write(fields + b" " + _digest(fields, body) + b"\n" + body)


def read_coefficient_rows(fh) -> tuple[LearningParams, np.ndarray]:
    """Params and L**D window of a model file, checked against its digest.

    Reads at most one byte past the expected body, so a huge or corrupt
    file costs bounded memory.  ResidueGrid checks the value range.
    """
    line = fh.readline(128)  # far longer than any header the caps admit
    head = line.split()
    if len(head) != 6 or not line.endswith(b"\n"):
        raise ValueError(f"model header must be one line `p E D M L <digest>`, got {line!r}")
    try:
        params = LearningParams(*(int(tok) for tok in head[:5]))
    except ValueError as exc:
        raise ValueError(f"bad model header {line!r}: {exc}") from exc
    dtype = _body_dtype(params)
    size = params.L**params.D * dtype.itemsize
    body = fh.read(size + 1)
    if len(body) != size:
        got = "more" if len(body) > size else len(body)
        raise ValueError(f"model body must be {size} bytes, L**D {dtype.name} values, got {got}")
    if _digest(b" ".join(head[:5]), body) != head[5]:
        raise ValueError("model digest does not match its header and body")
    return params, np.frombuffer(body, dtype).reshape((params.L,) * params.D)
