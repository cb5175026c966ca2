"""Mahler transform mod p**E and truncated-series evaluation.

Both directions are one per-axis contraction of a grid with a matrix mod
p**E.  A value grid over [0, n)**D becomes the coefficient grid of the
product binomial basis prod_d C(x_d, l_d) by contracting every axis with
the inverse binomial matrix of the 1-d closed form

    c_i = sum_{j <= i} (-1)**(i - j) * C(i, j) * f(j)   (mod p**E),

and a coefficient grid is evaluated by contracting every axis with the
binomial-table rows of the query coordinates.  mahler_coeffs_1d computes
the closed form with exact Python integers instead; tests use it to
cross-check the transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .padic import LearningParams, as_coordinates, binomial_table


@dataclass(frozen=True, eq=False)
class ResidueGrid:
    """Cube-shaped D-dimensional array of residues mod p**E.

    The same container stores value grids (extent M, indexed by grid
    points) and coefficient grids (indexed by basis multi-indices; a
    trained model keeps the window of extent L).  Entries must already be
    integers: bool and float data are rejected, not truncated.
    """

    params: LearningParams
    data: np.ndarray

    def __post_init__(self):
        data = np.ascontiguousarray(as_coordinates(self.data))
        if data.ndim != self.params.D:
            raise ValueError(f"grid has {data.ndim} axes, expected D = {self.params.D}")
        extent = data.shape[0]
        if extent < 1:
            raise ValueError("grid extent must be at least 1")
        if any(side != extent for side in data.shape):
            raise ValueError(f"grid must be a cube, got shape {data.shape}")
        if int(data.min()) < 0 or int(data.max()) >= self.params.modulus:
            raise ValueError(f"grid entries must lie in [0, {self.params.modulus})")
        object.__setattr__(self, "data", data)

    @property
    def extent(self) -> int:
        return self.data.shape[0]


def _contract(data: np.ndarray, mats, mod: int) -> np.ndarray:
    """Contract axis d of data with mats[d] (out x in), reducing mod `mod`.

    Each round contracts the leading axis and appends the result axis, so
    after all D rounds the axes are back in order.  The exactness bound
    next to the caps in padic.py keeps every int64 sum below 2**52.
    """
    acc = data
    for mat in mats:
        acc = np.tensordot(acc, mat, axes=([0], [1]))
        acc %= mod
    return acc


def mahler_transform(grid: ResidueGrid) -> ResidueGrid:
    """Transform a value grid into its coefficient grid.

    Every axis is contracted with the inverse binomial matrix
    (-1)**(i - j) * C(i, j) mod p**E; afterwards entry l holds the
    coefficient of prod_d C(x_d, l_d).  The input grid is left untouched.
    """
    params = grid.params
    mod = params.modulus
    n = grid.extent
    idx = np.arange(n)
    sign = 1 - 2 * (np.add.outer(idx, idx) % 2)
    inverse = (sign * binomial_table(params.p, params.E, n - 1, n - 1)) % mod
    return ResidueGrid(params, _contract(grid.data, [inverse] * params.D, mod))


def mahler_coeffs_1d(values, params: LearningParams) -> np.ndarray:
    """Closed-form 1-d coefficients via the alternating binomial sum.

    Exact integer arithmetic throughout, reduced mod p**E only at the
    end; the route shares nothing with mahler_transform or the Pascal
    table, which is what makes it a useful oracle.
    """
    vals = [int(v) for v in np.atleast_1d(np.asarray(values)).tolist()]
    if not vals:
        raise ValueError("need at least one value")
    mod = params.modulus
    out = np.empty(len(vals), dtype=np.int64)
    for i in range(len(vals)):
        acc = 0
        for j in range(i + 1):
            term = math.comb(i, j) * vals[j]
            acc += -term if (i - j) % 2 else term
        out[i] = acc % mod
    return out


def _check_axes(coeffs: ResidueGrid, axes, table: np.ndarray):
    params = coeffs.params
    nmax, kmax = table.shape[0] - 1, table.shape[1] - 1
    if kmax < coeffs.extent - 1:
        raise ValueError(f"binomial table covers k <= {kmax}, need k <= {coeffs.extent - 1}")
    if len(axes) != params.D:
        raise ValueError(f"got {len(axes)} axes, expected D = {params.D}")
    checked = []
    for a in axes:
        arr = as_coordinates(a).reshape(-1)
        if arr.size and (arr.min() < 0 or arr.max() > nmax):
            raise ValueError(f"axis values must lie in [0, {nmax}]")
        checked.append(arr)
    return checked


def evaluate_on_grid(coeffs: ResidueGrid, axes, table: np.ndarray) -> np.ndarray:
    """Truncated-series values over a product grid of query coordinates.

    axes is a D-sequence of 1-d integer arrays; the result has shape
    (len(axes[0]), ..., len(axes[D-1])).  One tensor contraction per axis
    replaces the per-point sum, which is what makes exhaustive plane
    sweeps affordable.
    """
    axes = _check_axes(coeffs, axes, table)
    rows = (table[a, : coeffs.extent] for a in axes)
    return _contract(coeffs.data, rows, coeffs.params.modulus)


def write_coefficient_rows(fh, data: np.ndarray):
    """One decimal line per entry, row-major: `l_0 ... l_{D-1} value`."""
    idx = np.indices(data.shape).reshape(data.ndim, -1)
    cols = np.vstack([idx, data.reshape(1, -1)]).T
    np.savetxt(fh, cols, fmt="%d")


def read_coefficient_rows(fh, D: int, extent: int, modulus: int) -> np.ndarray:
    """Parse the row block written by write_coefficient_rows."""
    rows = np.loadtxt(fh, dtype=np.int64, ndmin=2)
    expected = extent**D
    if rows.shape != (expected, D + 1):
        raise ValueError(
            f"expected {expected} rows of {D + 1} integers, got shape {rows.shape}"
        )
    want_idx = np.indices((extent,) * D).reshape(D, -1).T
    if not np.array_equal(rows[:, :D], want_idx):
        raise ValueError("coefficient rows are not in row-major multi-index order")
    values = rows[:, D]
    if values.min() < 0 or values.max() >= modulus:
        raise ValueError(f"coefficient values must lie in [0, {modulus})")
    return values.reshape((extent,) * D)


def dump_coefficients(coeffs: ResidueGrid, path):
    """Write a coefficient grid: header `p E D extent`, then the rows."""
    params = coeffs.params
    with open(path, "w") as fh:
        fh.write(f"{params.p} {params.E} {params.D} {coeffs.extent}\n")
        write_coefficient_rows(fh, coeffs.data)
