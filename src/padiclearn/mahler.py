"""Mahler transform mod p**E and truncated-series evaluation.

Both directions are one per-axis contraction of a grid with a matrix mod
p**E.  A value grid over [0, n)**D becomes the coefficient grid of the
product binomial basis prod_d C(x_d, l_d) by contracting every axis with
the inverse binomial matrix of the 1-d closed form

    c_i = sum_{j <= i} (-1)**(i - j) * C(i, j) * f(j)   (mod p**E),

and a coefficient grid is evaluated by contracting every axis with the
binomial-table rows of the query coordinates.  This module is the only
place that gathers table rows, multiplies and reduces mod p**E.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .padic import CHUNK_CELLS, LearningParams, as_coordinates, as_points, binomial_table


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


def _table_rows(coeffs: ResidueGrid, table: np.ndarray) -> int:
    """Row count of table, once its columns are known to cover coeffs."""
    kmax = table.shape[1] - 1
    if kmax < coeffs.extent - 1:
        raise ValueError(f"binomial table covers k <= {kmax}, need k <= {coeffs.extent - 1}")
    return table.shape[0]


def evaluate_on_grid(coeffs: ResidueGrid, axes, table: np.ndarray) -> np.ndarray:
    """Truncated-series values over a product grid of query coordinates.

    axes is a D-sequence of 1-d integer arrays; the result has shape
    (len(axes[0]), ..., len(axes[D-1])).  One tensor contraction per axis
    replaces the per-point sum, which is what makes exhaustive plane
    sweeps affordable.
    """
    bound = _table_rows(coeffs, table)
    if len(axes) != coeffs.params.D:
        raise ValueError(f"got {len(axes)} axes, expected D = {coeffs.params.D}")
    rows = []
    for a in axes:
        arr = as_coordinates(a)
        if arr.ndim != 1:
            raise ValueError(f"each axis must be a 1-d array, got shape {arr.shape}")
        if arr.size and (arr.min() < 0 or arr.max() >= bound):
            raise ValueError(f"axis values must lie in [0, {bound})")
        rows.append(table[arr, : coeffs.extent])
    return _contract(coeffs.data, rows, coeffs.params.modulus)


def evaluate_at_points(coeffs: ResidueGrid, points, table: np.ndarray) -> np.ndarray:
    """Truncated-series values at an (n, D) array of points.

    Points are grouped by their first coordinate; each group shares
    one partial contraction of the coefficient grid, so the per-point
    work drops from L**D to L**(D-1).  Groups are contracted in blocks,
    and a long group in runs, that keep every scratch array within
    CHUNK_CELLS.
    """
    pts = as_points(points, coeffs.params.D, bound=_table_rows(coeffs, table))
    if pts.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    mod = coeffs.params.modulus
    ext = coeffs.extent
    D = coeffs.params.D
    flat = coeffs.data.reshape(ext, -1)
    B = table
    order = np.argsort(pts[:, 0], kind="stable")
    spts = pts[order]
    uniq, starts = np.unique(spts[:, 0], return_index=True)
    run_bounds = np.append(starts, spts.shape[0])
    out = np.empty(pts.shape[0], dtype=np.int64)
    block = max(1, CHUNK_CELLS // ext ** (D - 1))
    # a run's per-point array holds ext**(D-2) cells per point
    run = max(1, CHUNK_CELLS // ext ** max(0, D - 2))
    # one scratch block for every group's partial contraction
    partials = np.empty((min(block, uniq.size), flat.shape[1]), dtype=np.int64)
    for b0 in range(0, uniq.size, block):
        vs = uniq[b0 : b0 + block]
        partial = np.matmul(B[vs, :ext], flat, out=partials[: vs.size])
        partial %= mod
        for i in range(vs.size):
            beg, end = run_bounds[b0 + i], run_bounds[b0 + i + 1]
            if D == 1:
                out[order[beg:end]] = partial[i, 0]
                continue
            for lo in range(beg, end, run):
                hi = min(lo + run, end)
                seg = spts[lo:hi]
                acc = B[seg[:, 1], :ext] @ partial[i].reshape(ext, -1)
                acc %= mod
                for d in range(2, D):
                    acc = acc.reshape(seg.shape[0], ext, -1)
                    acc = np.einsum("gl,glr->gr", B[seg[:, d], :ext], acc)
                    acc %= mod
                out[order[lo:hi]] = acc.reshape(-1)
    return out


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
