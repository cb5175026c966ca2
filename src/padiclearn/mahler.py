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
    work drops from L**D to L**(D-1).  Groups are contracted in blocks
    whose partials and gathered table rows together stay within
    CHUNK_CELLS cells, and a long group in runs whose scratch arrays do.
    """
    pts = as_points(points, coeffs.params.D, bound=_table_rows(coeffs, table))
    if pts.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    mod, ext, D = coeffs.params.modulus, coeffs.extent, coeffs.params.D
    flat = coeffs.data.reshape(ext, -1)
    order = np.argsort(pts[:, 0], kind="stable")
    spts = pts[order]
    uniq, starts = np.unique(spts[:, 0], return_index=True)
    run_bounds = np.append(starts, spts.shape[0])
    out = np.empty(pts.shape[0], dtype=np.int64)
    # per group, a block holds a gathered table row and one partial
    block = max(1, CHUNK_CELLS // (ext + ext ** (D - 1)))
    # per point, a run holds a gathered table row and two successive partials
    run = max(1, CHUNK_CELLS // (ext + ext ** max(0, D - 2) + ext ** max(0, D - 3)))
    # one scratch block for every group's partial contraction
    partials = np.empty((min(block, uniq.size), flat.shape[1]), dtype=np.int64)
    for b0 in range(0, uniq.size, block):
        vs = uniq[b0 : b0 + block]
        partial = np.matmul(table[vs, :ext], flat, out=partials[: vs.size])
        partial %= mod
        for i in range(vs.size):
            beg, end = run_bounds[b0 + i], run_bounds[b0 + i + 1]
            if D == 1:
                out[order[beg:end]] = partial[i, 0]
                continue
            for lo in range(beg, end, run):
                hi = min(lo + run, end)
                seg = spts[lo:hi]
                acc = table[seg[:, 1], :ext] @ partial[i].reshape(ext, -1)
                acc %= mod
                for d in range(2, D):
                    acc = acc.reshape(seg.shape[0], ext, -1)
                    acc = np.einsum("gl,glr->gr", table[seg[:, d], :ext], acc)
                    acc %= mod
                out[order[lo:hi]] = acc.reshape(-1)
    return out


def dump_coefficients(coeffs: ResidueGrid, path):
    """Readable dump: header `p E D extent`, then `l_0 ... l_{D-1} value` rows."""
    params = coeffs.params
    idx = np.indices(coeffs.data.shape).reshape(params.D, -1)
    with open(path, "w") as fh:
        fh.write(f"{params.p} {params.E} {params.D} {coeffs.extent}\n")
        np.savetxt(fh, np.vstack([idx, coeffs.data.reshape(1, -1)]).T, fmt="%d")
