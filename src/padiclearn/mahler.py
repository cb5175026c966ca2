"""Mahler transform mod p**E and truncated-series evaluation.

Both directions are one per-axis contraction of a grid with a matrix mod
p**E.  A value grid over [0, n)**D becomes the coefficient grid of the
product binomial basis prod_d C(x_d, l_d) by contracting every axis with
the inverse binomial matrix of the 1-d closed form

    c_i = sum_{j <= i} (-1)**(i - j) * C(i, j) * f(j)   (mod p**E),

and a coefficient grid is evaluated by contracting every axis with the
binomial rows C(x, l) mod p**E of the query coordinates, made by
BinomialTable.rows from the table's factorial unit parts.  Both square
matrices are lower-triangular, so transform_window applies either one to a
whole window in place; the fit's transform and the model file's save and
load all run through it.  Residue products are summed mod p**E only in
_mulmod, in int64 for the evaluators and in float64 for the transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import padic
from .padic import BinomialTable, LearningParams, as_coordinates, as_points, binomial_table


@dataclass(frozen=True, eq=False)
class ResidueGrid:
    """Cube-shaped D-dimensional array of residues mod p**E.

    The same container stores value grids (extent L, indexed by grid
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


def _mulmod(a: np.ndarray, b: np.ndarray, mod: int) -> np.ndarray:
    """a @ b reduced mod `mod`, in a new int64 array; the one place residues multiply.

    The operands are both int64 or both float64, one dgemm whose sums turn into
    int64 in place.  Residue operands and a contracted extent of at most
    MAX_AXIS_EXTENT keep every sum below 2**52, by the bound asserted next to the
    caps in padic.py, so a float64 sum is exact too, whatever its order.
    """
    out = np.matmul(a, b)
    if out.dtype == np.float64:
        # below 2**52, x + 2**52 holds x in its mantissa under the bits of 2.0**52
        out += 2.0**52
        out = out.view(np.int64)
        out -= 0x4330000000000000
    padic.reduce_residues(out, mod)
    return out


def _contract(data: np.ndarray, mats, mod: int) -> np.ndarray:
    """Contract axis d of data with mats[d] (out x in), reducing mod `mod`.

    Each round contracts the leading axis and appends the result axis, so
    after all D rounds the axes are back in order.
    """
    acc = data
    for mat in mats:
        acc = _mulmod(acc.reshape(len(acc), -1).T, mat.T, mod).reshape(acc.shape[1:] + (len(mat),))
    return acc


def _block_matrix(table: BinomialTable, i0: int, i1: int, inverse: bool) -> np.ndarray:
    """Rows i0..i1-1 of C(i, j) mod p**E for j < i1, or of (-1)**(i - j) * C(i, j), as float64."""
    mod = table.p**table.E
    mat = table.rows(np.arange(i0, i1), i1)
    if inverse:  # negate where i - j is odd: odd columns of even rows, even of odd
        for odd in (mat[i0 % 2 :: 2, 1::2], mat[1 - i0 % 2 :: 2, 0::2]):
            np.subtract(mod, odd, out=odd)
            padic.reduce_residues(odd, mod)  # mod - 0 back to 0
    return mat.astype(np.float64)


def transform_window(window: np.ndarray, params: LearningParams, inverse: bool):
    """Contract every axis of a C-contiguous cube of residues mod p**E in place.

    The matrix is C(i, j) mod p**E, which takes a coefficient window to its
    values f(x) on the window, or with inverse its inverse (-1)**(i - j) * C(i, j),
    which takes values to coefficients.  It is lower-triangular, so an axis's
    output rows are made in blocks from the last row down, and a block reads only
    rows that are not yet overwritten.  A block's matrix rows come from
    BinomialTable.rows; the columns (every index of the other axes) go through in
    slabs, each a float64 copy of the rows the block reads, freed after one
    float64 _mulmod.  The float64 scratch stays within CHUNK_CELLS cells and,
    above a floor of 2**16 cells, within the window's own bytes, so a window of
    side at most 128 takes each axis in one block.  It holds at least one row
    and one column: the block's matrix, which peaks at two cells per entry while
    it is built, takes a quarter, and a slab's copy and product beside it the rest.
    """
    ext, D, mod = window.shape[0], window.ndim, params.modulus
    if not window.flags.c_contiguous:
        raise ValueError("the window must be C-contiguous to be transformed in place")
    budget = min(padic.CHUNK_CELLS, max(1 << 16, window.nbytes // 8))
    table = binomial_table(params.p, params.E, ext - 1, ext - 1)
    step = max(1, min(ext, budget // (4 * ext)))
    for d in range(D):
        view = window.reshape(ext**d, ext, -1)  # axis d in the middle
        A, B = view.shape[0], view.shape[2]
        for i1 in range(ext, 0, -step):
            i0 = max(0, i1 - step)
            mat = _block_matrix(table, i0, i1, inverse)
            cols = max(1, (budget - mat.size) // (i1 + len(mat)))
            na, nb = max(1, cols // B), min(B, cols)
            for a0 in range(0, A, na):
                for b0 in range(0, B, nb):
                    src = view[a0 : a0 + na, :i1, b0 : b0 + nb]
                    op = np.empty((i1, len(src), src.shape[2]))
                    op[...] = src.transpose(1, 0, 2)
                    out = _mulmod(mat, op.reshape(i1, -1), mod)
                    del op  # before the next slab's copy is made
                    out = out.reshape(len(mat), len(src), src.shape[2]).transpose(1, 0, 2)
                    view[a0 : a0 + na, i0:i1, b0 : b0 + nb] = out
                    del out
            del mat  # before the next block's is built


def mahler_transform(grid: ResidueGrid) -> ResidueGrid:
    """Transform a value grid into its coefficient grid.

    An int64 copy of the grid is contracted on every axis with the inverse
    binomial matrix (-1)**(i - j) * C(i, j) mod p**E, in place by
    transform_window; afterwards entry l holds the coefficient of
    prod_d C(x_d, l_d).  The input grid is left untouched.
    """
    out = grid.data.copy()
    transform_window(out, grid.params, inverse=True)
    return ResidueGrid(grid.params, out)


def evaluate_on_grid(coeffs: ResidueGrid, axes, table: BinomialTable) -> np.ndarray:
    """Truncated-series values over a product grid of query coordinates.

    axes is a D-sequence of 1-d integer arrays; the result has shape
    (len(axes[0]), ..., len(axes[D-1])) and dtype params.residue_dtype.  One
    tensor contraction per axis replaces the per-point sum.  The axes below
    a slab axis s are contracted once, into a head; the rest run in slabs
    along s, each copied into the output before the next; chunk_ranges picks s.
    """
    params, ext, D = coeffs.params, coeffs.extent, coeffs.params.D
    bound = table.shape[0]
    if len(axes) != D:
        raise ValueError(f"got {len(axes)} axes, expected D = {D}")
    rows = []
    for a in axes:
        arr = as_coordinates(a)
        if arr.ndim != 1:
            raise ValueError(f"each axis must be a 1-d array, got shape {arr.shape}")
        if arr.size and (arr.min() < 0 or arr.max() >= bound):
            raise ValueError(f"axis values must lie in [0, {bound})")
        rows.append(table.rows(arr, ext))
    sides = [len(r) for r in rows]
    out = np.empty(sides, dtype=params.residue_dtype)
    if out.size == 0:
        return out
    # cells after each contraction round: at slab axis s the head, round s - 1, stays
    # for the sweep and each index of axis s carries its share of the later rounds
    cells = [0] + [ext ** (D - 1 - d) * math.prod(sides[: d + 1]) for d in range(D)]
    levels = [(cells[s], sides[s], sum(cells[s + 1 :]) // sides[s]) for s in range(D)]
    s, slabs = padic.chunk_ranges(levels, "grid slab")
    head = _contract(coeffs.data, rows[:s], params.modulus)
    for lo, hi in slabs:
        mats = [rows[s][lo:hi]] + rows[s + 1 :]
        out[(slice(None),) * s + (slice(lo, hi),)] = _contract(head, mats, params.modulus)
    return out


def evaluate_at_points(coeffs: ResidueGrid, points, table: BinomialTable) -> np.ndarray:
    """Truncated-series values at an (n, D) array of points.

    Points are grouped by their first coordinate; each group shares
    one partial contraction of the coefficient grid, so the per-point
    work drops from L**D to L**(D-1).  Groups are contracted in blocks
    whose partials and binomial rows together stay within
    CHUNK_CELLS cells, and points in runs whose scratch arrays do.  At
    D <= 2 a run spans its block's groups, each point with its own partial
    row; at D >= 3 a run stays in one group and shares its partial.
    """
    pts = as_points(points, coeffs.params.D, bound=table.shape[0])
    mod, ext, D = coeffs.params.modulus, coeffs.extent, coeffs.params.D
    flat = coeffs.data.reshape(ext, -1)
    order = np.argsort(pts[:, 0], kind="stable")
    spts = pts[order]
    uniq, starts = np.unique(spts[:, 0], return_index=True)
    run_bounds = np.append(starts, spts.shape[0])
    out = np.empty(pts.shape[0], dtype=coeffs.params.residue_dtype)
    # per group, a block holds the kernel's two cells per row entry, then a row
    # and one partial; one block at a time
    block = max(1, padic.CHUNK_CELLS // (ext + max(ext, ext ** (D - 1))))
    # per point, beside a block's partials, a run holds the kernel's two cells
    # per row entry, an index and two successive partials (at D <= 2 its
    # partial row and value)
    per_point = 2 * ext + 1 + ext ** max(1, D - 2) + ext ** max(0, D - 3)
    run = max(1, (padic.CHUNK_CELLS - min(block, uniq.size) * flat.shape[1]) // per_point)
    for b0 in range(0, uniq.size, block):
        vs = uniq[b0 : b0 + block]
        partial = _mulmod(table.rows(vs, ext), flat, mod)
        bounds = run_bounds[b0 : b0 + vs.size + 1]
        spans = [(bounds[0], bounds[-1])] if D <= 2 else zip(bounds[:-1], bounds[1:])
        for beg, end in spans:
            for lo in range(beg, end, run):
                seg = spts[lo : min(lo + run, end)]
                grp = np.searchsorted(vs, seg[:, 0])
                acc = partial[grp] if D <= 2 else partial[grp[0] : grp[0] + 1]
                for d in range(1, D):
                    acc = acc.reshape(len(acc), ext, -1)
                    acc = _mulmod(table.rows(seg[:, d], ext)[:, None], acc, mod)
                out[order[lo : lo + len(seg)]] = acc.reshape(-1)
        del partial  # before the next block's partials are computed
    return out


def dump_coefficients(coeffs: ResidueGrid, path):
    """Readable dump: header `p E D extent`, then `l_0 ... l_{D-1} value` rows.

    Rows are built in slabs planned by chunk_ranges and written one at a time.
    """
    params, values = coeffs.params, coeffs.data.reshape(-1)
    # per row, its flat index and D coordinates, then the D + 1 cells of the row
    slabs = padic.chunk_ranges([(0, values.size, 2 * params.D + 2)], "dump slab")[1]
    fmt = " ".join(["%d"] * (params.D + 1)) + "\n"
    with open(path, "w") as fh:
        fh.write(f"{params.p} {params.E} {params.D} {coeffs.extent}\n")
        for lo, hi in slabs:
            idx = np.unravel_index(np.arange(lo, hi), coeffs.data.shape)
            for row in np.column_stack(idx + (values[lo:hi],)):
                fh.write(fmt % tuple(row))
