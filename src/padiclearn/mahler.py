"""Mahler transform mod p**E and truncated-series evaluation.

Both directions contract every axis of a grid with a matrix mod p**E.  A value
grid over [0, n)**D becomes the coefficient grid of the product binomial basis
prod_d C(x_d, l_d) by the inverse binomial matrix of the 1-d closed form

    c_i = sum_{j <= i} (-1)**(i - j) * C(i, j) * f(j)   (mod p**E),

and a coefficient grid is evaluated by the binomial rows C(x, l) mod p**E of
the query coordinates, made by BinomialTable.rows.  One kernel, _contract_axis,
contracts an axis by exact float64 GEMMs: in place for the fit's, the save's and
the load's transforms, whose matrices are lower-triangular, and out of place for
the grid evaluator's rounds and the point evaluator's first-coordinate partials,
in padic.KERNEL_CELLS cells, or 256 per row of a longer axis, for the evaluators.
Residues are summed mod p**E only in _mulmod, whose operands are float64
everywhere, and in the point evaluator's split along axis 0, which adds one
product per term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import padic
from .padic import BinomialTable, LearningParams, as_coordinates, as_points, binomial_table

_BITS_2_52 = 0x4330000000000000  # the int64 view of 2.0**52


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

    a and b are float64: one dgemm, whose sums turn into int64 in place.  Residue
    operands and a contracted extent of at most MAX_AXIS_EXTENT keep every sum
    below 2**52, by the bound asserted next to the caps in padic.py, so exact.
    """
    out = np.matmul(a, b)
    # below 2**52, x + 2**52 holds x in its mantissa under the bits of 2.0**52
    out += 2.0**52
    out = out.view(np.int64)
    out -= _BITS_2_52
    padic.reduce_residues(out, mod)
    return out


def _block_matrix(table: BinomialTable, x: np.ndarray, width: int, inverse: bool = False):
    """C(x_i, j) mod p**E for j < width, or (-1)**(x_i - j) * C(x_i, j), as float64."""
    mat = table.rows(x, width)
    if inverse:
        mod = table.p**table.E
        np.subtract(mod, mat, out=mat, where=np.not_equal.outer(x % 2, np.arange(width) % 2))
        padic.reduce_residues(mat, mod)  # mod - 0 back to 0
    return mat.astype(np.float64)


def _contract_axis(src: np.ndarray, dst: np.ndarray, rows, cells: int, mod: int):
    """dst[a, i, b] = sum_j m[i, j] * src[a, j, b] mod `mod`, for (A, k, B) src and (A, n, B) dst.

    rows(i0, i1) gives rows i0..i1-1 of the n x k matrix m as float64, over the w
    columns they read.  Blocks of output rows go from the last row down, and the
    columns (a, b) in slabs: a float64 copy of the w source rows, one _mulmod,
    stored into dst; a lower-triangular m (w = i1, rows not yet overwritten) thus
    contracts in place, dst the view src.  Within `cells` cells, but at least a
    row and a column: a block of at most min(n, k) rows takes a quarter (its
    matrix peaks at two cells an entry), a slab's copy and product the rest.
    """
    (A, k, B), n = src.shape, dst.shape[1]
    step = max(1, min(n, k, cells // (4 * k)))
    for i1 in range(n, 0, -step):
        i0 = max(0, i1 - step)
        mat = rows(i0, i1)
        w = mat.shape[1]
        cols = max(1, (cells - mat.size) // (w + len(mat)))
        na, nb = max(1, cols // B), min(B, cols)
        for a0 in range(0, A, na):
            for b0 in range(0, B, nb):
                part = src[a0 : a0 + na, :w, b0 : b0 + nb].transpose(1, 0, 2)
                # one statement: the slab's copy and product go before the next slab's
                dst[a0 : a0 + na, i0:i1, b0 : b0 + nb] = _mulmod(
                    mat, part.astype(np.float64, order="C").reshape(w, -1), mod
                ).reshape(len(mat), *part.shape[1:]).transpose(1, 0, 2)
        del mat  # before the next block's is built


def transform_window(window: np.ndarray, table: BinomialTable, inverse: bool):
    """Contract every axis of a C-contiguous cube of residues mod p**E in place.

    The lower-triangular matrix C(i, j) mod p**E takes a coefficient window to its
    values f(x), its inverse (-1)**(i - j) * C(i, j) values to coefficients; table
    gives their rows, mod the window's p**E, and needs only the window's ext rows,
    as binomial_table(p, E, ext - 1, ext - 1) builds them.  The kernel's scratch
    stays within CHUNK_CELLS cells and, above a floor of 2**16, the window's bytes,
    so a window of side at most 128 takes an axis in one block.
    """
    ext, D = window.shape[0], window.ndim
    if not window.flags.c_contiguous:
        raise ValueError("the window must be C-contiguous to be transformed in place")
    if table.shape[0] < ext:
        raise ValueError(f"a window of side {ext} needs a table of {ext} rows,"
                         f" got {table.shape[0]}")
    cells = min(padic.CHUNK_CELLS, max(1 << 16, window.nbytes // 8))
    rows = lambda i0, i1: _block_matrix(table, np.arange(i0, i1), i1, inverse)
    for d in range(D):
        view = window.reshape(ext**d, ext, -1)  # axis d in the middle
        _contract_axis(view, view, rows, cells, table.p**table.E)


def mahler_transform(grid: ResidueGrid) -> ResidueGrid:
    """Transform a value grid into its coefficient grid.

    transform_window takes an int64 copy of the grid in place, by the table of its
    extent's rows; entry l then holds the coefficient of prod_d C(x_d, l_d).  The
    input grid is left untouched.
    """
    P, ext, out = grid.params, grid.extent, grid.data.copy()
    transform_window(out, binomial_table(P.p, P.E, ext - 1, ext - 1), inverse=True)
    return ResidueGrid(P, out)


def evaluate_on_grid(coeffs: ResidueGrid, axes, table: BinomialTable) -> np.ndarray:
    """Truncated-series values over a product grid of query coordinates.

    axes is a D-sequence of 1-d integer arrays; the result has shape (len(axes[0]),
    ..., len(axes[D-1])).  Round d contracts axis d with the rows C(x, l) of axes[d]
    by _contract_axis into params.residue_dtype; the rounds below a slab axis s,
    which chunk_ranges picks, run into a head, the rest per leading index of the
    head and per slab along s, the last into the output.  The head's rounds leave
    the columns of its trailing ext**(D - s) block apart, so it is built a slab of
    columns at a time, the contracted axis leading each round's array in memory.
    """
    params, ext, D, bound = coeffs.params, coeffs.extent, coeffs.params.D, table.shape[0]
    if len(axes) != D:
        raise ValueError(f"got {len(axes)} axes, expected D = {D}")
    xs = [as_coordinates(a) for a in axes]
    for x in xs:
        if x.ndim != 1:
            raise ValueError(f"each axis must be a 1-d array, got shape {x.shape}")
        if x.size and (x.min() < 0 or x.max() >= bound):
            raise ValueError(f"axis values must lie in [0, {bound})")
    sides = [len(x) for x in xs]
    out = np.empty(sides, dtype=params.residue_dtype)
    if out.size == 0:
        return out
    scratch = padic.CHUNK_CELLS // 2  # the kernel's; the plan has the rest
    kernel = min(scratch, max(padic.KERNEL_CELLS, 256 * ext))  # what it uses of its half

    def contract(src, x, dst=None):
        dst = np.empty((len(src), len(x), src.shape[2]), out.dtype) if dst is None else dst
        rows = lambda i0, i1: _block_matrix(table, x[i0:i1], ext)
        _contract_axis(src, dst.reshape(len(src), len(x), -1), rows, kernel, params.modulus)
        return dst

    # cells after each round but the last, which the kernel stores into the output:
    # at slab axis s the head, round s - 1, stays for the sweep, and each index of s
    # per leading index carries its share of the later rounds
    cells = [0] + [ext ** (D - 1 - d) * math.prod(sides[: d + 1]) for d in range(D - 1)]
    share = [max(1, sum(cells[s + 1 :]) // math.prod(sides[: s + 1])) for s in range(D)]
    # per head column, round d < s - 1 holds its input and its output beside the head
    mid = [[c // ext ** (D - s) for c in cells[1:s]] for s in range(D)]
    build = [max(a + b for a, b in zip([0, *m], [*m, 0])) for m in mid]
    held = [scratch + c for c in cells]
    s, slabs = padic.chunk_ranges([*zip(held, sides, map(max, share, build))], "grid slab")
    head = coeffs.data.reshape(1, -1)
    if s:
        head = np.empty((math.prod(sides[:s]), ext ** (D - s)), out.dtype)
        step = (padic.CHUNK_CELLS - held[s]) // max(1, build[s])
        for c0 in range(0, head.shape[1], step):
            acc = coeffs.data.reshape(ext**s, -1)[:, c0 : c0 + step]
            last = head.reshape(-1, sides[s - 1], head.shape[1])[:, :, c0 : c0 + step]
            for d in range(s):
                src = acc.reshape(ext, -1, acc.shape[-1]).transpose(1, 0, 2)
                acc = contract(src, xs[d], last if d == s - 1 else None)
    out3 = out.reshape(len(head), sides[s], -1)  # each [p, lo:hi] is contiguous
    for lo, hi in slabs:
        for p, acc in enumerate(head):
            for d in range(s, D):
                acc = contract(acc.reshape(-1, ext, ext ** (D - 1 - d)),
                               xs[d][lo:hi] if d == s else xs[d],
                               out3[p, lo:hi] if d == D - 1 else None)
    return out


def evaluate_at_points(coeffs: ResidueGrid, points, table: BinomialTable) -> np.ndarray:
    """Truncated-series values at an (n, D) array of points.

    Points are grouped by their first coordinate; each group shares one float64
    partial, _contract_axis on axis 0, so the per-point work drops from L**D to
    L**(D-1).  Groups go in blocks and points in runs, in the half of CHUNK_CELLS
    that the kernel leaves.  At D <= 2 a run spans its block's groups, each point
    with its own partial row; at D >= 3 a run stays in one group and shares its
    partial.  Each further axis is one float64 round, back to float64 in place.
    Where one group's partial and one point's run do not fit beside the kernel, at
    D >= 3, the series is split along axis 0 as

        F(x) = sum_l C(x_0, l) * F_l(x_1, ..., x_{D-1}),

    whose series F_l, of coefficients coeffs[l], have partials ext times smaller.
    """
    pts = as_points(points, coeffs.params.D, bound=table.shape[0])
    return _series_at(coeffs.data, pts, table, coeffs.params.modulus, coeffs.params.residue_dtype)


def _series_at(data: np.ndarray, pts: np.ndarray, table: BinomialTable, mod: int, dtype):
    """The series of the C-contiguous cube `data` at pts, in dtype, as evaluate_at_points."""
    ext, D = data.shape[0], data.ndim
    src = data.reshape(1, ext, -1)
    scratch = padic.CHUNK_CELLS // 2  # the kernel's, as in evaluate_on_grid
    kernel = min(scratch, max(padic.KERNEL_CELLS, 256 * ext))
    # per point, a run holds two cells per row entry, an index and two successive
    # partials; per group, a block holds one partial and ext cells, beside the
    # kernel's half and a run of one point
    per_point = 2 * ext + 1 + ext ** max(1, D - 2) + ext ** max(0, D - 3)
    block = (padic.CHUNK_CELLS - scratch - per_point) // (ext + src.shape[2])
    if block < 1 and D > 2:
        acc = np.zeros(len(pts), np.int64)
        for l in range(ext):
            part = _series_at(data[l], pts[:, 1:], table, mod, np.int64)
            part *= table.rows(pts[:, 0], l + 1, first=l)[:, 0]  # two residues, below 2**40
            acc += part
            padic.reduce_residues(acc, mod)
        return acc.astype(dtype, copy=False)
    order = np.argsort(pts[:, 0], kind="stable")
    spts = pts[order]
    uniq, starts = np.unique(spts[:, 0], return_index=True)
    run_bounds = np.append(starts, spts.shape[0])
    out = np.empty(pts.shape[0], dtype=dtype)
    block = max(1, block)  # at D <= 2 a partial holds at most MAX_AXIS_EXTENT cells
    # a run takes what a block's partials leave of the other half
    run = max(1, (padic.CHUNK_CELLS - scratch - min(block, uniq.size) * src.shape[2]) // per_point)
    for b0 in range(0, uniq.size, block):
        vs = uniq[b0 : b0 + block]
        partial = np.empty((vs.size, src.shape[2]))  # float64, the per-point rounds' operand
        rows = lambda i0, i1: _block_matrix(table, vs[i0:i1], ext)
        _contract_axis(src, partial[None], rows, kernel, mod)
        bounds = run_bounds[b0 : b0 + vs.size + 1]
        spans = [(bounds[0], bounds[-1])] if D <= 2 else zip(bounds[:-1], bounds[1:])
        for beg, end in spans:
            for lo in range(beg, end, run):
                seg = spts[lo : min(lo + run, end)]
                grp = np.searchsorted(vs, seg[:, 0])
                acc = partial[grp] if D <= 2 else partial[grp[0] : grp[0] + 1]
                for d in range(1, D):
                    acc = acc.reshape(len(acc), ext, -1)
                    acc = _mulmod(_block_matrix(table, seg[:, d], ext)[:, None], acc, mod)
                    if d < D - 1:  # back to float64 in place, by _mulmod's offset reversed
                        acc += _BITS_2_52
                        acc = acc.view(np.float64)
                        acc -= 2.0**52
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
