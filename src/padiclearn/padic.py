"""Prime-power parameters, their caps, the point input gate, and binomial tables.

Every downstream stage works with residues modulo p**E for a prime p and
a precision exponent E.  A point is a D-vector of natural numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Capacity limits, enforced when parameters are constructed.  They keep
# every product and dot-product accumulation exactly representable in
# int64 and bound grid/table memory to a few hundred MB.
MAX_MODULUS = 1 << 20  # p**E
MAX_AXIS_EXTENT = 1 << 12  # per-axis grid bound M
MAX_GRID_CELLS = 1 << 24  # M**D
MAX_DIMENSION = 32  # D; numpy before 2.0 holds at most 32 axes per array
# entries of one binomial table, 256 MiB at 4 bytes, and cells of one trie's
# (nodes + 1) x p child table, 512 MiB at int64
MAX_TABLE_CELLS = 1 << 26

# mahler._mulmod, where the transform and both evaluators form every sum,
# adds at most MAX_AXIS_EXTENT products of two residues in int64 before
# reducing mod p**E, and such a sum stays below 2**52.  A binomial
# table holds int32 residues and builds each column as an int64 prefix sum
# of at most MAX_TABLE_CELLS residues of the column before.
assert MAX_AXIS_EXTENT * (MAX_MODULUS - 1) ** 2 < 2**52
assert MAX_MODULUS - 1 < 2**31
assert MAX_TABLE_CELLS * (MAX_MODULUS - 1) < 2**63

# point blocks and runs, grid slabs and the task-2 and task-4 sweeps keep scratch
# within this many int64 cells, 8 MiB
CHUNK_CELLS = 1 << 20


def is_prime(n: int) -> bool:
    """Deterministic trial division; parameter bases are small by design."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _power_exceeds(base: int, exp: int, cap: int) -> bool:
    """base**exp > cap for base >= 1, without building a huge power."""
    return base > 1 and (exp >= cap.bit_length() or base**exp > cap)


def _check_modulus(p: int, E: int):
    """Reject all but prime p, E >= 1 and p**E <= MAX_MODULUS, caps first."""
    if E < 1:
        raise ValueError(f"E must be at least 1, got {E}")
    if p > MAX_MODULUS or _power_exceeds(p, E, MAX_MODULUS):
        raise ValueError(f"p**E = {p}**{E} exceeds the supported modulus {MAX_MODULUS}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def _check_natural(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class LearningParams:
    """Hyper-parameter tuple shared by the whole pipeline.

    p is the prime base, E the precision (arithmetic happens mod p**E),
    D the dimension, M the per-axis bound of the sample/interpolation
    grid, and L the per-axis coefficient cutoff.  L defaults to M, which
    means no truncation.
    """

    p: int
    E: int
    D: int
    M: int
    L: int | None = None

    def __post_init__(self):
        if self.L is None:
            object.__setattr__(self, "L", self.M)
        for name in ("p", "E", "D", "M", "L"):
            object.__setattr__(self, name, _check_natural(name, getattr(self, name)))
        _check_modulus(self.p, self.E)
        for name in ("D", "M"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not 1 <= self.L <= self.M:
            raise ValueError(f"L must satisfy 1 <= L <= M, got L={self.L} M={self.M}")
        if self.M > MAX_AXIS_EXTENT:
            raise ValueError(f"M = {self.M} exceeds the supported axis extent {MAX_AXIS_EXTENT}")
        if _power_exceeds(self.M, self.D, MAX_GRID_CELLS):
            raise ValueError(
                f"M**D = {self.M}**{self.D} exceeds the supported grid size {MAX_GRID_CELLS}"
            )
        if self.D > MAX_DIMENSION:  # reachable only at M = 1
            raise ValueError(f"D = {self.D} exceeds the supported dimension {MAX_DIMENSION}")
        if self.modulus * self.L > MAX_TABLE_CELLS:  # the model's p**E x L binomial table
            raise ValueError(f"p**E * L exceeds the supported table size {MAX_TABLE_CELLS}")

    @property
    def modulus(self) -> int:
        return self.p**self.E

    @property
    def residue_dtype(self) -> np.dtype:
        """The smallest unsigned little-endian dtype that holds p**E - 1."""
        return np.min_scalar_type(self.modulus - 1).newbyteorder("<")


def chunk_ranges(levels, what: str) -> tuple[int, list[tuple[int, int]]]:
    """The first level whose one row fits within CHUNK_CELLS, and its [lo, hi) slabs.

    A level (held, rows, row_cells) cuts rows of row_cells cells into slabs that fit
    beside `held` cells kept for the whole sweep; else ValueError names `what` and
    the cells of the smallest slab.
    """
    for i, (held, rows, row_cells) in enumerate(levels):
        if held + row_cells <= CHUNK_CELLS:
            step = (CHUNK_CELLS - held) // row_cells
            return i, [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]
    least = min(held + row_cells for held, _, row_cells in levels)
    raise ValueError(f"one {what} holds {least} cells, over {CHUNK_CELLS}")


def as_coordinates(values) -> np.ndarray:
    """values as an int64 array, rejecting anything not already integral.

    bool, float and object arrays raise instead of being truncated; an
    empty array has nothing to truncate and passes whatever its dtype.
    """
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"expected integer values, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def as_points(values, D: int, bound: int | None = None) -> np.ndarray:
    """values as an (n, D) int64 array of natural numbers below bound.

    The one gate for point input: non-integer dtypes, a wrong shape,
    negative coordinates and (when bound is given) coordinates at or
    above bound raise ValueError.
    """
    pts = as_coordinates(values)
    if pts.ndim != 2 or pts.shape[1] != D:
        raise ValueError(f"expected an (n, {D}) point array, got shape {pts.shape}")
    if pts.size and pts.min() < 0:
        raise ValueError("coordinates must be natural numbers")
    if bound is not None and pts.size and pts.max() >= bound:
        raise ValueError(f"coordinates must lie in [0, {bound})")
    return pts


def binomial_table(p: int, E: int, nmax: int, kmax: int) -> np.ndarray:
    """The table t[n, k] = C(n, k) mod p**E for all n <= nmax, k <= kmax.

    Column k is the prefix sum C(n, k) = sum_{m<n} C(m, k-1) of column k - 1.
    The columns are stored k-major as int32, and t is their transposed view.
    """
    _check_modulus(p, E)
    if nmax < 0 or kmax < 0:
        raise ValueError(f"table bounds must be non-negative, got {nmax}, {kmax}")
    mod, cells = p**E, (nmax + 1) * (kmax + 1)
    if cells > MAX_TABLE_CELLS:
        raise ValueError(f"table of {cells} entries exceeds the supported size {MAX_TABLE_CELLS}")
    data = np.zeros((kmax + 1, nmax + 1), dtype=np.int32)
    data[0] = 1
    col = np.empty(nmax, dtype=np.int64)  # the one column of int64 scratch
    for k in range(1, kmax + 1):
        col[:] = data[k - 1, :-1]
        data[k, 1:] = np.remainder(np.cumsum(col, out=col), mod, out=col)
    return data.T
