"""Prime-power parameters, their caps, the point input gate, and binomial tables.

Every downstream stage works with residues modulo p**E for a prime p and
a precision exponent E.  A point is a D-vector of natural numbers.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

# Capacity limits, enforced when parameters are constructed.  They keep
# every product and dot-product accumulation exactly representable in
# int64 and bound grid/table memory to a few hundred MB.
MAX_MODULUS = 1 << 20  # p**E, and the rows of one binomial table
MAX_AXIS_EXTENT = 1 << 12  # per-axis grid bound M
MAX_GRID_CELLS = 1 << 24  # M**D
MAX_DIMENSION = 32  # D; numpy before 2.0 holds at most 32 axes per array
# cells of one trie's (nodes + 1) x p child table, 512 MiB at int64
MAX_TABLE_CELLS = 1 << 26

# mahler._mulmod, where every sum is formed, adds at most MAX_AXIS_EXTENT
# products of two residues before reducing mod p**E, and such a sum stays below
# 2**52: exact in the point evaluator's int64 per-point rounds, and in the float64
# GEMMs of mahler._contract_axis (the transforms, the grid rounds and the point
# partials) too, as every partial sum, in whatever order BLAS adds, is an integer
# below 2**53.  A binomial table's row kernel multiplies three residues before it
# reduces; its int32 U and Uinv hold residues and factors t below MAX_MODULUS.  Its
# uint8 V holds v_p(t!) mod 256: for l <= x, V[x] - V[x - l] - V[l] is v_p(C(x, l)),
# by Kummer the carries when l and x - l are added in base p, at most the number of
# base-p digits of x < MAX_MODULUS, so the difference mod 256 is exact.
assert MAX_AXIS_EXTENT * (MAX_MODULUS - 1) ** 2 < 2**52
assert (MAX_MODULUS - 1) ** 3 < 2**63
assert MAX_MODULUS < 2**31 and (MAX_MODULUS - 1).bit_length() < 2**8
# learner._digit_slabs forms body positions, integers below L**D <= MAX_GRID_CELLS,
# in float64, which is exact for every integer below 2**53.
assert MAX_GRID_CELLS < 2**53

# point blocks and runs, grid slabs, the contraction kernel's float64 scratch and
# the task-2 and task-4 sweeps keep scratch within this many 8-byte cells, 8 MiB
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

    @property
    def modulus(self) -> int:
        return self.p**self.E

    @property
    def residue_dtype(self) -> np.dtype:
        """The smallest unsigned little-endian dtype that holds p**E - 1."""
        return np.min_scalar_type(self.modulus - 1).newbyteorder("<")


def chunk_ranges(levels, what: str) -> tuple[int, Iterator[tuple[int, int]]]:
    """The first level whose one row fits within CHUNK_CELLS, and its [lo, hi) slabs.

    A level (held, rows, row_cells) cuts rows of row_cells cells into slabs that fit
    beside `held` cells kept for the whole sweep; else ValueError names `what` and
    the cells of the smallest slab.  The slabs are yielded one at a time.
    """
    for i, (held, rows, row_cells) in enumerate(levels):
        if held + row_cells <= CHUNK_CELLS:
            step = (CHUNK_CELLS - held) // row_cells
            return i, ((lo, min(lo + step, rows)) for lo in range(0, rows, step))
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


def _prefix_products(a: np.ndarray, mod: int):
    """a[i] <- a[0] * ... * a[i] mod `mod` in place, for int32 residues a of square length.

    a (of any stride) is cut into square-root-sized blocks: a column sweep forms the
    products within every block, a scalar sweep the carry into each block, and a
    second column sweep multiplies the carries in.  Each product is one int64 column.
    """
    width = math.isqrt(len(a))
    blocks = a.reshape(width, width)  # a view, for a 1-d a
    col = np.empty(len(blocks), dtype=np.int64)
    for j in range(1, width):
        np.multiply(blocks[:, j - 1], blocks[:, j], out=col, dtype=np.int64)
        np.remainder(col, mod, out=blocks[:, j])
    carry = [1]
    for total in blocks[:-1, -1].tolist():
        carry.append(carry[-1] * total % mod)
    carries = np.array(carry, dtype=np.int64)
    for j in range(width):
        np.multiply(blocks[:, j], carries, out=col)
        np.remainder(col, mod, out=blocks[:, j])


@dataclass(frozen=True, eq=False)
class BinomialTable:
    """C(n, k) mod p**E for n < shape[0] and every k, from factorial unit parts.

    With t! = p**V[t] * u and u prime to p, U[t] = u mod p**E and Uinv[t] is its
    inverse, so (Granville, "Arithmetic properties of binomial coefficients I",
    1997)

        C(x, l) = U[x] * Uinv[x - l] * Uinv[l] * p**(V[x] - V[x - l] - V[l])  (mod p**E),

    which is 0 once the exponent reaches E.  U and Uinv are int32 and V is uint8,
    v_p(t!) mod 256: the exponent, a carry count of at most 20, is exact mod 256.
    All three run over t = -1, ..., nmax at index t + 1, 9 bytes a row.  The t = -1
    entry has Uinv = 0, so an entry with l > x, whose x - l clips to it, is 0 with
    no mask.  shape[1] = kmax + 1 describes only the dense form; rows reads any
    column.
    """

    p: int
    E: int
    shape: tuple[int, int]  # (nmax + 1, kmax + 1), the dense table this stands for
    U: np.ndarray
    Uinv: np.ndarray
    V: np.ndarray

    def rows(self, x: np.ndarray, ext: int, first: int = 0) -> np.ndarray:
        """C(x_i, l) mod p**E for first <= l < ext, as a C-ordered int64 array.

        The array has shape (len(x), ext - first); x is a 1-d int64 array in
        [0, nmax].  Beside the rows it returns, the kernel holds one scratch block
        of their size, so it peaks at two int64 cells per entry.
        """
        mod, U, Uinv, V = self.p**self.E, self.U, self.Uinv, self.V
        l = np.arange(first, ext)
        at_x, at_l = x + 1, l + 1  # index t + 1 of t = x and t = l
        out = np.subtract.outer(at_x, l)  # index of x - l, at most 0 where l > x
        # one scratch block of out's size, which a caller's next product of out's shape
        # reuses: the exponents in its first eighth, the units in its second half
        block = np.empty(out.nbytes, np.uint8)
        power = block[: out.size].reshape(out.shape)  # uint8: the exponent wraps mod 256
        units = block[out.nbytes // 2 :].view(np.int32).reshape(out.shape)
        V.take(out, out=power, mode="clip")
        np.subtract(V[at_x][:, None], power, out=power)
        power -= V.take(at_l, mode="clip")  # l > nmax only where l > x: clipping is safe
        Uinv.take(out, out=units, mode="clip")  # 0 where l > x
        np.copyto(out, power)  # the index is spent: the exponent indexes p**e, p**E to vanish
        np.take(self.p ** np.arange(self.E + 1), out, out=out, mode="clip")  # in place
        out *= units
        del block, power, units
        out *= U[at_x][:, None]  # a product of three residues, below 2**60
        reduce_residues(out, mod)
        out *= Uinv.take(at_l, mode="clip")
        reduce_residues(out, mod)
        return out


def reduce_residues(arr: np.ndarray, mod: int):
    """arr %= mod in place, for a non-negative int64 arr, through its uint64 view.

    numpy's unsigned remainder skips the sign fix-up of the signed one: 4.1
    against 11.2 ns per entry with numpy 2.4 on x86-64; a power of 2 masks its
    low bits instead, at about 0.4 ns.
    """
    view = arr.view(np.uint64)
    if mod & (mod - 1):
        np.remainder(view, mod, out=view)
    else:
        np.bitwise_and(view, mod - 1, out=view)


def binomial_table(p: int, E: int, nmax: int, kmax: int) -> BinomialTable:
    """The table t[n, k] = C(n, k) mod p**E for all n <= nmax and every k.

    All four arguments must be integers, NumPy's included, or ValueError.  It
    holds two arrays of nmax + 2 int32 entries and one of uint8, 9 bytes a row:
    9 MiB at MAX_MODULUS rows.  kmax only sets the dense form that shape names,
    and BinomialTable.rows is exact for every column.  U is a prefix product of
    the factors t with their p's divided out, V a prefix sum of the p's in uint8,
    so mod 256, and Uinv a suffix product of the same factors from the one
    modular inverse of U[nmax].
    """
    p, E, nmax, kmax = map(_check_natural, ("p", "E", "nmax", "kmax"), (p, E, nmax, kmax))
    _check_modulus(p, E)
    if nmax < 0 or kmax < 0:
        raise ValueError(f"table bounds must be non-negative, got {nmax}, {kmax}")
    if nmax >= MAX_MODULUS:
        raise ValueError(f"table of {nmax + 1} rows exceeds the supported {MAX_MODULUS}")
    mod, n = p**E, nmax + 2
    size = (math.isqrt(n - 1) + 1) ** 2  # square for _prefix_products; the pad stays 1
    U = np.ones(size, dtype=np.int32)
    U[2:n] = np.arange(1, n - 1, dtype=np.int32)  # factor t at index t + 1; t <= 0 stay 1
    V = np.zeros(size, dtype=np.uint8)
    q = p
    while q <= nmax:  # divide each factor t by p once per power of p dividing it
        U[q + 1 : n : q] //= p
        V[q + 1 : n : q] += 1
        q *= p
    np.add.accumulate(V, out=V)  # in uint8, mod 256
    Uinv = np.ones(size, dtype=np.int32)
    Uinv[1 : n - 1] = U[2:n]  # the factor of t + 1 at index t + 1, for the suffix
    _prefix_products(U, mod)
    Uinv[n - 1] = pow(int(U[n - 1]), -1, mod)
    _prefix_products(Uinv[::-1], mod)
    Uinv[0] = 0  # t = -1: every entry with l > x reads it and vanishes
    return BinomialTable(p, E, (nmax + 1, kmax + 1), U[:n], Uinv[:n], V[:n])
