"""Prime-power modular arithmetic, digit interleaving, and binomial tables.

Every downstream stage works with residues modulo p**E for a prime p and
a precision exponent E.  A point is a D-vector of natural numbers; its
interleaved base-p digit string (one digit round after another, coordinate
major inside each round) is the key under which the trie and the
ultrametric geometry see it.
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
MAX_TABLE_CELLS = 1 << 26  # entries of one binomial table

# The exact contractions in mahler (the transform, grid and point
# evaluation) sum at most MAX_AXIS_EXTENT products of two residues in int64
# before reducing mod p**E.  Such a sum stays below 2**52, so none of them
# can overflow.
assert MAX_AXIS_EXTENT * (MAX_MODULUS - 1) ** 2 < 2**63

# value-grid fill, point evaluation and task-2 plane sweeps work through
# scratch arrays of at most this many int64 cells
CHUNK_CELLS = 1 << 22


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
        if self.modulus * self.M > MAX_TABLE_CELLS:
            raise ValueError(f"p**E * M exceeds the supported table size {MAX_TABLE_CELLS}")

    @property
    def modulus(self) -> int:
        return self.p**self.E

    @property
    def digit_count(self) -> int:
        """Length of one interleaved digit string."""
        return self.E * self.D


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


def expand(params: LearningParams, point) -> np.ndarray:
    """Interleaved base-p digit string of one D-vector: one row of expand_batch."""
    return expand_batch(params, [point])[0]


def expand_batch(params: LearningParams, points) -> np.ndarray:
    """Interleaved base-p digit strings of an (n, D) array of points.

    Row i, column e*D + d holds the (e+1)-th base-p digit of coordinate d
    of point i, so each string cycles through all coordinates once per
    digit round.  Coordinates at or above p**E silently lose their high
    digits.  The result is in the smallest unsigned dtype that holds a
    digit, which keeps full-grid digit tables cheap.
    """
    pts = as_points(points, params.D)
    dig_dtype = np.min_scalar_type(params.p - 1)
    out = np.empty((pts.shape[0], params.digit_count), dtype=dig_dtype)
    work = pts.copy()
    for e in range(params.E):
        out[:, e * params.D : (e + 1) * params.D] = work % params.p
        work //= params.p
    return out


def binomial_table(p: int, E: int, nmax: int, kmax: int) -> np.ndarray:
    """The int64 table t[n, k] = C(n, k) mod p**E for all n <= nmax, k <= kmax.

    Its rows satisfy the Pascal recurrence mod p**E and vanish for k > n.
    """
    _check_modulus(p, E)
    if nmax < 0 or kmax < 0:
        raise ValueError(f"table bounds must be non-negative, got {nmax}, {kmax}")
    mod = p**E
    if (nmax + 1) * (kmax + 1) > MAX_TABLE_CELLS:
        raise ValueError(
            f"table of {(nmax + 1) * (kmax + 1)} entries exceeds the "
            f"supported size {MAX_TABLE_CELLS}"
        )
    data = np.zeros((nmax + 1, kmax + 1), dtype=np.int64)
    data[:, 0] = 1
    for n in range(1, nmax + 1):
        # zero entries beyond the diagonal stay zero under the recurrence
        data[n, 1:] = (data[n - 1, 1:] + data[n - 1, :-1]) % mod
    return data
