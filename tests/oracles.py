"""Exact reference computations that share no code with padiclearn."""

import itertools
import lzma
import math

import numpy as np


def series_value(coeffs: np.ndarray, point, modulus: int) -> int:
    """sum_l c_l * prod_d C(x_d, l_d) over a coefficient array, in Python ints."""
    total = 0
    for index, c in np.ndenumerate(coeffs):
        term = int(c)
        for x, l in zip(point, index):
            term *= math.comb(int(x), l)
        total += term
    return total % modulus


def valuation(x: int, p: int, cap: int) -> int:
    """Largest v <= cap such that p**v divides x; x == 0 maps to cap.

    The cap encodes infinite valuation: at working precision E an integer
    divisible by p**E is indistinguishable from 0, so callers pass cap=E
    and read the cap back as "exact hit".
    """
    if cap < 0:
        raise ValueError(f"cap must be non-negative, got {cap}")
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    x = abs(int(x))
    if x == 0:
        return cap
    v = 0
    while v < cap and x % p == 0:
        x //= p
        v += 1
    return v


def mahler_coeffs_1d(values, params) -> np.ndarray:
    """Closed-form 1-d coefficients via the alternating binomial sum.

    Exact integer arithmetic throughout, reduced mod params.modulus only
    at the end; the route shares nothing with mahler_transform or the
    binomial table, which is what makes it a useful oracle.
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


def pascal_table(modulus: int, nmax: int, kmax: int) -> np.ndarray:
    """t[n, k] = C(n, k) mod modulus by the Pascal row recurrence, one row at a time.

    The row-major int64 loop shares no code with the column prefix sums of
    padic.binomial_table, which is what makes it the table's oracle.
    """
    data = np.zeros((nmax + 1, kmax + 1), dtype=np.int64)
    data[:, 0] = 1
    for n in range(1, nmax + 1):
        # zero entries beyond the diagonal stay zero under the recurrence
        data[n, 1:] = (data[n - 1, 1:] + data[n - 1, :-1]) % modulus
    return data


def value_window(coeffs, modulus: int) -> np.ndarray:
    """A coefficient window's values sum_l c_l * prod_d C(x_d, l_d) mod modulus at its cells.

    Every axis in turn is contracted with the pascal_table matrix C(x, l) for
    x, l below the window's extent, in int64 and reduced after each axis.
    """
    out = np.asarray(coeffs).astype(np.int64)
    n = out.shape[0]
    table = pascal_table(modulus, n - 1, n - 1)
    for axis in range(out.ndim):
        out = np.moveaxis(np.tensordot(table, out, axes=([1], [axis])) % modulus, 0, axis)
    return out


def residue_class_count(points, p: int, E: int) -> int:
    """1 + the number of distinct classes of the points mod p**k, summed over k = 1..E.

    Each class is a tuple of Python-int remainders, sharing nothing with the
    tree's numpy cubes.
    """
    classes = 0
    for k in range(1, E + 1):
        classes += len({tuple(int(c) % p**k for c in point) for point in points})
    return 1 + classes


def raw_lzma2(data: bytes) -> bytes:
    """One raw LZMA2 stream of data at liblzma's defaults, not the model's filter.

    Its 4 KiB dictionary is the smallest a model's decoder uses, so a model
    body made of it decodes whatever its window size.
    """
    filters = [{"id": lzma.FILTER_LZMA2, "dict_size": 4 << 10}]
    return lzma.compress(data, format=lzma.FORMAT_RAW, filters=filters)


def digit_order(p: int, D: int, L: int) -> np.ndarray:
    """Row-major indices of the [0, L)**D cells in base-p digit-interleaved order.

    The argsort of each cell's key: the digits of its coordinates from the
    highest (p**n >= L) down, one round of one digit per coordinate in axis
    order, read with Python integer division and sorted by Python's sort.
    """
    n = 1
    while p**n < L:
        n += 1
    keys = []
    for cell in itertools.product(range(L), repeat=D):
        digits = [[(c // p**e) % p for c in cell] for e in reversed(range(n))]
        keys.append(sum(digits, []))
    return np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=np.int64)


def digit_planes(p: int, E: int, values) -> bytes:
    """The E base-p digit planes of values, in a model body's layout.

    Plane E - 1, the high digit's, comes first and plane 0 last; each holds that
    digit of every value in the given order, read with Python divmod.  Below
    p = 257 a byte packs the most digits k with p**k <= 256, high first, and the
    last byte is zero-padded; past 256 each digit is one little-endian value of
    the smallest unsigned width that holds p - 1.
    """
    digits = []
    for v in values:
        v, row = int(v), []
        for _ in range(E):
            v, d = divmod(v, p)
            row.append(d)
        if v:
            raise ValueError(f"value has more than {E} base-{p} digits")
        digits.append(row)
    out = bytearray()
    if p > 256:
        width = 2 if (p - 1).bit_length() <= 16 else 4
        for j in reversed(range(E)):
            for row in digits:
                out += row[j].to_bytes(width, "little")
        return bytes(out)
    k = 1
    while p ** (k + 1) <= 256:
        k += 1
    for j in reversed(range(E)):
        plane = [row[j] for row in digits]
        plane += [0] * (-len(plane) % k)
        for i in range(0, len(plane), k):
            byte = 0
            for d in plane[i : i + k]:
                byte = byte * p + d
            out.append(byte)
    return bytes(out)


def lowered(p: int, E: int, M: int, values) -> list[int]:
    """Values with their c low base-p digits lowered by one mod p**c, as a model body holds them.

    c is the least count with p**c >= M, at most E, found by counting up; each
    value's part below p**c becomes (part - 1) mod p**c and its part above stays,
    in Python integers with divmod.
    """
    c = 0
    while c < E and p**c < M:
        c += 1
    out = []
    for v in values:
        high, low = divmod(int(v), p**c)
        out.append(high * p**c + (low - 1) % p**c)
    return out


def sample_distance(samples, points, p: int, E: int) -> np.ndarray:
    """d(x) = max over samples s of min_d v_p(x_d - s_d), capped at E, for each point x.

    All pairs by brute force: for each point, the largest k <= E such that some
    sample has every coordinate difference divisible by p**k, found by raising k
    one step at a time over the whole sample array.  It shares nothing with the
    trie's digit tables or the model.
    """
    samples = np.asarray(samples, dtype=np.int64)
    out = np.zeros(len(points), dtype=np.int64)
    for i, x in enumerate(np.asarray(points, dtype=np.int64)):
        diff = x - samples
        while out[i] < E and (diff % p ** (out[i] + 1) == 0).all(axis=1).any():
            out[i] += 1
    return out
