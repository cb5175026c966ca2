"""Estimate the defining function of a sampled set and predict membership.

Training fills the value window [0, L)**D with p**v at each node, v the
best valuation any sample achieves against it; the valuation E is 0 mod
p**E, so samples land on zero.  The window's Mahler transform is the
model: the inverse binomial matrix is lower-triangular, so no value
outside the window reaches it.  The truncated series at a point estimates
the defining function mod p**E; a zero residue is the membership verdict.

The model reads the sample distance exactly below kappa = floor(log_p L).  With
d(x) the largest min_d v_p(x_d - s_d) over samples s, capped at E, and a zero
residue read as valuation E, every x in [0, p**E)**D has

    v_p(F(x)) = d(x)  where d(x) < kappa,  and  v_p(F(x)) >= kappa  elsewhere.

The fill is f = 1 + sum_{k=1..E} p**(k-1) * (p-1) * g_k, with g_k the indicator
of x mod p**k in S mod p**k, so f(x) = p**d(x).  Each g_k is p**k-periodic on
every axis and (T - 1)**(p**k) = T**(p**k) - 1 = 0 mod p, so its coefficient at l
has valuation at least floor(l_d / p**k) on each axis d: a term cut at L has
valuation at least k - 1 + p**(kappa-k) >= kappa for k <= kappa, and for k > kappa
its weight p**(k-1) alone has.  So F(x) = p**d(x) mod p**kappa; the tier-1 test
test_residue_valuation_is_the_sample_distance_below_kappa checks it.
"""

from __future__ import annotations

import contextlib
import hashlib
import lzma
import os
from dataclasses import dataclass

import numpy as np

from .mahler import (
    ResidueGrid,
    evaluate_at_points,
    evaluate_on_grid,
    mahler_transform,
    transform_window,
)
from .padic import BinomialTable, LearningParams, as_points, binomial_table
from .trie import PadicTrie


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Finite, non-empty set of points inside [0, M)**D.

    Points are deduplicated and kept in lexicographic order, so a sample
    set has one canonical array form: one np.lexsort with the first
    coordinate as its primary key, then every row that differs from the
    one before it.  That is np.unique(points, axis=0), which under numpy 2
    imports numpy.ma on its first call.
    """

    params: LearningParams
    points: np.ndarray

    def __post_init__(self):
        pts = as_points(np.atleast_2d(self.points), self.params.D, bound=self.params.M)
        if pts.shape[0] == 0:
            raise ValueError("sample set must not be empty")
        pts = pts[np.lexsort(pts.T[::-1])]
        keep = np.concatenate([[True], (pts[1:] != pts[:-1]).any(axis=1)])
        object.__setattr__(self, "points", pts[keep])


# the fill's trie queries step through _FILL_CELLS // D nodes, counting only the D coordinates
# of a node.  Under tracemalloc a step peaks at about 2D + 1.4 int64 cells a node from D = 3 on
# (7.4 at D = 3: indices, unravelled and stacked coordinates) and D + 4.4 below it: the query
# adds 3.4 past the coordinates (counts, flat class index, one remainder column, three masks).
# The step stays until ROADMAP item 1a: a smaller one frees less heap, and nim_stock's
# query_peak_mb, RSS growth over heap the fit freed, rises past its bound (1 << 20 cuts
# fit_peak_mb 65.6 -> 41.8 MiB but lifts query_peak_mb 0.10 -> 0.37 MiB)
_FILL_CELLS = 1 << 22


def build_value_grid(samples: SampleSet) -> ResidueGrid:
    """Fill [0, L)**D with p**v, v the best valuation any sample achieves against each node.

    v is the number of levels of the samples' p-adic tree (`PadicTrie`) that hold
    the node's residue class mod p**k.
    """
    params = samples.params
    trie = PadicTrie(params, samples.points)
    mod = params.modulus
    # powers[E] == p**E % p**E == 0: exact hits vanish
    powers = np.array([pow(params.p, v, mod) for v in range(params.E)] + [0], dtype=np.int64)
    total = params.L**params.D
    shape = (params.L,) * params.D
    values = np.empty(total, dtype=np.int64)
    step = max(1, _FILL_CELLS // params.D)
    for start in range(0, total, step):
        flat = np.arange(start, min(start + step, total))
        pts = np.stack(np.unravel_index(flat, shape), axis=1)
        values[flat] = powers[trie.nns_valuation_batch(pts)]
    return ResidueGrid(params, values.reshape(shape))


def learn(samples: SampleSet) -> "DefiningFunctionEstimate":
    """Train an estimate: the Mahler transform of the [0, L)**D value window.

    It equals the L**D window of the whole [0, M)**D grid's transform,
    because the inverse binomial matrix is lower-triangular.
    """
    return DefiningFunctionEstimate(samples.params, mahler_transform(build_value_grid(samples)))


@dataclass(frozen=True, eq=False)
class DefiningFunctionEstimate:
    """Trained model: the L**D coefficient window, evaluated by a table of p**E rows.

    Predictions are defined on exactly [0, p**E)**D; the series is a residue
    mod p**E and coordinates are read at precision E.  The parts must agree with
    params, or ValueError: coeffs has the same params and extent L, and a table
    passed in, the third argument, is mod the same p**E with exactly p**E rows;
    its rows are exact for every k.
    """

    params: LearningParams
    coeffs: ResidueGrid
    # C(n, k) mod p**E for n < p**E, as factorial unit parts: the table passed in, else
    # built by the first read of .table, so learn, save and load build no p**E rows
    _table: BinomialTable | None = None

    def __post_init__(self):
        P, T, C = self.params, self._table, self.coeffs
        if C.params != P or C.extent != P.L:
            raise ValueError(f"coeffs must be a window of extent L = {P.L} under {P},"
                             f" got extent {C.extent} under {C.params}")
        if T is not None and ((T.p, T.E) != (P.p, P.E) or T.shape[0] != P.modulus):
            raise ValueError(
                f"table is mod {T.p}**{T.E} for n < {T.shape[0]};"
                f" the model needs mod {P.p}**{P.E} for n < {P.modulus}"
            )

    @property
    def table(self) -> BinomialTable:
        """The p**E-row table the queries read, built on the first read if none was passed."""
        if self._table is None:
            P = self.params
            object.__setattr__(self, "_table", binomial_table(P.p, P.E, P.modulus - 1, P.L - 1))
        return self._table

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
        """Write the model file, in the format of write_coefficient_rows.

        The file is written beside path and moved over it only when complete,
        so a save that fails leaves whatever model was there.
        """
        tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                write_coefficient_rows(fh, self.params, self.coeffs.data)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
            raise

    @classmethod
    def load(cls, path) -> "DefiningFunctionEstimate":
        """Rebuild an estimate bit-exactly from its model file."""
        with open(path, "rb") as fh:
            params, window = read_coefficient_rows(fh)
        return cls(params, ResidueGrid(params, window))


# The model file.  These two stay apart from save and load because
# perfbench/tracer.py times the format by their names.

# the body checks end with this: a model saved in an earlier layout fails one of them
_EARLIER = (
    "; the file may be a model saved in an earlier layout, to be learned again from its samples"
)

# stream bytes in and window bytes out per decoder call; CPython hands back a
# full output piece of its first block size, 32 KiB, without copying it
_PIECE = 1 << 15


def _lzma2(dtype: np.dtype, size: int) -> dict:
    """The one LZMA2 filter over size bytes of dtype digit groups.

    Its literal and position bits align to a group, none for byte groups, and
    its dictionary spans the planes, between 4 KiB and 8 MiB.  Its hash-chain
    match finder tries up to 256 candidates and stops early only at a 273-byte
    match, LZMA2's longest, so a learned model's long runs of equal digits go
    out as long matches.  These three fields steer only the encoder: the
    decoder reads any LZMA2 stream with this dictionary, lc, lp and pb.
    """
    k = dtype.itemsize.bit_length() - 1
    dict_size = min(8 << 20, max(4 << 10, size))
    return dict(
        id=lzma.FILTER_LZMA2, preset=6, lc=0, lp=k, pb=k, dict_size=dict_size,
        mf=lzma.MF_HC4, depth=256, nice_len=273,
    )


def _digit_groups(params: LearningParams) -> tuple[int, np.dtype, np.ndarray, int, int]:
    """(k, dtype, place, groups, size): the one layout of the model file's digit planes.

    A plane packs k base-p digits into each dtype group, digits @ place with place =
    (p**(k-1), ..., p**0), so high digit first.  k is the most digits with p**k <= 256,
    or 1 for a prime past 256, and dtype the smallest little-endian unsigned type that
    holds p**k - 1.  A plane is groups = ceil(L**D / k) groups, whose last one's low
    groups * k - L**D digits pad it with zeros, and the E planes are size bytes.
    """
    p, k = params.p, 1
    while p ** (k + 1) <= 256:
        k += 1
    dtype, groups = np.min_scalar_type(p**k - 1).newbyteorder("<"), -(-params.L**params.D // k)
    place = p ** np.arange(k - 1, -1, -1, dtype=dtype)  # in dtype: digits @ place stays narrow
    return k, dtype, place, groups, params.E * groups * dtype.itemsize


def _stream_bound(size: int) -> int:
    """The longest LZMA2 stream the encoder writes for size bytes.

    A chunk holds at most 64 KiB behind a header of at most 6 bytes, and is
    stored raw unless compressing shrinks it; the encoder may close chunks
    short of 64 KiB, so allow two more than a full split, then the end byte.
    """
    return size + 6 * ((size >> 16) + 2) + 1


def _digest(fields: bytes, body) -> bytes:
    h = hashlib.blake2b(fields + b"\n", digest_size=16)
    h.update(body)
    return h.hexdigest().encode()


def _digit_slabs(params: LearningParams):
    """Yield (lo, hi, pos): row-major window cells lo..hi-1 sit at body positions pos.

    The body orders the L**D cells by their base-p digits interleaved across the
    axes, high digits first, by the key (digit_{n-1}(x_0), ..., digit_{n-1}(x_{D-1}),
    ..., digit_0(x_0), ..., digit_0(x_{D-1})) with p**n >= L, so each p**k-sided block
    of the window lies in one run.  A cell's position counts the cells of smaller key:
    with F_e(v) = min(L - v // p**e * p**e, p**e), the window values that share v's
    digits from e up, and A_e(v) = digit_e(v) * p**e,

        pos(x) = sum_{e<n} sum_{d<D} A_e(x_d) prod_{d'<d} F_e(x_d') prod_{d'>d} F_{e+1}(x_d').

    The axes split into leading ones and a trailing block of at most _PIECE // 8
    cells.  Per digit e, the trailing axes give rows z_e, w_e by the outer products
    z = F_e x z + A_e x w, w = F_{e+1} x w, last axis first; each leading index
    gives P_e = prod F_e and Q_e by the same recurrence, for every e at once.  A
    slab of at most _PIECE // 8 cells is then sum_e P_e z_e + Q_e w_e, one matrix
    product.  Every partial sum is an integer below L**D, exact in float64 by the
    bound asserted next to the caps in padic.py.
    """
    p, D, L = params.p, params.D, params.L
    n = 1
    while p**n < L:
        n += 1
    pe = p ** np.arange(n + 1)[:, None]  # p**e, one row per e
    v = np.arange(L)

    def digits(x, power):
        """F_e(x) and A_e(x) for power = p**e, as integers."""
        return np.minimum(L - x // power * power, power), x // power % p * power

    s = next(s for s in range(1, D + 1) if L ** (D - s) <= _PIECE // 8)
    tail = np.empty((2 * n, L ** (D - s)))
    for e in range(n):
        (F, A), G = digits(v, pe[e]), digits(v, pe[e + 1])[0]
        z, w = np.zeros(1), np.ones(1)
        for _ in range(D - s):
            z = (np.multiply.outer(F, z) + np.multiply.outer(A, w)).ravel()
            w = np.multiply.outer(G, w).ravel()
        tail[e], tail[n + e] = z, w
    cols = tail.shape[1]
    step = _PIECE // 8 // cols
    for a in range(0, L**s, step):
        P, Q = 1, 0
        for x in np.unravel_index(np.arange(a, min(a + step, L**s)), (L,) * s):
            F, A = digits(x, pe)
            P, Q = P * F[:-1], P * A[:-1] + Q * F[1:]
        pos = (np.concatenate([P, Q]).T @ tail).astype(np.intp).ravel()
        yield a * cols, a * cols + pos.size, pos


def _lower(x: np.ndarray, params: LearningParams, inverse: bool = False) -> np.ndarray:
    """T(x) = x - 1 + p**c * [x = 0 mod p**c], or T's inverse, on a slab of values in its dtype.

    T lowers the c low base-p digits by one mod p**c and keeps the rest, with c
    the least count such that p**c >= M, at most E; its inverse is
    y + 1 - p**c * [y = p**c - 1 mod p**c].  A learned window holds p**d(x), and
    from level c up a class of [0, M) is one value, so d(x) < c or d(x) = E and
    T(p**d(x)) has the digits (p - 1) * [d(x) >= k] at k - 1 < c and 0 above:
    digit plane k - 1 is (p - 1) * g_k, each level of the fill stored once.
    Both maps stay in [0, p**E); the branch np.where drops may wrap in the
    dtype.  p**c can exceed the dtype only at p = 2, where the low digits are
    a mask instead.
    """
    p, c = params.p, 0
    while c < params.E and p**c < params.M:
        c += 1
    top = x.dtype.type(p**c - 1)
    low = x & top if p == 2 else x % x.dtype.type(p**c)
    if inverse:
        return np.where(low == top, x - top, x + 1)
    return np.where(low == 0, x + top, x - 1)


def write_coefficient_rows(fh, params: LearningParams, window: np.ndarray):
    """Write the text line `p E D M L <digest>`, then the window's values as one raw LZMA2 stream.

    The L**D coefficient window is stored as the values its series takes on
    [0, L)**D, which for a learned model are the p**v of the fill: a copy of the
    window in the residue dtype is transformed by C(i, j) in place, by
    mahler.transform_window with a table of L rows.  Each value then has its c
    low base-p digits lowered by one mod p**c, by _lower's T, so a learned
    window's low planes are the fill's level indicators and its higher planes
    are zero.  The stream
    holds E base-p digit planes of those values, the high digit's first: each
    holds that digit of every cell in the digit order of _digit_slabs, in the
    padded groups of _digit_groups, and the filter of _lzma2 compresses them;
    the header's fields determine c and all three.  The digest is a hex blake2b
    over the five header fields and the row-major coefficient window, so it
    depends on neither the layout nor the liblzma build.  Planes are packed
    piece by piece into one compressor, so the save holds no plane buffer; at
    p = 2 a piece is the packed bits of one bit of each value.  Raises
    ValueError, before writing anything, for a window ResidueGrid refuses or
    whose extent is not L.
    """
    p, E = params.p, params.E
    grid = ResidueGrid(params, window)
    if grid.extent != params.L:
        raise ValueError(f"window must have extent L = {params.L}, got {grid.extent}")
    fields = f"{p} {E} {params.D} {params.M} {params.L}".encode()
    values = np.array(grid.data, params.residue_dtype)
    del grid, window  # ResidueGrid's int64 copy, where it made one
    fh.write(fields + b" " + _digest(fields, values.reshape(-1).view(np.uint8)) + b"\n")
    transform_window(values, binomial_table(p, E, params.L - 1, params.L - 1), inverse=False)
    k, dtype, place, groups, size = _digit_groups(params)
    body = np.zeros((groups, k), values.dtype)
    for lo, hi, pos in _digit_slabs(params):
        body.reshape(-1)[pos] = _lower(values.reshape(-1)[lo:hi], params)
    del values
    encoder = lzma.LZMACompressor(lzma.FORMAT_RAW, filters=[_lzma2(dtype, size)])
    step = _PIECE // 8
    for j in reversed(range(E)):
        for lo in range(0, groups, step):
            part = body[lo : lo + step]
            if p == 2:  # a group is 8 bits, high first: packbits' order
                group = np.packbits((part & (1 << j)) != 0)
            else:
                group = (part // p**j % p @ place).astype(dtype)
            fh.write(encoder.compress(group))
    fh.write(encoder.flush())


def read_coefficient_rows(fh) -> tuple[LearningParams, np.ndarray]:
    """Params and L**D coefficient window of a model file, checked against its digest.

    Reads at most an LZMA2 bound of the planes' size plus one byte and decodes
    at most one byte past the planes, _PIECE bytes per call into one buffer,
    so a huge, corrupt or bomb file costs bounded memory: the stream, the
    planes, the decoder's dictionary and a few pieces.  The stream and decoder
    go first; then the planes are folded, high digit first, into a digit-ordered
    body of residues, _PIECE // 8 groups at a time, through a table of the
    digits of each of the p**k groups by the place values of _digit_groups,
    and go too; then the body is put back in row-major order, slab by slab of
    _digit_slabs into a new window of the series' values, each slab through
    the inverse of _lower's T, and goes too.  Last, mahler.transform_window
    takes the values back to coefficients in place by (-1)**(i - j) * C(i, j)
    from a table of L rows, its scratch sized from the window as there, so past
    its floor within the bytes the freed body held, and the digest is checked.
    The load peaks at the body beside the larger of the planes and the window,
    once both outgrow the 8 MiB dictionary.  Raises ValueError, in this order,
    for a body that is not a valid LZMA2 stream, planes of the wrong size, a
    truncated or overlong stream, bytes after the stream, a group that is not k
    base-p digits or a nonzero padding digit past the last cell, both naming the
    plane, and a digest mismatch.  The reader knows this one layout: a model
    saved in an earlier one fails a body check, and each body check's error ends
    with one hint, to learn it again from its samples.
    """
    line = fh.readline(128)  # far longer than any header the caps admit
    head = line.split()
    if len(head) != 6 or not line.endswith(b"\n"):
        raise ValueError(f"model header must be one line `p E D M L <digest>`, got {line!r}")
    try:
        params = LearningParams(*(int(tok) for tok in head[:5]))
    except ValueError as exc:
        raise ValueError(f"bad model header {line!r}: {exc}") from exc
    p, E, D, L = params.p, params.E, params.D, params.L
    k, dtype, place, groups, size = _digit_groups(params)
    cells = L**D
    bound = _stream_bound(size)
    stream = memoryview(fh.read(bound + 1))
    decoder = lzma.LZMADecompressor(lzma.FORMAT_RAW, filters=[_lzma2(dtype, size)])
    buf = np.empty(size + 1, np.uint8)
    got, used, piece = 0, 0, b""
    try:
        while not decoder.eof and got <= size and (used < len(stream) or not decoder.needs_input):
            piece = stream[used : used + _PIECE] if decoder.needs_input else b""
            used += len(piece)
            out = decoder.decompress(piece, min(_PIECE, size + 1 - got))
            buf[got : got + len(out)] = np.frombuffer(out, np.uint8)
            got += len(out)
        if decoder.eof and not got:  # the end byte alone: no window is empty
            raise lzma.LZMAError("the stream ends before any data")
    except lzma.LZMAError as exc:
        raise ValueError(f"model body is not a valid LZMA2 stream ({exc}){_EARLIER}") from exc
    if got > size or (decoder.eof and got < size):
        n = "more" if got > size else got
        raise ValueError(
            f"model body must be {size} bytes, {E} digit planes of {groups} {dtype.name}"
            f" groups, got {n}{_EARLIER}"
        )
    if not decoder.eof:
        why = f"runs past {bound} bytes" if len(stream) > bound else "is truncated"
        raise ValueError(f"model body's LZMA2 stream {why}")
    if decoder.unused_data or used < len(stream):
        raise ValueError("model body has bytes after its LZMA2 stream")
    del decoder, stream, piece  # the last piece is a view that keeps the stream alive
    planes = buf[:size].view(dtype).reshape(E, groups)
    # a plane's stored index s holds digit E - 1 - s; a wide digit is its own group
    bad = np.flatnonzero(planes.max(axis=1) >= p**k)
    if bad.size:
        s, top = int(bad[0]), planes[bad[0]].max()
        what = f"digit {top} >= {p}" if k == 1 else f"byte {top} >= {p}**{k}, not {k} digits"
        raise ValueError(f"model body's digit plane {E - 1 - s} has a {what}{_EARLIER}")
    bad = np.flatnonzero(planes[:, -1] % p ** (groups * k - cells))  # the last group's padding
    if bad.size:
        raise ValueError(
            f"model body's digit plane {E - 1 - int(bad[0])} has a nonzero digit past"
            f" the last cell{_EARLIER}"
        )
    # each group's k digits; the residue dtype holds p**k - 1, as k = 1 or p**k <= 256
    lut = np.arange(p**k, dtype=params.residue_dtype)[:, None] // place % p
    body = np.zeros((groups, k), params.residue_dtype)
    step = _PIECE // 8
    digits = np.empty((step, k), body.dtype)
    for lo in range(0, groups, step):
        part = body[lo : lo + step]
        for plane in planes[:, lo : lo + step]:
            part *= p
            part += np.take(lut, plane, axis=0, out=digits[: len(plane)])
    del planes, buf, part, plane  # the loop's views keep the planes alive
    body = body.reshape(-1)[:cells]
    window = np.empty_like(body)
    for lo, hi, pos in _digit_slabs(params):
        window[lo:hi] = _lower(body[pos], params, inverse=True)
    del body, pos  # the transform's scratch takes the body's place
    window = window.reshape((L,) * D)
    transform_window(window, binomial_table(p, E, L - 1, L - 1), inverse=True)
    if _digest(b" ".join(head[:5]), window.reshape(-1).view(np.uint8)) != head[5]:
        raise ValueError(f"model digest does not match its header and body{_EARLIER}")
    return params, window
