"""p-ary trie over interleaved digit strings with max-valuation queries."""

from __future__ import annotations

import numpy as np

from .padic import MAX_TABLE_CELLS, LearningParams, as_points


def _digit_strings(params: LearningParams, points) -> np.ndarray:
    """Interleaved base-p digit strings of an (n, D) array of points.

    Row i, column e*D + d holds the (e+1)-th base-p digit of coordinate d
    of point i: one digit round after another, coordinate major inside each
    round.  Coordinates at or above p**E silently lose their high digits.
    Digits come in the smallest unsigned dtype that holds p - 1, which keeps
    full-grid digit tables cheap.
    """
    pts = as_points(points, params.D)
    dig_dtype = np.min_scalar_type(params.p - 1)
    out = np.empty((pts.shape[0], params.E * params.D), dtype=dig_dtype)
    work = pts.copy()
    for e in range(params.E):
        out[:, e * params.D : (e + 1) * params.D] = work % params.p
        work //= params.p
    return out


def _node_starts(digits: np.ndarray):
    """Per digit i, one mask (updated in place) of the sorted rows that start a
    prefix of length i + 1: the first row, and rows where a digit up to i changes.
    """
    new = np.zeros(digits.shape[0], dtype=bool)
    new[:1] = True
    for i in range(digits.shape[1]):
        new[1:] |= digits[1:, i] != digits[:-1, i]
        yield new


class PadicTrie:
    """Indexes a finite point set by interleaved digit strings.

    If the longest traceable prefix of a query's digit string has length
    i, then floor(i / D) is the best min-over-coordinates valuation any
    indexed point achieves against the query; a full trace of all E*D
    digits reports E, the working stand-in for infinite valuation.

    A node is a distinct prefix of the sorted, deduplicated digit strings.
    One vectorised sweep per digit counts them, the nodes x p child table is
    checked against MAX_TABLE_CELLS before it is allocated, and a second
    sweep fills it, numbering nodes breadth-first from the root 0.
    Built once, then only queried; an empty (0, D) array builds the root-only trie.
    """

    def __init__(self, params: LearningParams, points):
        self.params = params
        digits = np.unique(_digit_strings(params, points), axis=0)
        n = digits.shape[0]
        count = 1 + sum(int(np.count_nonzero(new)) for new in _node_starts(digits))
        if count * params.p > MAX_TABLE_CELLS:
            raise ValueError(
                f"a trie of {count} nodes times p = {params.p} children exceeds "
                f"the supported table size {MAX_TABLE_CELLS}"
            )
        # kids[node, digit] -> child id, -1 for absent
        kids = np.full((count, params.p), -1, dtype=np.int64)
        node = np.zeros(n, dtype=np.int64)  # each row's node after the digits so far
        next_id = 1
        for i, new in enumerate(_node_starts(digits)):
            first = np.flatnonzero(new)
            child = np.arange(next_id, next_id + first.size)
            kids[node[first], digits[first, i]] = child
            node = np.repeat(child, np.diff(first, append=n))
            next_id += first.size
        self._kids = kids

    @property
    def node_count(self) -> int:
        return self._kids.shape[0]

    def nns_valuation_batch(self, points) -> np.ndarray:
        """Max over indexed points of the min coordinate-wise valuation, per row."""
        digits = _digit_strings(self.params, points)
        kids = self._kids
        n = digits.shape[0]
        res = np.full(n, self.params.E, dtype=np.int64)
        cur = np.zeros(n, dtype=np.int64)
        alive = np.arange(n)
        for i in range(digits.shape[1]):
            if alive.size == 0:
                break
            nxt = kids[cur[alive], digits[alive, i]]
            dead = nxt < 0
            if dead.any():
                res[alive[dead]] = i // self.params.D
                alive = alive[~dead]
                nxt = nxt[~dead]
            cur[alive] = nxt
        return res
