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


class PadicTrie:
    """Indexes a finite point set by interleaved digit strings.

    If the longest traceable prefix of a query's digit string has length
    i, then floor(i / D) is the best min-over-coordinates valuation any
    indexed point achieves against the query; a full trace of all E*D
    digits reports E, the working stand-in for infinite valuation.

    A node is a distinct prefix of the sorted, deduplicated digit strings;
    each string starts one node per digit from its fork, the first digit
    where it leaves the string before it.  The (nodes + 1) x p child table
    is checked against MAX_TABLE_CELLS, then filled with breadth-first ids
    from the root 0; its last row is a sink, the child of every absent
    edge and of itself.  Built once, then only queried; an empty (0, D)
    array builds the root-only trie.
    """

    def __init__(self, params: LearningParams, points):
        self.params = params
        digits = np.unique(_digit_strings(params, points), axis=0)
        n, width = digits.shape
        # fork[r]: the first digit at which row r leaves row r - 1; row 0 forks at the root
        fork = np.zeros(n, dtype=np.intp)
        fork[1:] = (digits[1:] != digits[:-1]).argmax(axis=1)
        count = 1 + int(np.sum(width - fork))
        if (count + 1) * params.p > MAX_TABLE_CELLS:
            raise ValueError(
                f"a trie of {count} nodes and a sink times p = {params.p} children exceeds "
                f"the supported table size {MAX_TABLE_CELLS}"
            )
        kids = np.full((count + 1, params.p), count, dtype=np.int64)
        node = np.zeros(n, dtype=np.int64)  # each row's node after the digits so far
        next_id = 1
        for i in range(width):
            first = np.flatnonzero(fork <= i)
            child = np.arange(next_id, next_id + first.size)
            kids[node[first], digits[first, i]] = child
            node = np.repeat(child, np.diff(first, append=n))
            next_id += first.size
        self._kids = kids

    @property
    def node_count(self) -> int:
        return self._kids.shape[0] - 1

    def nns_valuation_batch(self, points) -> np.ndarray:
        """Max over indexed points of the min coordinate-wise valuation, per row."""
        D = self.params.D
        digits = _digit_strings(self.params, points)
        kids, sink = self._kids, self.node_count
        res = np.zeros(digits.shape[0], dtype=np.int64)
        live = np.arange(digits.shape[0])
        cur = np.zeros_like(live)
        for e in range(self.params.E):
            for i in range(e * D, (e + 1) * D):
                cur = kids[cur, digits[live, i]]
            keep = cur != sink
            live, cur = live[keep], cur[keep]
            res[live] += 1
        return res
