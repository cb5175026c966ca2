"""p-ary trie over interleaved digit strings with max-valuation queries."""

from __future__ import annotations

import numpy as np

from .padic import LearningParams, as_points


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
    Built once, then only queried; an empty (0, D) array builds the root-only trie.
    """

    def __init__(self, params: LearningParams, points):
        self.params = params
        # children[node][digit] -> child id, -1 for absent; node 0 is the root
        children = [[-1] * params.p]
        for row in _digit_strings(params, points).tolist():
            node = 0
            for dig in row:
                nxt = children[node][dig]
                if nxt < 0:
                    nxt = len(children)
                    children[node][dig] = nxt
                    children.append([-1] * params.p)
                node = nxt
        self._kids = np.asarray(children, dtype=np.int64)

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
