"""p-ary trie over interleaved digit strings with max-valuation queries."""

from __future__ import annotations

import numpy as np

from .padic import LearningParams, expand_batch


class PadicTrie:
    """Indexes a finite point set by interleaved digit strings.

    If the longest traceable prefix of a query's digit string has length
    i, then floor(i / D) is the best min-over-coordinates valuation any
    indexed point achieves against the query; a full trace of all E*D
    digits reports E, the working stand-in for infinite valuation.
    The structure is built once and then only queried.
    """

    def __init__(self, params: LearningParams, points=()):
        self.params = params
        # children[node][digit] -> child id, -1 for absent; node 0 is the root
        children = [[-1] * params.p]
        # expand_batch reads points through the (n, D) gate; the default ()
        # indexes nothing and builds the root-only trie
        rows = expand_batch(params, points).tolist() if np.size(points) else []
        for row in rows:
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

    def nns_valuation(self, point) -> int:
        """Max over indexed points of the min coordinate-wise valuation.

        Returns 0 from an empty trie: the root traces nothing.
        """
        return int(self.nns_valuation_batch([point])[0])

    def nns_valuation_batch(self, points) -> np.ndarray:
        """nns_valuation of every row of an (n, D) array of points."""
        digits = expand_batch(self.params, points)
        kids = self._kids
        n = digits.shape[0]
        res = np.full(n, self.params.E, dtype=np.int64)
        cur = np.zeros(n, dtype=np.int64)
        alive = np.arange(n)
        for i in range(self.params.digit_count):
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
