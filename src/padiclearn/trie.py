"""The samples' p-adic tree, one residue-class cube per level, with max-valuation queries."""

from __future__ import annotations

import numpy as np

from .padic import LearningParams, as_points


class PadicTrie:
    """Indexes a finite point set of [0, M)**D by its residue classes mod p**k.

    Level k = 1..E is a boolean cube of side min(p**k, M) whose set cells are
    the samples' classes mod p**k.  A sample below M is its own class mod any
    p**k >= M, so every such level shares one cube, and the cubes hold under
    3 * M**D bytes.  A query agrees with some sample mod p**k exactly when
    level k holds its class; the levels are nested, so the number of levels
    that hold it is the best min-over-coordinates valuation, E standing in
    for infinite valuation.  node_count counts the root plus every level's
    classes.  Built once, then only queried; an empty (0, D) array builds the
    root-only tree.
    """

    def __init__(self, params: LearningParams, points):
        self.params = params
        p, M, D = params.p, params.M, params.D
        pts = as_points(points, D, bound=M)
        self._levels = []
        for k in range(1, params.E + 1):
            if k == 1 or p ** (k - 1) < M:  # else level k - 1 holds the samples themselves
                cube = np.zeros((min(p**k, M),) * D, dtype=bool)
                cube[tuple((pts % p**k).T)] = True
            self._levels.append(cube)

    @property
    def node_count(self) -> int:
        return 1 + sum(int(np.count_nonzero(cube)) for cube in self._levels)

    def nns_valuation_batch(self, points) -> np.ndarray:
        """Max over indexed points of the min coordinate-wise valuation, per row."""
        p, M = self.params.p, self.params.M
        pts = as_points(points, self.params.D)
        res = np.zeros(pts.shape[0], dtype=np.int64)
        rem = np.empty_like(pts)
        for k, cube in enumerate(self._levels, 1):
            np.remainder(pts, p**k, out=rem)
            if p**k <= M:
                res += cube[tuple(rem.T)]
            else:  # a class with a coordinate at or past M holds no sample
                inside = (rem < M).all(axis=1)
                res += cube[tuple(np.minimum(rem, M - 1, out=rem).T)] & inside
        return res
