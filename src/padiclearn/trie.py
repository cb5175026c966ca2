"""The samples' p-adic tree, one residue-class cube per level, with max-valuation queries."""

from __future__ import annotations

import numpy as np

from .padic import LearningParams, as_points


class PadicTrie:
    """Indexes a finite point set of [0, M)**D by its residue classes mod p**k.

    Level k = 1..E is a boolean cube of side c = min(p**k, L) whose set cells
    are the samples' classes mod min(p**k, M) that lie in [0, c)**D.  A sample
    below M is its own class mod any p**k >= M, so every such level shares one
    cube, and the cubes hold under (3 + ceil(log_p(M / L))) * L**D bytes, 3 *
    M**D at L = M.  A query's class at each level is one flat index into the
    raveled cube, built one axis at a time.  A query agrees with some sample
    mod p**k exactly when level k holds its class; the levels are nested, so
    the number of levels that hold it is the best min-over-coordinates
    valuation, E standing in for infinite valuation.  That is exact on [0,
    L)**D, whose classes never leave a cube, and at L = M on any naturals,
    where a class past the cube holds no sample.  node_count counts the root
    plus the classes every level's cube holds.  Built once, then only queried;
    an empty (0, D) array builds the root-only tree.
    """

    def __init__(self, params: LearningParams, points):
        self.params = params
        p, M, L, D = params.p, params.M, params.L, params.D
        pts = as_points(points, D, bound=M)
        self._levels = []
        for k in range(1, params.E + 1):
            if k == 1 or p ** (k - 1) < M:  # else level k - 1 holds the samples themselves
                side = min(p**k, L)
                rem = pts % p**k
                if side < p**k:  # a class below L mod p**(k+1) is below L mod p**k too
                    kept = (rem < side).all(axis=1)
                    pts, rem = pts[kept], rem[kept]
                cube = np.zeros((side,) * D, dtype=bool)
                cube[tuple(rem.T)] = True
            self._levels.append(cube)

    @property
    def node_count(self) -> int:
        return 1 + sum(int(np.count_nonzero(cube)) for cube in self._levels)

    def nns_valuation_batch(self, points) -> np.ndarray:
        """Max over indexed points of the min coordinate-wise valuation, per row."""
        p = self.params.p
        pts = as_points(points, self.params.D)
        res = np.zeros(pts.shape[0], dtype=np.int64)
        idx, col = np.empty_like(res), np.empty_like(res)
        for k, cube in enumerate(self._levels, 1):
            side = cube.shape[0]
            inside = None if side == p**k else np.ones(res.shape, dtype=bool)
            idx.fill(0)
            for axis in pts.T:  # the class's flat index in the raveled cube
                np.remainder(axis, p**k, out=col)
                if inside is not None:  # a class past the cut cube holds no kept sample
                    inside &= col < side
                    np.minimum(col, side - 1, out=col)
                idx *= side
                idx += col
            hit = cube.reshape(-1)[idx]
            if inside is not None:
                hit &= inside
            res += hit
        return res
