"""
Learning a membership test from samples
=======================================

Given finitely many points of an unknown set, fit a residue function
that vanishes exactly on the samples and stays small near them, then
use it as a one-sided membership test.
"""

import numpy as np

from padiclearn import LearningParams, SampleSet, build_value_grid, learn


# times p divides x, capped at cap (so x == 0 maps to cap)
def valuation(x, p, cap):
    v = 0
    while v < cap and x % p ** (v + 1) == 0:
        v += 1
    return v


# Step one tabulates f(x) = 2^d(x) over the window [0, M)^D, where d(x),
# capped at E, is the largest d with x = s mod 2^d on every axis for
# some sample s: the 2-adic distance to the nearest sample is 2^-d(x).
# A sample has d = E and 2^E = 0 mod 2^E, so f vanishes exactly there.
params = LearningParams(p=2, E=3, D=2, M=8)
stored = [(0, 0), (4, 4), (3, 5)]
grid = build_value_grid(SampleSet(params, np.array(stored)))
for query in [(0, 0), (1, 0), (2, 2), (4, 4), (7, 1)]:
    d = valuation(int(grid.data[query]), 2, 3)
    # brute force: the best sample's worst coordinate
    assert d == max(min(valuation(q - s, 2, 3) for q, s in zip(query, row)) for row in stored)
    print(f"query {query}: f = {grid.data[query]}, a sample agrees mod 2^{d}")

# Target set: multiples of 4 on the line, observed through the four
# samples inside the window [0, 16).
params = LearningParams(p=2, E=6, D=1, M=16)
samples = SampleSet(params, np.array([[0], [4], [8], [12]]))
grid = build_value_grid(samples)
print(f"value grid over [0, 16): {grid.data}")

# Step two converts that table to binomial-basis coefficients.  The
# fit is interpolation, so every training point is reproduced exactly.
est = learn(samples)
residues = est.predict_residue_batch(np.arange(16).reshape(-1, 1))
print(f"fitted residues:         {residues}")
assert np.array_equal(residues, grid.data)

# is_member accepts exactly the zero-residue points.  Inside the
# window that means the samples themselves.
members = [x for x in range(16) if est.is_member((x,))]
print(f"members in window: {members}")

# Outside the window the series extrapolates.  Points 2-adically close
# to a sample get small residues, so the test generalises to the coset
# structure of the samples rather than their literal values.
outside = np.arange(16, 32).reshape(-1, 1)
print(f"residues on [16, 32): {est.predict_residue_batch(outside)}")

# Truncation: keep only coefficients with index below L.  A shorter
# series is cheaper to evaluate and acts as a smoother, at the cost of
# exactness on the training set.  The model fits and stores just that
# window: only the values on [0, L) enter its coefficients.
short = learn(SampleSet(LearningParams(p=2, E=6, D=1, M=16, L=4), samples.points))
print(f"coefficients kept at L=4: {short.coeffs.data}")
print(f"first 4 of the full fit:  {est.coeffs.data[:4]}")
