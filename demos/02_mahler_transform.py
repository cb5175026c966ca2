"""
Binomial-basis interpolation mod p^E
====================================

The Mahler transform turns a table of residues into
coefficients over the binomial basis C(x, 0), C(x, 1), ...  Evaluating
the resulting series reproduces the table and extends it to points far
outside the sampled window.
"""

import numpy as np

from padiclearn import DefiningFunctionEstimate, LearningParams, ResidueGrid, mahler_transform

p, E = 2, 10
mod = p**E

# One dimension first: tabulate x^2 on 0..3.
params = LearningParams(p=p, E=E, D=1, M=4)
grid = ResidueGrid(params, np.arange(4) ** 2)
coeffs = mahler_transform(grid)
print(f"values       {grid.data}")
print(f"coefficients {coeffs.data}")

# x^2 = 0*C(x,0) + 1*C(x,1) + 2*C(x,2), so the series is exact
# everywhere, not just on the sampled window.  A model wraps the
# coefficients and evaluates their series over a product grid, one
# array of query coordinates per axis.
series = DefiningFunctionEstimate(params, coeffs)
far = np.array([5, 10, 31])
for x, got in zip(far, series.predict_residue_grid([far])):
    print(f"series at {x}: {got}   (x^2 mod {mod} = {x * x % mod})")

# Two dimensions: the transform runs axis by axis, so a product
# f(x, y) = g(x) h(y) has coefficient tensor equal to the outer
# product of the 1-d coefficient vectors.
params2 = LearningParams(p=p, E=E, D=2, M=4)
x = np.arange(4)
table_xy = ResidueGrid(params2, np.outer(x, x) % mod)
coeffs2 = mahler_transform(table_xy)
print(f"xy coefficient tensor:\n{coeffs2.data}")

# Round trip: evaluating on the original grid gives back the table.
axes = [np.arange(4), np.arange(4)]
back = DefiningFunctionEstimate(params2, coeffs2).predict_residue_grid(axes)
assert np.array_equal(back, table_xy.data)
print("round trip on the 4x4 grid is exact")

# Random tables round trip too.  The transform is a bijection on
# residue grids, which is what makes the learner's fit exact on its
# training samples.
rng = np.random.default_rng(0)
noise = ResidueGrid(params2, rng.integers(0, mod, size=(4, 4)))
back = DefiningFunctionEstimate(params2, mahler_transform(noise)).predict_residue_grid(axes)
assert np.array_equal(back, noise.data)
print("random 4x4 table round trips as well")
