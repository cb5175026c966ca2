"""Exact reference computations that share no code with padiclearn."""

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
