"""Shared test helpers."""

import math
from itertools import permutations

import numpy as np


def symmetrize(arr) -> np.ndarray:
    """Average an array over all index permutations."""
    arr = np.asarray(arr, dtype=float)
    if arr.ndim <= 1:
        return arr
    total = np.zeros_like(arr)
    count = 0
    for perm in permutations(range(arr.ndim)):
        total += np.transpose(arr, perm)
        count += 1
    return total / count


def full_ray_coefficients(tensors, s0, d) -> list:
    """The order-2-and-up tensors' coefficients of the Taylor part along
    s0 - t d, one full contraction each (entries 0 and 1 are left 0)."""
    coeffs = [0.0] * (max(t.order for t in tensors) + 1)
    for t in tensors:
        l = t.order
        for j in range(2, l + 1):
            full = float(t.contract([d] * j + [s0] * (l - j)))
            coeffs[j] += math.comb(l, j) * (-1.0) ** j * full / math.factorial(l)
    return coeffs
