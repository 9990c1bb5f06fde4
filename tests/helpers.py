"""Shared test helpers."""

import contextlib
import math
from itertools import permutations
from unittest import mock

import numpy as np

from arplr import DiagonalTensor, inner
from arplr.geometry import _pow


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


def dense_array(tensor) -> np.ndarray:
    """The full dim^order array of a tensor: a ``SymmetricTensor``'s entries,
    or a ``DiagonalTensor``'s diagonal and band placed among zeros."""
    if not isinstance(tensor, DiagonalTensor):
        return tensor.entries
    arr = np.zeros((tensor.dim,) * tensor.order)
    idx = np.arange(tensor.dim)
    arr[(idx,) * tensor.order] = tensor.diag
    if tensor.off is not None:
        arr[idx[:-1], idx[1:]] = arr[idx[1:], idx[:-1]] = tensor.off
    return arr


def smoothness_order(space) -> float:
    """Uniform smoothness order of the l^r space, q = min(r, 2)."""
    return min(space.r, 2.0)


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


def two_step_lr(a, r: float):
    """``(|a|_r, duality vector)`` of a vector in two steps: the norm from
    the power sum of ``|a| 2^-k`` (2^k the power of two above the peak,
    after lifting a subnormal peak by 2^1000) and its root, ``math.sqrt``
    at r = 2, then the unit vector ``u = a / |a|_r`` and
    ``copysign(|u|^(r-1), u)``, which is u at r = 2."""
    a = np.asarray(a, dtype=float)
    peak = float(np.abs(a).max())
    if peak == 0.0:
        return 0.0, a.copy()
    lift = 1000 if peak < 2.0 ** -1022 else 0
    a = a * 2.0 ** lift
    k = math.frexp(float(np.abs(a).max()))[1]
    total = float(np.sum((np.abs(a) * 2.0 ** -k) ** r))
    root = math.sqrt(total) if r == 2.0 else total ** (1.0 / r)
    nrm = math.ldexp(root, k) if k + math.frexp(root)[1] <= 1024 else math.inf
    u = a / nrm
    v = u if r == 2.0 else np.copysign(np.abs(u) ** (r - 1.0), u)
    return math.ldexp(nrm, -lift), v


def horner(coeffs, t):
    """``sum_j coeffs[j] t^j`` by the recurrence of numpy's ``polyval``, the
    one that the line search inlines, so a Python float t gives its bits."""
    acc = coeffs[-1] + t * 0.0
    for c in coeffs[-2::-1]:
        acc = c + acc * t
    return acc


def ray_functions(coeffs: list, s, d, r: float, e: float, reg_v: float, reg_d: float,
                  nw: float, du, qa: float | None = None):
    """``(slope, value, point)`` of the ray ``s - t d`` whose Taylor part has
    the coefficients ``coeffs``, built as ``inner._line_search`` builds its
    slope and point from the pass ``(nw, du) = _lr(s, r)``: where an r = 2
    ray carries ``qa = |s|^2`` the slope is ``_r2_slope``'s and the point
    ``_sumsq_point``, else both are ``_lr_ray``'s; with the value
    ``horner(coeffs, t) + reg_v |w|^e`` of the point's norm, as the line
    search forms its drop."""
    dcoeffs = [j * coeffs[j] for j in range(1, len(coeffs))]
    if qa is not None:
        slope = inner._r2_slope(dcoeffs, qa, float(np.vdot(s, d)), reg_d, e)
        point = inner._sumsq_point
    else:
        slope, point = inner._lr_ray(dcoeffs, s, d, r, e, reg_d, nw, du, float(du.dot(d)))

    def value(t: float) -> float:
        return horner(coeffs, t) + reg_v * _pow(point(s, d, t)[1], e)

    return slope, value, point


@contextlib.contextmanager
def model_values():
    """The model values of the inner solves run inside the block, as a list
    that grows while they run: m(0) = 0.0, then ``value += drop`` for each
    drop that ``inner._line_search`` returns, in order (a step is accepted
    exactly when its line search returns one), so each value has the bits
    of the solve's own running sum.  The wrapped function is the one in
    place on entry, so the seam stacks with other patches of it; one list
    spans every solve in the block."""
    values = [0.0]
    search = inner._line_search

    def recorded(*args):
        found = search(*args)
        if found is not None:
            values.append(values[-1] + found[1])
        return found

    with mock.patch.object(inner, "_line_search", recorded):
        yield values
