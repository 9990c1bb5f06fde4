"""Symmetric multilinear forms, truncated Taylor models, and regularized models.

Tensors are stored densely (desk scale: dimension up to a few hundred for
order 2, a few dozen for order 3); symmetry is an invariant of the entries,
not a storage format.  Derivative tensors are supplied by problem oracles —
nothing here differentiates an objective itself.  Restricting a model to a
ray, and evaluating it there, lives in ``arplr.inner``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import NormedSpace, _as_vector

__all__ = [
    "SymmetricTensor",
    "TaylorModel",
    "RegularizedModel",
    "symmetrize",
    "diagonal_tensor",
]


class TensorError(ValueError):
    """Arity or dimension mismatch in a tensor operation."""


def _coerce(dim: int, v) -> np.ndarray:
    # shape check only; these run in the innermost loops
    arr = np.asarray(v, dtype=float)
    if arr.shape != (dim,):
        raise TensorError(f"expected a vector of dimension {dim}, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class SymmetricTensor:
    """Dense symmetric multilinear form of a given order on R^dim.

    Order 0 is allowed (a scalar, entries of shape ``()``), which is what a
    full partial application produces.
    """

    order: int
    dim: int
    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if self.order < 0:
            raise TensorError("tensor order must be nonnegative")
        if arr.shape != (self.dim,) * self.order:
            raise TensorError(
                f"entries shape {arr.shape} does not match order {self.order}, dim {self.dim}"
            )
        object.__setattr__(self, "entries", arr)

    def apply(self, vs: Sequence) -> float:
        """Full contraction ``S[v_1, ..., v_order]``."""
        if len(vs) != self.order:
            raise TensorError(f"expected {self.order} vectors, got {len(vs)}")
        arr = self.entries
        for v in vs:
            arr = np.dot(arr, _coerce(self.dim, v))
        return float(arr)

    def partial_apply(self, v, times: int) -> "SymmetricTensor":
        """Contract ``times`` copies of v, leaving an order ``order - times`` form."""
        if not 0 <= times <= self.order:
            raise TensorError(
                f"cannot apply a vector {times} times to an order-{self.order} tensor"
            )
        v = _coerce(self.dim, v)
        arr = self.entries
        for _ in range(times):
            arr = np.dot(arr, v)
        return SymmetricTensor(self.order - times, self.dim, arr)


def symmetrize(arr) -> np.ndarray:
    """Average an array over all index permutations."""
    arr = np.asarray(arr, dtype=float)
    if arr.ndim <= 1:
        return arr
    from itertools import permutations

    total = np.zeros_like(arr)
    count = 0
    for perm in permutations(range(arr.ndim)):
        total += np.transpose(arr, perm)
        count += 1
    return total / count


def diagonal_tensor(order: int, diag) -> SymmetricTensor:
    """Symmetric tensor whose only nonzeros are ``S[i, i, ..., i] = diag[i]``."""
    diag = np.asarray(diag, dtype=float)
    n = diag.shape[0]
    arr = np.zeros((n,) * order)
    idx = (np.arange(n),) * order
    arr[idx] = diag
    return SymmetricTensor(order, n, arr)


@dataclass(frozen=True)
class TaylorModel:
    """Truncated Taylor expansion around a base point.

    ``tensors`` holds the derivative forms of orders 1..degree; the order-1
    entry is the gradient at the base point, viewed as a dual vector.
    """

    base_point: np.ndarray
    f0: float
    tensors: tuple

    def __post_init__(self):
        x = np.asarray(self.base_point, dtype=float)
        object.__setattr__(self, "base_point", x)
        object.__setattr__(self, "tensors", tuple(self.tensors))
        if not self.tensors:
            raise TensorError("a Taylor model needs at least the order-1 tensor")
        for i, t in enumerate(self.tensors, start=1):
            if t.order != i:
                raise TensorError(f"tensor at position {i} has order {t.order}")
            if t.dim != x.shape[0]:
                raise TensorError("tensor dimension does not match the base point")

    @property
    def degree(self) -> int:
        return len(self.tensors)

    @property
    def dim(self) -> int:
        return self.base_point.shape[0]

    def gradient_at_base(self) -> np.ndarray:
        return self.tensors[0].entries

    def value(self, s) -> float:
        s = _as_vector(self.dim, s)
        total = self.f0
        for l, t in enumerate(self.tensors, start=1):
            total += t.apply([s] * l) / math.factorial(l)
        return float(total)

    def gradient(self, s) -> np.ndarray:
        s = _as_vector(self.dim, s)
        total = np.zeros(self.dim)
        for l, t in enumerate(self.tensors, start=1):
            total += t.partial_apply(s, l - 1).entries / math.factorial(l - 1)
        return total


@dataclass(frozen=True)
class RegularizedModel:
    """Taylor model plus the power-norm regularizer ``sigma |s|^(p+beta) / G``.

    The normalizing factor G is the Gamma-function extension of the
    factorial, ``G = Gamma(p + beta + 1)``, so that integer beta = 1
    reproduces ``(p+1)!``.
    """

    taylor: TaylorModel
    sigma: float
    p: int
    beta: float
    space: NormedSpace

    def __post_init__(self):
        if self.p < 1:
            raise TensorError("model order p must be at least 1")
        if not 0.0 < self.beta <= 1.0:
            raise TensorError(f"beta must lie in (0, 1], got {self.beta!r}")
        if self.taylor.degree != self.p:
            raise TensorError(
                f"Taylor degree {self.taylor.degree} does not match model order {self.p}"
            )
        if self.space.n != self.taylor.dim:
            raise TensorError("space dimension does not match the Taylor model")

    @property
    def reg_exponent(self) -> float:
        return self.p + self.beta

    def value(self, s) -> float:
        e = self.reg_exponent
        return self.taylor.value(s) + (
            self.sigma / math.gamma(e + 1.0) * self.space.norm(s) ** e
        )

    def gradient(self, s) -> np.ndarray:
        return self.gradient_from_taylor(s, self.taylor.gradient(s))

    def gradient_from_taylor(self, s, taylor_gradient: np.ndarray) -> np.ndarray:
        """Model gradient given an already-computed Taylor-part gradient."""
        e = self.reg_exponent
        return taylor_gradient + self.sigma / math.gamma(e) * self.space.duality_map(s, e)
