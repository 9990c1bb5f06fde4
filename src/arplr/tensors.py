"""Symmetric multilinear forms, truncated Taylor models, and regularized models.

Two storages share one interface (``order``, ``dim``, ``entries``,
``contract``, ``apply``): ``SymmetricTensor`` keeps all dim^order entries
(desk scale: dimension up to a few hundred for order 2, a few dozen for
order 3; symmetry is an invariant of the entries, not a storage format),
and ``DiagonalTensor`` keeps only the diagonal of a separable objective's
derivative, plus at order 2 an optional off-diagonal band (a tridiagonal
Hessian such as the pendulum lattice's), so its contractions cost O(dim)
whatever the order.  A pure diagonal contracts to the same bits as its
dense form; a band sums each row left to right, in ascending column order.
``entries`` is what a tensor stores and ``contract`` returns the stored
entries of what is left after a contraction, unchecked, for the inner
loop; ``apply`` checks its vectors and returns the full contraction as a
float.  Nothing in the package needs a tensor as a full dim^order array.
Derivative tensors are supplied by problem oracles
— nothing here differentiates an objective itself.  ``TaylorModel(tensors)``
models the change f(x + s) - f(x), so it is 0 at s = 0 whatever the size
of f(x); it and ``RegularizedModel(taylor, sigma, beta, space)`` take their
dimension and model order p from the tensors.  Restricting a model to a
ray, and evaluating it there, lives in ``arplr.inner``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import NormedSpace, _as_vector, _pow

__all__ = [
    "SymmetricTensor",
    "DiagonalTensor",
    "TaylorModel",
    "RegularizedModel",
    "diagonal_tensor",
]


class TensorError(ValueError):
    """Arity or dimension mismatch in a tensor operation."""


def _coerce(dim: int, v) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (dim,):
        raise TensorError(f"expected a vector of dimension {dim}, got shape {arr.shape}")
    return arr


def _apply(self, vs: Sequence) -> float:
    """Full contraction ``S[v_1, ..., v_order]``."""
    if len(vs) != self.order:
        raise TensorError(f"expected {self.order} vectors, got {len(vs)}")
    return float(self.contract([_coerce(self.dim, v) for v in vs]))


@dataclass(frozen=True)
class SymmetricTensor:
    """Dense symmetric multilinear form of a given order on R^dim; order 0
    is a scalar, with entries of shape ``()``."""

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

    def contract(self, vs: Sequence) -> np.ndarray:
        """Entries of the form left after contracting the vectors ``vs``
        (unchecked; ``apply`` validates)."""
        arr = self.entries
        for v in vs:
            arr = arr.dot(v)
        return arr

    apply = _apply


@dataclass(frozen=True)
class DiagonalTensor:
    """Symmetric form of order at least 2 on R^dim whose only nonzeros are
    ``S[i, ..., i] = diag[i]`` and, for a banded order-2 form, the off
    diagonal ``S[i, i+1] = S[i+1, i] = off[i]``.

    ``entries`` holds every stored float: the diagonal, shape ``(dim,)``,
    or for a band the diagonal followed by the off diagonal, shape
    ``(2 dim - 1,)``; ``diag`` and ``off`` (None without a band) are views
    of it.  Without a band ``contract`` forms the products
    ``diag * v_1 * ...`` in the order the dense ``dot`` chain does, and
    each dense row sum adds exact zeros to a single product, so both
    storages give the same bits.  With a band, ``contract([v])`` sums each
    row as ``(off[i-1] v[i-1] + diag[i] v[i]) + off[i] v[i+1]``, the order
    of a left-to-right loop over the dense row, which need not be the
    order of a BLAS matrix-vector product.  A full contraction ends in one
    ``ndarray.dot``: ``np.dot`` without its dispatch layer.
    """

    order: int
    dim: int
    entries: np.ndarray
    diag: np.ndarray = field(init=False, repr=False, compare=False)
    off: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if self.order < 2:
            raise TensorError("a diagonal tensor has order at least 2")
        banded = self.order == 2 and self.dim > 1 and arr.shape == (2 * self.dim - 1,)
        if arr.shape != (self.dim,) and not banded:
            raise TensorError(
                f"entries shape {arr.shape} does not match order {self.order}, dim {self.dim}"
            )
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "diag", arr[: self.dim])
        object.__setattr__(self, "off", arr[self.dim :] if banded else None)

    def contract(self, vs: Sequence) -> np.ndarray:
        """Entries of the form left after contracting the vectors ``vs``: the
        remainder's stored entries, or for a full contraction the scalar."""
        off = self.off
        if off is not None and vs:
            v = vs[0]
            out = self.diag * v
            out[1:] += off * v[:-1]  # the row loop's first sum: float + commutes
            out[:-1] += off * v[1:]
            return out.dot(vs[1]) if len(vs) == 2 else out
        arr = self.entries
        full = len(vs) == self.order
        for v in vs[:-1] if full else vs:
            arr = arr * v
        return arr.dot(vs[-1]) if full else arr

    apply = _apply


def diagonal_tensor(order: int, diag, off=None) -> SymmetricTensor | DiagonalTensor:
    """Symmetric tensor whose only nonzeros are ``S[i, i, ..., i] = diag[i]``
    and, given ``off`` (order 2 only), ``S[i, i+1] = S[i+1, i] = off[i]``:
    a ``DiagonalTensor`` for order 2 and up; an order-1 diagonal is the
    vector itself, a plain ``SymmetricTensor``."""
    diag = np.asarray(diag, dtype=float)
    dim = diag.shape[0]
    if off is not None:
        off = np.asarray(off, dtype=float)
        if order != 2 or off.shape != (dim - 1,):
            raise TensorError(
                f"an off-diagonal band needs order 2 and shape ({dim - 1},), "
                f"got order {order} and shape {off.shape}"
            )
        return DiagonalTensor(2, dim, np.concatenate([diag, off]))
    cls = DiagonalTensor if order >= 2 else SymmetricTensor
    return cls(order, dim, diag)


@dataclass(frozen=True)
class TaylorModel:
    """Truncated Taylor expansion ``TaylorModel(tensors)`` of the change
    f(x + s) - f(x) in the step s: ``value(s)`` is the sum of the terms
    T_l[s^l] / l!, without f(x), so no constant added to f reaches it.

    ``tensors`` holds the derivative forms of orders 1..degree, all of one
    dimension; the order-1 entry is the gradient, viewed as a dual vector.
    """

    tensors: tuple

    def __post_init__(self):
        object.__setattr__(self, "tensors", tuple(self.tensors))
        if not self.tensors:
            raise TensorError("a Taylor model needs at least the order-1 tensor")
        for i, t in enumerate(self.tensors, start=1):
            if t.order != i:
                raise TensorError(f"tensor at position {i} has order {t.order}")
            if t.dim != self.dim:
                raise TensorError(f"tensor of order {i} has dimension {t.dim}, not {self.dim}")

    @property
    def degree(self) -> int:
        return len(self.tensors)

    @property
    def dim(self) -> int:
        return self.tensors[0].dim

    def value(self, s) -> float:
        s = _as_vector(self.dim, s)
        total = 0.0
        for l, t in enumerate(self.tensors, start=1):
            total += float(t.contract([s] * l)) / math.factorial(l)
        return total

    def gradient(self, s) -> np.ndarray:
        s = _as_vector(self.dim, s)
        total = np.zeros(self.dim)
        for l, t in enumerate(self.tensors, start=1):
            total += t.contract([s] * (l - 1)) / math.factorial(l - 1)
        return total


@dataclass(frozen=True)
class RegularizedModel:
    """``RegularizedModel(taylor, sigma, beta, space)``: the Taylor model plus
    the power-norm regularizer ``sigma |s|^(p+beta) / G``, p the Taylor degree.

    The normalizing factor G is the Gamma-function extension of the
    factorial, ``G = Gamma(p + beta + 1)``, so that integer beta = 1
    reproduces ``(p+1)!``.
    """

    taylor: TaylorModel
    sigma: float
    beta: float
    space: NormedSpace

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise TensorError(f"beta must lie in (0, 1], got {self.beta!r}")
        if self.space.n != self.taylor.dim:
            raise TensorError("space dimension does not match the Taylor model")

    @property
    def p(self) -> int:
        return self.taylor.degree

    @property
    def reg_exponent(self) -> float:
        return self.p + self.beta

    def value(self, s) -> float:
        e = self.reg_exponent
        return self.taylor.value(s) + (
            self.sigma / math.gamma(e + 1.0) * _pow(self.space.norm(s), e)
        )

    def gradient(self, s) -> np.ndarray:
        e = self.reg_exponent
        return self.taylor.gradient(s) + self.sigma / math.gamma(e) * self.space.duality_map(s, e)
