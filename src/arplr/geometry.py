"""l^r norm geometry on R^n.

Provides the primal norm, its dual norm, the duality map (gradient of
``|.|^p / p``), the steepest-descent dual direction, and a Monte-Carlo
estimate of the modulus of smoothness.  R^n with the l^r norm is a
uniformly min(r, 2)-smooth space for 1 < r < infinity, which is why the
endpoints r = 1 and r = infinity are rejected at construction.

Every power sum goes through one kernel, ``_lr``, which scales the vector
by the power of two just above its largest entry before raising entries to
the r-th power.  Multiplying by a power of two is exact in binary floating
point, so wherever the unscaled power sum neither overflows nor underflows
the scaled one carries the same bits: at r = 2 every result is identical
to the unscaled formula, which a vector whose sum of squares lies in
(2^-900, 2^1000) takes directly, and a row's norm is its vector's; for
other r they agree up to the rounding of ``pow``.  Where the unscaled sum
fails, the geometry stays finite and nonzero at every representable
magnitude, subnormal peaks included, instead of overflowing to NaN or
underflowing to 0; a norm past the largest double is ``inf``.
It does so at every exponent: past r = 1022 the scaled peak term 2^-r may
fall below the smallest normal double, and a power sum that does is redone
on the vector divided by its peak, whose peak term is exactly 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = ["GeometryError", "NormedSpace", "smoothness_modulus_estimate"]


class GeometryError(ValueError):
    """Misuse of a normed-space operation (bad exponent, shape, or input)."""


def _as_vector(n: int, v) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (n,):
        raise GeometryError(f"expected a vector of dimension {n}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise GeometryError("vector entries must be finite")
    return arr


# the smallest normal double: a scaled power sum below it lost its peak term
_TINY = sys.float_info.min
# at r = 2, the window of a sum of squares np.vdot(a, a) whose square root
# needs no power-of-two scaling
_SUMSQ_MIN, _SUMSQ_MAX = 2.0 ** -900, 2.0 ** 1000


def _lr(a: np.ndarray, r: float, work: np.ndarray | None = None):
    """``(|a|_r, v)`` for a vector, with v its duality vector
    ``sign(a_i) (|a_i| / |a|_r)^(r-1)`` (at r = 2, ``a / |a|_r``), or the
    norms and duality vectors of the rows of a 2-D array; ``a`` is only read.

    At r = 2 a vector with ``2^-900 < np.vdot(a, a) < 2^1000`` skips the
    scaling: there the ``np.add`` reduction of ``a * a``, not vdot's BLAS
    sum, has the bits of the scaled sum times 2^2k.

    Entries are multiplied by ``2^-k``, where ``2^k`` is the power of two
    just above the largest magnitude (the ``frexp`` exponent), before they
    are raised to the power r, and the sum's root is multiplied back by
    ``2^k``.  Where that sum is below the smallest normal double, which
    takes r > 1022, the vector or row is redone on ``|a| / peak``, whose
    peak term is exactly 1, and the root is multiplied by the peak.  A zero
    vector or row has norm 0 and a zero duality vector.
    A subnormal peak, whose ``2^-k`` need not be a double, is first lifted
    by an exact ``2^1000`` in a copy; a norm past the largest double is
    ``inf``, with a zero duality vector.  A NaN or infinite entry gives a
    NaN or infinite norm and a meaningless vector; ``NormedSpace`` rejects
    such input before it gets here.  A vector's peak is the entry
    ``argmax`` finds (a NaN if there is one), a row's the ``np.maximum``
    reduction, and each sum the ``np.add`` reduction that ``ndarray.sum``
    wraps: the bits of ``max`` and ``sum`` without the wrappers' overhead.

    v is formed in place from ``|a|`` (for a 2-D ``a`` in ``work``, an
    array of a's shape or None to allocate one, which holds the scaled
    powers first), with the bits of ``copysign(|u|^(r-1), u)`` for the unit
    vector ``u = a / |a|_r``, which at r = 2 are u's own.  At r = 2 every
    root is a correctly rounded square root (``math.sqrt``, NumPy's
    ``** 0.5``), so a row's norm is its vector's; otherwise a vector's root
    is a Python float power and a row's a NumPy array power, and the two may
    differ by one ulp.
    """
    if a.ndim == 1:
        if r == 2.0 and _SUMSQ_MIN < float(np.vdot(a, a)) < _SUMSQ_MAX:  # silent on overflow
            nrm = math.sqrt(float(np.add.reduce(a * a)))
            return nrm, a / nrm
        b = np.abs(a)
        peak = float(b[b.argmax()])
        if not 0.0 < peak < math.inf:
            return peak, a
        k = math.frexp(peak)[1]
        if k < -1021:
            nrm, v = _lr(a * 2.0 ** 1000, r)
            return math.ldexp(nrm, -1000), v
        c = b * math.ldexp(1.0, -k)
        c **= r
        total = float(np.add.reduce(c))
        if total < _TINY:  # r > 1022: redo on |a| / peak, whose peak term is 1
            nrm = peak * float(np.add.reduce((b / peak) ** r)) ** (1.0 / r)
        else:
            root = math.sqrt(total) if r == 2.0 else total ** (1.0 / r)
            # only a peak above 2^960 can push the norm past the largest double
            nrm = math.inf if k > 960 and k + math.frexp(root)[1] > 1024 else math.ldexp(root, k)
        b /= nrm
    else:
        b = np.abs(a, out=work)
        peak = np.maximum.reduce(b, axis=1)
        k = np.frexp(peak)[1]  # 0 for a zero or non-finite row
        if np.minimum.reduce(k) < -1021:
            lift = np.where(k < -1021, 1000, 0)
            nrm, v = _lr(a * np.ldexp(1.0, lift)[:, None], r, b)
            return np.ldexp(nrm, -lift), v
        b *= np.ldexp(1.0, -k)[:, None]
        b **= r
        total = np.add.reduce(b, axis=1)
        with np.errstate(over="ignore"):  # a norm past the largest double is inf
            nrm = np.ldexp(total ** (1.0 / r), k)
            low = total < _TINY
            if low.any():  # a zero row, or r > 1022: redo on |a| / peak
                low &= peak > 0.0
                rows = np.abs(a[low]) / peak[low, None]
                nrm[low] = peak[low] * np.add.reduce(rows ** r, axis=1) ** (1.0 / r)
        np.abs(a, out=b)
        b /= np.where(nrm > 0.0, nrm, 1.0)[:, None]
    b **= r - 1.0
    return nrm, np.copysign(b, a, out=b)


def _pow(x: float, y: float) -> float:
    """``x ** y`` for a Python float x >= 0, or ``inf`` where the power
    passes the largest double and ``**`` raises ``OverflowError``."""
    try:
        return x ** y
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class NormedSpace:
    """R^n equipped with the l^r norm, 1 < r < infinity.

    The dual space carries the conjugate norm with exponent r/(r-1).
    """

    n: int
    r: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise GeometryError(f"dimension must be a positive integer, got {self.n!r}")
        if not (1.0 < float(self.r) < math.inf):
            raise GeometryError(
                f"norm exponent must lie strictly between 1 and infinity, got {self.r!r}"
            )

    @property
    def r_dual(self) -> float:
        """Conjugate exponent, 1/r + 1/r_dual = 1."""
        return self.r / (self.r - 1.0)

    # -- norms -------------------------------------------------------------

    def norm(self, v) -> float:
        return _lr(_as_vector(self.n, v), self.r)[0]

    def dual_norm(self, g) -> float:
        return _lr(_as_vector(self.n, g), self.r_dual)[0]

    # -- duality -----------------------------------------------------------

    def duality_map(self, x, p: float) -> np.ndarray:
        """Gradient of ``|.|^p / p`` at x, for p > 1.

        Characterized by ``<J(x), x> = |x|^p`` and ``|J(x)|_* = |x|^(p-1)``;
        maps 0 to 0.  Computed in the scaled form
        ``sign(x_i) (|x_i|/|x|)^(r-1) |x|^(p-1)`` to avoid overflow when
        p < r and |x| is tiny.
        """
        if not p > 1.0:
            raise GeometryError(f"duality map requires exponent p > 1, got {p!r}")
        nx, v = _lr(_as_vector(self.n, x), self.r)
        return v * _pow(nx, p - 1.0)

    def dual_direction(self, g) -> np.ndarray:
        """Unit-norm d attaining the dual pairing, ``<g, d> = |g|_*``.

        For the l^r norm: ``d_i = sign(g_i) (|g_i| / |g|_*)^(r_dual - 1)``.
        Raises if g = 0, which signals first-order stationarity; callers
        must test the dual norm before asking for a direction.
        """
        gn, d = _lr(_as_vector(self.n, g), self.r_dual)
        if gn == 0.0:
            raise GeometryError("dual direction undefined at g = 0 (stationary point)")
        return d


def smoothness_modulus_estimate(
    space: NormedSpace, t: float, samples: int, seed=0
) -> float:
    """Monte-Carlo lower estimate of the modulus of smoothness at t.

    The modulus is the supremum of ``(|x+y| + |x-y|)/2 - 1`` over |x| = 1
    and |y| = t; sampling pairs gives a lower bound on it, so the estimate
    can be compared against upper envelopes such as t^2/2 in the r = 2
    case.  Each sample is divided by its row norm from one ``_lr`` pass.
    """
    if not 0.0 <= t < math.inf:
        raise GeometryError(f"modulus argument t must be finite and nonnegative, got {t!r}")
    if t == 0.0:
        return 0.0
    if not 1 <= samples < math.inf:  # a NaN fails both comparisons
        raise GeometryError(f"need a finite count of at least one sample, got {samples!r}")
    rng = np.random.default_rng(seed)
    best = 0.0
    remaining = int(samples)
    while remaining > 0:
        m = min(remaining, 200_000)
        x = rng.standard_normal((m, space.n))
        y = rng.standard_normal((m, space.n))
        x = x / _lr(x, space.r)[0][:, None]
        y = t * (y / _lr(y, space.r)[0][:, None])
        vals = (_lr(x + y, space.r)[0] + _lr(x - y, space.r)[0]) / 2.0 - 1.0
        best = max(best, float(vals.max()))
        remaining -= m
    return best
