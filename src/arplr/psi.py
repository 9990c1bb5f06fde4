"""Univariate descent profiles ``psi(t) = -alpha t + sum_i kappa_i t^gamma_i``.

With alpha > 0, kappa_i > 0 and all gamma_i > 1 the profile is strictly
convex on t >= 0, starts with negative slope, and has a unique positive
minimizer with a strictly negative value.  ``psi_descent_bound`` gives the
closed-form guarantee on that value in terms of the smallest and largest
exponents; single-term profiles with gamma = 2 attain it exactly.
``psi_minimize`` finds the minimizer with the inner line search's own
bracket and root finder, for minimizers up to about 1e30.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .inner import _first_root

__all__ = ["PsiSpec", "psi_eval", "psi_derivative", "psi_minimize", "psi_descent_bound"]


@dataclass(frozen=True)
class PsiSpec:
    """Slope alpha and power terms (kappa_i, gamma_i), ascending in gamma."""

    alpha: float
    terms: tuple

    def __post_init__(self):
        if not 0.0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        terms = tuple((float(k), float(g)) for k, g in self.terms)
        if not terms:
            raise ValueError("at least one power term is required")
        for k, g in terms:
            if not 0.0 < k < math.inf:
                raise ValueError("term weights must be positive and finite")
            if not 1.0 < g < math.inf:
                raise ValueError("term exponents must exceed 1 and be finite")
        if any(terms[i][1] > terms[i + 1][1] for i in range(len(terms) - 1)):
            raise ValueError("terms must be sorted ascending by exponent")
        object.__setattr__(self, "terms", terms)


def psi_eval(spec: PsiSpec, t: float) -> float:
    if t < 0:
        raise ValueError("profile is defined for t >= 0")
    return -spec.alpha * t + sum(k * t ** g for k, g in spec.terms)


def psi_derivative(spec: PsiSpec, t: float) -> float:
    return -spec.alpha + sum(k * g * t ** (g - 1.0) for k, g in spec.terms)


def psi_minimize(spec: PsiSpec) -> tuple:
    """Unique positive minimizer and its (negative) value.

    The derivative is strictly increasing with a single sign change, so the
    minimizer is its root, found as the inner line search finds a convex
    ray's (``inner._first_root``): the bracket [0, 1] doubles until the
    derivative turns positive; an end where ``psi' <= 1e-12 alpha`` is the
    root, else regula falsi polishes it until |psi'| <= 1e-12 alpha or the
    bracket is narrower than 1e-15 t.  The bracket stops doubling at
    2^100 (about 1.3e30, the line search's cap at a start of 1), so a
    profile whose minimizer lies beyond it raises ``ArithmeticError``.
    """
    deriv = functools.partial(psi_derivative, spec)
    t = _first_root(deriv, 1.0, -spec.alpha, 1e-12 * spec.alpha)
    if t is None:
        raise ArithmeticError("minimizer bracket grew beyond float range")
    return t, psi_eval(spec, t)


def psi_descent_bound(spec: PsiSpec) -> float:
    """Closed-form upper bound on the minimum value (a negative number).

    Returns ``-min(kA * alpha^(gm/(gm-1)), kB * alpha^(g1/(g1-1)))`` where
    g1 and gm are the extreme exponents and

        kA = (sum kappa_i gamma_i)^(-1/(gm-1)) * (1 - sum kappa_i / sum kappa_i gamma_i)
        kB = (sum kappa_i gamma_i)^(-1/(g1-1)) * (1 - sum kappa_i / sum kappa_i gamma_i)

    i.e. the constant with the 1/(gm-1) weight-exponent pairs with the
    gm-based power of alpha and vice versa, which is the internally
    consistent pairing.  Branches are evaluated in log space so that an
    astronomically large branch degrades to ``inf`` instead of NaN.
    """
    sum_k = sum(k for k, _ in spec.terms)
    sum_kg = sum(k * g for k, g in spec.terms)
    factor = 1.0 - sum_k / sum_kg  # positive since every gamma exceeds 1
    g1 = spec.terms[0][1]
    gm = spec.terms[-1][1]
    log_alpha = math.log(spec.alpha)
    log_sum_kg = math.log(sum_kg)
    log_factor = math.log(factor)

    def branch(g_weight: float, g_alpha: float) -> float:
        log_val = (
            -log_sum_kg / (g_weight - 1.0)
            + g_alpha / (g_alpha - 1.0) * log_alpha
            + log_factor
        )
        try:
            return math.exp(log_val)
        except OverflowError:
            return math.inf

    return -min(branch(gm, gm), branch(g1, g1))
