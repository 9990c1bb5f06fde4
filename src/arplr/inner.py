"""Steepest descent in the dual pairing with a one-dimensional line search.

Minimizes a regularized model starting from s = 0: at each iteration the
dual-attaining unit direction of the current model gradient is computed and
the model is minimized along that ray (see "One-dimensional minimization"
below for what the line search returns).  The iteration stops once the
dual gradient norm falls below ``max(grad_tol, theta |s|^(p+beta-1))``
(the step-power branch is only armed once s is nonzero, since at s = 0 it
could never fire before the absolute branch).

Cost of one iteration, in l^r passes (``geometry._lr``, each of which
returns a vector's norm and its duality vector): one over the model
gradient, which gives its dual norm and the dual direction; one over s,
which gives the regularizer's gradient, its value at s and the step-power
norm, and which the ray (``_RayEval``) is built with for t = 0; and for
r != 2 one per new point that the line search evaluates on the ray, whose
slope there is one dot product of that duality vector with d.  The next
pass over s is the ray's at the accepted point, which for r != 2 costs
none when that was the last point evaluated.  Then one contraction
(``contract``) per order-l tensor with l - 1 copies of d, which dot
products with s and d finish into the ray coefficients l - 1 and l (from
order 4 up a lower one contracts the full tensor); at p = 2 it is H d,
which also updates H s, and otherwise the Taylor gradient at s takes one
more per tensor.  A
contraction costs O(n) for the diagonal tensors of separable oracles and
for the banded (tridiagonal) pendulum Hessian, and O(n^l) for a dense
order-l tensor; a pure diagonal gives the bits of its dense form.  The
line search runs on the coefficients as Python floats, through the ray's
slope and value functions (``_RayEval.scalar``): at r = 2 two closures
over the ray's floats, since the squared norm along the ray is a quadratic
in t.  When the ray polynomial is not convex, one array scan of the ray
brackets its minima; for r != 2 that scan is one row-wise l^r pass over
the grid points, in two (grid x n) buffers that each thread keeps
(``_scratch``).  The gradient and direction have the bits of
``RegularizedModel.gradient`` and ``NormedSpace.dual_direction`` (but for
p = 2, which updates H s), and the coefficients those of full
contractions: ``test_reported_dual_norm_is_the_model_gradient_dual_norm``,
``test_inner_rays_match_the_model_methods_bit_for_bit`` and
``test_ray_share_matches_full_contractions`` pin it.

One-dimensional minimization: the polynomial restriction of the Taylor part
is combined with the norm regularizer, which is convex in the ray parameter.
When the polynomial part is convex too (nonnegative coefficients beyond the
linear one — always the case for order-1 models and for order-2 models with
nonnegative curvature along the ray) the line search returns the unique
minimizer, the root of the derivative (``_first_root``): a bracket doubles
until the slope turns positive or +inf (``_grow``), and regula falsi
(``_refine_root``, which bisects while that slope is infinite) refines the
root until the slope is small or the bracket is narrower than 1e-15 of its
upper end, a relative exit that resolves roots far below 1 too.
``psi.psi_minimize`` runs on the same search.  Otherwise a bracket is grown
until the ray value exceeds its value at 0, the derivative is scanned on a
mixed linear/geometric grid, and the grid's least point and each minimum
that a slope change from - to + brackets are the candidates; the best of
them can miss a deeper minimum beyond the bracket.  The best one is taken
if its value is finite and strictly below m(s); else (say the bracket
stopped on a NaN or -inf slope, or at the 1e30 cap still descending) the
solve ends on ``PROGRESS_FLOOR``.
"""

from __future__ import annotations

import enum
import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .geometry import _lr, _pow
from .tensors import RegularizedModel

__all__ = ["InnerResult", "Termination", "minimize_model", "default_max_iters"]


class Termination(enum.Enum):
    GRADIENT_BELOW_TOL = "gradient_below_tol"
    STEP_POWER_RULE = "step_power_rule"
    ZERO_GRADIENT = "zero_gradient"
    MAX_ITERS = "max_iters"
    # no representable decrease (or none below the 1e30 bracket cap) along
    # the ray, or the model gradient's dual norm passes the largest double
    PROGRESS_FLOOR = "progress_floor"


def default_max_iters(n: int, p: int, grad_tol: float) -> int:
    """Pragmatic iteration guard: 10 n (p+1) ceil(log10(1/grad_tol))."""
    digits = max(1, math.ceil(math.log10(1.0 / grad_tol)))
    return 10 * n * (p + 1) * digits


@dataclass(frozen=True)
class InnerResult:
    s: np.ndarray
    step_norm: float  # |s|_r
    model_grad_dual_norm: float
    iterations: int
    termination: Termination
    value_history: tuple  # model values, starting at m(0)


_thread = threading.local()


def _scratch(rows: int, n: int):
    """Two ``(rows, n)`` float arrays for the grid scan of ``_RayEval.batch``,
    views of one array that each thread keeps and replaces only when the
    shape changes, so a repeated scan allocates no (rows x n) memory."""
    buf = getattr(_thread, "scratch", None)
    if buf is None or buf.shape != (2, rows, n):
        buf = _thread.scratch = np.empty((2, rows, n))
    return buf[0], buf[1]


def _horner(coeffs, t):
    """``sum_j coeffs[j] t^j`` by the recurrence of numpy's ``polyval``, so a
    Python float t gives the same bits as it does, and an array t too."""
    acc = coeffs[-1] + t * 0
    for c in coeffs[-2::-1]:
        acc = c + acc * t
    return acc


class _RayEval:
    """Cached evaluation of a model along the ray ``anchor - t direction``.

    ``coeffs`` (Python floats) is the Taylor part as a polynomial in t; the
    regularizer ``reg_v |s|^e`` has derivative weight ``reg_d``, both as
    ``minimize_model`` computes them once per model, and ``(nw, du) =
    _lr(anchor, r)`` is the anchor's l^r pass.  ``scalar`` gives the ray's
    slope and value as functions of a Python float t, and ``batch`` both on
    an array of t.  For r != 2 a scalar evaluation makes an ``_lr`` pass
    over ``w = anchor - t direction``, and the last one is remembered (t,
    w, |w|_r and the duality vector), so a repeated t costs none; the
    memory starts with the anchor's pass at t = 0 (``anchor`` in place of
    ``anchor - 0 direction``: they differ at most in the sign of zero
    entries).
    """

    __slots__ = ("anchor", "direction", "coeffs", "dcoeffs", "r", "e",
                 "reg_v", "reg_d", "is_r2", "qa", "qb", "t", "w", "nw", "du")

    def __init__(self, coeffs: list, anchor, direction, r, e, reg_v, reg_d, nw: float, du):
        self.anchor = anchor
        self.direction = direction
        self.coeffs = coeffs
        self.dcoeffs = [j * coeffs[j] for j in range(1, len(coeffs))]
        self.r = r
        self.e = e
        self.reg_v = reg_v
        self.reg_d = reg_d
        self.is_r2 = self.r == 2.0
        if self.is_r2:
            self.qa = float(self.anchor.dot(self.anchor))
            self.qb = float(self.anchor.dot(self.direction))
        self.t, self.w, self.nw, self.du = 0.0, anchor, nw, du

    def _norm(self, t: float) -> float:
        # |w|_r at w = anchor - t d, from memory when t is the remembered one
        if t != self.t:
            w = self.anchor - t * self.direction
            self.nw, self.du = _lr(w, self.r)
            self.t, self.w = t, w
        return self.nw

    def point(self, t: float):
        """``(w, |w|_r, duality vector)`` at ``w = anchor - t direction``,
        from memory when t is the remembered parameter."""
        self._norm(t)
        return self.w, self.nw, self.du

    def scalar(self):
        """``(slope, value)``: the ray's derivative and value as functions
        of a float t.  For r = 2 they are closures over local floats (the
        polynomial coefficients, the squared norm ``qa - 2 qb t + t^2``
        clamped at 0, the regularizer weights and exponents); the slope
        inlines ``_horner``'s recurrence, bit for bit.  For other r,
        ``_deriv`` and ``_value``."""
        if not self.is_r2:
            return self._deriv, self._value
        coeffs, dtop, drest = self.coeffs, self.dcoeffs[-1], self.dcoeffs[-2::-1]
        qa, qb, qb2 = self.qa, self.qb, 2.0 * self.qb
        reg_v, reg_d = self.reg_v, self.reg_d
        vexp, dexp = 0.5 * self.e, 0.5 * (self.e - 2.0)

        def slope(t: float) -> float:
            poly = dtop + t * 0.0  # as _horner: NaN at an infinite t
            for c in drest:
                poly = c + poly * t
            q = qa - qb2 * t + t * t
            if q <= 0.0:  # clamped at 0, where the regularizer's slope vanishes
                return poly
            return poly + reg_d * _pow(q, dexp) * (t - qb)

        def value(t: float) -> float:
            return _horner(coeffs, t) + reg_v * _pow(max(qa - qb2 * t + t * t, 0.0), vexp)

        return slope, value

    def _value(self, t: float) -> float:
        return _horner(self.coeffs, t) + self.reg_v * _pow(self._norm(t), self.e)

    def _deriv(self, t: float) -> float:
        # d/dt |w| = -sum_i sign(u_i) |u_i|^(r-1) d_i with u = w / |w|, and
        # the term vanishes with |w|^(e-1) where w = anchor - t d is 0
        nw = self._norm(t)
        num = -float(self.du.dot(self.direction))
        return _horner(self.dcoeffs, t) + self.reg_d * _pow(nw, self.e - 1.0) * num

    def batch(self, ts: np.ndarray):
        """Ray values and derivatives at every t of ``ts``, as new arrays."""
        pvals = _horner(self.coeffs, ts)
        pders = _horner(self.dcoeffs, ts)
        if self.is_r2:
            q = np.maximum(self.qa - 2.0 * self.qb * ts + ts * ts, 0.0)
            vals = pvals + self.reg_v * q ** (0.5 * self.e)
            pos = q > 0.0
            ders = pders + np.where(
                pos, self.reg_d * np.where(pos, q, 1.0) ** (0.5 * (self.e - 2.0)) * (ts - self.qb), 0.0
            )
            return vals, ders
        pts, work = _scratch(len(ts), len(self.direction))
        np.multiply.outer(ts, self.direction, out=pts)
        np.subtract(self.anchor, pts, out=pts)
        norms, du = _lr(pts, self.r, work)  # deriv's pass, row by row
        num = -np.dot(du, self.direction)
        vals = pvals + self.reg_v * norms ** self.e
        return vals, pders + self.reg_d * norms ** (self.e - 1.0) * num


def _add_ray_share(coeffs: list, tensor, lead, s0: np.ndarray, d: np.ndarray) -> None:
    """Add an order-l tensor's share of the Taylor coefficients 2..l along
    ``s0 - t d``, given ``lead = tensor.contract([d] * (l - 1))``: every
    full contraction ends in the ``dot`` that finishes it here."""
    l = tensor.order
    if l == 2:  # the loop and the l - 1 term below are empty, the sign +1
        coeffs[2] += float(lead.dot(d)) / 2.0
        return
    scale = math.factorial(l)
    for j in range(2, l - 1):
        partial = tensor.contract([d] * j + [s0] * (l - j))
        coeffs[j] += math.comb(l, j) * (-1.0) ** j * float(partial) / scale
    coeffs[l - 1] += l * (-1.0) ** (l - 1) * float(lead.dot(s0)) / scale
    coeffs[l] += (-1.0) ** l * float(lead.dot(d)) / scale


def _refine_root(fun, a, b, fa, fb, ftol):
    """At most 80 regula falsi (Illinois) steps on a sign-change bracket
    ``0 <= a < b``, returning the last iterate t.  They stop once
    ``|fun(t)| <= ftol`` or the bracket is narrower than 1e-15 b; the width
    is relative, so a root far below 1 is resolved too.

    After 6 steps in a row that keep the same end, which is how Illinois
    stalls when that end's value is huge, one bisection step follows: in
    the exponent (the geometric mean) while ``b > 4 a > 0``, else at the
    midpoint, so the 80 steps bound the error on any bracket."""
    t, ft = a, fa
    side = 0
    kept = 0  # steps in a row that kept the same end
    for _ in range(80):
        if kept >= 6:
            t = math.sqrt(a) * math.sqrt(b) if b > 4.0 * a > 0.0 else 0.5 * (a + b)
            kept = 0
        else:
            t = (fa * b - fb * a) / (fa - fb)
            if not a < t < b:
                t = 0.5 * (a + b)
        ft = fun(t)
        if abs(ft) <= ftol or (b - a) <= 1e-15 * abs(b):
            return t
        if (ft > 0.0) == (fb > 0.0):
            b, fb = t, ft
            if side == -1:
                fa *= 0.5
            kept = kept + 1 if side == -1 else 1
            side = -1
        else:
            a, fa = t, ft
            if side == 1:
                fb *= 0.5
            kept = kept + 1 if side == 1 else 1
            side = 1
    return t


@functools.cache
def _unit_grid(points: int) -> np.ndarray:
    """Scan abscissae on [0, 1]: a linear grid plus a geometric refinement
    toward 0 for stationary points far below the bracket scale.  Built once
    per point count and shared, so it is read-only."""
    half = max(points // 2, 8)
    grid = np.sort(
        np.concatenate([np.linspace(0.0, 1.0, points), np.geomspace(1e-12, 1.0, half)])
    )
    grid.flags.writeable = False
    return grid


def _grow(fun, t: float, test):
    """Double t while ``test(fun(t))`` holds and t < 1e30; the last
    ``(t, fun(t))``.  From a start of at least 1e-12 that is at most 140
    doublings, and a NaN or infinite start stops at once."""
    ft = fun(t)
    while test(ft) and t < 1e30:
        t *= 2.0
        ft = fun(t)
    return t, ft


def _first_root(slope, start: float, slope0: float, ftol: float):
    """The root past 0 of an increasing slope that is ``slope0 < 0`` at 0:
    ``_grow`` doubles the bracket [0, start] until the slope turns positive
    or +inf, then ``_refine_root`` refines the root on it.  None if the
    slope reads NaN or -inf first, or is still negative at the 1e30 cap."""
    t_hi, d_hi = _grow(slope, start, lambda d: -math.inf < d <= 0.0)
    if not d_hi > 0.0:
        return None
    return _refine_root(slope, 0.0, t_hi, slope0, d_hi, ftol)


def _line_minimize(ev: _RayEval, sigma: float, gamma_e1: float, value: float):
    """A minimizer of ``tau -> m(s - tau d)`` over tau >= 0, for a model of
    weight sigma with ``gamma_e1 = Gamma(e + 1)``: on a convex ray the
    unique one, otherwise the best candidate of a grid scan, which can miss
    a deeper minimum beyond the scan's bracket.

    Returns ``(tau, m(s - tau d))`` as Python floats if that value is
    finite and strictly below ``value = m(s)``, else None (the slope at
    tau = 0 is minus the dual gradient norm, so a decrease exists in exact
    arithmetic).  An overflowing bracket start gives none.
    """
    v0 = value
    slope, val = ev.scalar()
    slope0 = slope(0.0)
    ftol = 1e-12 * max(1.0, -slope0)  # root tolerance on the ray derivative

    # scale at which the regularizer alone overtakes the initial slope
    scale = max(_pow((-slope0) * gamma_e1 / sigma, 1.0 / (ev.e - 1.0)), 1e-12)
    if not scale < math.inf:  # overflowed to inf or NaN
        return None

    if all(c >= 0.0 for c in ev.coeffs[2:]):
        # polynomial part convex, so the whole ray function is: the
        # minimizer is the unique positive root of the derivative
        root = _first_root(slope, scale, slope0, ftol)
        candidates = [] if root is None else [root]
    else:
        candidates = []
        t_hi, _ = _grow(val, scale, lambda v: math.isfinite(v) and v <= v0)
        grid = t_hi * _unit_grid(64 * len(ev.coeffs))
        vals, dvals = ev.batch(grid)
        finite = np.isfinite(vals)
        if finite.any():
            candidates.append(float(grid[int(np.argmin(np.where(finite, vals, np.inf)))]))
        for i in np.nonzero((dvals[:-1] < 0.0) & (dvals[1:] > 0.0))[0]:
            (a, b), (fa, fb) = grid[i:i + 2].tolist(), dvals[i:i + 2].tolist()
            candidates.append(_refine_root(slope, a, b, fa, fb, ftol))

    best_t, best_v = 0.0, v0
    for t in candidates:
        v = val(t)
        if math.isfinite(v) and v < best_v:
            best_t, best_v = t, v
    return (best_t, best_v) if best_t > 0.0 else None


def minimize_model(model: RegularizedModel, grad_tol: float, theta: float | None = None,
                   max_iters: int | None = None) -> InnerResult:
    """Run the dual-direction descent on a coercive regularized model.

    From s = 0 it stops once ``|grad m(s)|_* <= max(grad_tol, theta
    |s|^(p+beta-1))``, the theta branch armed only when theta is given and
    s is nonzero, or after ``max_iters`` iterations, by default
    ``default_max_iters(n, p, grad_tol)``.
    """
    if not model.sigma > 0.0:
        raise ValueError("model must have a positive regularization weight")
    if not grad_tol > 0.0:
        raise ValueError("gradient tolerance must be positive")
    if theta is not None and not theta > 0.0:
        raise ValueError("step-power coefficient theta must be positive")
    if max_iters is None:
        max_iters = default_max_iters(model.space.n, model.p, grad_tol)
    elif max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    space = model.space
    r, r_dual = space.r, space.r_dual
    e = model.reg_exponent
    power = e - 1.0  # p + beta - 1, of |s| in the regularizer gradient and step-power rule
    gamma_e1 = math.gamma(e + 1.0)
    reg_v = model.sigma / gamma_e1
    reg_d = model.sigma / math.gamma(e)
    s = np.zeros(space.n)
    value = model.value(s)
    history = [value]
    iters = 0
    # for order-2 models the step is rank-one along d, so the Hessian
    # product with s can be maintained incrementally (one product per
    # iteration) with periodic exact refreshes against rounding drift
    quadratic = model.p == 2
    higher = model.taylor.tensors[1:]
    pad = [0.0] * len(higher)  # ray coefficients 2..p start at zero
    if quadratic:
        grad0 = model.taylor.tensors[0].entries
        hessian = higher[0]
        hessian_s = np.zeros(space.n)
    step_norm, du_s = _lr(s, r)
    while True:
        if quadratic:
            taylor_grad = grad0 + hessian_s
        else:
            taylor_grad = model.taylor.gradient(s)
        # plus the regularizer gradient as RegularizedModel.gradient forms
        # it (NormedSpace.duality_map of s), in one temporary: a product or
        # a sum has the same bits in either operand order
        pw = _pow(step_norm, power)
        grad = du_s * pw
        grad *= reg_d
        grad += taylor_grad
        # its dual norm and NormedSpace.dual_direction of it
        grad_norm, d = _lr(grad, r_dual)
        if not grad_norm < math.inf:  # NaN or inf: the model left the double range
            term = Termination.PROGRESS_FLOOR
            break
        if grad_norm == 0.0:
            term = Termination.ZERO_GRADIENT
            break
        if grad_norm <= grad_tol:
            term = Termination.GRADIENT_BELOW_TOL
            break
        if theta is not None and step_norm > 0.0 and grad_norm <= theta * pw:
            term = Termination.STEP_POWER_RULE
            break
        if iters >= max_iters:
            term = Termination.MAX_ITERS
            break
        # the Taylor part of the model value at s
        taylor_value = value - reg_v * _pow(step_norm, e)
        # the Taylor part along s - t d as a polynomial in t: its value and
        # slope at s, then each tensor's share of the higher coefficients
        coeffs = [float(taylor_value), -float(taylor_grad.dot(d)), *pad]
        for tensor in higher:
            lead = tensor.contract([d] * (tensor.order - 1))
            _add_ray_share(coeffs, tensor, lead, s, d)
        ev = _RayEval(coeffs, s, d, r, e, reg_v, reg_d, step_norm, du_s)
        found = _line_minimize(ev, model.sigma, gamma_e1, value)
        if found is None:
            term = Termination.PROGRESS_FLOOR
            break
        tau, value = found
        # s - tau d and its l^r pass, shared with the line search when it
        # last evaluated the ray at tau
        s, step_norm, du_s = ev.point(tau)
        history.append(value)
        iters += 1
        if quadratic:
            hessian_s -= tau * lead  # H d at p = 2
            if iters % 256 == 0:
                hessian_s = hessian.contract([s])
    return InnerResult(
        s=s,
        step_norm=step_norm,
        model_grad_dual_norm=grad_norm,
        iterations=iters,
        termination=term,
        value_history=tuple(history),
    )
