"""Steepest descent in the dual pairing with a one-dimensional line search.

Minimizes a regularized model starting from s = 0: at each iteration the
dual-attaining unit direction of the current model gradient is computed and
the model is minimized along that ray (see "One-dimensional minimization"
below for what the line search returns).  The iteration stops once the
dual gradient norm falls below ``max(grad_tol, theta |s|^(p+beta-1))``
(the step-power branch is only armed once s is nonzero, since at s = 0 it
could never fire before the absolute branch).

Cost of one iteration, in l^r passes (``geometry._lr``, each of which
returns a vector's norm and its duality vector; at r = 2 one over a vector
whose sum of squares lies in (2^-900, 2^1000) is four NumPy calls, without
the power-of-two scaling, and otherwise eight): one over the model
gradient, which gives its dual norm and the dual direction, and one per new
point at which the line search evaluates the ray: its value, and for r != 2
its slope, one dot product of that point's duality vector with d.  The ray
starts from the pass over s (the regularizer's gradient and value, the
step-power norm), and the next s's pass is the ray's at the accepted point,
so a step's value and the next ray's constant read one norm.
At r = 2 and p = 2 no point makes a pass: s carries its sum of squares
``q = np.vdot(s, s)``, |s| is ``math.sqrt(q)`` inside that window (else the
pass's norm), the regularizer's gradient is ``s (reg_d |s|^(e-2))``, with
no duality vector, and the next ray's squared norm at t = 0 is q; one pass
over the returned step gives ``step_norm`` the bits of ``NormedSpace.norm``.
A convex line search takes the value only at its root: 1 pass per iteration
at r = 2 and p = 2 (and 3 per solve: s = 0, the last gradient, the returned
step), 2 at r = 2 for other p, about 3 for r != 2 on the l^r pendulum runs.
Then one contraction (``contract``) per order-l tensor with
l - 1 copies of d, which dot products with s and d finish into the ray
coefficients l - 1 and l (from order 4 up a lower one contracts the full
tensor); at p = 2 it is H d, which also updates H s, and otherwise the
Taylor gradient at s takes one more per tensor.  A contraction costs O(n)
for the diagonal tensors of separable oracles and for the banded
(tridiagonal) pendulum Hessian, and O(n^l) for a dense order-l tensor; a
pure diagonal gives the bits of its dense form.  The line search runs on
the coefficients as Python floats, through the ray's slope and value
functions (``_RayEval.scalar``).  A convex ray of a p = 2 model (c2 >= 0)
runs the same search in ``_lean_step``, with no ``_RayEval``, and forms
its value once, at the root: at r = 2 on five floats (c0, c1, c2, |s|^2
and s . d), with one vector, the accepted point, and at other r on the
slope closure of ``_lr_ray``, which remembers its last point's pass and
starts from s's.  Only the rays of p != 2 models and nonconvex rays build a
``_RayEval``.  In all, an r = 2 iteration of the banded pendulum model
makes 20 NumPy calls (gradient 3, its pass 4, coefficients 7, the dot of s
and d 1, step and its sum of squares 3, H s 2) and an r != 2 one 22 plus 11
per new ray point, about 44; ``test_inner_iteration_call_budget`` bounds
the Python calls around them at mesh 32: 27.33 per r = 2 iteration and
48.06 and 45.56 per r = 1.5 and r = 3 one.  The shortcuts were measured
while each iteration also appended its model value to a list, one call
more (28.33, 49.06 and 46.56): with a ``_RayEval`` for every ray an
iteration made 36.33, 69.07 and 65.82, and with one, a pass over each
step made 38.33, no unscaled r = 2 pass in ``_lr`` 39.34, no r = 2 slope
closure 58.46 (the squared norm is a quadratic in t: no pass), no p = 2
update of H s by H d 52.33 (both without the carried sum of squares, which
they need) and no order-2 exit in ``_add_ray_share`` 37.33, so each of
these shortcuts pays.  When the ray polynomial is not convex, one array
scan of the ray's slope brackets its minima, for every r one row-wise l^r
pass over the grid points, in two (grid x n) buffers that each thread
keeps (``_scratch``).
The gradient and direction have the bits of ``RegularizedModel.gradient``
and ``NormedSpace.dual_direction`` (but for p = 2, which updates H s and at
r = 2 forms the regularizer's share from s), the coefficients those of full
contractions and the step norm that of ``NormedSpace.norm``:
``test_reported_dual_norm_is_the_model_gradient_dual_norm``,
``test_inner_rays_match_the_model_methods_bit_for_bit``,
``test_ray_share_matches_full_contractions`` and
``test_reported_step_norm_is_the_norm_of_the_step`` pin it.

One-dimensional minimization: the polynomial restriction of the Taylor part
is combined with the norm regularizer, which is convex in the ray parameter.
When the polynomial part is convex too (nonnegative coefficients beyond the
linear one — always the case for order-1 models and for order-2 models with
nonnegative curvature along the ray) the line search returns the unique
minimizer, the root of the derivative, by one search (``_first_root``).  Its
bracket [0, t] starts at the lesser of two scales: the Taylor scale t_T,
the least ``(-c_1 / (j c_j))^(1/(j-1))`` over the coefficients c_j > 0
beyond a descending linear one c_1 < 0, past which that one term's slope
alone cancels c_1, and the scale at which the regularizer alone overtakes
the initial slope.  The bracket doubles until the slope turns positive or
+inf; an end whose slope is at most 1e-12 of the initial
slope's size is the root, else regula falsi (``_refine_root``, which
bisects while that slope is infinite) refines it until the slope is small
or the bracket is narrower than 1e-15 of its upper end, a relative exit
that resolves roots far below 1 too.  ``psi.psi_minimize`` runs on the same
search.  Otherwise a bracket is grown until the ray value exceeds its value
at 0, the slope is scanned on a mixed linear/geometric grid, and
``_refine_root`` refines each root that a sign change from - to + brackets
(a slope of exactly 0 at a grid point brackets none, and a deeper minimum
can lie beyond the bracket).  A ray is measured from m(s), so it reads the
drop ``m(s - t d) - m(s)``: the Taylor part models f(x + s) - f(x), so no
drop carries the size of f, and the solve keeps none of them (from m(0) =
0 they add up to m(s)).  The best root is taken if its drop is finite and
negative; else (say the bracket stopped on a NaN or -inf slope, or at the
1e30 cap still descending) the solve ends on ``PROGRESS_FLOOR``.
"""

from __future__ import annotations

import enum
import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .geometry import _SUMSQ_MAX, _SUMSQ_MIN, _lr, _pow
from .tensors import RegularizedModel

__all__ = ["InnerResult", "Termination", "minimize_model", "default_max_iters"]


class Termination(enum.Enum):
    GRADIENT_BELOW_TOL = "gradient_below_tol"
    STEP_POWER_RULE = "step_power_rule"
    ZERO_GRADIENT = "zero_gradient"
    MAX_ITERS = "max_iters"
    # no negative drop m(s - t d) - m(s) along the ray (or none below the
    # 1e30 cap), or the model gradient's dual norm passes the largest double
    PROGRESS_FLOOR = "progress_floor"


def default_max_iters(n: int, p: int, grad_tol: float) -> int:
    """Pragmatic iteration guard: 10 n (p+1) ceil(log10(1/grad_tol))."""
    if not 0.0 < grad_tol < math.inf:
        raise ValueError("gradient tolerance must be positive and finite")
    return 10 * n * (p + 1) * max(1, math.ceil(-math.log10(grad_tol)))


@dataclass(frozen=True)
class InnerResult:
    """The step of an inner solve and how it ended.  The solve keeps no
    per-iteration values, so its memory does not depend on its iteration
    count."""

    s: np.ndarray
    step_norm: float  # |s|_r
    model_grad_dual_norm: float
    iterations: int
    termination: Termination


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


def _sumsq_point(anchor, direction, t: float):
    """``(w, |w|_2, q)`` at ``w = anchor - t direction``, with the sum of
    squares ``q = np.vdot(w, w)`` (silent on overflow) and ``|w|`` its
    ``math.sqrt`` inside ``_lr``'s unscaled window, else ``_lr``'s scaled
    norm: the bits of ``_lr(w, 2)[0]`` either way."""
    w = anchor - t * direction
    q = float(np.vdot(w, w))
    return w, (math.sqrt(q) if _SUMSQ_MIN < q < _SUMSQ_MAX else _lr(w, 2.0)[0]), q


def _r2_slope(dcoeffs: list, qa: float, qb: float, reg_d: float, e: float):
    """The slope of an l^2 ray ``anchor - t direction`` (a unit direction)
    as a closure over local floats: the Taylor slope coefficients, the
    squared norm ``qa - 2 qb t + t^2`` clamped at 0 (``qa = |anchor|^2``,
    ``qb = anchor . direction``), the regularizer weight and exponent.  It
    makes no NumPy call and inlines ``_horner`` and ``_pow``, bit for bit."""
    dtop, drest = dcoeffs[-1], dcoeffs[-2::-1]
    qb2 = 2.0 * qb
    dexp = 0.5 * (e - 2.0)

    def slope(t: float) -> float:
        poly = dtop + t * 0.0  # as _horner: NaN at an infinite t
        for c in drest:
            poly = c + poly * t
        q = qa - qb2 * t + t * t
        if q <= 0.0:  # clamped at 0, where the regularizer's slope vanishes
            return poly
        try:
            qe = q ** dexp
        except OverflowError:
            qe = math.inf
        return poly + reg_d * qe * (t - qb)

    return slope


def _lr_ray(c1: float, jc: float, anchor, direction, r: float, e: float, reg_d: float,
            nw: float, du):
    """``(slope, point)`` of the l^r ray ``anchor - t direction`` of a p = 2
    model, as closures: the slope ``c1 + jc t + reg_d |w|_r^(e-1) (-du .
    direction)`` at t, and ``point(anchor, direction, t)`` (called as
    ``_sumsq_point`` is, on this ray), ``(w, |w|_r, du)``, du the duality
    vector of ``w = anchor - t direction``.  They share ``_RayEval``'s
    memory of the last new point, seeded at t = 0 with the anchor's pass
    ``(nw, du) = _lr(anchor, r)``, and give the bits of its ``_deriv`` and
    ``point``; the slope inlines ``_horner``, ``_pow`` and the memory's
    update."""
    de = e - 1.0
    last_t, last_w = 0.0, anchor

    def slope(t: float) -> float:
        nonlocal last_t, last_w, nw, du
        if t != last_t:
            last_w = anchor - t * direction
            nw, du = _lr(last_w, r)
            last_t = t
        try:
            pw = nw ** de
        except OverflowError:
            pw = math.inf
        return c1 + (jc + t * 0.0) * t + reg_d * pw * -float(du.dot(direction))

    def point(anchor, direction, t: float):  # as _sumsq_point's
        nonlocal last_t, last_w, nw, du
        if t != last_t:
            last_w = anchor - t * direction
            nw, du = _lr(last_w, r)
            last_t = t
        return last_w, nw, du

    return slope, point


class _RayEval:
    """Cached evaluation of a model along the ray ``anchor - t direction``.

    ``coeffs`` (Python floats) is the Taylor part as a polynomial in t, less
    m(anchor) in ``minimize_model``, and ``dcoeffs`` its slope's; the
    regularizer ``reg_v |s|^e`` has derivative weight ``reg_d``, and
    ``(nw, du) = _lr(anchor, r)`` is the anchor's l^r pass, or at r = 2,
    given the anchor's sum of squares ``qa``, its norm alone.
    ``scalar`` gives the ray's slope and value as functions of a Python
    float t, and ``batch`` the slope alone on an array of t, by one
    row-wise ``_lr`` pass for every r.  A value, and for r != 2 a slope,
    makes an ``_lr`` pass over ``w = anchor - t direction`` (``point``),
    or with ``qa`` a sum of squares, and the last one is remembered (t, w,
    |w|_r and the duality vector or the sum of squares q), so a repeated t
    costs none; the memory starts with the anchor's at t = 0 (``anchor`` in
    place of ``anchor - 0 direction``: they differ at most in the sign of
    zero entries).
    """

    __slots__ = ("anchor", "direction", "coeffs", "dcoeffs", "r", "e",
                 "reg_v", "reg_d", "qa", "t", "w", "nw", "du", "q")

    def __init__(self, coeffs: list, anchor, direction, r, e, reg_v, reg_d, nw: float, du,
                 qa: float | None = None):
        self.anchor = anchor
        self.direction = direction
        self.coeffs = coeffs
        self.dcoeffs = [j * coeffs[j] for j in range(1, len(coeffs))]
        self.r = r
        self.e = e
        self.reg_v = reg_v
        self.reg_d = reg_d
        self.qa = qa
        self.t, self.w, self.nw, self.du, self.q = 0.0, anchor, nw, du, qa

    def point(self, t: float):
        """``(w, |w|_r, duality vector)`` at ``w = anchor - t direction``,
        from memory when t is the remembered parameter.  A ray built with
        ``qa`` (at r = 2) keeps ``q = np.vdot(w, w)`` and no duality vector
        (the anchor's du stays), and ``|w|`` is ``math.sqrt(q)`` inside
        ``_lr``'s unscaled window, else ``_lr``'s scaled norm."""
        if t != self.t:
            if self.qa is None:
                w = self.anchor - t * self.direction
                self.nw, self.du = _lr(w, self.r)
            else:
                w, self.nw, self.q = _sumsq_point(self.anchor, self.direction, t)
            self.t, self.w = t, w
        return self.w, self.nw, self.du

    def scalar(self):
        """``(slope, value)``: the ray's derivative and value as functions
        of a float t, ``_deriv`` and ``_value``, which read their ``_lr``
        pass through ``point``; but at r = 2 the slope is ``_r2_slope``'s
        closure, with ``qa = |anchor|^2`` if not given and ``qb = anchor .
        direction`` by ``np.vdot``, which is silent on overflow."""
        if self.r != 2.0:
            return self._deriv, self._value
        qa = float(np.vdot(self.anchor, self.anchor)) if self.qa is None else self.qa
        qb = float(np.vdot(self.anchor, self.direction))
        return _r2_slope(self.dcoeffs, qa, qb, self.reg_d, self.e), self._value

    def _value(self, t: float) -> float:
        return _horner(self.coeffs, t) + self.reg_v * _pow(self.point(t)[1], self.e)

    def _deriv(self, t: float) -> float:
        # d/dt |w| = -sum_i sign(u_i) |u_i|^(r-1) d_i with u = w / |w|, and
        # the term vanishes with |w|^(e-1) where w = anchor - t d is 0
        _, nw, du = self.point(t)
        num = -float(du.dot(self.direction))
        return _horner(self.dcoeffs, t) + self.reg_d * _pow(nw, self.e - 1.0) * num

    @np.errstate(over="ignore", invalid="ignore")
    def batch(self, ts: np.ndarray):
        """Ray derivatives at every t of ``ts``, as a new array; where the
        polynomial overflows on a far grid point they are inf or NaN."""
        pders = _horner(self.dcoeffs, ts)
        pts, work = _scratch(len(ts), len(self.direction))
        np.multiply.outer(ts, self.direction, out=pts)
        np.subtract(self.anchor, pts, out=pts)
        norms, du = _lr(pts, self.r, work)  # deriv's pass, row by row
        num = -np.dot(du, self.direction)
        return pders + self.reg_d * norms ** (self.e - 1.0) * num


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


def _first_root(slope, start: float, slope0: float, ftol: float):
    """The root past 0 of an increasing slope that is ``slope0 < 0`` at 0:
    the bracket [0, start] doubles from a positive start until the slope
    turns positive or +inf or the end reaches 1e30 (at most 1175 doublings).
    Its end is the root if the slope there is at most ``1e-12 * -slope0``
    (``ftol`` is absolute below ``-slope0 = 1``), else ``_refine_root``
    refines the root on it.  None if the slope reads NaN or -inf first, or
    is still negative at the 1e30 cap."""
    t, d = start, slope(start)
    while -math.inf < d <= 0.0 and t < 1e30:
        t *= 2.0
        d = slope(t)
    if not d > 0.0:
        return None
    if d <= 1e-12 * -slope0:
        return t
    return _refine_root(slope, 0.0, t, slope0, d, ftol)


def _start(slope0: float, t_taylor: float, sigma: float, gamma_e1: float, e: float):
    """``(start, ftol)`` of a line search whose ray has slope ``slope0`` at
    0: the lesser of the Taylor scale and the scale at which the regularizer
    alone overtakes the initial slope, floored at 1e-12 (``min`` and
    ``max`` in their operand order, which keep or pass over a NaN as those
    do), and the root tolerance ``1e-12 max(1, -slope0)``.  A Taylor scale
    that underflowed to 0 would never grow: the regularizer scale stands in
    for it, and ``t_taylor = inf`` gives the regularizer scale alone."""
    descent = -slope0
    try:  # _pow, inlined, so the helper adds no call to a line search
        scale = (descent * gamma_e1 / sigma) ** (1.0 / (e - 1.0))
    except OverflowError:
        scale = math.inf
    if 1e-12 > scale:  # max(scale, 1e-12), which keeps a NaN
        scale = 1e-12
    start = (scale if scale < t_taylor else t_taylor) or scale  # min(t_taylor, scale)
    return start, 1e-12 * (descent if descent > 1.0 else 1.0)  # max(1.0, -slope0)


def _lean_step(coeffs: list, s, d, r: float, e: float, reg_v: float, reg_d: float,
               nw: float, du, qa: float | None, sigma: float, gamma_e1: float):
    """``_line_minimize`` on a convex ray of a p = 2 model, on floats, with
    no ``_RayEval``: ``coeffs = [c0, c1, c2]`` with ``c2 >= 0`` and, at
    r = 2, the step's sum of squares ``qa`` and ``qb = s . d`` (the slope of
    ``_r2_slope``, ``_sumsq_point`` at tau), else the pass ``(nw, du) =
    _lr(s, r)`` (``_lr_ray``).  Returns ``(tau, drop, w, |w|_r, x)`` with
    the bits of ``_line_minimize(_RayEval(coeffs, s, d, r, e, reg_v, reg_d,
    nw, du, qa), sigma, gamma_e1, 0.0)`` and that ray's ``point(tau)``,
    where x is its ``q`` at r = 2 and else the duality vector of w, or None
    where that gives None.  The value is formed once, at the root."""
    c0, c1, c2 = coeffs
    jc = 2.0 * c2
    if r == 2.0:  # only the accepted point is a vector
        slope = _r2_slope([c1, jc], qa, float(np.vdot(s, d)), reg_d, e)
        point = _sumsq_point
    else:  # a pass per new point, the last one remembered
        slope, point = _lr_ray(c1, jc, s, d, r, e, reg_d, nw, du)
    slope0 = slope(0.0)
    # the Taylor scale as _line_minimize finds it: none (inf) at c1 = -inf
    t_taylor = -c1 / jc if jc > 0.0 and -math.inf < c1 < 0.0 else math.inf
    start, ftol = _start(slope0, t_taylor, sigma, gamma_e1, e)
    if not start < math.inf:
        return None
    tau = _first_root(slope, start, slope0, ftol)
    if tau is None:
        return None
    w, nw, x = point(s, d, tau)
    v = c0 + (c1 + c2 * tau) * tau + reg_v * _pow(nw, e)  # _RayEval._value
    return (tau, v, w, nw, x) if -math.inf < v < 0.0 and tau > 0.0 else None


def _line_minimize(ev: _RayEval, sigma: float, gamma_e1: float, value: float):
    """A local minimizer of ``tau -> m(s - tau d)``, tau > 0, for a model of
    weight sigma with ``gamma_e1 = Gamma(e + 1)``: a root of the ray's slope
    as ``_refine_root`` leaves it (|slope| <= ftol, or a sign change within
    1e-15 tau), on a convex ray the unique one, otherwise the best one that
    the grid scan brackets (a deeper minimum can lie beyond the scan).

    Returns ``(tau, ray value at tau)`` as Python floats if that value is
    finite and strictly below ``value``, the ray's value at 0 (0 for
    ``minimize_model``'s rays, measured from m(s)), else None (the slope at
    tau = 0 is minus the dual gradient norm, so a decrease exists in exact
    arithmetic).  A convex ray's root search (``_first_root``) starts at the
    lesser of its Taylor and regularizer scales, so it has no start only
    when neither is finite; a nonconvex ray's scan has none when the
    regularizer scale overflows.  One pass over the slope coefficients
    ``j c_j`` (j >= 2, each of the sign of c_j) finds convexity and the
    Taylor scale, and ``_start`` compares the scales in the operand order
    of ``min`` and ``max``, which keep or pass over a NaN as those do.
    """
    slope, val = ev.scalar()
    slope0 = slope(0.0)

    # past the Taylor scale one term j c_j t^(j-1) alone cancels c_1 < 0,
    # so the polynomial's slope is >= 0 there
    dcoeffs = ev.dcoeffs
    c1, t_taylor, convex = dcoeffs[0], math.inf, True
    for k in range(1, len(dcoeffs)):
        jc = dcoeffs[k]  # j c_j with j = k + 1
        if not jc >= 0.0:
            convex = False
            break
        if jc > 0.0 and c1 < 0.0:
            t_j = (-c1 / jc) ** (1.0 / k)  # a root (1/k <= 1): no overflow
            if t_j < t_taylor:
                t_taylor = t_j

    if convex:
        # polynomial part convex, so the whole ray function is: the
        # minimizer is the unique positive root of the derivative
        start, ftol = _start(slope0, t_taylor, sigma, gamma_e1, ev.e)
        if not start < math.inf:  # overflowed to inf or NaN
            return None
        tau = _first_root(slope, start, slope0, ftol)
        if tau is None:
            return None
        v = val(tau)
        return (tau, v) if -math.inf < v < value and tau > 0.0 else None
    scale, ftol = _start(slope0, math.inf, sigma, gamma_e1, ev.e)  # no Taylor scale
    if not scale < math.inf:
        return None
    # grow a bracket until the ray value exceeds ``value`` or is not finite,
    # then refine every root that a - to + sign change on the grid brackets
    t_hi, v = scale, val(scale)
    while math.isfinite(v) and v <= value and t_hi < 1e30:
        t_hi *= 2.0
        v = val(t_hi)
    grid = t_hi * _unit_grid(64 * len(ev.coeffs))
    dvals = ev.batch(grid)
    best_t, best_v = 0.0, value
    for i in np.nonzero((dvals[:-1] < 0.0) & (dvals[1:] > 0.0))[0]:
        (a, b), (fa, fb) = grid[i:i + 2].tolist(), dvals[i:i + 2].tolist()
        t = _refine_root(slope, a, b, fa, fb, ftol)
        v = val(t)
        if -math.inf < v < best_v:
            best_t, best_v = t, v
    return (best_t, best_v) if best_t > 0.0 else None


def minimize_model(model: RegularizedModel, grad_tol: float, theta: float | None = None,
                   max_iters: int | None = None) -> InnerResult:
    """Run the dual-direction descent on a coercive regularized model.

    From s = 0 it stops once ``|grad m(s)|_* <= max(grad_tol, theta
    |s|^(p+beta-1))``, the theta branch armed only when theta is given and
    s is nonzero, or after ``max_iters`` iterations, by default
    ``default_max_iters(n, p, grad_tol)``.  It carries only the step, its
    norm, its pass and at p = 2 H s from one iteration to the next, so its
    memory does not depend on its iteration count.
    """
    if not model.sigma > 0.0:
        raise ValueError("model must have a positive regularization weight")
    guard = default_max_iters(model.space.n, model.p, grad_tol)  # checks grad_tol
    if theta is not None and not theta > 0.0:
        raise ValueError("step-power coefficient theta must be positive")
    if max_iters is None:
        max_iters = guard
    elif not max_iters >= 1:
        raise ValueError("max_iters must be at least 1")
    space = model.space
    r, r_dual = space.r, space.r_dual
    e = model.reg_exponent
    power = e - 1.0  # p + beta - 1, of |s| in the regularizer gradient and step-power rule
    gamma_e1 = math.gamma(e + 1.0)
    reg_v = model.sigma / gamma_e1
    reg_d = model.sigma / math.gamma(e)
    s = np.zeros(space.n)
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
    # at r = 2 a p = 2 solve carries sq = |s|^2 and no duality vector of s
    sumsq = quadratic and r == 2.0
    sq = 0.0 if sumsq else None
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
        if sumsq:  # (s / |s|) |s|^(e-1) reg_d as s (reg_d |s|^(e-2))
            grad = s * (reg_d * _pow(step_norm, e - 2.0))
        else:
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
        # the Taylor part of m(s - t d) - m(s) in t: minus the regularizer's
        # share at s, the slope at s, then each tensor's higher coefficients
        coeffs = [-reg_v * _pow(step_norm, e), -float(taylor_grad.dot(d)), *pad]
        if quadratic:  # _add_ray_share's order-2 share
            lead = hessian.contract([d])
            coeffs[2] += float(lead.dot(d)) / 2.0
        else:
            for tensor in higher:
                lead = tensor.contract([d] * (tensor.order - 1))
                _add_ray_share(coeffs, tensor, lead, s, d)
        if quadratic and coeffs[2] >= 0.0:  # a convex ray: a few floats
            found = _lean_step(coeffs, s, d, r, e, reg_v, reg_d, step_norm, du_s, sq,
                               model.sigma, gamma_e1)
            if found is not None:
                tau, _, s, step_norm, carry = found
                if sumsq:
                    sq = carry
                else:
                    du_s = carry
        else:
            ev = _RayEval(coeffs, s, d, r, e, reg_v, reg_d, step_norm, du_s, sq)
            found = _line_minimize(ev, model.sigma, gamma_e1, 0.0)
            if found is not None:
                tau, _ = found
                # s - tau d and its l^r pass (at r = 2, p = 2 its sum of squares),
                # shared with the line search when it last evaluated the ray at tau
                s, step_norm, du_s = ev.point(tau)
                sq = ev.q
        if found is None:
            term = Termination.PROGRESS_FLOOR
            break
        iters += 1
        if quadratic:
            hessian_s -= tau * lead  # H d at p = 2
            if iters % 256 == 0:
                hessian_s = hessian.contract([s])
    if sumsq:  # the bits of NormedSpace.norm
        step_norm = _lr(s, r)[0]
    return InnerResult(
        s=s,
        step_norm=step_norm,
        model_grad_dual_norm=grad_norm,
        iterations=iters,
        termination=term,
    )
