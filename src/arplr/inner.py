"""Steepest descent in the dual pairing with a one-dimensional line search.

Minimizes a regularized model starting from s = 0: at each iteration the
dual-attaining unit direction of the current model gradient is computed and
the model is minimized along that ray by one call of ``_line_search`` (see
"One-dimensional minimization" below for what it returns).  The iteration
stops once the dual gradient norm falls below ``max(grad_tol, theta
|s|^(p+beta-1))`` (the step-power branch is only armed once s is nonzero,
since at s = 0 it could never fire before the absolute branch).

Two ray kinds.  A ray is an r = 2 ray on a carried |s|^2 exactly when
``minimize_model`` carries it, at r = 2 and p = 2; every other ray, r = 2
at other p included, is the l^r ray (``_lr_ray``), whose points hand back
the duality vector of s that the model gradient reads.

Cost of one iteration.  An l^r pass (``geometry._lr``) returns a vector's
norm and its duality vector; at r = 2 over a vector whose sum of squares
lies in (2^-900, 2^1000) it is four NumPy calls, without the power-of-two
scaling, and otherwise eight.  An iteration makes one pass over the model
gradient, which gives its dual norm and the dual direction, and an l^r ray
one per new point at which it reads a slope (and one dot product of that
point's duality vector with d) or the value.  Then one contraction
(``contract``) per order-l tensor with l - 1 copies of d, which dot
products with s and d finish into the ray coefficients l - 1 and l (from
order 4 up a lower one contracts the full tensor); at p = 2 it is H d,
which also updates H s, and otherwise the Taylor gradient at s takes one
more per tensor.  A contraction costs O(n) for the diagonal tensors of
separable oracles and for the banded (tridiagonal) pendulum Hessian, and
O(n^l) for a dense order-l tensor; a pure diagonal gives the bits of its
dense form.  On the banded pendulum model an iteration on a carried |s|^2
makes 20 NumPy calls (gradient 3, its pass 4, coefficients 7, the dot of s
and d 1, step and its sum of squares 3, H s 2) and one on an l^r ray 22,
plus 3 for the ray's curvature at 0 (4 below r = 2) and 11 per new ray
point, about 38 where most rays take their Newton point (below).

The Python calls around the NumPy ones cost time on every iteration too,
so each shortcut below pays by the calls or the passes it saves:

- the line search is one function on the coefficients as Python floats,
  with the slope a closure (``_r2_slope`` or ``_lr_ray``): it builds no
  object per ray, and forms the ray's value once, at the accepted point,
  since a convex search reads slopes only;
- the l^r ray starts from the pass over s (the regularizer's gradient and
  value, the step-power norm), and the next s's pass is the one the line
  search made at the accepted point; ``_lr_ray``'s slope and point share a
  memory of their last point, so a slope and a value at one t make one pass;
- on a carried |s|^2 = q a slope makes no pass: the squared norm along the
  ray is the quadratic ``q - 2 (s . d) t + t^2``; |s| is ``math.sqrt(q)``
  inside that window (else the pass's norm), the regularizer's gradient
  ``s (reg_d |s|^(e-2))`` needs no duality vector, and the accepted point
  costs three NumPy calls (``_sumsq_point``); one pass over the returned
  step gives ``step_norm`` the bits of ``NormedSpace.norm``;
- at p = 2 H s is updated by H d, one contraction per iteration in place of
  two, and the Hessian's share of the ray coefficients is formed inline.

So an iteration with a convex ray makes 1 pass on a carried |s|^2 (and 3
per solve: s = 0, the last gradient, the returned step) and 2.2 to 2.7 on
the l^r pendulum runs (2.23 at mesh 128 in l^1.5 and l^3), and
``test_inner_iteration_call_budget`` bounds the Python calls per iteration:
21.90 on the pendulum model at mesh 32 in l^2, 37.42 and 35.83 in l^1.5
and l^3, and 86.69 and 76.21 on an order-3 double well in l^3 and l^2.  A
ray that is not convex takes the same search, so no iteration makes an
array larger than a vector.

The gradient and direction have the bits of ``RegularizedModel.gradient``
and ``NormedSpace.dual_direction`` (but for p = 2, which updates H s and on
a carried |s|^2 forms the regularizer's share from s), the coefficients
those of full contractions and the step norm that of ``NormedSpace.norm``:
``test_reported_dual_norm_is_the_model_gradient_dual_norm``,
``test_inner_rays_match_the_model_methods_bit_for_bit``,
``test_ray_share_matches_full_contractions`` and
``test_reported_step_norm_is_the_norm_of_the_step`` pin it.

One-dimensional minimization: the polynomial restriction of the Taylor part
is combined with the norm regularizer, which is convex in the ray
parameter.  When the polynomial part is convex too (nonnegative
coefficients beyond the linear one — always the case for order-1 models and
for order-2 models with nonnegative curvature along the ray) the line
search returns the unique minimizer, the root of the derivative.  At p = 2
it first reads the slope at the Newton point t_N = -slope(0) / slope'(0),
with slope'(0) in closed form from the coefficients and the pass over s (on
a carried |s|^2 from it and s . d, in floats), and takes t_N as the step
when that slope is at most 1e-12 of the initial slope's size, on either
side of the root: the relative end test of the bracket search below (its
absolute ``ftol``, which any point meets where the initial slope is tiny,
would take points that are not roots).  When t_N lies past the root but not
past the bracket start, regula falsi refines the root on [0, t_N].  On the
pendulum runs t_N is the step on 79 % of the rays in l^1.5 and l^3 and 73 %
in l^2, and on 25 % of the built-in suite's.  Otherwise (t_N short of the
root or past the bracket start, or slope'(0) not finite and positive, as at
a zero coordinate of s below r = 2, where no power that would overflow is
formed) at every other p and on every nonconvex ray, one search
(``_first_root``) from its bracket start finds the root.  Only p = 2 tries
t_N: on the order-3 double wells of the benchmark's random starts t_N met
the end test on none of 2,992 convex rays, so there it would cost a pass
per ray.  The search's bracket [0, t] starts at the lesser of two scales:
the Taylor scale t_T, the least ``(-c_1 / (j c_j))^(1/(j-1))`` over the
coefficients c_j > 0 beyond a descending linear one c_1 < 0, past which
that one term's slope alone cancels c_1, and the scale at which the
regularizer alone overtakes the initial slope.  The bracket doubles until
the slope turns positive or +inf, up to a cap of 2^100 times its start
(1e30 for a start below about 0.79); an end whose slope is at most 1e-12 of
the initial slope's size is the root, else regula falsi (``_refine_root``,
which bisects while that slope is infinite) refines it until the slope is
small or the bracket is narrower than 1e-15 of its upper end, a relative
exit that resolves roots far below 1 too.  ``psi.psi_minimize`` runs on the
same search.  A nonconvex ray (some j c_j < 0 past the linear one) takes it
too, from the same start: the step has only to be a local minimizer below
m(s) (bracket, then refine: Nocedal and Wright, Numerical Optimization, 2nd
ed., section 3.5), and refinement keeps the slope negative at the lower end
of the bracket and positive at the upper, so it ends on a sign change from
negative to positive, a local minimizer, though a deeper one can lie
elsewhere on the ray.  A ray is measured from m(s), so it reads the drop
``m(s - t d) - m(s)``: the Taylor part models f(x + s) - f(x), so no drop
carries the size of f, and the solve keeps none of them (from m(0) = 0 they
add up to m(s)).  The root is taken if its drop is finite and negative;
else (say the bracket stopped on a NaN or -inf slope, or at its cap still
descending, or a nonconvex ray's root lies above m(s)) the solve ends on
``PROGRESS_FLOOR``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .geometry import _SUMSQ_MAX, _SUMSQ_MIN, _TINY, _lr, _pow
from .tensors import RegularizedModel

__all__ = ["InnerResult", "Termination", "minimize_model", "default_max_iters"]


class Termination(enum.Enum):
    GRADIENT_BELOW_TOL = "gradient_below_tol"
    STEP_POWER_RULE = "step_power_rule"
    ZERO_GRADIENT = "zero_gradient"
    MAX_ITERS = "max_iters"
    # no negative drop m(s - t d) - m(s) along the ray (or none below the
    # bracket cap), or the model gradient's dual norm passes the largest double
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


def _sumsq_point(anchor, direction, t: float):
    """``(w, |w|_2, q)`` at ``w = anchor - t direction``, with the sum of
    squares ``q = np.vdot(w, w)`` (silent on overflow) and ``|w|`` its
    ``math.sqrt`` inside ``_lr``'s unscaled window, else ``_lr``'s scaled
    norm.  Inside the window vdot's BLAS sum need not be ``_lr``'s pairwise
    one, so ``|w|`` can differ from ``_lr(w, 2)[0]`` in the last bit."""
    w = anchor - t * direction
    q = float(np.vdot(w, w))
    return w, (math.sqrt(q) if _SUMSQ_MIN < q < _SUMSQ_MAX else _lr(w, 2.0)[0]), q


def _r2_slope(dcoeffs: list, qa: float, qb: float, reg_d: float, e: float):
    """The slope of an l^2 ray ``anchor - t direction`` (a unit direction)
    as a closure over local floats: the Taylor slope coefficients, the
    squared norm ``qa - 2 qb t + t^2`` clamped at 0 (``qa = |anchor|^2``,
    ``qb = anchor . direction``), the regularizer weight and exponent.  It
    makes no NumPy call and inlines the recurrence of numpy's ``polyval``
    and ``_pow``, bit for bit.
    Where the squared norm is not a normal double and ``qa < 2^-900``, so
    that every term is tiny, it is formed again from terms scaled by the
    exact 2^1022, and |w|^(e-2) from its root, so the regularizer's share
    keeps its bits down to the subnormal |w| (else the root of a ray from
    s = 0 whose regularizer is heavy, near |w| ~ 1e-162, is missed)."""
    dtop, drest = dcoeffs[-1], dcoeffs[-2::-1]
    qb2 = 2.0 * qb
    dexp = 0.5 * (e - 2.0)
    tiny = qa < _SUMSQ_MIN  # a sum below the normal range is then of tiny terms, not cancellation

    def slope(t: float) -> float:
        poly = dtop + t * 0.0  # as polyval: NaN at an infinite t
        for c in drest:
            poly = c + poly * t
        q = qa - qb2 * t + t * t
        try:
            if q < _TINY:  # not a normal double
                if tiny:  # t < 2^-449 too: no scaled term overflows
                    ts = t * 2.0 ** 511
                    q = qa * 2.0 ** 1022 - qb2 * 2.0 ** 511 * ts + ts * ts
                if q <= 0.0:  # clamped at 0, where the regularizer's slope vanishes
                    return poly
                qe = math.ldexp(math.sqrt(q), -511) ** (e - 2.0) if tiny else q ** dexp
            else:
                qe = q ** dexp
        except OverflowError:
            qe = math.inf
        return poly + reg_d * qe * (t - qb)

    return slope


def _lr_ray(dcoeffs: list, anchor, direction, r: float, e: float, reg_d: float, nw: float,
            du, g: float):
    """``(slope, point)`` of the l^r ray ``anchor - t direction``, as
    closures: the slope ``sum_j dcoeffs[j] t^j + reg_d |w|_r^(e-1) (-du .
    direction)`` at t, and ``point(anchor, direction, t)`` (called as
    ``_sumsq_point`` is, on this ray), ``(w, |w|_r, du)``, du the duality
    vector of ``w = anchor - t direction``.  The slope keeps a memory of its
    last new point, its l^r pass and ``g = du . direction``, seeded at t = 0
    with the anchor's ``(nw, du) = _lr(anchor, r)`` and its g (``anchor`` in
    place of ``anchor - 0 direction``: they differ at most in the sign of
    zero entries), which the point reads, so a slope and then a point at the
    same t make one pass.  The slope inlines the recurrence of numpy's
    ``polyval``, ``_pow`` and the memory's update.
    """
    dtop, drest = dcoeffs[-1], dcoeffs[-2::-1]
    de = e - 1.0
    last_t, last_w = 0.0, anchor

    def slope(t: float) -> float:
        # d/dt |w| = -sum_i sign(u_i) |u_i|^(r-1) d_i with u = w / |w|, and
        # the term vanishes with |w|^(e-1) where w = anchor - t d is 0
        nonlocal last_t, last_w, nw, du, g
        if t != last_t:
            last_w = anchor - t * direction
            nw, du = _lr(last_w, r)
            g = float(du.dot(direction))
            last_t = t
        poly = dtop + t * 0.0  # as polyval: NaN at an infinite t
        for c in drest:
            poly = c + poly * t
        try:
            pw = nw ** de
        except OverflowError:
            pw = math.inf
        return poly + reg_d * pw * -g

    def point(anchor, direction, t: float):  # as _sumsq_point's
        if t != last_t:
            w = anchor - t * direction
            return (w, *_lr(w, r))
        return last_w, nw, du

    return slope, point


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
        if -ftol <= ft <= ftol or b - a <= 1e-15 * b:  # |ft| <= ftol; b > 0
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


def _first_root(slope, start: float, slope0: float, ftol: float):
    """A root past 0 of a slope that is ``slope0 < 0`` at 0, the unique one
    where the slope increases (a convex ray): the bracket [0, start]
    doubles from a positive start until the slope turns positive or +inf or
    the end reaches the cap, the larger of 1e30 and 2^100 start (at most
    1175 doublings; a start below about 0.79 has the cap 1e30, and one above
    it 100 doublings).  Its end is the root if the slope there is at most
    ``1e-12 * -slope0`` (``ftol`` is absolute below ``-slope0 = 1``), else
    ``_refine_root`` refines a root on it, one where the slope changes sign
    from - to +.  None if the slope reads NaN or -inf first, or is still
    negative at the cap."""
    cap = start * 2.0 ** 100
    if cap < 1e30:
        cap = 1e30
    t, d = start, slope(start)
    while -math.inf < d <= 0.0 and t < cap:
        t *= 2.0
        d = slope(t)
    if not d > 0.0:
        return None
    if d <= 1e-12 * -slope0:
        return t
    return _refine_root(slope, 0.0, t, slope0, d, ftol)


def _line_search(coeffs: list, s, d, r: float, e: float, reg_v: float, reg_d: float,
                 nw: float, du, qa: float | None, sigma: float, gamma_e1: float):
    """A local minimizer tau > 0 of the drop ``m(s - tau d) - m(s)`` along
    the ray, for a model of weight sigma with ``gamma_e1 = Gamma(e + 1)``
    and regularizer ``reg_v |w|^e`` of slope weight ``reg_d``: ``coeffs``
    (Python floats) is the drop's Taylor part as a polynomial in t and
    ``(nw, du) = _lr(s, r)`` the pass over s.  ``qa`` picks the ray kind:
    ``qa = np.vdot(s, s)``, which an r = 2, p = 2 solve carries, gives the
    r = 2 ray on that sum (``_r2_slope`` and ``_sumsq_point``, which make
    no l^r pass inside ``_lr``'s unscaled window), and None, at every r,
    the l^r ray (``_lr_ray``), which makes one per new point.

    Returns ``(tau, drop, w, |w|_r, carry)`` with ``w = s - tau d`` and
    carry its sum of squares when ``qa`` is given, else its duality vector,
    if the drop is finite and negative, else None (the slope at tau = 0 is
    minus the dual gradient norm, so a decrease exists in exact
    arithmetic).  tau is a root of the ray's slope as ``_refine_root``
    leaves it (|slope| <= ftol, or a sign change within 1e-15 tau): on a
    convex p = 2 ray the Newton point t_N itself where its slope is at most
    1e-12 |slope(0)|, or refined on [0, t_N] where t_N lies past the root
    and not past the bracket start; else, on every ray, the root that
    ``_first_root`` finds from that start, on a convex ray the unique one.
    The search has no start only when neither the Taylor nor the
    regularizer scale is finite.  The drop is formed once, at tau, by the
    recurrence of numpy's ``polyval``, inlined.
    """
    # one pass over the coefficients: the slope coefficients j c_j (a float
    # counter gives the bits of j * coeffs[j]), convexity (no j c_j past the
    # linear one < 0; a NaN leaves it, and fails the Newton point's test) and
    # the Taylor scale, past which one term j c_j t^(j-1) alone cancels c_1 < 0
    c1 = coeffs[1]
    dcoeffs = [c1]
    t_taylor = math.inf
    convex = True
    j = 1.0
    for c in coeffs[2:]:
        j += 1.0
        jc = j * c
        dcoeffs = [*dcoeffs, jc]
        if jc > 0.0:
            if c1 < 0.0:
                # a root (exponent <= 1): no overflow; x ** 1.0 is x
                t_j = -c1 / jc if j == 2.0 else (-c1 / jc) ** (1.0 / (j - 1.0))
                if t_j < t_taylor:
                    t_taylor = t_j
        elif jc < 0.0:
            convex = False
    # on a carried |s|^2 (r = 2, p = 2) neither the slope nor the point makes a pass
    if qa is not None:
        point = _sumsq_point
        qb = float(np.vdot(s, d))
        slope = _r2_slope(dcoeffs, qa, qb, reg_d, e)
    else:  # a pass per new point, the last one remembered
        g = float(du.dot(d))
        slope, point = _lr_ray(dcoeffs, s, d, r, e, reg_d, nw, du, g)
    slope0 = slope(0.0)
    # the search starts at the scale where the regularizer alone overtakes
    # the initial slope, floored at 1e-12, or at the Taylor scale if that is
    # less: max and min in their operand order, which keep or pass over a
    # NaN as those do.  A Taylor scale that underflowed to 0 would never
    # grow, so the regularizer scale stands in for it
    descent = -slope0
    try:  # _pow, inlined
        start = (descent * gamma_e1 / sigma) ** (1.0 / (e - 1.0))
    except OverflowError:
        start = math.inf
    if 1e-12 > start:  # max(scale, 1e-12), which keeps a NaN
        start = 1e-12
    if t_taylor and not start < t_taylor:  # min(t_taylor, scale)
        start = t_taylor
    if not start < math.inf:  # overflowed to inf or NaN
        return None
    ftol = 1e-12 * (descent if descent > 1.0 else 1.0)  # max(1.0, -slope0)
    tau = None
    if convex and j == 2.0:
        # p = 2 (j is the degree) and a convex ray: first the Newton point
        # descent / slope'(0), where slope'(0) is 2 c_2 plus the
        # regularizer's curvature along d at s, reg_d |s|^(e-2) ((e-1) g^2 +
        # (r-1) (sum_i |du_i|^((r-2)/(r-1)) d_i^2 - g^2)) with g = du . d
        # (on a carried |s|^2, reg_d |s|^(e-2) (1 + (e-2) g^2) with g = qb /
        # |s|), and 0 at s = 0 (e > 2)
        curv = dcoeffs[1]
        if nw > 0.0:
            pw = nw ** (e - 2.0)  # e - 2 is beta, in (0, 1]: no overflow
            if qa is not None:
                g = qb / nw
                curv += reg_d * pw * (1.0 + (e - 2.0) * g * g)
            else:
                x = (r - 2.0) / (r - 1.0)
                a = np.abs(du)
                # below r = 2 a zero (or tiny) |du_i| makes the curvature
                # infinite: no power is formed that would overflow
                if x >= 0.0 or np.minimum.reduce(a) > 2.0 ** (1000.0 / x):
                    a **= x
                    a *= d
                    sq = float(a.dot(d))
                    curv += reg_d * pw * ((e - 1.0) * g * g + (r - 1.0) * (sq - g * g))
                else:
                    curv = math.inf
        # it is the step where its slope is at most 1e-12 of the initial
        # slope's size, on either side of the root; past the root it is the
        # bracket end, short of it the search runs from its start
        if 0.0 < curv < math.inf and 0.0 < (t_n := descent / curv) < math.inf:
            d_n = slope(t_n)
            if -1e-12 * descent <= d_n <= 1e-12 * descent:
                tau = t_n
            elif d_n > 0.0 and t_n <= start:
                tau = _refine_root(slope, 0.0, t_n, slope0, d_n, ftol)
    if tau is None:
        tau = _first_root(slope, start, slope0, ftol)
    if tau is None:
        return None
    w, nw, carry = point(s, d, tau)
    v = 0.0
    for c in coeffs[::-1]:
        v = c + v * tau
    v += reg_v * _pow(nw, e)
    return (tau, v, w, nw, carry) if -math.inf < v < 0.0 and tau > 0.0 else None


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
        c0, c1 = -reg_v * _pow(step_norm, e), -float(taylor_grad.dot(d))
        if quadratic:  # _add_ray_share's order-2 share, added to 0.0
            lead = hessian.contract([d])
            coeffs = [c0, c1, 0.0 + float(lead.dot(d)) / 2.0]
        else:
            coeffs = [c0, c1, *pad]
            for tensor in higher:
                lead = tensor.contract([d] * (tensor.order - 1))
                _add_ray_share(coeffs, tensor, lead, s, d)
        found = _line_search(coeffs, s, d, r, e, reg_v, reg_d, step_norm, du_s, sq,
                             model.sigma, gamma_e1)
        if found is None:
            term = Termination.PROGRESS_FLOOR
            break
        # s - tau d and its l^r pass (at r = 2, p = 2 its sum of squares),
        # the pass that the line search made at tau
        tau, _, s, step_norm, carry = found
        if sumsq:
            sq = carry
        else:
            du_s = carry
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
