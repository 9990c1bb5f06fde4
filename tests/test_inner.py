import contextlib
import math
import sys
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from scipy import optimize

from arplr import (
    NormedSpace,
    RegularizedModel,
    Rosenbrock,
    SolveStatus,
    SymmetricTensor,
    TaylorModel,
    Termination,
    diagonal_tensor,
    minimize_model,
    solve,
)
from arplr import inner
from arplr.geometry import _SUMSQ_MAX, _SUMSQ_MIN, _lr, _pow
from arplr.harness import ExperimentConfig
from arplr.inner import (
    _first_root,
    _horner,
    _line_search,
    _refine_root,
    _scan_slopes,
    _unit_grid,
    default_max_iters,
)
from arplr.psi import PsiSpec, psi_descent_bound
from helpers import (
    full_ray_coefficients,
    model_values,
    ray_functions,
    symmetrize,
    two_step_lr,
    two_step_rows,
)


def _linear_model(g, sigma, r=2.0, beta=1.0):
    n = len(g)
    tm = TaylorModel((SymmetricTensor(1, n, np.asarray(g, float)),))
    return RegularizedModel(tm, sigma, beta, NormedSpace(n, r))


def _random_model(p, beta, sigma, dim, r, rng):
    tensors = tuple(
        SymmetricTensor(l, dim, symmetrize(rng.standard_normal((dim,) * l)))
        for l in range(1, p + 1)
    )
    rng.standard_normal()  # an unused draw: the draws after it keep their values
    return RegularizedModel(TaylorModel(tensors), sigma, beta, NormedSpace(dim, r))


def test_analytic_quadratic_instance():
    # m(s) = <g, s> + |s|^2 with g = (2, 0): minimizer (-1, 0), decrease -1
    m = _linear_model([2.0, 0.0], sigma=2.0)
    with model_values() as values:
        res = minimize_model(m, 1e-10, max_iters=50)
    assert np.allclose(res.s, [-1.0, 0.0], atol=1e-8)
    assert values[-1] == pytest.approx(-1.0, abs=1e-8)
    assert m.value(res.s) == pytest.approx(-1.0, abs=1e-8)
    assert res.iterations == 1
    assert values[-1] < values[0]


def test_zero_gradient_at_entry():
    m = _linear_model([0.0, 0.0], sigma=1.0)
    with model_values() as values:
        res = minimize_model(m, 1e-8, max_iters=10)
    assert res.termination is Termination.ZERO_GRADIENT
    assert res.iterations == 0
    assert np.all(res.s == 0.0)
    assert values == [0.0]


def test_rejects_noncoercive_model():
    m = _linear_model([1.0, 1.0], sigma=0.0)
    with pytest.raises(ValueError):
        minimize_model(m, 1e-8)


def test_strict_monotone_decrease_and_stopping_rule():
    rng = np.random.default_rng(0)
    for r, p, beta in [(2.0, 2, 1.0), (1.5, 2, 0.5), (3.0, 3, 1.0), (1.5, 1, 0.5)]:
        m = _random_model(p, beta, 1.0, 4, r, rng)
        with model_values() as values:
            res = minimize_model(m, 1e-6, 100.0, 20_000)
        assert len(values) == res.iterations + 1
        assert np.all(np.diff(values) < 0.0)
        assert res.termination not in (Termination.MAX_ITERS, Termination.PROGRESS_FLOOR)
        bar = max(1e-6, 100.0 * m.space.norm(res.s) ** (p + beta - 1.0))
        assert res.model_grad_dual_norm <= bar


def test_multistart_oracle_confirms_near_global_value():
    rng = np.random.default_rng(1)
    m = _random_model(2, 1.0, 1.0, 4, 2.0, rng)
    res = minimize_model(m, 1e-7, max_iters=50_000)
    best = np.inf
    for _ in range(40):
        start = rng.standard_normal(4) * rng.choice([0.3, 1.0, 3.0])
        out = optimize.minimize(m.value, start, jac=m.gradient, method="L-BFGS-B")
        best = min(best, float(out.fun))
    assert best >= m.value(res.s) - 1e-6


def test_cumulative_decrease_bounded_by_total_available():
    rng = np.random.default_rng(2)
    m = _random_model(2, 1.0, 0.7, 4, 2.0, rng)
    res = minimize_model(m, 1e-7, max_iters=50_000)
    cumulative = m.value(np.zeros(4)) - m.value(res.s)
    assert cumulative > 0.0
    best = min(
        float(optimize.minimize(m.value, rng.standard_normal(4), jac=m.gradient).fun)
        for _ in range(30)
    )
    assert cumulative <= m.value(np.zeros(4)) - best + 1e-6


def test_level_set_confinement():
    rng = np.random.default_rng(3)
    m = _random_model(3, 1.0, 1.2, 3, 1.5, rng)
    with model_values() as values:
        res = minimize_model(m, 1e-7, max_iters=20_000)
    assert len(values) == res.iterations + 1
    m0 = values[0]
    assert all(v <= m0 for v in values)


def test_max_iters_is_reported_not_fatal():
    rng = np.random.default_rng(4)
    m = _random_model(2, 1.0, 1e-3, 6, 2.0, rng)
    with model_values() as values:
        res = minimize_model(m, 1e-14, max_iters=2)
    assert res.termination is Termination.MAX_ITERS
    assert res.iterations == 2
    assert values[-1] < values[0]


def test_progress_floor_is_reported():
    # a decrease of about 1e-18 is found
    tm = TaylorModel((SymmetricTensor(1, 2, np.array([1e-9, 0.0])),))
    m = RegularizedModel(tm, 1.0, 1.0, NormedSpace(2, 2.0))
    res = minimize_model(m, 1e-30, max_iters=50)
    assert res.termination is Termination.ZERO_GRADIENT
    assert res.iterations == 1
    # the decrease along the ray (about 1e-400) underflows: no drop is a double
    tm = TaylorModel((SymmetricTensor(1, 2, np.array([1e-200, 0.0])),))
    m = RegularizedModel(tm, 1.0, 1.0, NormedSpace(2, 2.0))
    with model_values() as values:
        res = minimize_model(m, 1e-300)
    assert res.termination is Termination.PROGRESS_FLOOR
    assert res.iterations == 0
    assert values == [0.0]


def test_overflowing_model_gradient_ends_on_the_progress_floor():
    # a finite gradient whose dual norm passes the largest double: the inner
    # solve stops with a status instead of raising
    m = _linear_model([1.7e308, -1.7e308], sigma=1.0)
    res = minimize_model(m, 1e-8, max_iters=50)
    assert res.termination is Termination.PROGRESS_FLOOR
    assert res.iterations == 0 and res.model_grad_dual_norm == math.inf


def _ray(coeffs, anchor, d, r, e, sigma):
    # the arguments of _line_search but sigma and Gamma(e + 1) for the ray
    # anchor - t d of an l^r model of weight sigma, as minimize_model builds
    # it: the regularizer weights it derives from sigma and e, and measured
    # from m(s), so the constant coefficient less the regularizer's share at
    # the anchor (0 at a zero anchor)
    reg_v, reg_d = sigma / math.gamma(e + 1.0), sigma / math.gamma(e)
    nw, du = _lr(anchor, r)
    coeffs = [coeffs[0] - reg_v * _pow(nw, e), *coeffs[1:]]
    return coeffs, anchor, d, r, e, reg_v, reg_d, nw, du, None


def _scalar_ray(coeffs, anchor, e, sigma, r=2.0):
    # a ray of a 2-d l^r model along d = (1, 0)
    return _ray(coeffs, np.array(anchor, float), np.array([1.0, 0.0]), r, e, sigma)


def _search(ray, sigma):
    # (tau, drop) of the line search on a _scalar_ray, or None
    found = _line_search(*ray, sigma, math.gamma(ray[4] + 1.0))
    return None if found is None else found[:2]


def test_convex_ray_grows_its_bracket_until_the_slope_turns():
    # e = 1.5 and s = (0, 100) orthogonal to d: the regularizer's slope is
    # about t / 10 near 0, so at the scale where the regularizer alone would
    # overtake the initial slope the derivative is still negative, and the
    # bracket doubles three times before the root is refined
    # (the ray's value at tau measured from 0 is 0x1.75e89cf842a70p+9, so
    # the drop is that less m(s), to rounding)
    e, sigma = 1.5, 1.0
    ray = _scalar_ray([0.0, -1.0], [0.0, 100.0], e, sigma)
    slope, val, _ = ray_functions(*ray)
    slope0 = slope(0.0)
    scale = ((-slope0) * math.gamma(e + 1.0) / sigma) ** (1.0 / (e - 1.0))
    assert slope(scale) < 0.0
    tau, value = _search(ray, sigma)
    assert tau > scale
    assert abs(slope(tau)) <= 1e-12 * max(1.0, -slope0)
    assert tau.hex() == "0x1.1c26660ac3bcfp+3" and value == val(tau) < val(0.0) == 0.0
    assert value == pytest.approx(float.fromhex("0x1.75e89cf842a70p+9") + ray[0][0], abs=1e-12)


def test_convex_ray_with_an_infinite_slope_at_the_bracket_end_is_refined():
    # m(t) = -1e300 t + 1e300 t^2 + sigma t^2 / 2: the slope overflows to
    # +inf at the regularizer scale t = 1e12; the line search brackets at
    # the Taylor scale 1/2 instead, and on the bracket [0, 1e12] bisection
    # brings the infinite upper end back into range and regula falsi then
    # finds the same minimizer near 1/2
    e, sigma = 2.0, 2e288
    ray = _scalar_ray([0.0, -1e300, 1e300], [0.0, 0.0], e, sigma)
    slope, val, _ = ray_functions(*ray)
    slope0 = slope(0.0)
    ftol = 1e-12 * max(1.0, -slope0)
    assert slope(1e12) == math.inf
    tau, value = _search(ray, sigma)
    assert value < val(0.0) and value == val(tau)
    assert abs(slope(tau)) <= ftol
    assert abs(tau - 0.5) < 1e-11
    t = _refine_root(slope, 0.0, 1e12, slope0, math.inf, ftol)
    assert abs(slope(t)) <= ftol and abs(t - 0.5) < 1e-11


def test_convex_ray_still_descending_at_the_bracket_cap_gives_no_step():
    # e = 1.5 and s = (0, 1e40) orthogonal to d: the regularizer's slope
    # t (t^2 + |s|^2)^(-1/4) / Gamma(1.5) stays below the descent rate 1e14
    # up to about 9e33, past the 1e30 bracket cap, although the decrease at
    # that minimizer would be representable
    e, sigma = 1.5, 1.0
    ray = _scalar_ray([0.0, -1e14], [0.0, 1e40], e, sigma)
    slope, val, _ = ray_functions(*ray)
    assert slope(2e30) < 0.0 < slope(1e34) and val(1e34) < val(0.0)
    assert _search(ray, sigma) is None


@pytest.mark.parametrize("coeffs, e, sigma, tau_exact, value_exact", [
    # regularizer scale 1.0e159, where the slope is +inf
    ([0.0, -1e224, 1e280], 2.5, 1e-14, 5e-57, -2.5e167),
    # regularizer scale 6.2e58; the cubic term sets the root
    ([0.0, -1e108, 1e-63, 1e236], 4.0, 1e-67, math.sqrt(1e108 / 3e236),
     -2.0 / 3.0 * 1e108 * math.sqrt(1e108 / 3e236)),
    # the regularizer scale overflows to inf
    ([0.0, -1.0, 1.0], 2.5, 1e-310, 0.5, -0.25),
], ids=["slope-inf-at-start", "cubic-root", "scale-overflows"])
def test_convex_ray_far_below_the_regularizer_scale_is_bracketed(coeffs, e, sigma, tau_exact,
                                                                value_exact):
    # a 2-d l^2 ray from 0 whose regularizer is negligible at the minimizer,
    # so the minimizer is the root of the Taylor slope: the bracket at the
    # Taylor scale holds it, where the regularizer scale lies 1e123 to
    # 1e216 times above it or overflows
    ray = _scalar_ray(coeffs, [0.0, 0.0], e, sigma)
    _, val, _ = ray_functions(*ray)
    tau, value = _search(ray, sigma)
    assert tau == pytest.approx(tau_exact, rel=1e-12)
    assert value == pytest.approx(value_exact, rel=1e-12)
    assert value == val(tau)


def test_convex_ray_whose_taylor_scale_meets_the_root_tolerance_takes_one_pass(monkeypatch):
    # m(t) = -t + t^2 / 2 + sigma |t|^2.5 / Gamma(3.5) on a 2-d l^1.5 ray from
    # 0: at the Taylor scale t_T = 1 the slope is sigma / Gamma(2.5), about
    # 7.5e-15, already within the root tolerance, so the bracket end is the
    # step, and its l^r pass is the only one of the line search and the step
    e, sigma = 2.5, 1e-14
    ray = _scalar_ray([0.0, -1.0, 0.5], [0.0, 0.0], e, sigma, r=1.5)
    slope, val, _ = ray_functions(*ray)
    v0 = val(0.0)
    calls = 0

    def counted(v, r):
        nonlocal calls
        calls += 1
        return _lr(v, r)

    monkeypatch.setattr("arplr.inner._lr", counted)
    tau, value = _search(ray, sigma)
    assert tau == 1.0 and calls == 1
    assert 0.0 < slope(1.0) <= 1e-12 and value == val(1.0) < v0


def test_convex_ray_with_an_overflowing_scale_and_a_descending_taylor_scale_is_solved():
    # m(t) = -t + t^2 / 2 + sigma |(2 - t, 0)|^2.5 / Gamma(3.5) on an l^2 ray
    # from (2, 0): the regularizer scale overflows, and at the Taylor scale
    # t_T = 1 the regularizer still pulls the slope below 0, so the bracket
    # doubles from t_T; regula falsi on [0, 2] lands on the minimizer 1
    e, sigma = 2.5, 1e-310
    ray = _scalar_ray([0.0, -1.0, 0.5], [2.0, 0.0], e, sigma)
    slope, _, _ = ray_functions(*ray)
    assert -slope(0.0) * math.gamma(e + 1.0) / sigma == math.inf
    assert slope(1.0) == pytest.approx(-7.5e-311, rel=1e-2) and slope(1.0) < 0.0
    tau, value = _search(ray, sigma)
    assert tau == 1.0 and value == -0.5


def test_convex_ray_whose_taylor_scale_underflows_searches_from_the_regularizer_scale():
    # c_1 / (2 c_2) = 5e-601 underflows to a Taylor scale of 0, from which
    # doubling never grows; the regularizer, which pulls toward the anchor
    # (1, 0), puts the minimizer at about 3.76e-11, and the search from the
    # regularizer scale finds it
    e, sigma = 2.5, 1e290
    ray = _scalar_ray([0.0, -1e-300, 1e300], [1.0, 0.0], e, sigma)
    slope, val, _ = ray_functions(*ray)
    slope0 = slope(0.0)
    tau, value = _search(ray, sigma)
    assert tau == pytest.approx(sigma / math.gamma(e) / 2e300, rel=1e-9)
    assert abs(slope(tau)) <= 1e-12 * -slope0
    assert value == val(tau) < val(0.0)


def test_r2_ray_keeps_its_regularizer_share_where_the_squared_norm_is_subnormal():
    # m(t) = -1e-9 t - t^2 + sigma |t|^2.5 / Gamma(3.5) on a 2-d l^2 ray from
    # 0 with sigma = 1e233: the nonconvex ray's minimizer, where reg_d t^1.5
    # cancels 1e-9 (2 t is negligible), lies near 5.6e-162, where t^2 is
    # subnormal.  The slope forms the squared norm from scaled terms there,
    # so the search resolves the root; from t^2 itself, with three
    # significant bits, the slope jumps across 0 where t^2 rounds to the
    # next subnormal, 1 % from the root, and the step stopped on that jump
    e, sigma = 2.5, 1e233
    ray = _scalar_ray([0.0, -1e-9, -1.0], [0.0, 0.0], e, sigma)
    slope, val, _ = ray_functions(*ray)
    root = (1e-9 * math.gamma(e) / sigma) ** (1.0 / 1.5)
    assert 0.0 < root * root < sys.float_info.min
    tau, value = _search(ray, sigma)
    assert tau == pytest.approx(root, rel=1e-9) and abs(slope(tau)) <= 1e-12
    assert value == val(tau) < 0.0


@pytest.mark.parametrize("dcoeffs, slope0, e, sigma, c0, expected", [
    # a NaN slope0 makes ftol 1e-12 and the regularizer scale NaN, which
    # min(t_T, scale) passes over: with no Taylor scale there is no start
    # (a scale of 1e-12 in its place would find the root 1) ...
    ([-1.0, 0.0], math.nan, 2.0, 1.0, 0.0, None),
    # ... and with a Taylor scale of 1 the search starts there
    ([-1.0, 1.0], math.nan, 2.0, 1.0, 0.0, (1.0, -0.5)),
    # a -inf slope0 makes ftol and the regularizer scale inf: the first
    # bracket end with a positive slope, 2, is taken as the root, and
    # without a Taylor scale there is no start
    ([-1.0, 1.0], -math.inf, 2.0, 1.0, -1.0, (2.0, -1.0)),
    ([-1.0, 0.0], -math.inf, 2.0, 1.0, -1.0, None),
    # the regularizer scale (Gamma(2.5) / 1e-300)^2 overflows: a
    # convex ray starts at its Taylor scale, a nonconvex one has no scan
    ([-1.0, 1.0], -1.0, 1.5, 1e-300, 0.0, (1.0, -0.5)),
    ([-1.0, -1.0], -1.0, 1.5, 1e-300, 0.0, None),
    # a Taylor scale that underflows to 0 or overflows to +inf: the search
    # starts at the regularizer scale 2 ...
    ([-1e-300, 1e300], -1.0, 2.0, 1.0, -1e300, (1.0, -5e299)),
    ([-1e300, 1e-300], -1.0, 2.0, 1.0, 0.0, (1.0, -1e300)),
    # ... unless that is NaN, where min(inf, NaN) is inf
    ([-1e300, 1e-300], math.nan, 2.0, 1.0, 0.0, None),
], ids=["nan-slope0", "nan-slope0-taylor-scale", "-inf-slope0-taylor-scale", "-inf-slope0",
        "scale-overflows", "scale-overflows-nonconvex", "taylor-scale-underflows",
        "taylor-scale-inf", "taylor-scale-inf-nan-slope0"])
def test_convex_start_keeps_the_nan_and_inf_order_of_min_and_max(dcoeffs, slope0, e, sigma,
                                                                 c0, expected):
    # an l^2 ray from 0 with a given slope, slope0 at t = 0 and t - 1
    # beyond, and no regularizer in its drop, which is the polynomial with
    # constant c0 and slope coefficients (c_1, 2 c_2); those set the
    # convexity and Taylor scale, and sigma and e the regularizer scale
    coeffs = [c0, *(c / j for j, c in enumerate(dcoeffs, 1))]
    zero = np.zeros(2)

    def given(t):
        return slope0 if t == 0.0 else t - 1.0

    with mock.patch("arplr.inner._r2_slope", lambda *args: given):
        found = _line_search(coeffs, zero, np.array([1.0, 0.0]), 2.0, e, 0.0, 0.0, 0.0, zero,
                             0.0, sigma, math.gamma(e + 1.0))
    assert (None if found is None else found[:2]) == expected


def _magnitudes():
    # 1e-300 up to 1e300
    return st.builds(lambda m, k: m * 10.0 ** k, st.floats(min_value=1.0, max_value=9.99),
                     st.integers(min_value=-300, max_value=299))


def _reference_root(slope):
    # the first sign change of the slope on 5e-324 * 2^k, then brentq on it
    # with the slope clipped to the finite doubles; None if the slope reads
    # NaN first or stays nonpositive up to 1e300
    lo, hi = 0.0, 5e-324
    while not (d := slope(hi)) > 0.0:
        if math.isnan(d) or hi > 1e300:
            return None
        lo, hi = hi, 2.0 * hi
    big = sys.float_info.max
    return optimize.brentq(lambda t: min(max(slope(t), -big), big), lo, hi,
                           xtol=1e-320, rtol=4 * sys.float_info.epsilon, maxiter=500)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    r=st.sampled_from([1.5, 2.0, 3.0]),
    p=st.sampled_from([1, 2, 3]),
    beta=st.sampled_from([0.5, 1.0]),
    sigma=_magnitudes(),
    c1=_magnitudes(),
    higher=st.lists(st.one_of(st.just(0.0), _magnitudes()), min_size=2, max_size=2),
    size=st.one_of(st.just(0.0), _magnitudes()),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_convex_line_search_finds_the_root_brentq_finds(r, p, beta, sigma, c1, higher, size,
                                                        seed):
    # a convex ray of a 3-d l^r model (c_j >= 0 for j >= 2) from an anchor of
    # the drawn size along a dual direction, measured from m(s) as
    # minimize_model measures it.  The step _first_root returns
    # is taken exactly when its value is finite and below m(s); it is a root
    # within the line search's tolerances (|slope| <= ftol, or within a
    # bracket narrower than 1e-15 tau, plus brentq's own tolerance) wherever
    # brentq finds a root below the 1e30 bracket cap with such a value, and
    # there a decrease close to the least value
    rng = np.random.default_rng(seed)
    space = NormedSpace(3, r)
    d = space.dual_direction(rng.standard_normal(3))
    anchor = size * rng.standard_normal(3)
    e = p + beta
    ray = _ray([0.0, -c1, *higher[:p - 1]], anchor, d, r, e, sigma)
    slope, val, _ = ray_functions(*ray)
    slope0, v0 = slope(0.0), val(0.0)
    assume(-math.inf < slope0 < 0.0 and math.isfinite(v0))
    steps = []

    def recorded(*args):
        steps.append(_first_root(*args))
        return steps[-1]

    with mock.patch("arplr.inner._first_root", recorded):
        found = _search(ray, sigma)
    if not steps:  # no finite bracket start
        assert found is None
        return
    (tau,) = steps
    if tau is not None and -math.inf < val(tau) < v0:
        assert found == (tau, val(tau))
    else:
        assert found is None
    root = _reference_root(slope)
    if root is None or root > 1e30 or not -math.inf < val(root) < v0:
        return
    # where |w|^(e - 1), or at r = 2 the squared norm, is not a normal double,
    # the slope functions lose the regularizer's share, so their root is not
    # the convex ray's: a limit of the ray's evaluation, not of the search
    nw = space.norm(anchor - root * d)
    factor = min(nw ** (e - 1.0), nw * nw if r == 2.0 else math.inf)
    if not sys.float_info.min <= factor < math.inf:
        return
    assert tau is not None
    ftol = 1e-12 * max(1.0, -slope0)
    width = (1e-15 + 4 * sys.float_info.epsilon) * tau + 1e-320
    assert abs(slope(tau)) <= ftol or abs(tau - root) <= width
    # an initial slope within the absolute tolerance ftol = 1e-12 meets it
    # at any point, so the step need not decrease m (a known fault of the
    # tolerance, not of the search).  Otherwise the step is a decrease, and
    # its value misses the least by at most the share ftol / -slope0 (a
    # relative slope error), or 1e-6, of the decrease, plus rounding
    if -slope0 < ftol:
        return
    gain = v0 - val(root)
    slack = max(1e-6, ftol / -slope0) * gain + 4 * sys.float_info.epsilon * abs(v0)
    assert found is not None and found[1] - val(root) <= slack


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    r=st.sampled_from([1.5, 2.0, 3.0]),
    p=st.sampled_from([2, 3]),
    beta=st.sampled_from([0.5, 1.0]),
    sigma=_magnitudes(),
    c1=_magnitudes(),
    higher=st.lists(st.one_of(st.just(0.0), _magnitudes(), _magnitudes().map(lambda v: -v)),
                    min_size=2, max_size=2),
    size=st.one_of(st.just(0.0), _magnitudes()),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_nonconvex_line_search_returns_a_refined_slope_root_below_m(r, p, beta, sigma, c1,
                                                                    higher, size, seed):
    # a nonconvex ray of a 3-d l^r model (some c_j < 0 for j >= 2): the step
    # is a root of the slope as _refine_root leaves it, |slope| <= ftol or a
    # sign change within its 1e-15 relative bracket width (plus rounding),
    # and its value is finite and strictly below m(s)
    assume(min(higher[:p - 1]) < 0.0)
    rng = np.random.default_rng(seed)
    d = NormedSpace(3, r).dual_direction(rng.standard_normal(3))
    anchor = size * rng.standard_normal(3)
    e = p + beta
    ray = _ray([0.0, -c1, *higher[:p - 1]], anchor, d, r, e, sigma)
    slope, val, _ = ray_functions(*ray)
    slope0, v0 = slope(0.0), val(0.0)
    assume(-math.inf < slope0 < 0.0 and math.isfinite(v0))
    found = _search(ray, sigma)
    if found is None:
        return
    tau, value = found
    assert tau > 0.0 and value == val(tau) and -math.inf < value < v0
    ftol = 1e-12 * max(1.0, -slope0)
    width = (1e-15 + 4 * sys.float_info.epsilon) * tau
    assert abs(slope(tau)) <= ftol or slope(tau - width) <= 0.0 < slope(tau + width)


@settings(max_examples=900, derandomize=True, deadline=None)
@given(
    r=st.sampled_from([2.0, 1.5, 3.0]),
    p=st.sampled_from([1, 2, 3]),
    scale=st.one_of(
        st.tuples(st.integers(min_value=-158, max_value=-140), st.sampled_from([0.5, 1.0])),
        st.tuples(st.integers(min_value=-3, max_value=3), st.sampled_from([0.5, 1.0])),
        # beta = 0.01 keeps the regularizer's |s|^(2 + beta) below the largest double
        st.tuples(st.integers(min_value=151, max_value=152), st.just(0.01)),
    ),
    n=st.sampled_from([1, 3, 40]),
    curvature=st.sampled_from([0.0, 1e-3, 1.0, 1e3]),
    negative=st.booleans(),
    zero=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_line_search_step_is_the_point_it_reports(r, p, scale, n, curvature, negative, zero,
                                                  seed):
    # a ray as minimize_model builds it at |s| near 10^k (or at s = 0): the
    # dual direction of the model gradient, g ~ 10^(k/2), c_j ~ 10^(k (3/2 -
    # j)) (each >= 0, or of either sign) and sigma |s|^(e-1) ~ |g|.  The
    # search makes no RuntimeWarning, and a step it returns is w = s - tau d
    # byte for byte, with the norm and duality vector of a fresh l^r pass
    # over w, or where the solve carries |s|^2 (r = 2, p = 2) w's sum of
    # squares q and the norm math.sqrt(q), but the scaled pass's outside
    # _lr's unscaled window (|k| > 3); and its drop is the ray polynomial at
    # tau plus the regularizer's share at |w|
    k, beta = scale
    rng = np.random.default_rng(seed)
    e = p + beta
    # capped where it would pass the largest double (p = 3, k < -120)
    sigma = 1.1 * 10.0 ** min(k * (1.5 - e), 300.0)
    gamma_e1 = math.gamma(e + 1.0)
    reg_v, reg_d = sigma / gamma_e1, sigma / math.gamma(e)
    s = np.zeros(n) if zero else 10.0 ** k * rng.standard_normal(n)
    g = 10.0 ** (k / 2) * rng.standard_normal(n)
    step_norm, du = _lr(s, r)
    qa = float(np.vdot(s, s)) if (r, p) == (2.0, 2) else None
    if qa is not None:
        d = _lr(g + s * (reg_d * _pow(step_norm, e - 2.0)), 2.0)[1]
    else:
        d = _lr(g + du * _pow(step_norm, e - 1.0) * reg_d, r / (r - 1.0))[1]
    coeffs = [-reg_v * _pow(step_norm, e), -float(g.dot(d))]
    for j in range(2, p + 1):
        draw = rng.uniform(-1.0, 1.0) if negative else rng.random()
        coeffs.append(0.0 + curvature * 10.0 ** (k * (1.5 - j)) * draw)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with mock.patch("arplr.inner._lr", side_effect=_lr) as passes:
            found = _line_search(coeffs, s, d, r, e, reg_v, reg_d, step_norm, du, qa, sigma,
                                 gamma_e1)
    if found is None:
        return
    tau, drop, w, nw, carry = found
    assert tau > 0.0 and -math.inf < drop < 0.0
    assert w.tobytes() == (s - tau * d).tobytes()
    fresh_nw, fresh_du = _lr(w, r)
    if qa is None:
        assert _bits(nw) == _bits(fresh_nw) and carry.tobytes() == fresh_du.tobytes()
    else:
        assert _bits(carry) == _bits(float(np.vdot(w, w)))
        inside = _SUMSQ_MIN < carry < _SUMSQ_MAX
        assert _bits(nw) == _bits(math.sqrt(carry) if inside else fresh_nw)
        # a convex ray's only pass is the accepted point's fallback; a
        # nonconvex one's bracket may evaluate points outside the window
        if min(coeffs[2:]) >= 0.0:
            assert passes.call_count == (not inside)
        else:
            assert passes.call_count >= (not inside)
    assert _bits(drop) == _bits(_horner(coeffs, tau) + reg_v * _pow(nw, e))


def test_root_refinement_resolves_a_root_far_below_one():
    # f(t) = -1 + sqrt(t / 1e-17) has its root at 1e-17; a width exit with
    # an absolute floor near 1e-15 stops on an unresolved point there
    def f(t):
        return -1.0 + math.sqrt(t / 1e-17)

    t = _refine_root(f, 0.0, 1e-12, f(0.0), f(1e-12), 1e-12)
    assert abs(f(t)) <= 1e-12


def test_root_refinement_bisects_when_regula_falsi_keeps_one_end():
    # m(t) = -t + 1e307 t^4 + sigma t^2 / 2, whose minimizer is
    # 2.924017738212866e-103 (mpmath, 60 digits).  The line search brackets
    # it at the Taylor scale (4e307)^(-1/3).  On the bracket [0, 100] the
    # slope is +inf at the upper end, and once bisection has brought that
    # end into range its slope is so large that each Illinois step lands
    # below the root and only halves it; a bisection step in the exponent
    # after 6 of them reaches the minimizer
    e, sigma = 2.0, 0.02
    ray = _scalar_ray([0.0, -1.0, 0.0, 0.0, 1e307], [0.0, 0.0], e, sigma)
    slope, val, _ = ray_functions(*ray)
    assert slope(100.0) == math.inf
    tau, value = _search(ray, sigma)
    assert tau == pytest.approx(2.924017738212866e-103, rel=1e-12)
    assert value == val(tau) < val(0.0)
    t = _refine_root(slope, 0.0, 100.0, slope(0.0), math.inf, 1e-12)
    assert t == pytest.approx(2.924017738212866e-103, rel=1e-12)


def test_step_power_rule_branch_requires_motion():
    # at s = 0 the power branch would read |g| <= 0 and must stay silent
    m = _linear_model([1.0, 0.5], sigma=1.0)
    res = minimize_model(m, 1e-12, 1e12, 10)
    assert res.iterations >= 1
    assert res.termination in (Termination.STEP_POWER_RULE, Termination.GRADIENT_BELOW_TOL,
                               Termination.ZERO_GRADIENT)


def test_exponent_bookkeeping_defaults():
    assert default_max_iters(4, 2, 1e-6) == 10 * 4 * 3 * 6
    assert default_max_iters(1, 1, 0.5) == 10 * 1 * 2 * 1
    # below about 2.2e-308 the reciprocal 1 / grad_tol overflows to inf; the
    # guard then counts the digits of grad_tol itself, and keeps its value
    # wherever the reciprocal is finite
    assert default_max_iters(1, 1, 1e-320) == 10 * 1 * 2 * 321
    assert default_max_iters(2, 3, 5e-324) == 10 * 2 * 4 * 324
    for tol in (1e-300, 2.5e-308, sys.float_info.min):
        assert default_max_iters(3, 2, tol) == 10 * 3 * 3 * math.ceil(math.log10(1.0 / tol))
    # without max_iters the guard is default_max_iters(n, p, grad_tol): this
    # Rosenbrock model, met in the built-in suite's l^2 solve, runs into it
    problem = Rosenbrock()
    x = np.array([0.9814865089856932, 0.9631886045803995])
    derivs = tuple(problem.eval_derivative(x, l) for l in (1, 2))
    m = RegularizedModel(TaylorModel(derivs), 1e-8, 1.0, NormedSpace(2, 2.0))
    res = minimize_model(m, 0.5e-5, 100.0)
    assert res.termination is Termination.MAX_ITERS
    assert res.iterations == default_max_iters(2, 2, 0.5e-5) == 360


@pytest.mark.parametrize("grad_tol, digits", [
    (0.0, None), (math.inf, None), (-1e-6, None), (math.nan, None),
    (0.5e-5, 6),  # the Rosenbrock guard of 360 above
    (1e-320, 321),
])
def test_default_max_iters_counts_the_digits_of_a_positive_finite_tolerance(grad_tol, digits):
    # n = 2, p = 2: 60 iterations per digit; a tolerance that is not
    # positive and finite raises
    if digits is None:
        with pytest.raises(ValueError, match="tolerance"):
            default_max_iters(2, 2, grad_tol)
    else:
        assert default_max_iters(2, 2, grad_tol) == 60 * digits


def test_config_validation():
    m = _linear_model([1.0, 0.5], sigma=1.0)
    with pytest.raises(ValueError, match="tolerance"):
        minimize_model(m, 0.0)
    with pytest.raises(ValueError, match="tolerance"):
        minimize_model(m, -1e-6)
    with pytest.raises(ValueError, match="tolerance"):
        minimize_model(m, math.inf)
    with pytest.raises(ValueError, match="tolerance"):
        minimize_model(m, math.nan)
    with pytest.raises(ValueError, match="theta"):
        minimize_model(m, 1e-6, 0.0)
    with pytest.raises(ValueError, match="theta"):
        minimize_model(m, 1e-6, -1.0)
    with pytest.raises(ValueError, match="max_iters"):
        minimize_model(m, 1e-6, max_iters=0)
    with pytest.raises(ValueError, match="max_iters"):
        minimize_model(m, 1e-6, max_iters=math.nan)


# -- scalar ray evaluation ----------------------------------------------------

_coefficients = st.lists(
    st.builds(
        lambda sign, mantissa, k: sign * mantissa * 10.0 ** k,
        st.sampled_from([-1.0, 1.0]),
        st.floats(min_value=1.0, max_value=10.0),
        st.integers(min_value=-6, max_value=6),
    ),
    min_size=2,
    max_size=4,
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    coeffs=_coefficients,
    t=st.floats(min_value=0.0, max_value=1e6),
    r=st.sampled_from([1.5, 2.0, 3.0]),
    beta=st.sampled_from([0.5, 1.0]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_scalar_ray_matches_numpy_polynomial_bit_for_bit(coeffs, t, r, beta, seed):
    n, p = 3, len(coeffs) - 1
    rng = np.random.default_rng(seed)
    space = NormedSpace(n, r)
    zeros = tuple(SymmetricTensor(l, n, np.zeros((n,) * l)) for l in range(1, p + 1))
    model = RegularizedModel(TaylorModel(zeros), 1.3, beta, space)
    anchor = rng.standard_normal(n)
    d = space.dual_direction(rng.standard_normal(n))
    coeffs = np.array(coeffs)
    e = model.reg_exponent
    reg_v, reg_d = model.sigma / math.gamma(e + 1.0), model.sigma / math.gamma(e)
    rest = (r, e, reg_v, reg_d, *_lr(anchor, r))
    slope, val, _ = ray_functions(coeffs.tolist(), anchor, d, *rest)
    # the regularizer term alone: the same ray with a zero polynomial
    reg_slope, reg_val, _ = ray_functions([0.0] * len(coeffs), anchor, d, *rest)
    value = float(npoly.polyval(t, coeffs)) + reg_val(t)
    deriv = float(npoly.polyval(t, npoly.polyder(coeffs))) + reg_slope(t)
    assert np.float64(val(t)).tobytes() == np.float64(value).tobytes()
    assert np.float64(slope(t)).tobytes() == np.float64(deriv).tobytes()


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
def test_inner_solve_writes_to_no_array_it_does_not_own(p, r):
    # the model's tensors (dense, and at p = 2 also a banded Hessian) and
    # the step of an earlier result keep every byte through later solves;
    # a solve that stops at s = 0, where the l^r pass returns s itself as
    # the duality vector, returns a zero step
    rng = np.random.default_rng(10 * p + int(2 * r))
    models = [_random_model(p, 0.7, 1.1, 5, r, rng)]
    if p == 2:
        hessian = diagonal_tensor(2, 2.0 + rng.random(5), -rng.random(4))
        tm = TaylorModel((models[0].taylor.tensors[0], hessian))
        models.append(RegularizedModel(tm, 1.1, 0.7, NormedSpace(5, r)))
    for m in models:
        entries = [t.entries.copy() for t in m.taylor.tensors]
        first = minimize_model(m, 1e-8, max_iters=100)
        step = first.s.copy()
        assert first.iterations >= 1
        assert minimize_model(m, 1e-8, max_iters=100).s.tobytes() == step.tobytes()
        at_zero = minimize_model(m, 1e300, max_iters=100)
        assert at_zero.iterations == 0 and not at_zero.s.any()
        minimize_model(m, 1e-8, max_iters=100)
        assert first.s.tobytes() == step.tobytes()
        assert all(t.entries.tobytes() == e.tobytes() for t, e in zip(m.taylor.tensors, entries))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    p=st.sampled_from([1, 3]),
    r=st.sampled_from([1.5, 2.0, 3.0]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_reported_dual_norm_is_the_model_gradient_dual_norm(p, r, seed):
    m = _random_model(p, 0.7, 1.1, 3, r, np.random.default_rng(seed))
    res = minimize_model(m, 1e-8, max_iters=100)
    assert res.model_grad_dual_norm == m.space.dual_norm(m.gradient(res.s))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    p=st.sampled_from([1, 2, 3]),
    r=st.sampled_from([1.5, 2.0, 3.0]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_reported_step_norm_is_the_norm_of_the_step(p, r, seed):
    m = _random_model(p, 0.7, 1.1, 3, r, np.random.default_rng(seed))
    res = minimize_model(m, 1e-8, max_iters=100)
    assert res.step_norm.hex() == m.space.norm(res.s).hex()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    scale=st.one_of(
        st.tuples(st.integers(min_value=-158, max_value=-137), st.sampled_from([0.5, 1.0])),
        st.tuples(st.just(0), st.sampled_from([0.5, 1.0])),
        # beta = 0.01 keeps the regularizer's |s|^(2 + beta) below the largest double
        st.tuples(st.integers(min_value=151, max_value=152), st.just(0.01)),
    ),
    n=st.sampled_from([3, 40]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_r2_quadratic_step_norms_keep_their_bits_at_every_scale(scale, n, seed):
    # an l^2 model at p = 2 whose steps have |s| near 10^k: g ~ 10^(k/2),
    # H ~ 10^(-k/2) (positive definite) and sigma |s|^(e-1) ~ |g| at
    # |s| = 10^k.  Where |s|^2 leaves _lr's unscaled window (2^-900,
    # 2^1000) each point's norm comes from the scaled pass, without a
    # warning; at every scale the reported step norm is NormedSpace.norm's,
    # which at n = 40 the BLAS sum of squares need not give
    k, beta = scale
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    g = 10.0 ** (k / 2) * rng.standard_normal(n)
    h = 10.0 ** (-k / 2) * (a @ a.T / n + np.eye(n))
    tm = TaylorModel((SymmetricTensor(1, n, g), SymmetricTensor(2, n, h)))
    e = 2.0 + beta
    m = RegularizedModel(tm, 1.1 * 10.0 ** (k * (1.5 - e)), beta, NormedSpace(n, 2.0))
    outside = 0

    def counted(v, r, *work):
        nonlocal outside
        if v.ndim == 1 and v.any() and not _SUMSQ_MIN < np.vdot(v, v) < _SUMSQ_MAX:
            outside += 1
        return _lr(v, r, *work)

    with warnings.catch_warnings(), mock.patch("arplr.inner._lr", counted):
        warnings.simplefilter("error", RuntimeWarning)
        res = minimize_model(m, 1e-8 * 10.0 ** (k / 2), max_iters=300)
    assume(res.iterations >= 1)
    if not _SUMSQ_MIN < np.vdot(res.s, res.s) < _SUMSQ_MAX:
        assert outside >= 2  # the accepted point's fallback pass, and the exit pass
    assert res.step_norm.hex() == m.space.norm(res.s).hex()
    assert math.isfinite(res.model_grad_dual_norm) and np.isfinite(m.gradient(res.s)).all()


@contextlib.contextmanager
def _recorded_rays():
    """The arguments of every line search that ``minimize_model`` runs, in
    order: ``(coeffs, s, d, r, e, reg_v, reg_d, nw, du, qa, sigma,
    gamma_e1)`` (at r = 2 a p = 2 solve carries ``qa = |s|^2`` and no
    duality vector of s)."""
    rays = []
    search = inner._line_search

    def recorded(*args):
        rays.append(args)
        return search(*args)

    with mock.patch.object(inner, "_line_search", recorded):
        yield rays


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    p=st.sampled_from([1, 2, 3]),
    r=st.sampled_from([1.5, 2.0, 3.0]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_inner_rays_match_the_model_methods_bit_for_bit(p, r, seed):
    # each ray starts at s along the dual direction of the model gradient
    # there, with the Taylor slope and full-contraction coefficients; p = 2
    # keeps H s up to date instead of contracting the Hessian with s, so its
    # gradient, direction and slope may differ in the last bits
    m = _random_model(p, 0.7, 1.1, 3, r, np.random.default_rng(seed))
    with _recorded_rays() as rays:
        res = minimize_model(m, 1e-8, max_iters=100)
    assert len(rays) >= res.iterations >= 1
    for coeffs, s, d, *_ in rays:
        if p > 1:
            assert coeffs[2:] == full_ray_coefficients(m.taylor.tensors[1:], s, d)[2:]
        if p != 2:
            assert d.tobytes() == m.space.dual_direction(m.gradient(s)).tobytes()
            assert coeffs[1] == -float(np.dot(m.taylor.gradient(s), d))


def _envelope_terms(ray, p):
    # at r = 2 the Hessian of reg_v |w|^e (e = p + 1) is bounded by
    # e (e - 1) reg_v (|s| + t)^(e - 2) along s - t d; with the Taylor
    # part's own curvature, integrated twice, it bounds the ray by
    # m(s) - alpha t + sum kappa t^gamma (terms of zero weight dropped)
    c, reg_v, s = ray[0], ray[5], float(np.linalg.norm(ray[1]))
    if p == 1:
        terms = [(reg_v, 2.0)]
    elif p == 2:
        terms = [(max(c[2] + 3.0 * reg_v * s, 0.0), 2.0), (reg_v, 3.0)]
    else:
        terms = [(max(c[2] + 6.0 * reg_v * s * s, 0.0), 2.0),
                 (max(c[3] + 4.0 * reg_v * s, 0.0), 3.0), (reg_v, 4.0)]
    return tuple((k, g) for k, g in terms if k > 0.0)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    p=st.sampled_from([1, 2, 3]),
    sigma=st.floats(min_value=1e-2, max_value=1e2),
    n=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_each_inner_step_decreases_the_model_by_the_descent_profile_bound(p, sigma, n, seed):
    # the paper's descent-profile lemma: a step along the dual direction
    # lowers the model at least as far as the minimum of its upper envelope
    # psi(t) = -alpha t + sum kappa t^gamma, alpha the dual gradient norm
    # at s; p = 1 attains the bound (one term of exponent 2)
    m = _random_model(p, 1.0, sigma, n, 2.0, np.random.default_rng(seed))
    with _recorded_rays() as rays, model_values() as values:
        res = minimize_model(m, 1e-8, max_iters=100)
    assert len(values) == res.iterations + 1
    assert len(rays) >= res.iterations >= 1
    for ray, before, after in zip(rays, values, values[1:]):
        spec = PsiSpec(-ray_functions(*ray[:10])[0](0.0), _envelope_terms(ray, p))
        bound = psi_descent_bound(spec)
        slack = 1e-9 * abs(bound) + 8.0 * math.ulp(max(abs(before), abs(after)))
        assert after - before <= bound + slack


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    r=st.sampled_from([1.5, 2.0, 3.0]),
    p=st.sampled_from([1, 2, 3]),
    t=st.floats(min_value=1e-6, max_value=10.0),
    zeros=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_remembered_ray_point_gives_the_bits_of_a_fresh_evaluation(r, p, t, zeros, seed):
    n = 5
    rng = np.random.default_rng(seed)
    space = NormedSpace(n, r)
    anchor = rng.standard_normal(n)
    anchor[:zeros] = 0.0  # zero entries, up to the zero anchor of a first iteration
    d = space.dual_direction(rng.standard_normal(n))
    coeffs = rng.standard_normal(p + 1).tolist()
    e = p + 0.5
    args = (coeffs, anchor, d, r, e, 1.3 / math.gamma(e + 1.0), 1.3 / math.gamma(e))
    slope, val, point = ray_functions(*args, *_lr(anchor, r))
    calls = []

    def counted(a, r):
        calls.append(r)
        return _lr(a, r)

    # the built ray answers at t = 0 from the anchor's pass alone
    with mock.patch("arplr.inner._lr", counted):
        answers = [slope(0.0), val(0.0)]
    assert calls == []
    # then repeated and alternating queries; each answer is checked against
    # a ray built on a fresh pass over anchor - 0 d, the pass that a ray
    # without memory would make at t = 0
    queries = [(0.0, 0), (0.0, 1), (t, 0), (t, 1), (t, 0),
               (0.0, 1), (t, 1), (t, 0), (2.0 * t, 1)]
    answers += [(slope, val)[k](q) for q, k in queries[2:]]
    for (q, k), got in zip(queries, answers):
        fresh = ray_functions(*args, *_lr(anchor - 0.0 * d, r))[k](q)
        assert _bits(got) == _bits(fresh), (q, k)
    w, nw, du = point(anchor, d, 2.0 * t)
    assert w.tobytes() == (anchor - 2.0 * t * d).tobytes()
    fresh_nw, fresh_du = _lr(anchor - 2.0 * t * d, r)
    assert _bits(nw) == _bits(fresh_nw) and du.tobytes() == fresh_du.tobytes()
    assert du.tobytes() == two_step_lr(w, r)[1].tobytes()
    # at every r the value reads the norm of the point's own pass, the norm
    # that minimize_model keeps as |s| and takes the regularizer share of
    ref = _horner(coeffs, t) + args[5] * _pow(_lr(anchor - t * d, r)[0], e)
    assert _bits(val(t)) == _bits(ref)


@pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
def test_inner_value_histories_hold_python_floats(r):
    # an order-3 double well from a random start runs the grid scan, whose
    # roots are refined from NumPy floats unless the scan hands over floats;
    # each solve's model values are rebuilt from its own drops
    cfg = ExperimentConfig(problem="double_well", n=8, p=3, x0="random", seed=3, r=r)
    problem, space, x0, outer = cfg.build()
    results, history = [], []

    def recorded(*args):
        with model_values() as values:
            results.append(minimize_model(*args))
        assert len(values) == results[-1].iterations + 1
        history.extend(values)
        return results[-1]

    with mock.patch("arplr.solver.minimize_model", recorded):
        solve(problem, x0, outer, space)
    assert len(results) >= 8
    assert [type(v) for v in history if type(v) is not float] == []


def _pendulum_model(r):
    # the banded pendulum p = 2 model at mesh 32, from the default start
    cfg = ExperimentConfig(problem="pendulum", n=32, r=r, p=2, epsilon=1e-4)
    problem, space, x0, _ = cfg.build()
    derivs = tuple(problem.eval_derivative(x0, l) for l in (1, 2))
    return RegularizedModel(TaylorModel(derivs), 1.0, 1.0, space)


def _double_well_model():
    # the order-3 double well at n = 32 in l^3 from a random start, sigma = 10
    cfg = ExperimentConfig(problem="double_well", n=32, r=3.0, p=3, x0="random", seed=1)
    problem, space, x0, _ = cfg.build()
    derivs = tuple(problem.eval_derivative(x0, l) for l in (1, 2, 3))
    return RegularizedModel(TaylorModel(derivs), 10.0, 1.0, space)


@pytest.mark.parametrize("r, p, grad_tol, budget", [
    (2.0, 2, 1e-6, 23.83), (1.5, 2, 1e-5, 44.08), (3.0, 2, 1e-5, 42.08), (3.0, 3, 1e-6, 96.84),
], ids=["2.0-1e-06-27.36", "1.5-1e-05-48.09", "3.0-1e-05-45.59", "double_well-r3-p3"])
def test_inner_iteration_call_budget(r, p, grad_tol, budget):
    # Python-level calls (profile "call" and "c_call" events) per inner
    # iteration of a fixed solve, after a warm-up solve (the first builds
    # the grid scan's cached abscissae): the banded pendulum model at mesh
    # 32 and p = 2, which ends on the gradient tolerance after 1,316
    # (r = 2), 2,205 (r = 1.5) and 2,304 (r = 3) iterations, and the order-3
    # double well, which ends there after 95.  Each bound is the count plus
    # 0.03: 23.80, 44.05, 42.05 and 96.81 with one line search for every
    # ray, where a second path for p = 2 convex rays and a ray object for
    # the others made 27.33, 48.06, 45.56 and 120.48 (Python 3.11, NumPy
    # 2.4.6).  The test ids keep the earlier bounds
    m = _pendulum_model(r) if p == 2 else _double_well_model()
    minimize_model(m, grad_tol)
    events = 0

    def count(frame, event, arg):
        nonlocal events
        if event in ("call", "c_call"):
            events += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        res = minimize_model(m, grad_tol)
    finally:
        sys.setprofile(previous)
    assert res.termination is Termination.GRADIENT_BELOW_TOL
    assert res.iterations == {(2.0, 2): 1316, (1.5, 2): 2205, (3.0, 2): 2304, (3.0, 3): 95}[r, p]
    assert events / res.iterations <= budget


@pytest.mark.parametrize("r, grad_tol", [(2.0, 1e-6), (1.5, 1e-5)])
def test_inner_solve_memory_does_not_grow_with_its_iterations(r, grad_tol):
    # the call-budget solves, cut at 100 iterations and run to the
    # tolerance (1,316 and 2,205 iterations), after a warm-up solve: the
    # traced peaks agree to within 1 KB, where a list of per-iteration
    # model values grew them by 49 KB (r = 2) and 81 KB (r = 1.5)
    m = _pendulum_model(r)
    minimize_model(m, grad_tol)
    peaks = []
    for max_iters in (100, None):
        tracemalloc.start()
        try:
            res = minimize_model(m, grad_tol, max_iters=max_iters)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert res.iterations == {2.0: 1316, 1.5: 2205}[r]
    assert abs(peaks[1] - peaks[0]) < 1024


def test_line_search_shares_its_lr_passes(monkeypatch):
    # l^1.5 pendulum at mesh 32: 9,498 l^r passes over 3,068 inner
    # iterations, 3.10 each.  Without sharing, the ray's slope at t = 0, the
    # value at the accepted step and the next iteration's pass over s would
    # each repeat a pass that the line search already made
    m, h = 32, 1.0 / 32
    wave = 1.3 * math.sqrt(h) * np.sin(math.pi * np.arange(1, m) * h)
    cfg = ExperimentConfig(problem="pendulum", n=m, r=1.5, p=2, epsilon=1e-4,
                           x0=",".join(repr(float(v)) for v in wave))
    problem, space, x0, outer = cfg.build()
    calls = []

    def counted(a, r):
        calls.append(r)
        return _lr(a, r)

    monkeypatch.setattr("arplr.inner._lr", counted)
    run = solve(problem, x0, outer, space)
    assert run.status is SolveStatus.CONVERGED
    assert sum(rec.inner_iters for rec in run.records) == 3068
    assert len(calls) == 9498


@pytest.mark.parametrize("a", [1.3, 2.7])
@pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
def test_convex_line_search_needs_about_two_ray_passes(monkeypatch, r, a):
    # the pinned l^r pendulum runs at mesh 32: a convex line search that
    # brackets at the Taylor scale evaluates the ray about twice, so with
    # the pass over the model gradient an inner iteration makes about 3.1
    # l^r passes (about 5 when the bracket starts at the regularizer scale);
    # the pass over s is the ray's at the accepted step.  At r = 2 the slope
    # makes none and the accepted step none in the sum-of-squares window
    # (at p = 2 s carries |s|^2), so an iteration makes exactly one, over
    # the gradient, and a solve three more, over s = 0, the last gradient
    # and the returned step.  For r != 2 the exact counts are pinned too:
    # a line search that repeats the pass over s or the accepted point's
    # makes more
    m, h = 32, 1.0 / 32
    wave = a * (math.sqrt(h) * np.sin(math.pi * np.arange(1, m) * h))
    cfg = ExperimentConfig(problem="pendulum", n=m, r=r, p=2, epsilon=1e-4,
                           x0=",".join(repr(float(v)) for v in wave))
    problem, space, x0, outer = cfg.build()
    calls = 0

    def counted(v, r):
        nonlocal calls
        calls += 1
        return _lr(v, r)

    monkeypatch.setattr("arplr.inner._lr", counted)
    run = solve(problem, x0, outer, space)
    assert run.status is SolveStatus.CONVERGED
    inner = sum(rec.inner_iters for rec in run.records)
    assert calls < 3.5 * inner
    if r == 2.0:
        assert calls == inner + 3 * len(run.records)
    else:
        assert calls == {(1.5, 1.3): 9636, (1.5, 2.7): 10739, (3.0, 1.3): 7146,
                         (3.0, 2.7): 7706}[r, a]


def _scan_points(ray, ts):
    return ray[1][None, :] - ts[:, None] * ray[2][None, :]


def _scan_reference(ray, ts):
    # the grid scan's slopes in their out-of-place form, one fresh array per
    # step, with the row pass's norms and two-step duality rows
    dcoeffs, _, d, r, e, reg_d = ray
    pts = _scan_points(ray, ts)
    norms = _lr(pts, r)[0]
    num = -np.dot(two_step_rows(pts, r), d)
    return _horner(dcoeffs, ts) + reg_d * norms ** (e - 1.0) * num


def _scan_ray(r, p, n, seed, size=1.0):
    # the arguments of _scan_slopes but the grid: the slope coefficients
    # j c_j of random c_j, an anchor, a dual direction, r, e and reg_d
    rng = np.random.default_rng(seed)
    d = NormedSpace(n, r).dual_direction(rng.standard_normal(n))
    e = p + 0.5
    coeffs = rng.standard_normal(p + 1).tolist()
    anchor = size * rng.standard_normal(n)
    dcoeffs = [j * coeffs[j] for j in range(1, p + 1)]
    return dcoeffs, anchor, d, r, e, 1.3 / math.gamma(e)


@pytest.mark.parametrize("n", [2, 96])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("t_hi, size", [(2.5, 1.0), (1e-300, 1e-310), (1e308, 1e307)])
def test_grid_scan_keeps_its_bits_and_owns_its_results(r, p, n, t_hi, size):
    # the second case puts subnormal peaks on the rows near t = 0 and
    # normal ones further out, so the row-wise lift runs on part of the
    # grid; in the third the l^1.5 norms of the n = 96 rows far out pass
    # the largest double
    ts = t_hi * _unit_grid(64 * (p + 1))
    ray = _scan_ray(r, p, n, seed=n + p, size=size)
    with np.errstate(over="ignore", invalid="ignore"):
        ders = _scan_slopes(*ray, ts)
        ref_ders = _scan_reference(ray, ts)
        kept = ders.copy()
        _scan_slopes(*_scan_ray(r, p, n, seed=n + p + 1, size=size), ts)
        if (t_hi, n, r) == (1e308, 96, 1.5):
            assert np.isinf(_lr(_scan_points(ray, ts), r)[0]).any()
    assert ders.tobytes() == ref_ders.tobytes() == kept.tobytes()


def test_repeated_grid_scan_allocates_no_grid_sized_array():
    n = 400
    ray = _scan_ray(1.5, 3, n, seed=0)
    ts = 2.0 * _unit_grid(64 * 4)  # the 384-point grid of a p = 3 ray
    grid_array = len(ts) * n * 8  # one (grid x n) float array: 1.2 MB
    _scan_slopes(*ray, ts)
    tracemalloc.start()
    try:
        _scan_slopes(*ray, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid_array / 4


def test_grid_scans_in_threads_do_not_share_their_buffers():
    ts = 3.0 * _unit_grid(64 * 4)
    rays = [_scan_ray(r, 3, 48, seed=i) for i, r in enumerate([1.5, 3.0, 1.5, 3.0, 1.5, 3.0])]
    expected = [_scan_reference(ray, ts) for ray in rays]
    mismatches = []

    def scan(ray, ref):
        for _ in range(20):
            if _scan_slopes(*ray, ts).tobytes() != ref.tobytes():
                mismatches.append(ray)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=scan, args=pair) for pair in zip(rays, expected)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert mismatches == []
