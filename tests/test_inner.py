import math
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
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
from arplr.geometry import _lr
from arplr.harness import ExperimentConfig
from arplr.inner import (
    _horner,
    _line_minimize,
    _RayEval,
    _refine_root,
    _unit_grid,
    default_max_iters,
)
from arplr.psi import PsiSpec, psi_descent_bound
from helpers import full_ray_coefficients, symmetrize, two_step_lr, two_step_rows


def _linear_model(g, sigma, r=2.0, beta=1.0):
    n = len(g)
    tm = TaylorModel(0.0, (SymmetricTensor(1, n, np.asarray(g, float)),))
    return RegularizedModel(tm, sigma, beta, NormedSpace(n, r))


def _random_model(p, beta, sigma, dim, r, rng):
    tensors = tuple(
        SymmetricTensor(l, dim, symmetrize(rng.standard_normal((dim,) * l)))
        for l in range(1, p + 1)
    )
    tm = TaylorModel(float(rng.standard_normal()), tensors)
    return RegularizedModel(tm, sigma, beta, NormedSpace(dim, r))


def test_analytic_quadratic_instance():
    # m(s) = <g, s> + |s|^2 with g = (2, 0): minimizer (-1, 0), decrease -1
    m = _linear_model([2.0, 0.0], sigma=2.0)
    res = minimize_model(m, 1e-10, max_iters=50)
    assert np.allclose(res.s, [-1.0, 0.0], atol=1e-8)
    assert res.value_history[-1] == pytest.approx(-1.0, abs=1e-8)
    assert res.iterations == 1
    assert res.value_history[-1] < res.value_history[0]


def test_zero_gradient_at_entry():
    m = _linear_model([0.0, 0.0], sigma=1.0)
    res = minimize_model(m, 1e-8, max_iters=10)
    assert res.termination is Termination.ZERO_GRADIENT
    assert res.iterations == 0
    assert np.all(res.s == 0.0)
    assert not res.value_history[-1] < res.value_history[0]


def test_rejects_noncoercive_model():
    m = _linear_model([1.0, 1.0], sigma=0.0)
    with pytest.raises(ValueError):
        minimize_model(m, 1e-8)


def test_strict_monotone_decrease_and_stopping_rule():
    rng = np.random.default_rng(0)
    for r, p, beta in [(2.0, 2, 1.0), (1.5, 2, 0.5), (3.0, 3, 1.0), (1.5, 1, 0.5)]:
        m = _random_model(p, beta, 1.0, 4, r, rng)
        res = minimize_model(m, 1e-6, 100.0, 20_000)
        hist = np.array(res.value_history)
        assert np.all(np.diff(hist) < 0.0)
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
    assert best >= res.value_history[-1] - 1e-6


def test_cumulative_decrease_bounded_by_total_available():
    rng = np.random.default_rng(2)
    m = _random_model(2, 1.0, 0.7, 4, 2.0, rng)
    res = minimize_model(m, 1e-7, max_iters=50_000)
    cumulative = res.value_history[0] - res.value_history[-1]
    assert cumulative > 0.0
    best = min(
        float(optimize.minimize(m.value, rng.standard_normal(4), jac=m.gradient).fun)
        for _ in range(30)
    )
    assert cumulative <= res.value_history[0] - best + 1e-6


def test_level_set_confinement():
    rng = np.random.default_rng(3)
    m = _random_model(3, 1.0, 1.2, 3, 1.5, rng)
    res = minimize_model(m, 1e-7, max_iters=20_000)
    m0 = res.value_history[0]
    assert all(v <= m0 for v in res.value_history)


def test_max_iters_is_reported_not_fatal():
    rng = np.random.default_rng(4)
    m = _random_model(2, 1.0, 1e-3, 6, 2.0, rng)
    res = minimize_model(m, 1e-14, max_iters=2)
    assert res.termination is Termination.MAX_ITERS
    assert res.iterations == 2
    assert res.value_history[-1] < res.value_history[0]


def test_progress_floor_is_reported():
    # the decrease along the ray (about 1e-18) is far below the spacing of
    # doubles near the model value 1e6, so no representable decrease exists
    tm = TaylorModel(1e6, (SymmetricTensor(1, 2, np.array([1e-9, 0.0])),))
    m = RegularizedModel(tm, 1.0, 1.0, NormedSpace(2, 2.0))
    res = minimize_model(m, 1e-30, max_iters=50)
    assert res.termination is Termination.PROGRESS_FLOOR
    assert res.iterations == 0
    assert not res.value_history[-1] < res.value_history[0]


def test_overflowing_model_gradient_ends_on_the_progress_floor():
    # a finite gradient whose dual norm passes the largest double: the inner
    # solve stops with a status instead of raising
    m = _linear_model([1.7e308, -1.7e308], sigma=1.0)
    res = minimize_model(m, 1e-8, max_iters=50)
    assert res.termination is Termination.PROGRESS_FLOOR
    assert res.iterations == 0 and res.model_grad_dual_norm == math.inf


def _scalar_ray(coeffs, anchor, e, sigma):
    # ray of a 2-d l^2 model along d = (1, 0), with the regularizer weights
    # minimize_model derives from sigma and e
    anchor = np.array(anchor, float)
    return _RayEval(coeffs, anchor, np.array([1.0, 0.0]), 2.0, e,
                    sigma / math.gamma(e + 1.0), sigma / math.gamma(e), *_lr(anchor, 2.0))


def test_convex_ray_grows_its_bracket_until_the_slope_turns():
    # e = 1.5 and s = (0, 100) orthogonal to d: the regularizer's slope is
    # about t / 10 near 0, so at the scale where the regularizer alone would
    # overtake the initial slope the derivative is still negative, and the
    # bracket doubles three times before the root is refined
    e, sigma = 1.5, 1.0
    ev = _scalar_ray([0.0, -1.0], [0.0, 100.0], e, sigma)
    slope, val = ev.scalar()
    slope0 = slope(0.0)
    scale = ((-slope0) * math.gamma(e + 1.0) / sigma) ** (1.0 / (e - 1.0))
    assert slope(scale) < 0.0
    tau, value = _line_minimize(ev, sigma, math.gamma(e + 1.0), val(0.0))
    assert tau > scale
    assert abs(slope(tau)) <= 1e-12 * max(1.0, -slope0)
    assert tau.hex() == "0x1.1c26660ac3bcfp+3" and value.hex() == "0x1.75e89cf842a70p+9"


def test_convex_ray_with_an_infinite_slope_at_the_bracket_end_is_refined():
    # m(t) = -1e300 t + 1e300 t^2 + sigma t^2 / 2: the slope overflows to
    # +inf at the first bracket end t = 1e12, which closes the bracket;
    # bisection brings its upper end back into range and regula falsi then
    # finds the minimizer near 1/2
    e, sigma = 2.0, 2e288
    ev = _scalar_ray([0.0, -1e300, 1e300], [0.0, 0.0], e, sigma)
    slope, val = ev.scalar()
    slope0 = slope(0.0)
    assert slope(1e12) == math.inf
    tau, value = _line_minimize(ev, sigma, math.gamma(e + 1.0), val(0.0))
    assert value < val(0.0) and value == val(tau)
    assert abs(slope(tau)) <= 1e-12 * max(1.0, -slope0)
    assert abs(tau - 0.5) < 1e-11


def test_convex_ray_still_descending_at_the_bracket_cap_gives_no_step():
    # e = 1.5 and s = (0, 1e40) orthogonal to d: the regularizer's slope
    # t (t^2 + |s|^2)^(-1/4) / Gamma(1.5) stays below the descent rate 1e14
    # up to about 9e33, past the 1e30 cap of _grow, although the decrease at
    # that minimizer would be representable
    e, sigma = 1.5, 1.0
    ev = _scalar_ray([0.0, -1e14], [0.0, 1e40], e, sigma)
    slope, val = ev.scalar()
    assert slope(2e30) < 0.0 < slope(1e34) and val(1e34) < val(0.0)
    assert _line_minimize(ev, sigma, math.gamma(e + 1.0), val(0.0)) is None


def test_root_refinement_resolves_a_root_far_below_one():
    # f(t) = -1 + sqrt(t / 1e-17) has its root at 1e-17; a width exit with
    # an absolute floor near 1e-15 stops on an unresolved point there
    def f(t):
        return -1.0 + math.sqrt(t / 1e-17)

    t = _refine_root(f, 0.0, 1e-12, f(0.0), f(1e-12), 1e-12)
    assert abs(f(t)) <= 1e-12


def test_root_refinement_bisects_when_regula_falsi_keeps_one_end():
    # m(t) = -t + 1e307 t^4 + sigma t^2 / 2: the slope is +inf at the
    # bracket start t = 100, and once bisection has brought that end into
    # range its slope is so large that each Illinois step lands below the
    # root and only halves it; a bisection step in the exponent after 6 of
    # them reaches the minimizer, 2.924017738212866e-103 (mpmath, 60 digits)
    e, sigma = 2.0, 0.02
    ev = _scalar_ray([0.0, -1.0, 0.0, 0.0, 1e307], [0.0, 0.0], e, sigma)
    slope, val = ev.scalar()
    assert slope(100.0) == math.inf
    tau, value = _line_minimize(ev, sigma, math.gamma(e + 1.0), val(0.0))
    assert tau == pytest.approx(2.924017738212866e-103, rel=1e-12)
    assert value == val(tau) < val(0.0)


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
    # without max_iters the guard is default_max_iters(n, p, grad_tol): this
    # Rosenbrock model, met in the built-in suite's l^2 solve, runs into it
    problem = Rosenbrock()
    x = np.array([0.9814865089856932, 0.9631886045803995])
    derivs = tuple(problem.eval_derivative(x, l) for l in (1, 2))
    m = RegularizedModel(TaylorModel(problem.eval_f(x), derivs), 1e-8, 1.0, NormedSpace(2, 2.0))
    res = minimize_model(m, 0.5e-5, 100.0)
    assert res.termination is Termination.MAX_ITERS
    assert res.iterations == default_max_iters(2, 2, 0.5e-5) == 360


def test_config_validation():
    m = _linear_model([1.0, 0.5], sigma=1.0)
    with pytest.raises(ValueError, match="tolerance"):
        minimize_model(m, 0.0)
    with pytest.raises(ValueError, match="tolerance"):
        minimize_model(m, -1e-6)
    with pytest.raises(ValueError, match="theta"):
        minimize_model(m, 1e-6, 0.0)
    with pytest.raises(ValueError, match="theta"):
        minimize_model(m, 1e-6, -1.0)
    with pytest.raises(ValueError, match="max_iters"):
        minimize_model(m, 1e-6, max_iters=0)


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
    model = RegularizedModel(TaylorModel(0.0, zeros), 1.3, beta, space)
    anchor = rng.standard_normal(n)
    d = space.dual_direction(rng.standard_normal(n))
    coeffs = np.array(coeffs)
    e = model.reg_exponent
    reg_v, reg_d = model.sigma / math.gamma(e + 1.0), model.sigma / math.gamma(e)
    rest = (r, e, reg_v, reg_d, *_lr(anchor, r))
    slope, val = _RayEval(coeffs.tolist(), anchor, d, *rest).scalar()
    # the regularizer term alone: the same ray with a zero polynomial
    reg_slope, reg_val = _RayEval([0.0] * len(coeffs), anchor, d, *rest).scalar()
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
        tm = TaylorModel(0.5, (models[0].taylor.tensors[0], hessian))
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
    rays = []

    class Recorded(_RayEval):
        __slots__ = ()

        def __init__(self, coeffs, anchor, direction, *args):
            super().__init__(coeffs, anchor, direction, *args)
            rays.append((coeffs, anchor, direction))

    with mock.patch("arplr.inner._RayEval", Recorded):
        res = minimize_model(m, 1e-8, max_iters=100)
    assert len(rays) >= res.iterations >= 1
    for coeffs, s, d in rays:
        if p > 1:
            assert coeffs[2:] == full_ray_coefficients(m.taylor.tensors[1:], s, d)[2:]
        if p != 2:
            assert d.tobytes() == m.space.dual_direction(m.gradient(s)).tobytes()
            assert coeffs[1] == -float(np.dot(m.taylor.gradient(s), d))


def _envelope_terms(ev, p):
    # at r = 2 the Hessian of reg_v |w|^e (e = p + 1) is bounded by
    # e (e - 1) reg_v (|s| + t)^(e - 2) along s - t d; with the Taylor
    # part's own curvature, integrated twice, it bounds the ray by
    # m(s) - alpha t + sum kappa t^gamma (terms of zero weight dropped)
    c, reg_v, s = ev.coeffs, ev.reg_v, float(np.linalg.norm(ev.anchor))
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
    rays = []

    class Recorded(_RayEval):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            rays.append(self)

    with mock.patch("arplr.inner._RayEval", Recorded):
        res = minimize_model(m, 1e-8, max_iters=100)
    values = res.value_history
    assert len(rays) >= res.iterations >= 1
    for ev, before, after in zip(rays, values, values[1:]):
        spec = PsiSpec(-ev.scalar()[0](0.0), _envelope_terms(ev, p))
        bound = psi_descent_bound(spec)
        slack = 1e-9 * abs(bound) + 8.0 * math.ulp(max(abs(before), abs(after)))
        assert after - before <= bound + slack


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    r=st.sampled_from([1.5, 3.0]),
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
    ev = _RayEval(*args, *_lr(anchor, r))
    slope, val = ev.scalar()
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
        fresh = _RayEval(*args, *_lr(anchor - 0.0 * d, r)).scalar()[k](q)
        assert _bits(got) == _bits(fresh), (q, k)
    w, nw, du = ev.point(2.0 * t)
    assert w.tobytes() == (anchor - 2.0 * t * d).tobytes()
    fresh_nw, fresh_du = _lr(anchor - 2.0 * t * d, r)
    assert _bits(nw) == _bits(fresh_nw) and du.tobytes() == fresh_du.tobytes()
    assert du.tobytes() == two_step_lr(w, r)[1].tobytes()


@pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
def test_inner_value_histories_hold_python_floats(r):
    # an order-3 double well from a random start runs the grid scan, whose
    # roots are refined from NumPy floats unless the scan hands over floats
    cfg = ExperimentConfig(problem="double_well", n=8, p=3, x0="random", seed=3, r=r)
    problem, space, x0, outer = cfg.build()
    results = []

    def recorded(*args):
        results.append(minimize_model(*args))
        return results[-1]

    with mock.patch("arplr.solver.minimize_model", recorded):
        solve(problem, x0, outer, space)
    history = [v for res in results for v in res.value_history]
    assert len(results) >= 8
    assert [type(v) for v in history if type(v) is not float] == []


def test_line_search_shares_its_lr_passes(monkeypatch):
    # l^1.5 pendulum at mesh 32: without sharing, the ray at t = 0, the value
    # at the accepted step and the next iteration's pass over s would each
    # repeat an l^r pass (about 7.9 per inner iteration instead of 4.9)
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
    assert len(calls) <= 5 * sum(rec.inner_iters for rec in run.records)


def _scan_reference(ev, ts):
    # the grid scan in its out-of-place form, one fresh array per step,
    # with the row pass's norms and two-step duality rows
    pts = ev.anchor[None, :] - ts[:, None] * ev.direction[None, :]
    norms = _lr(pts, ev.r)[0]
    num = -np.dot(two_step_rows(pts, ev.r), ev.direction)
    vals = _horner(ev.coeffs, ts) + ev.reg_v * norms ** ev.e
    return vals, _horner(ev.dcoeffs, ts) + ev.reg_d * norms ** (ev.e - 1.0) * num


def _scan_ray(r, p, n, seed, size=1.0):
    rng = np.random.default_rng(seed)
    d = NormedSpace(n, r).dual_direction(rng.standard_normal(n))
    e = p + 0.5
    coeffs = rng.standard_normal(p + 1).tolist()
    anchor = size * rng.standard_normal(n)
    return _RayEval(coeffs, anchor, d, r, e, 1.3 / math.gamma(e + 1.0), 1.3 / math.gamma(e),
                    *_lr(anchor, r))


@pytest.mark.parametrize("n", [2, 96])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("r", [1.5, 3.0])
@pytest.mark.parametrize("t_hi, size", [(2.5, 1.0), (1e-300, 1e-310), (1e308, 1e307)])
def test_grid_scan_keeps_its_bits_and_owns_its_results(r, p, n, t_hi, size):
    # the second case puts subnormal peaks on the rows near t = 0 and
    # normal ones further out, so the row-wise lift runs on part of the
    # grid; in the third the l^1.5 norms of the n = 96 rows far out pass
    # the largest double
    ts = t_hi * _unit_grid(64 * (p + 1))
    ev = _scan_ray(r, p, n, seed=n + p, size=size)
    with np.errstate(over="ignore", invalid="ignore"):
        vals, ders = ev.batch(ts)
        ref_vals, ref_ders = _scan_reference(ev, ts)
        kept = vals.copy(), ders.copy()
        _scan_ray(r, p, n, seed=n + p + 1, size=size).batch(ts)
    assert vals.tobytes() == ref_vals.tobytes() and ders.tobytes() == ref_ders.tobytes()
    if (t_hi, n, r) == (1e308, 96, 1.5):
        assert np.isinf(vals).any()
    assert vals.tobytes() == kept[0].tobytes() and ders.tobytes() == kept[1].tobytes()


def test_repeated_grid_scan_allocates_no_grid_sized_array():
    n = 400
    ev = _scan_ray(1.5, 3, n, seed=0)
    ts = 2.0 * _unit_grid(64 * 4)  # the 384-point grid of a p = 3 ray
    grid_array = len(ts) * n * 8  # one (grid x n) float array: 1.2 MB
    ev.batch(ts)
    tracemalloc.start()
    try:
        ev.batch(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid_array / 4


def test_grid_scans_in_threads_do_not_share_their_buffers():
    ts = 3.0 * _unit_grid(64 * 4)
    rays = [_scan_ray(r, 3, 48, seed=i) for i, r in enumerate([1.5, 3.0, 1.5, 3.0, 1.5, 3.0])]
    expected = [_scan_reference(ev, ts) for ev in rays]
    mismatches = []

    def scan(ev, ref):
        for _ in range(20):
            vals, ders = ev.batch(ts)
            if vals.tobytes() != ref[0].tobytes() or ders.tobytes() != ref[1].tobytes():
                mismatches.append(ev)

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
