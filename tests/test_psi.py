import math

import numpy as np
import pytest

from arplr import PsiSpec, psi_descent_bound, psi_eval, psi_minimize
from arplr.psi import psi_derivative


def _random_spec(rng):
    m = int(rng.integers(1, 6))
    gammas = np.sort(rng.uniform(1.05, 6.0, size=m))
    kappas = rng.uniform(0.1, 10.0, size=m)
    alpha = float(rng.uniform(1e-4, 10.0))
    return PsiSpec(alpha, tuple(zip(kappas, gammas)))


def test_eval_examples():
    spec = PsiSpec(1.0, ((1.0, 2.0),))
    assert psi_eval(spec, 0.0) == 0.0
    assert psi_eval(spec, 1.0) == pytest.approx(0.0, abs=1e-15)
    spec2 = PsiSpec(2.0, ((1.0, 1.5), (1.0, 3.0)))
    assert psi_eval(spec2, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_eval_rejects_negative_argument():
    with pytest.raises(ValueError):
        psi_eval(PsiSpec(1.0, ((1.0, 2.0),)), -0.1)


def test_spec_validation():
    with pytest.raises(ValueError):
        PsiSpec(0.0, ((1.0, 2.0),))
    with pytest.raises(ValueError):
        PsiSpec(1.0, ())
    with pytest.raises(ValueError):
        PsiSpec(1.0, ((1.0, 1.0),))
    with pytest.raises(ValueError):
        PsiSpec(1.0, ((-1.0, 2.0),))
    with pytest.raises(ValueError):
        PsiSpec(1.0, ((1.0, 3.0), (1.0, 2.0)))


@pytest.mark.parametrize("alpha, terms", [
    (math.inf, ((1.0, 2.0),)),
    (math.nan, ((1.0, 2.0),)),
    (1.0, ((math.inf, 2.0),)),
    (1.0, ((1.0, 2.0), (math.nan, 3.0))),
    (1.0, ((1.0, math.inf),)),
    (1.0, ((1.0, 2.0), (1.0, math.nan))),
])
def test_spec_rejects_nonfinite_parameters(alpha, terms):
    # an infinite weight made psi_minimize return inf and the bound NaN, an
    # infinite alpha made the bound -inf, an infinite exponent the bound NaN
    with pytest.raises(ValueError):
        PsiSpec(alpha, terms)


def test_minimize_quadratic_profile():
    # -t + t^2 has its minimum at 1/2 with value -1/4
    t, v = psi_minimize(PsiSpec(1.0, ((1.0, 2.0),)))
    assert t == pytest.approx(0.5, rel=1e-12)
    assert v == pytest.approx(-0.25, rel=1e-12)


def test_minimize_cubic_profile():
    # -t + t^3/3: derivative -1 + t^2 vanishes at 1, value -2/3
    t, v = psi_minimize(PsiSpec(1.0, ((1.0 / 3.0, 3.0),)))
    assert t == pytest.approx(1.0, rel=1e-12)
    assert v == pytest.approx(-2.0 / 3.0, rel=1e-12)


def test_minimize_profile_with_a_tiny_alpha():
    # -1e-14 t + 1e-14 t^2: psi'(1) = 1e-14 is the whole initial slope, far
    # above the root tolerance 1e-12 alpha, so the bracket end 1 is not the
    # root; regula falsi on the linear derivative lands on 1/2
    spec = PsiSpec(1e-14, ((1e-14, 2.0),))
    t, v = psi_minimize(spec)
    assert t == 0.5
    assert v == pytest.approx(-2.5e-15, rel=1e-12) and v <= psi_descent_bound(spec) < 0.0


def test_minimize_profile_with_an_alpha_below_the_root_tolerance():
    # -1e-20 t + 1e-20 t^3 has its minimizer at 1/sqrt(3), where it attains
    # the bound.  A tolerance of 1e-12 that is not scaled by alpha would
    # accept regula falsi's first point 1/3, 23 % short of the bound
    spec = PsiSpec(1e-20, ((1e-20, 3.0),))
    t, v = psi_minimize(spec)
    bound = psi_descent_bound(spec)
    assert t == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)
    assert bound == pytest.approx(-2e-20 / (3.0 * math.sqrt(3.0)), rel=1e-12)
    assert v == pytest.approx(bound, rel=1e-12)


def test_minimize_monotone_in_alpha():
    spec = PsiSpec(1.0, ((0.7, 1.8), (0.2, 3.2)))
    _, v1 = psi_minimize(spec)
    _, v2 = psi_minimize(PsiSpec(2.0, spec.terms))
    assert v2 < v1


def test_minimizer_is_critical_point():
    rng = np.random.default_rng(0)
    for _ in range(100):
        spec = _random_spec(rng)
        t, v = psi_minimize(spec)
        assert t > 0.0 and v < 0.0
        assert abs(psi_derivative(spec, t)) <= 1e-12 * spec.alpha


def test_minimizer_beyond_the_bracket_cap_raises():
    # -1e40 t + t^2 has its minimizer at 5e39, past the 1e30 cap on the
    # bracket that the line search's root finder grows
    with pytest.raises(ArithmeticError):
        psi_minimize(PsiSpec(1e40, ((1.0, 2.0),)))


def test_derivative_changes_sign_once():
    rng = np.random.default_rng(1)
    for _ in range(50):
        spec = _random_spec(rng)
        t_star, _ = psi_minimize(spec)
        ts = t_star * np.logspace(-6.0, 6.0, 400)
        signs = np.sign([psi_derivative(spec, t) for t in ts])
        signs = signs[signs != 0]
        assert int(np.sum(signs[1:] != signs[:-1])) == 1


def test_descent_bound_single_quadratic_term_tight():
    # kappa sums: sum k g = 2, factor 1 - 1/2; both constants are 1/4
    spec = PsiSpec(1.0, ((1.0, 2.0),))
    bound = psi_descent_bound(spec)
    assert bound == pytest.approx(-0.25, abs=1e-15)
    _, v = psi_minimize(spec)
    assert abs(v - bound) <= 1e-12


def test_descent_bound_branch_selection_small_alpha():
    # for alpha -> 0 the branch with the larger alpha-exponent (from the
    # smallest gamma) dominates the minimum
    spec = PsiSpec(0.01, ((1.0, 1.5), (2.0, 3.0)))
    sum_k, sum_kg = 3.0, 1.0 * 1.5 + 2.0 * 3.0
    factor = 1.0 - sum_k / sum_kg
    k_a = sum_kg ** (-1.0 / (3.0 - 1.0)) * factor
    k_b = sum_kg ** (-1.0 / (1.5 - 1.0)) * factor
    branch_a = k_a * 0.01 ** (3.0 / 2.0)
    branch_b = k_b * 0.01 ** (1.5 / 0.5)
    assert branch_b < branch_a
    assert psi_descent_bound(spec) == pytest.approx(-branch_b, rel=1e-12)


def test_descent_bound_holds_on_random_specs():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        spec = _random_spec(rng)
        _, v = psi_minimize(spec)
        bound = psi_descent_bound(spec)
        # absolute slack at unit scale, relative beyond it (profile values
        # reach 1e20 on this domain, far past float64's absolute resolution)
        assert v <= bound + 1e-10 * max(1.0, abs(bound))


def test_descent_bound_tight_on_quadratics():
    rng = np.random.default_rng(3)
    for _ in range(50):
        spec = PsiSpec(float(rng.uniform(0.1, 5.0)), ((float(rng.uniform(0.1, 5.0)), 2.0),))
        _, v = psi_minimize(spec)
        assert abs(v - psi_descent_bound(spec)) <= 1e-12 * max(1.0, abs(v))
