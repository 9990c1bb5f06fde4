import math

import numpy as np
import pytest

from arplr import (
    DoubleWell,
    HolderGradient,
    NormedSpace,
    PendulumLattice,
    QuadraticBowl,
    Rosenbrock,
    builtin_suite,
    fd_check_oracle,
    get_problem,
    problem_ids,
)
from arplr.problems import SuiteEntry
from helpers import dense_array


def _jittered_start(problem, rng):
    # keep coordinates away from zero; some oracles have kinks there
    return problem.default_x0() + 0.05 * rng.standard_normal(problem.dim)


def test_every_builtin_oracle_passes_fd_check():
    rng = np.random.default_rng(0)
    for entry in builtin_suite():
        problem = entry.problem
        for trial in range(5):
            x = _jittered_start(problem, rng)
            for order in range(1, min(problem.max_order, entry.p) + 1):
                err = fd_check_oracle(problem, x, order, seed=trial)
                assert err <= 1e-5, f"{entry.label} order {order}: fd error {err:.2e}"


def test_fd_exact_for_quadratic_hessian():
    # central differencing of a linear map is exact up to roundoff
    problem = QuadraticBowl(5)
    rng = np.random.default_rng(4)
    for trial in range(3):
        x = rng.standard_normal(5)
        assert fd_check_oracle(problem, x, 2, seed=trial) <= 1e-9


def test_fd_quartic_at_ones():
    problem = DoubleWell(4)
    x = np.ones(4)
    assert fd_check_oracle(problem, x, 1, seed=0) <= 1e-6
    assert fd_check_oracle(problem, x, 2, seed=0) <= 1e-6


def test_corrupted_gradient_is_caught():
    class Corrupted(DoubleWell):
        def eval_derivative(self, x, order):
            t = super().eval_derivative(x, order)
            if order == 1:
                bad = t.entries.copy()
                bad[0] += 0.1
                return type(t)(1, self.dim, bad)
            return t

    problem = Corrupted(4)
    err = fd_check_oracle(problem, problem.default_x0(), 1, probes=6, seed=0)
    assert err > 1e-2


def test_quadratic_gradient_at_origin_is_linear_term():
    problem = QuadraticBowl(6)
    g = problem.eval_derivative(np.zeros(6), 1).entries
    assert np.array_equal(g, problem.b)
    assert problem.eval_f(problem.minimizer()) == pytest.approx(problem.f_low, rel=1e-12)


def test_double_well_analytics():
    problem = DoubleWell(3)
    x = np.array([1.0, -2.0, 0.5])
    assert problem.eval_f(x) == pytest.approx(np.sum(x ** 4 / 4 - x ** 2 / 2), rel=1e-14)
    assert np.allclose(problem.eval_derivative(x, 1).entries, x ** 3 - x)
    assert np.allclose(np.diag(dense_array(problem.eval_derivative(x, 2))), 3 * x ** 2 - 1)
    assert problem.f_low == -0.75


def test_holder_gradient_quotient_bounded_in_native_space():
    # in the matching l^(1+beta) geometry the gradient's Hoelder constant
    # is 2^(1-beta) independently of the dimension
    beta = 0.5
    problem = HolderGradient(4, beta)
    space = problem.default_space()
    L = problem.holder_constant(space, 1, radius=10.0)
    assert L == pytest.approx(2.0 ** (1.0 - beta), rel=1e-12)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(10_000):
        x = rng.uniform(-1.0, 1.0, size=4)
        y = rng.uniform(-1.0, 1.0, size=4)
        if not np.any(x - y):
            continue
        gx = problem.eval_derivative(x, 1).entries
        gy = problem.eval_derivative(y, 1).entries
        quotient = space.dual_norm(gx - gy) / space.norm(x - y) ** beta
        worst = max(worst, quotient)
    assert worst <= 2.0 ** 0.5 + 1e-6


def test_metadata_constant_dominates_sampled_quotient():
    rng = np.random.default_rng(2)
    cases = [
        (QuadraticBowl(5), NormedSpace(5, 2.0), 2),
        (DoubleWell(4), NormedSpace(4, 2.0), 2),
        (DoubleWell(4), NormedSpace(4, 3.0), 2),
        (Rosenbrock(), NormedSpace(2, 2.0), 2),
        (HolderGradient(4, 0.8), NormedSpace(4, 1.8), 1),
        (Rosenbrock(), NormedSpace(2, 1.5), 3),
        (Rosenbrock(), NormedSpace(2, 3.0), 3),
        (DoubleWell(4), NormedSpace(4, 3.0), 3),
    ]
    for problem, space, order in cases:
        L = problem.holder_constant(space, order, radius=1.0)
        assert L is not None
        for _ in range(1000):
            x = rng.uniform(-0.5, 0.5, size=problem.dim)
            y = rng.uniform(-0.5, 0.5, size=problem.dim)
            sep = space.norm(x - y)
            if sep == 0.0:
                continue
            dt = (
                dense_array(problem.eval_derivative(x, order))
                - dense_array(problem.eval_derivative(y, order))
            )
            # sampled lower estimate of the l^r operator norm of the difference
            op = 0.0
            for _ in range(4):
                vs = rng.standard_normal((order, problem.dim))
                vs /= np.array([space.norm(v) for v in vs])[:, None]
                contraction = dt
                for v in vs:
                    contraction = np.dot(contraction, v)
                op = max(op, abs(float(contraction)))
            assert op <= L * sep ** problem.beta * (1.0 + 1e-9)


def test_rosenbrock_derivatives_closed_form():
    problem = Rosenbrock()
    x = np.array([-1.2, 1.0])
    assert problem.eval_f(x) == pytest.approx(24.2, rel=1e-12)
    g = problem.eval_derivative(x, 1).entries
    assert g[0] == pytest.approx(-2 * (1 + 1.2) - 400 * (-1.2) * (1 - 1.44), rel=1e-12)
    assert g[1] == pytest.approx(200 * (1 - 1.44), rel=1e-12)


def test_pendulum_value_at_zero_is_one():
    for n_mesh in (8, 32):
        problem = PendulumLattice(n_mesh)
        assert problem.eval_f(np.zeros(problem.dim)) == pytest.approx(1.0, rel=1e-12)


def test_pendulum_quadrature_weights():
    problem = PendulumLattice(16)
    w = problem.weights
    assert np.all(w > 0.0)
    assert np.sum(w) == pytest.approx(1.0, rel=1e-12)


def test_pendulum_value_lower_bound():
    rng = np.random.default_rng(3)
    problem = PendulumLattice(16)
    for _ in range(50):
        v = rng.standard_normal(problem.dim)
        assert problem.eval_f(v) >= problem.f_low


def test_pendulum_mesh_refinement_converges():
    # fixed smooth profile evaluated on nested meshes: discretization error
    # must shrink as the mesh is refined
    def sample(problem):
        ts = np.arange(1, problem.mesh_size) * problem.h
        u = np.sin(math.pi * ts)
        return problem.eval_f(math.sqrt(problem.h) * u)

    f8, f32, f128 = (sample(PendulumLattice(n)) for n in (8, 32, 128))
    assert abs(f32 - f128) < abs(f8 - f32)


def test_pendulum_default_start_is_mesh_consistent():
    # the scaled norm of the default start approximates the same continuum
    # profile on every mesh
    norms = []
    for n_mesh in (32, 128, 512):
        problem = PendulumLattice(n_mesh)
        norms.append(problem.default_space().norm(problem.default_x0()))
    assert max(norms) - min(norms) < 1e-2


def test_registry_and_factory():
    assert set(problem_ids()) == {"quadratic", "double_well", "holder", "rosenbrock", "pendulum"}
    assert get_problem("double_well", 6).dim == 6
    assert get_problem("holder", 3, 0.7).beta == 0.7
    assert get_problem("pendulum", 64).dim == 63
    with pytest.raises(KeyError):
        get_problem("nope")
    with pytest.raises(ValueError):
        get_problem("rosenbrock", 5)


def test_problem_size_errors_name_the_argument():
    # only None selects the default size; each message starts with its argument
    assert get_problem("quadratic").dim == 6
    assert get_problem("quadratic", 1).dim == 1
    for pid, size in (("quadratic", 0), ("double_well", -1), ("pendulum", 3), ("rosenbrock", 5)):
        with pytest.raises(ValueError, match="^n must be"):
            get_problem(pid, size)
    with pytest.raises(ValueError, match="^beta must"):
        get_problem("holder", None, 1.0)


def test_builtin_suite_composition():
    entries = builtin_suite()
    assert all(isinstance(e, SuiteEntry) for e in entries)
    labels = [e.label for e in entries]
    assert any("quadratic" in s for s in labels)
    assert any("double_well" in s and "p3" in s for s in labels)
    assert sum("rosenbrock" in s for s in labels) == 3
    assert any("holder" in s for s in labels)
    assert any("pendulum" in s for s in labels)
    for e in entries:
        assert e.space.n == e.problem.dim
        assert e.p <= e.problem.max_order
        assert e.x0.shape == (e.problem.dim,)


def test_separable_oracles_store_only_the_diagonal():
    x = np.random.default_rng(0).standard_normal(96)
    assert DoubleWell(96).eval_derivative(x, 3).entries.size == 96
    assert DoubleWell(96).eval_derivative(x, 2).entries.size == 96
    assert QuadraticBowl(96).eval_derivative(x, 2).entries.size == 96
    # the pendulum's tridiagonal Hessian: its diagonal and one off diagonal
    assert PendulumLattice(97).eval_derivative(x, 2).entries.size == 96 + 95
