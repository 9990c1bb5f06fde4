"""Property tests of the outer loop: it ends every faulty-oracle run with a
typed status, and every valid run satisfies the trajectory inequalities."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from arplr import (
    DoubleWell,
    HolderGradient,
    NormedSpace,
    OuterConfig,
    PendulumLattice,
    QuadraticBowl,
    Rosenbrock,
    SolveStatus,
    check_trajectory,
    solve,
)
from arplr.harness import trajectory_holder_constant

_R = st.sampled_from([1.5, 2.0, 3.0])
_BASES = [QuadraticBowl(), DoubleWell(), Rosenbrock(), PendulumLattice(8), HolderGradient(4, 0.5)]


class _Faulty:
    """Delegates to ``base``; from the k-th call of ``target`` (``"f"`` or a
    derivative order) on, every entry of that output is ``bad`` (not finite,
    or finite near overflow), or with ``bad`` None the gradient's sign is
    flipped."""

    def __init__(self, base, target, k, bad):
        self.base, self.target, self.k, self.bad = base, target, k, bad
        self.name, self.dim, self.max_order = base.name, base.dim, base.max_order
        self.calls = 0

    def _faulty(self, target) -> bool:
        if target != self.target:
            return False
        self.calls += 1
        return self.calls >= self.k

    def eval_f(self, x):
        f = self.base.eval_f(x)
        return self.bad if self._faulty("f") else f

    def eval_derivative(self, x, order):
        t = self.base.eval_derivative(x, order)
        if not self._faulty(order):
            return t
        entries = -t.entries if self.bad is None else np.full_like(t.entries, self.bad)
        return type(t)(t.order, t.dim, entries)


@st.composite
def _faulty_runs(draw):
    base = draw(st.sampled_from(_BASES))
    p = draw(st.integers(1, base.max_order))
    bad = draw(st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, None]))
    target = 1 if bad is None else draw(st.sampled_from(["f"] + list(range(1, p + 1))))
    k = draw(st.integers(1, 3))
    beta = draw(st.sampled_from([0.5, 1.0]))
    return _Faulty(base, target, k, bad), p, beta, draw(_R)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_faulty_runs())
def test_faulty_oracles_end_with_a_typed_status(case):
    problem, p, beta, r = case
    cfg = OuterConfig(p=p, beta=beta, max_outer_iters=40, inner_max_iters=500)
    run = solve(problem, problem.base.default_x0(), cfg, NormedSpace(problem.dim, r))
    assert isinstance(run.status, SolveStatus)
    assert len(run.records) <= 40


@st.composite
def _valid_runs(draw):
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        problem, p = DoubleWell(n), draw(st.integers(2, 3))
    else:
        problem, p = QuadraticBowl(n), draw(st.integers(1, 2))
        problem.a = np.array(draw(st.lists(st.floats(0.2, 5.0), min_size=n, max_size=n)))
        problem.f_low = float(-0.5 * np.sum(problem.b ** 2 / problem.a))
    scale = draw(st.floats(0.1, 3.0))
    x0 = scale * np.random.default_rng(draw(st.integers(0, 2 ** 16))).standard_normal(n)
    return problem, p, NormedSpace(n, draw(_R)), x0


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(_valid_runs())
def test_valid_runs_satisfy_the_trajectory_inequalities(case):
    problem, p, space, x0 = case
    cfg = OuterConfig(p=p, beta=problem.beta)
    run = solve(problem, x0, cfg, space)
    assert run.status is SolveStatus.CONVERGED
    L = trajectory_holder_constant(problem, space, p, x0, run)
    assert check_trajectory(run, cfg, L=L, f_low=problem.f_low) == []
