"""Outer adaptive regularization loop and post-hoc trajectory checks.

``solve`` iterates: terminate once the dual gradient norm reaches the
target accuracy; otherwise build the degree-p Taylor model at the current
point, regularize it with the current weight sigma, find a step with the
inner descent, accept the trial point when the achieved-over-predicted
decrease ratio reaches eta1, and update sigma (shrink toward sigma_min on
very successful steps, keep on merely successful ones, grow by gamma2 on
failures — the deterministic endpoints of the usual update intervals, so
runs are reproducible).

``check_trajectory`` re-asserts the per-iteration inequalities that the
method guarantees on the recorded run: the model-decrease floor, the cap
on sigma, the Taylor remainder bound, the step-size floor, the bound on
total iterations in terms of successful ones, and the worst-case count of
successful iterations.  Violations are returned as data, never raised.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .geometry import NormedSpace, _as_vector, _pow
from .inner import Termination, minimize_model
from .tensors import RegularizedModel, TaylorModel

__all__ = [
    "OuterConfig",
    "IterationRecord",
    "RunRecord",
    "SolveStatus",
    "Violation",
    "solve",
    "check_trajectory",
    "theorem_success_bound",
]


class SolveStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    # f or a derivative at the current point (x0 or an accepted trial
    # point) is not finite, or the gradient's dual norm passes the largest
    # double
    ORACLE_NONFINITE = "oracle_nonfinite"
    # repeated failures raised sigma past the largest double
    SIGMA_OVERFLOW = "sigma_overflow"


@dataclass(frozen=True)
class OuterConfig:
    """Hyper-parameters of the outer loop.

    Constraints: 0 < sigma_min <= sigma0 < inf, 0 < eta1 <= eta2 < 1,
    0 < gamma1 < 1 < gamma2 < gamma3, chi in (0, 1), theta > 0,
    epsilon in (0, 1], p an integer >= 1 and beta in (0, 1].
    """

    p: int
    beta: float
    epsilon: float = 1e-5
    sigma0: float = 1.0
    sigma_min: float = 1e-8
    eta1: float = 0.1
    eta2: float = 0.9
    gamma1: float = 0.5
    gamma2: float = 2.0
    gamma3: float = 4.0
    chi: float = 0.5
    theta: float = 100.0
    max_outer_iters: int = 2000
    inner_max_iters: int | None = None

    def __post_init__(self):
        checks = [
            (
                isinstance(self.p, numbers.Integral) and not isinstance(self.p, bool)
                and self.p >= 1,
                f"p must be an integer of at least 1, got {self.p!r}",
            ),
            (0.0 < self.beta <= 1.0, "beta must lie in (0, 1]"),
            (0.0 < self.epsilon <= 1.0, "epsilon must lie in (0, 1]"),
            (0.0 < self.sigma0 < math.inf, "sigma0 must be positive and finite"),
            (0.0 < self.sigma_min <= self.sigma0, "sigma_min must lie in (0, sigma0]"),
            (0.0 < self.eta1 <= self.eta2 < 1.0, "need 0 < eta1 <= eta2 < 1"),
            (0.0 < self.gamma1 < 1.0, "gamma1 must lie in (0, 1)"),
            (1.0 < self.gamma2 < self.gamma3, "need 1 < gamma2 < gamma3"),
            (0.0 < self.chi < 1.0, "chi must lie in (0, 1)"),
            (self.theta > 0.0, "theta must be positive"),
            (self.max_outer_iters >= 1, "max_outer_iters must be at least 1"),
            (
                self.inner_max_iters is None or self.inner_max_iters >= 1,
                "inner_max_iters must be at least 1 when given",
            ),
        ]
        for ok, msg in checks:
            if not ok:
                raise ValueError(msg)


@dataclass(frozen=True, slots=True)
class IterationRecord:
    k: int
    sigma: float
    iterate_norm: float
    step_norm: float
    grad_dual_norm: float
    model_decrease: float
    actual_decrease: float
    rho: float
    successful: bool
    inner_iters: int
    inner_termination: str
    f_evals_so_far: int
    deriv_evals_so_far: int


@dataclass(frozen=True)
class RunRecord:
    records: tuple
    final_point: np.ndarray
    final_grad_dual_norm: float
    status: SolveStatus
    sigma_max_observed: float
    f_initial: float
    f_final: float
    f_evals: int
    deriv_evals: int

    @property
    def successes(self) -> int:
        return sum(1 for rec in self.records if rec.successful)

    @property
    def total_iterations(self) -> int:
        return len(self.records)

    def successes_before_termination(self) -> int:
        """Successful iterations, excluding the one that produced the
        terminating point (whose step has no size guarantee)."""
        count = self.successes
        if (
            self.status is SolveStatus.CONVERGED
            and self.records
            and self.records[-1].successful
        ):
            count -= 1
        return count


def _evaluate_derivatives(problem, x: np.ndarray, p: int):
    return tuple(problem.eval_derivative(x, order) for order in range(1, p + 1))


def solve(problem, x0, cfg: OuterConfig, space: NormedSpace) -> RunRecord:
    """Run the adaptive regularization loop on a problem oracle.

    The oracle must supply derivative tensors up to order ``cfg.p``.  An
    inner solve that hits its iteration guard is treated as an
    unsuccessful iteration (sigma is raised and the step re-attempted),
    regardless of its decrease ratio.  A non-finite f or derivative of any
    order at x0 or at an accepted point, or a finite gradient whose dual
    norm overflows, ends the run with ``ORACLE_NONFINITE`` and the records
    collected so far (``final_grad_dual_norm`` is then NaN or inf).  A
    sigma that overflows (every trial failing, say on a non-finite f) ends
    it with ``SIGMA_OVERFLOW``.
    """
    if getattr(problem, "max_order", cfg.p) < cfg.p:
        raise ValueError(
            f"problem '{getattr(problem, 'name', '?')}' supplies derivatives only up "
            f"to order {problem.max_order}, but p = {cfg.p}"
        )
    x = _as_vector(space.n, x0)
    derivs = _evaluate_derivatives(problem, x, cfg.p)
    deriv_evals = 1
    fx = float(problem.eval_f(x))
    f_initial = fx
    f_evals = 1

    sigma = cfg.sigma0
    sigma_max = sigma
    records = []
    moved = True  # x is x0 or an accepted trial, whose data is not read yet

    while True:
        if moved:  # a rejected iteration keeps x and all that is read of it
            moved = False
            grad = derivs[0].entries
            grad_norm = space.dual_norm(grad) if np.isfinite(grad).all() else math.nan
            higher_finite = all(np.isfinite(t.entries).all() for t in derivs[1:])
            if not (math.isfinite(grad_norm) and higher_finite and math.isfinite(fx)):
                status = SolveStatus.ORACLE_NONFINITE
                break
            if grad_norm <= cfg.epsilon:
                status = SolveStatus.CONVERGED
                break
            taylor = TaylorModel(derivs)
            iterate_norm = space.norm(x)
        if len(records) >= cfg.max_outer_iters:
            status = SolveStatus.MAX_ITERS
            break
        if not math.isfinite(sigma):
            status = SolveStatus.SIGMA_OVERFLOW
            break

        model = RegularizedModel(taylor, sigma, cfg.beta, space)
        result = minimize_model(model, cfg.chi * cfg.epsilon, cfg.theta, cfg.inner_max_iters)
        s = result.s

        trial = x + s
        f_trial = float(problem.eval_f(trial))
        f_evals += 1
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN: unsuccessful
            model_decrease = -taylor.value(s)
        actual_decrease = fx - f_trial
        rho = actual_decrease / model_decrease if model_decrease > 0.0 else -math.inf

        inner_failed = (
            result.termination in (Termination.MAX_ITERS, Termination.PROGRESS_FLOOR)
            or model_decrease <= 0.0
        )
        successful = (not inner_failed) and rho >= cfg.eta1
        if successful:
            x = trial
            fx = f_trial
            derivs = _evaluate_derivatives(problem, x, cfg.p)
            deriv_evals += 1
            moved = True

        records.append(
            IterationRecord(
                k=len(records),
                sigma=sigma,
                iterate_norm=iterate_norm,
                step_norm=result.step_norm,
                grad_dual_norm=grad_norm,
                model_decrease=model_decrease,
                actual_decrease=actual_decrease,
                rho=rho,
                successful=successful,
                inner_iters=result.iterations,
                inner_termination=result.termination.value,
                f_evals_so_far=f_evals,
                deriv_evals_so_far=deriv_evals,
            )
        )

        if not successful:
            sigma = cfg.gamma2 * sigma
        elif rho >= cfg.eta2:
            sigma = max(cfg.sigma_min, cfg.gamma1 * sigma)
        sigma_max = max(sigma_max, sigma)

    return RunRecord(
        records=tuple(records),
        final_point=x,
        final_grad_dual_norm=grad_norm,
        status=status,
        sigma_max_observed=sigma_max,
        f_initial=f_initial,
        f_final=fx,
        f_evals=f_evals,
        deriv_evals=deriv_evals,
    )


# -- trajectory assertions ---------------------------------------------------


@dataclass(frozen=True)
class Violation:
    code: str  # one of "a".."f"
    name: str
    iteration: int | None
    detail: str


def _step_floor_terms(cfg: OuterConfig, L: float, sigma_max: float) -> float:
    g = math.gamma(cfg.p + cfg.beta)
    return min(
        (1.0 - cfg.chi) * g / (L + sigma_max),
        g / (L + sigma_max + cfg.theta * g),
    )


def theorem_success_bound(
    cfg: OuterConfig, L: float, f_initial: float, f_low: float, sigma_max: float
) -> float:
    """Worst-case count of successful iterations before termination.

    Assembled from the model-decrease floor with the step-size floor
    substituted in:

        Gamma(p+beta+1) / (eta1 sigma_min) * (f(x0) - f_low)
            * [epsilon * min_term]^(-(p+beta)/(p+beta-1))
    """
    e = cfg.p + cfg.beta
    min_term = _step_floor_terms(cfg, L, sigma_max)
    try:
        step_factor = (cfg.epsilon * min_term) ** (-e / (e - 1.0))
    except (OverflowError, ZeroDivisionError):
        return math.inf  # a sigma at or near overflow bounds nothing
    return (
        math.gamma(e + 1.0)
        / (cfg.eta1 * cfg.sigma_min)
        * max(f_initial - f_low, 0.0)
        * step_factor
    )


def check_trajectory(
    run: RunRecord, cfg: OuterConfig, L: float | None = None, f_low: float | None = None
) -> list:
    """Assert the recorded inequalities; return the (expected-empty) violations.

    Checks per record: (a) the model decrease is at least
    ``sigma_k / Gamma(p+beta+1) * |s_k|^(p+beta)``; with a Hoelder constant
    L supplied also (b) ``sigma_k <= gamma3 max(sigma0, L/(1-eta2))``,
    (c) the Taylor remainder bound ``|f(x_k+s_k) - T_k(s_k)| <=
    L/Gamma(p+beta+1) |s_k|^(p+beta)`` and (d) the step-size floor on
    successful pre-termination iterations.  Across the run: (e) the total
    iteration count against the successful count, and — when both L and
    f_low are known — (f) the worst-case success count.
    """
    e = cfg.p + cfg.beta
    gamma_e1 = math.gamma(e + 1.0)
    f_scale = max(1.0, abs(run.f_initial), abs(run.f_final))
    if L is not None:
        sigma_cap = cfg.gamma3 * max(cfg.sigma0, L / (1.0 - cfg.eta2))
        floor_rhs = cfg.epsilon * _step_floor_terms(cfg, L, run.sigma_max_observed)
    # the terminating step of a converged run carries no size guarantee
    last_k = run.records[-1].k if run.status is SolveStatus.CONVERGED and run.records else None
    violations = []

    for rec in run.records:
        floor = rec.sigma / gamma_e1 * _pow(rec.step_norm, e)
        # an infinite floor gives no slack, so a finite decrease misses it
        size_a = max(1.0, abs(rec.model_decrease), floor if floor < math.inf else 0.0)
        slack_a = 1e-10 * size_a + 1e-13 * f_scale
        if rec.model_decrease + slack_a < floor:
            violations.append(
                Violation(
                    "a",
                    "model-decrease-floor",
                    rec.k,
                    f"model decrease {rec.model_decrease:.6e} below "
                    f"sigma/Gamma(p+beta+1) |s|^(p+beta) = {floor:.6e}",
                )
            )
        if L is None:
            continue
        if rec.sigma > sigma_cap * (1.0 + 1e-12):
            violations.append(
                Violation(
                    "b",
                    "sigma-cap",
                    rec.k,
                    f"sigma {rec.sigma:.6e} exceeds cap {sigma_cap:.6e}",
                )
            )
        remainder = abs(rec.model_decrease - rec.actual_decrease)
        bound = L / gamma_e1 * _pow(rec.step_norm, e) + 1e-10 * f_scale
        if remainder > bound:
            violations.append(
                Violation(
                    "c",
                    "taylor-remainder",
                    rec.k,
                    f"|f(trial) - T(s)| = {remainder:.6e} exceeds "
                    f"L/Gamma(p+beta+1) |s|^(p+beta) = {bound:.6e}",
                )
            )
        lhs = _pow(rec.step_norm, e - 1.0)
        if rec.successful and rec.k != last_k and lhs < floor_rhs * (1.0 - 1e-9):
            violations.append(
                Violation(
                    "d",
                    "step-size-floor",
                    rec.k,
                    f"|s|^(p+beta-1) = {lhs:.6e} below floor {floor_rhs:.6e}",
                )
            )
    violations.sort(key=lambda v: v.code)  # stable: each check's in record order

    total = run.total_iterations
    successes = run.successes
    count_bound = successes * (
        1.0 + abs(math.log(cfg.gamma1)) / math.log(cfg.gamma2)
    ) + math.log(max(run.sigma_max_observed / cfg.sigma0, 1.0)) / math.log(cfg.gamma2)
    if total > count_bound + 1e-9:
        violations.append(
            Violation(
                "e",
                "iteration-count",
                None,
                f"{total} iterations exceed the successful-iteration bound {count_bound:.6f}",
            )
        )

    if L is not None and f_low is not None:
        bound = theorem_success_bound(cfg, L, run.f_initial, f_low, run.sigma_max_observed)
        pre = run.successes_before_termination()
        if pre > bound + 1e-9:
            violations.append(
                Violation(
                    "f",
                    "success-count",
                    None,
                    f"{pre} successful iterations exceed the worst-case bound {bound:.6e}",
                )
            )

    return violations
