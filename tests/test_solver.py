import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest

from arplr import (
    DoubleWell,
    HolderGradient,
    IterationRecord,
    NormedSpace,
    OuterConfig,
    PendulumLattice,
    QuadraticBowl,
    RunRecord,
    SolveStatus,
    TaylorModel,
    Termination,
    check_trajectory,
    diagonal_tensor,
    solve,
)
from arplr import solver
from arplr.harness import ExperimentConfig, run_single, trajectory_holder_constant


def test_config_validation_messages():
    with pytest.raises(ValueError, match="sigma_min"):
        OuterConfig(p=2, beta=1.0, sigma_min=2.0, sigma0=1.0)
    with pytest.raises(ValueError, match="eta"):
        OuterConfig(p=2, beta=1.0, eta1=0.9, eta2=0.5)
    with pytest.raises(ValueError, match="gamma2"):
        OuterConfig(p=2, beta=1.0, gamma2=5.0, gamma3=2.0)
    with pytest.raises(ValueError, match="chi"):
        OuterConfig(p=2, beta=1.0, chi=1.0)
    with pytest.raises(ValueError, match="epsilon"):
        OuterConfig(p=2, beta=1.0, epsilon=2.0)
    for sigma0 in (math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match="^sigma0"):
            OuterConfig(p=2, beta=1.0, sigma0=sigma0)
    for p in (1.5, 2.0, True, 0):
        with pytest.raises(ValueError, match="p must be an integer"):
            OuterConfig(p=p, beta=1.0)


def test_quadratic_converges_with_unit_acceptance_ratio():
    problem = QuadraticBowl(6)
    space = NormedSpace(6, 2.0)
    cfg = OuterConfig(p=2, beta=1.0, epsilon=1e-6)
    run = solve(problem, problem.default_x0(), cfg, space)
    assert run.status is SolveStatus.CONVERGED
    assert run.final_grad_dual_norm <= 1e-6
    # the order-2 model is exact for a quadratic, so every computed step is
    # very successful (ratio 1 up to rounding in the decrease quotient)
    assert all(rec.successful for rec in run.records)
    assert all(rec.rho >= cfg.eta2 for rec in run.records)
    assert np.allclose(run.final_point, problem.minimizer(), atol=1e-5)
    assert check_trajectory(run, cfg, L=0.0, f_low=problem.f_low) == []


def test_stationary_start_returns_zero_iterations():
    problem = QuadraticBowl(5)
    space = NormedSpace(5, 2.0)
    cfg = OuterConfig(p=2, beta=1.0, epsilon=1e-6)
    x_star = problem.minimizer()
    run = solve(problem, x_star, cfg, space)
    assert run.status is SolveStatus.CONVERGED
    assert run.total_iterations == 0
    assert np.array_equal(run.final_point, x_star)
    assert run.f_evals == 1 and run.deriv_evals == 1
    assert check_trajectory(run, cfg, L=0.0, f_low=problem.f_low) == []


def test_double_well_run_invariants():
    problem = DoubleWell(4)
    space = NormedSpace(4, 2.0)
    cfg = OuterConfig(p=2, beta=1.0, epsilon=1e-5)
    x0 = problem.default_x0()
    run = solve(problem, x0, cfg, space)
    assert run.status is SolveStatus.CONVERGED

    # trajectory checks, with the Hoelder constant valid on the visited ball
    L = trajectory_holder_constant(problem, space, 2, x0, run)
    assert check_trajectory(run, cfg, L=L, f_low=problem.f_low) == []

    # acceptance implies a decrease of at least eta1 times the predicted one
    for rec in run.records:
        assert rec.model_decrease > 0.0
        if rec.successful:
            assert rec.actual_decrease >= cfg.eta1 * rec.model_decrease - 1e-12

    # sigma never drops below its floor
    assert all(rec.sigma >= cfg.sigma_min for rec in run.records)

    # telescoping: the accepted decreases account exactly for the total
    total = sum(rec.actual_decrease for rec in run.records if rec.successful)
    assert total == pytest.approx(run.f_initial - run.f_final, abs=1e-12 * max(1, abs(run.f_initial)))

    # evaluation accounting
    assert run.f_evals == run.total_iterations + 1
    assert run.deriv_evals == run.successes + 1
    last = run.records[-1]
    assert last.f_evals_so_far == run.f_evals
    assert last.deriv_evals_so_far == run.deriv_evals


def test_double_well_third_order_run():
    problem = DoubleWell(4)
    space = NormedSpace(4, 2.0)
    cfg = OuterConfig(p=3, beta=1.0, epsilon=1e-5)
    x0 = problem.default_x0()
    run = solve(problem, x0, cfg, space)
    assert run.status is SolveStatus.CONVERGED
    L = trajectory_holder_constant(problem, space, 3, x0, run)
    assert check_trajectory(run, cfg, L=L, f_low=problem.f_low) == []


def test_requesting_unavailable_order_raises():
    problem = QuadraticBowl(4)
    cfg = OuterConfig(p=3, beta=1.0)
    with pytest.raises(ValueError, match="order"):
        solve(problem, np.ones(4), cfg, NormedSpace(4, 2.0))


def test_inner_cap_maps_to_unsuccessful_iteration():
    problem = DoubleWell(4)
    space = NormedSpace(4, 2.0)
    # a huge starting weight keeps steps tiny, so neither inner stopping
    # branch can fire after a single line search and the cap must trip
    cfg = OuterConfig(p=2, beta=1.0, epsilon=1e-8, sigma0=1e6, inner_max_iters=1,
                      max_outer_iters=40)
    run = solve(problem, problem.default_x0(), cfg, space)
    capped = [rec for rec in run.records if rec.inner_termination == "max_iters"]
    assert capped, "expected at least one capped inner solve"
    assert all(not rec.successful for rec in capped)
    # sigma was raised after each capped iteration
    for rec in capped[:-1]:
        later = run.records[rec.k + 1]
        assert later.sigma == pytest.approx(cfg.gamma2 * rec.sigma, rel=1e-12)


def test_a_rejected_iteration_reads_nothing_new_of_its_point(monkeypatch):
    # the gradient's dual norm, the finiteness checks, |x| and the Taylor
    # model are read at x0 and after each success only: the dual norm at
    # every evaluated point, the model at each but the converged one
    problem, space, x0, outer = ExperimentConfig(problem="double_well", p=3).build()
    counts = {"dual_norm": 0, "norm": 0}
    for name in counts:
        def counted(self, v, _name=name, _real=getattr(NormedSpace, name)):
            counts[_name] += 1
            return _real(self, v)
        monkeypatch.setattr(NormedSpace, name, counted)
    built = []
    monkeypatch.setattr("arplr.solver.TaylorModel", lambda derivs: built.append(derivs) or
                        TaylorModel(derivs))
    run = solve(problem, x0, outer, space)
    assert run.status is SolveStatus.CONVERGED and run.successes < run.total_iterations
    assert counts == {"dual_norm": run.deriv_evals, "norm": run.deriv_evals - 1}
    assert len(built) == run.deriv_evals - 1


def test_progress_floor_rejects_outer_iteration():
    class TinyBowl(QuadraticBowl):
        # f and every derivative scaled by 1e-200: each model's decrease
        # along its first ray, about 1e-400, underflows
        def __init__(self, n):
            super().__init__(n)
            self.a, self.b, self.f_low = 1e-200 * self.a, 1e-200 * self.b, 1e-200 * self.f_low

    problem = TinyBowl(4)
    cfg = OuterConfig(p=2, beta=1.0, epsilon=1e-250, max_outer_iters=3)
    run = solve(problem, problem.minimizer() + 1e-9, cfg, NormedSpace(4, 2.0))
    assert run.status is SolveStatus.MAX_ITERS
    assert [rec.inner_termination for rec in run.records] == ["progress_floor"] * 3
    assert not any(rec.successful for rec in run.records)
    assert [rec.sigma for rec in run.records] == [1.0, 2.0, 4.0]


@pytest.mark.parametrize("problem, n, epsilon, max_outer", [
    ("quadratic", None, 1e-8, 11),
    ("quadratic", None, 1e-11, 11),
    ("pendulum", 32, 1e-6, 7),
    ("pendulum", 32, 1e-10, 7),
])
def test_tight_accuracy_converges_where_f_dwarfs_the_model_decrease(problem, n, epsilon, max_outer):
    # near the minimizer each inner step lowers the model by far less than
    # the spacing of doubles near f; measured from m(s), the rays still see
    # it, so the inner solves reach their tolerance and sigma stays put
    run, violations, _ = run_single(ExperimentConfig(problem=problem, n=n, epsilon=epsilon))
    assert run.status is SolveStatus.CONVERGED
    assert violations == []
    assert run.total_iterations <= max_outer


@pytest.mark.parametrize("offset", [1e3, 1e8])
def test_a_constant_added_to_f_moves_no_model_decrease(offset):
    # the Taylor model is the model of the change f(x + s) - f(x): no
    # constant added to f reaches it, so the model decreases are those of
    # the unshifted run bit for bit
    class Shifted(QuadraticBowl):
        def __init__(self, c):
            super().__init__(6)
            self.c = c
            self.f_low += c

        def eval_f(self, x):
            return super().eval_f(x) + self.c

    cfg = OuterConfig(p=2, beta=1.0, epsilon=1e-5)
    space = NormedSpace(6, 2.0)
    runs = []
    for problem in (Shifted(0.0), Shifted(offset)):
        x0 = problem.default_x0()
        run = solve(problem, x0, cfg, space)
        assert run.status is SolveStatus.CONVERGED and run.total_iterations == 10
        L = trajectory_holder_constant(problem, space, cfg.p, x0, run)
        assert check_trajectory(run, cfg, L=L, f_low=problem.f_low) == []
        runs.append(run)
    base, shifted = ([rec.model_decrease for rec in run.records] for run in runs)
    assert shifted == base


@pytest.mark.parametrize("r, epsilon, max_outer", [(2.0, 1e-12, 12), (1.5, 1e-9, 9)])
def test_accuracy_near_the_spacing_of_doubles_converges(r, epsilon, max_outer):
    # model decreases of about epsilon^2 near f = -1.72 count in full: none
    # is formed as a difference of values near f
    run, violations, _ = run_single(ExperimentConfig(problem="quadratic", r=r, epsilon=epsilon))
    assert run.status is SolveStatus.CONVERGED
    assert violations == []
    assert run.total_iterations <= max_outer


def test_sigma_update_endpoints_deterministic():
    problem = DoubleWell(4)
    space = NormedSpace(4, 2.0)
    cfg = OuterConfig(p=2, beta=1.0, epsilon=1e-5)
    run = solve(problem, problem.default_x0(), cfg, space)
    for a, b in zip(run.records[:-1], run.records[1:]):
        if a.rho >= cfg.eta2 and a.inner_termination not in ("max_iters", "progress_floor"):
            assert b.sigma == pytest.approx(max(cfg.sigma_min, cfg.gamma1 * a.sigma), rel=1e-12)
        elif a.successful:
            assert b.sigma == pytest.approx(a.sigma, rel=1e-12)
        else:
            assert b.sigma == pytest.approx(cfg.gamma2 * a.sigma, rel=1e-12)


def test_sigma_grows_after_nan_ratio():
    # a trial value of NaN gives rho = NaN: the step is rejected and sigma
    # must grow, as on any other rejection
    class NanAway(QuadraticBowl):
        def eval_f(self, x):
            return super().eval_f(x) if np.array_equal(x, self.default_x0()) else math.nan

    problem = NanAway(3)
    cfg = OuterConfig(p=2, beta=1.0, max_outer_iters=8)
    run = solve(problem, problem.default_x0(), cfg, NormedSpace(3, 2.0))
    assert all(math.isnan(rec.rho) and not rec.successful for rec in run.records)
    assert [rec.sigma for rec in run.records] == [cfg.sigma0 * cfg.gamma2 ** k for k in range(8)]


def _synthetic_run(records, f_initial=10.0, f_final=5.0, sigma_max=1.0,
                   status=SolveStatus.CONVERGED):
    return RunRecord(
        records=tuple(records),
        final_point=np.zeros(2),
        final_grad_dual_norm=1e-9,
        status=status,
        sigma_max_observed=sigma_max,
        f_initial=f_initial,
        f_final=f_final,
        f_evals=len(records) + 1,
        deriv_evals=sum(1 for r in records if r.successful) + 1,
    )


def _record(k=0, sigma=1.0, step=1.0, grad=1.0, md=1.0, ad=0.9, successful=True):
    return IterationRecord(
        k=k,
        sigma=sigma,
        iterate_norm=1.0,
        step_norm=step,
        grad_dual_norm=grad,
        model_decrease=md,
        actual_decrease=ad,
        rho=ad / md,
        successful=successful,
        inner_iters=3,
        inner_termination="gradient_below_tol",
        f_evals_so_far=k + 2,
        deriv_evals_so_far=k + 2,
    )


def test_iteration_record_is_slotted_and_frozen():
    # a run keeps one record per outer iteration: slots, no per-record dict
    rec = _record(k=4)
    assert not hasattr(rec, "__dict__")
    assert dataclasses.replace(rec, sigma=2.0) == _record(k=4, sigma=2.0)
    assert rec == _record(k=4) and rec != _record(k=5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.k = 5


def test_run_records_read_as_a_tuple_of_records():
    # the store answers len, an index (from either end), a slice, iteration
    # and == as the tuple of its records does
    recs = tuple(_record(k=k, sigma=2.0 ** k, successful=k % 2 == 0) for k in range(5))
    run = _synthetic_run(recs)
    assert len(run.records) == 5 and run.records[0] == recs[0] and run.records[-1] == recs[-1]
    assert run.records[1:4] == recs[1:4] and run.records[::-2] == recs[::-2]
    assert list(run.records) == list(recs) and tuple(run.records) == recs
    assert run.records == recs and run.records != recs[:4] and run.records != ()
    assert run.successes == 3 and run.total_iterations == 5
    assert _synthetic_run(()).records == ()
    with pytest.raises(IndexError):
        run.records[5]


class _NanAway(QuadraticBowl):
    """f is NaN away from the default start: every trial is rejected, with
    a NaN rho."""

    def eval_f(self, x):
        return super().eval_f(x) if np.array_equal(x, self.default_x0()) else math.nan


@pytest.mark.parametrize("case", ["double_well8-r1.5-p3", "nan_away"])
def test_run_records_read_back_the_bits_solve_computed(case, monkeypatch):
    # each row that solve packs, read back as a record: every field has the
    # bits (and a float field the type float) of the value solve computed,
    # on runs that reject iterations, one of them with NaN ratios
    rows = []
    pack = solver._pack

    def captured(got):
        rows.extend(got)
        return pack(got)

    monkeypatch.setattr(solver, "_pack", captured)
    if case == "nan_away":
        problem = _NanAway(3)
        run = solve(problem, problem.default_x0(), OuterConfig(p=2, beta=1.0, max_outer_iters=6),
                    NormedSpace(3, 2.0))
    else:
        cfg = ExperimentConfig(problem="double_well", n=8, r=1.5, p=3, x0="random", seed=3)
        problem, space, x0, outer = cfg.build()
        run = solve(problem, x0, outer, space)
    assert len(run.records) == len(rows) and run.total_iterations > run.successes
    names = [f.name for f in dataclasses.fields(IterationRecord)]
    for rec, row in zip(run.records, rows):
        for name, want in zip(names, row):
            got = getattr(rec, name)
            if name == "inner_termination":
                assert got == list(Termination)[want].value
            elif isinstance(got, float):
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), name
                assert type(got) is float
            else:
                assert got == want and type(got) is type(want), name


def test_run_records_keep_under_128_bytes_a_record():
    # the memory that a finished run keeps per record, traced from before
    # its solve: one row of the records' array (90 bytes) where frozen
    # records and their floats kept about 370
    problem = _NanAway(3)
    cfg = OuterConfig(p=2, beta=1.0, max_outer_iters=1000)
    space = NormedSpace(3, 2.0)
    solve(problem, problem.default_x0(), cfg, space)  # warm-up
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run = solve(problem, problem.default_x0(), cfg, space)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert run.total_iterations == 1000
    assert kept / run.total_iterations < 128


def test_check_trajectory_flags_model_decrease_violation():
    cfg = OuterConfig(p=2, beta=1.0, epsilon=1e-5)
    # floor is sigma/Gamma(4) |s|^3 = 1/6; a smaller decrease must be caught
    bad = _record(md=0.1, ad=0.09)
    violations = check_trajectory(_synthetic_run([bad]), cfg)
    assert any(v.code == "a" for v in violations)
    good = _record(md=0.2, ad=0.18)
    assert check_trajectory(_synthetic_run([good]), cfg) == []


def test_check_trajectory_flags_sigma_cap_violation():
    cfg = OuterConfig(p=2, beta=1.0, epsilon=1e-5)
    bad = _record(sigma=1e6, md=2e5, ad=1.9e5)
    violations = check_trajectory(_synthetic_run([bad], sigma_max=1e6), cfg, L=1.0)
    assert any(v.code == "b" for v in violations)


def test_check_trajectory_flags_taylor_remainder_violation():
    cfg = OuterConfig(p=2, beta=1.0, epsilon=1e-5)
    bad = _record(md=1.0, ad=-2.0, successful=False)  # |f(trial) - T| = 3 >> L/6
    violations = check_trajectory(_synthetic_run([bad]), cfg, L=1.0)
    assert any(v.code == "c" for v in violations)


def test_check_trajectory_flags_step_floor_violation():
    cfg = OuterConfig(p=2, beta=1.0, epsilon=1e-5)
    tiny = _record(k=0, step=1e-9, md=1e-27, ad=1e-27)
    ok_last = _record(k=1)
    violations = check_trajectory(_synthetic_run([tiny, ok_last]), cfg, L=1.0)
    assert any(v.code == "d" for v in violations)
    # the terminating iteration itself carries no step-size guarantee
    violations2 = check_trajectory(_synthetic_run([ok_last, tiny]), cfg, L=1.0)
    assert not any(v.code == "d" for v in violations2)


def test_check_trajectory_returns_rather_than_raises_on_a_huge_step():
    # |s|^(p+beta) = 1e600 passes the largest double: the powers read inf
    # and no OverflowError leaves the checker.  An infinite remainder bound
    # (c) and step-size power (d) are met, while an infinite model-decrease
    # floor (a) is missed by the finite decrease of 1
    cfg = OuterConfig(p=2, beta=1.0, epsilon=1e-5)
    run = _synthetic_run([_record(step=1e200)], status=SolveStatus.MAX_ITERS)
    violations = check_trajectory(run, cfg, L=1.0, f_low=0.0)
    assert not any(v.code in "cd" for v in violations)
    assert any(v.code == "a" for v in violations)


def test_check_trajectory_flags_counting_violation():
    cfg = OuterConfig(p=2, beta=1.0, epsilon=1e-5)
    # many unsuccessful iterations with sigma never moving: impossible under
    # the update rule, and the count bound must flag it
    records = [_record(k=i, successful=False, ad=0.0) for i in range(10)]
    violations = check_trajectory(_synthetic_run(records, status=SolveStatus.MAX_ITERS), cfg)
    assert any(v.code == "e" for v in violations)


def test_check_trajectory_flags_success_count_violation():
    cfg = OuterConfig(p=2, beta=1.0, epsilon=1e-5, sigma_min=1.0, eta1=0.5)
    # f only drops by 1e-12 overall, yet dozens of successful records each
    # claim a large model decrease: the worst-case count must flag it
    records = [_record(k=i, md=1e-9, ad=1e-13, step=1e-3) for i in range(50)]
    run = _synthetic_run(records, f_initial=1.0, f_final=1.0 - 1e-12,
                         status=SolveStatus.MAX_ITERS)
    violations = check_trajectory(run, cfg, L=1.0, f_low=1.0 - 1e-12)
    assert any(v.code == "f" for v in violations)


def test_counting_bound_formula_on_real_run():
    problem = DoubleWell(4)
    space = NormedSpace(4, 2.0)
    cfg = OuterConfig(p=2, beta=1.0, epsilon=1e-5)
    run = solve(problem, problem.default_x0(), cfg, space)
    bound = run.successes * (1 + abs(math.log(cfg.gamma1)) / math.log(cfg.gamma2)) + math.log(
        max(run.sigma_max_observed / cfg.sigma0, 1.0)
    ) / math.log(cfg.gamma2)
    assert run.total_iterations <= bound + 1e-9



@pytest.mark.parametrize("r", [1.0000001, 1e6])
def test_double_well_converges_at_extreme_exponents(r):
    # the dual exponent of r = 1.0000001 is about 1e7 and r = 1e6 is past
    # 1022: an l^r pass whose scaled power sum loses its peak term would read
    # the gradient's dual norm as 0 (a stop after 0 iterations) or the
    # step's norm as 0 (sigma overflow)
    run, violations, _ = run_single(ExperimentConfig(problem="double_well", r=r))
    assert run.status is SolveStatus.CONVERGED and run.total_iterations > 0
    assert run.f_final < run.f_initial and violations == []


class _GradientTurnsNaN(QuadraticBowl):
    """Quadratic bowl whose gradient is NaN everywhere but at x0."""

    def __init__(self, x0):
        super().__init__(6)
        self.x0 = x0

    def eval_derivative(self, x, order):
        t = super().eval_derivative(x, order)
        if order == 1 and not np.array_equal(x, self.x0):
            return type(t)(1, self.dim, np.full(self.dim, np.nan))
        return t


def test_nonfinite_gradient_at_accepted_point_keeps_the_records():
    x0 = np.ones(6)
    problem = _GradientTurnsNaN(x0)
    cfg = OuterConfig(p=2, beta=1.0)
    run = solve(problem, x0, cfg, NormedSpace(6, 2.0))
    assert run.status is SolveStatus.ORACLE_NONFINITE
    assert len(run.records) == 1 and run.records[0].successful
    assert math.isnan(run.final_grad_dual_norm)
    assert run.deriv_evals == 2 and not np.array_equal(run.final_point, x0)


@pytest.mark.parametrize("bad", ["f", "gradient", "hessian", "gradient norm"])
def test_nonfinite_oracle_at_x0_returns_a_record(bad):
    class Broken(QuadraticBowl):
        def eval_f(self, x):
            return math.inf if bad == "f" else super().eval_f(x)

        def eval_derivative(self, x, order):
            t = super().eval_derivative(x, order)
            if (bad, order) in (("gradient", 1), ("hessian", 2)):
                return type(t)(order, self.dim, np.full(self.dim, -np.inf))
            if (bad, order) == ("gradient norm", 1):
                # finite entries, but |g|_2 = 1.7e308 sqrt(6) passes the largest double
                return type(t)(order, self.dim, np.full(self.dim, -1.7e308))
            return t

    run = solve(Broken(6), np.ones(6), OuterConfig(p=2, beta=1.0), NormedSpace(6, 2.0))
    assert run.status is SolveStatus.ORACLE_NONFINITE
    assert run.records == () and run.f_evals == 1 and run.deriv_evals == 1
    assert math.isnan(run.final_grad_dual_norm) == (bad == "gradient")
    assert math.isinf(run.final_grad_dual_norm) == (bad == "gradient norm")


class _HessianBandTurnsNaN(PendulumLattice):
    """Pendulum lattice whose Hessian has a NaN off-diagonal band, and a
    finite diagonal, from the second order-2 call on."""

    def __init__(self):
        super().__init__(8)
        self.calls = 0

    def eval_derivative(self, x, order):
        t = super().eval_derivative(x, order)
        if order == 2:
            self.calls += 1
            if self.calls >= 2:
                return diagonal_tensor(2, t.diag, np.full(self.dim - 1, np.nan))
        return t


def test_nonfinite_hessian_band_at_accepted_point_keeps_the_records():
    problem = _HessianBandTurnsNaN()
    cfg = OuterConfig(p=2, beta=1.0)
    run = solve(problem, problem.default_x0(), cfg, problem.default_space())
    assert run.status is SolveStatus.ORACLE_NONFINITE
    assert len(run.records) == 1 and run.records[0].successful
    assert run.deriv_evals == 2 and problem.calls == 2


class _GradientTurnsHuge(HolderGradient):
    """Hoelder objective whose gradient is (1e200, 0, 0, 0) from the second
    derivative call on: finite, but at p = 1 and beta = 1/2 the model's ray
    minimizer lies near |g|^2, past the largest double."""

    def __init__(self):
        super().__init__(4, 0.5)
        self.calls = 0

    def eval_derivative(self, x, order):
        t = super().eval_derivative(x, order)
        self.calls += 1
        return t if self.calls < 2 else type(t)(1, self.dim, np.array([1e200, 0.0, 0.0, 0.0]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
def test_gradient_near_overflow_ends_with_a_status(r):
    problem = _GradientTurnsHuge()
    cfg = OuterConfig(p=1, beta=0.5, max_outer_iters=4, inner_max_iters=20)
    run = solve(problem, problem.default_x0(), cfg, NormedSpace(4, r))
    assert run.status is SolveStatus.MAX_ITERS and len(run.records) == 4
    # every model built on the huge gradient is rejected: the scale of its
    # ray minimizer overflows, so each inner solve stops at once without a
    # step instead of running to its guard
    assert problem.calls >= 2 and not run.records[-1].successful
    first = next(i for i, rec in enumerate(run.records) if rec.successful)
    for rec in run.records[first + 1:]:
        assert not rec.successful and rec.inner_termination == "progress_floor"
        assert rec.inner_iters == 0 and rec.step_norm == 0.0


def test_gradient_near_overflow_runs_sigma_to_overflow_without_creeping():
    # with the default outer loop sigma doubles at every rejection until it
    # overflows, and no inner solve creeps toward the unrepresentable
    # minimizer in bounded steps
    problem = _GradientTurnsHuge()
    run = solve(problem, problem.default_x0(), OuterConfig(p=1, beta=0.5), NormedSpace(4, 2.0))
    assert run.status is SolveStatus.SIGMA_OVERFLOW and len(run.records) == 1025
    assert sum(rec.inner_iters for rec in run.records) < 1000


class _TrialsFail(QuadraticBowl):
    """Quadratic bowl whose f is ``bad`` everywhere but at x0."""

    def __init__(self, x0, bad):
        super().__init__(6)
        self.x0, self.bad = x0, bad

    def eval_f(self, x):
        return super().eval_f(x) if np.array_equal(x, self.x0) else self.bad


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sigma_overflow_ends_the_run_with_the_records(bad):
    x0 = np.ones(6)
    run = solve(_TrialsFail(x0, bad), x0, OuterConfig(p=2, beta=1.0), NormedSpace(6, 2.0))
    assert run.status is SolveStatus.SIGMA_OVERFLOW
    # sigma doubles from 1 at each of the 1024 rejected trials, then overflows
    assert len(run.records) == 1024 and run.f_evals == 1025 and run.deriv_evals == 1
    assert not any(rec.successful for rec in run.records)
    assert run.records[-1].sigma == 2.0 ** 1023 and math.isinf(run.sigma_max_observed)
    assert np.array_equal(run.final_point, x0) and run.f_final == run.f_initial
    # the checks report the runaway sigma instead of overflowing themselves
    assert "b" in {v.code for v in check_trajectory(run, OuterConfig(p=2, beta=1.0), 1.0, 0.0)}
