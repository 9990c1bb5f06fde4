"""End-to-end verification gate.

Each test prints one pass/fail line; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import csv
import hashlib
import math
import time

import numpy as np
import pytest

from arplr import (
    DoubleWell,
    NormedSpace,
    OuterConfig,
    PsiSpec,
    RegularizedModel,
    SolveStatus,
    SymmetricTensor,
    TaylorModel,
    Termination,
    builtin_suite,
    check_trajectory,
    fd_check_oracle,
    minimize_model,
    psi_descent_bound,
    psi_minimize,
    smoothness_modulus_estimate,
    solve,
)
from arplr.harness import (
    ExperimentConfig,
    run_epsilon_sweep,
    run_mesh_sweep,
    run_single,
    trajectory_holder_constant,
)
from arplr.solver import IterationRecord, RunRecord
from helpers import model_values


def _report(number: int, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_duality_map_identities():
    start = time.time()
    rng = np.random.default_rng(101)
    r_choices = [1.5, 2.0, 3.0, 4.0]
    p_choices = [2.0, 2.5, 3.0, 3.5]
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        space = NormedSpace(n, float(rng.choice(r_choices)))
        p = float(rng.choice(p_choices))
        x = rng.standard_normal(n) * float(rng.choice([0.05, 1.0, 20.0]))
        J = space.duality_map(x, p)
        nx = space.norm(x)
        pair_err = abs(float(np.dot(J, x)) - nx ** p) / max(1.0, nx ** p)
        norm_err = abs(space.dual_norm(J) - nx ** (p - 1.0)) / max(1.0, nx ** (p - 1.0))
        worst = max(worst, pair_err, norm_err)
    elapsed = time.time() - start
    _report(
        1,
        worst <= 1e-10 and elapsed < 5.0,
        f"10^4 duality-map identity checks, worst relative error {worst:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_hilbert_modulus_bound():
    start = time.time()
    space = NormedSpace(8, 2.0)
    worst_excess = -math.inf
    for t in (0.1, 0.5, 1.0, 2.0):
        est = smoothness_modulus_estimate(space, t, 100_000, seed=202)
        worst_excess = max(worst_excess, est - (t ** 2 / 2.0 + 1e-12))
    elapsed = time.time() - start
    _report(
        2,
        worst_excess <= 0.0 and elapsed < 10.0,
        f"sampled smoothness modulus stays below t^2/2 (max excess {worst_excess:.2e}), "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_descent_profile_bound():
    start = time.time()
    rng = np.random.default_rng(303)
    ok = True
    for _ in range(1000):
        m = int(rng.integers(1, 6))
        gammas = np.sort(rng.uniform(1.05, 6.0, size=m))
        kappas = rng.uniform(0.1, 10.0, size=m)
        alpha = float(rng.uniform(1e-4, 10.0))
        spec = PsiSpec(alpha, tuple(zip(kappas, gammas)))
        _, value = psi_minimize(spec)
        bound = psi_descent_bound(spec)
        ok = ok and value <= bound + 1e-10 * max(1.0, abs(bound))
    tight = True
    for _ in range(100):
        spec = PsiSpec(float(rng.uniform(0.05, 5.0)), ((float(rng.uniform(0.05, 5.0)), 2.0),))
        _, value = psi_minimize(spec)
        tight = tight and abs(value - psi_descent_bound(spec)) <= 1e-12 * max(1.0, abs(value))
    elapsed = time.time() - start
    _report(
        3,
        ok and tight and elapsed < 5.0,
        f"descent-profile bound on 10^3 random profiles (tight on quadratics), {elapsed:.1f}s",
    )


def test_criterion_4_inner_solver():
    start = time.time()
    # analytic instance: m(s) = <g, s> + |s|^2, minimizer (-1, 0)
    g = np.array([2.0, 0.0])
    tm = TaylorModel((SymmetricTensor(1, 2, g),))
    model = RegularizedModel(tm, 2.0, 1.0, NormedSpace(2, 2.0))
    res = minimize_model(model, 1e-10, max_iters=100)
    analytic_ok = bool(np.allclose(res.s, [-1.0, 0.0], atol=1e-8))

    monotone_ok = True
    stopping_ok = True
    for entry in builtin_suite():
        derivs = tuple(entry.problem.eval_derivative(entry.x0, l) for l in range(1, entry.p + 1))
        taylor = TaylorModel(derivs)
        beta = entry.problem.beta
        model = RegularizedModel(taylor, 1.0, beta, entry.space)
        grad_tol = 0.5e-5
        with model_values() as values:
            res = minimize_model(model, grad_tol, 100.0, 100_000)
        monotone_ok = monotone_ok and len(values) == res.iterations + 1
        monotone_ok = monotone_ok and bool(np.all(np.diff(values) < 0.0))
        bar = max(grad_tol, 100.0 * entry.space.norm(res.s) ** (entry.p + beta - 1.0))
        stopping_ok = stopping_ok and res.termination not in (
            Termination.MAX_ITERS, Termination.PROGRESS_FLOOR
        )
        stopping_ok = stopping_ok and res.model_grad_dual_norm <= bar
    elapsed = time.time() - start
    _report(
        4,
        analytic_ok and monotone_ok and stopping_ok and elapsed < 10.0,
        "inner solver: analytic minimizer to 1e-8, strict monotone decrease and "
        f"stopping rule across the suite, {elapsed:.1f}s",
    )


def test_criterion_5_trajectory_inequalities():
    start = time.time()
    failures = []
    for entry in builtin_suite():
        problem = entry.problem
        cfg = OuterConfig(p=entry.p, beta=problem.beta, epsilon=1e-5)
        run = solve(problem, entry.x0, cfg, entry.space)
        L = trajectory_holder_constant(problem, entry.space, entry.p, entry.x0, run)
        violations = check_trajectory(run, cfg, L=L, f_low=problem.f_low)
        if run.status is not SolveStatus.CONVERGED:
            failures.append(f"{entry.label}: not converged")
        if violations:
            failures.append(f"{entry.label}: {[v.code for v in violations]}")
    elapsed = time.time() - start
    _report(
        5,
        not failures and elapsed < 60.0,
        f"zero trajectory violations across {len(builtin_suite())} suite solves "
        f"at accuracy 1e-5 ({elapsed:.1f}s)" + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_6_complexity_exponent_sweeps():
    start = time.time()
    results = []
    for problem_id, p, expected_exponent, extra in (
        ("double_well", 2, 1.5, {}),
        ("holder", 1, 3.0, {"beta": 0.5}),
    ):
        cfg = ExperimentConfig(
            problem=problem_id,
            p=p,
            eps_start=1e-1,
            eps_stop=1e-4,
            eps_points=4,
            **extra,
        )
        summary = run_epsilon_sweep(cfg)
        converged = all(row.converged for row in summary.rows)
        bounded = summary.all_within_bound and all(row.bound is not None for row in summary.rows)
        exponent_ok = summary.theoretical_exponent == pytest.approx(expected_exponent)
        slope_ok = summary.slope_ok
        results.append((problem_id, converged, bounded, exponent_ok, slope_ok, summary.slope))
    elapsed = time.time() - start
    ok = all(c and b and e and s for _, c, b, e, s, _ in results) and elapsed < 300.0
    detail = "; ".join(
        f"{pid}: slope {slope if slope is None else round(slope, 3)} within bound" for pid, _, _, _, _, slope in results
    )
    _report(6, ok, f"accuracy sweeps ({detail}), {elapsed:.1f}s")


@pytest.fixture(scope="module")
def mesh_sweep(tmp_path_factory):
    """Criterion 7's sweep, run once: its rows, its wall time and the
    directory its records are written to."""
    out = tmp_path_factory.mktemp("mesh")
    start = time.time()
    # the finest mesh needs an inner budget beyond the default guard: the
    # descent iterations of one model minimization scale with the mesh
    # stiffness even though the outer counts do not
    cfg = ExperimentConfig(
        problem="pendulum", p=2, epsilon=1e-4, mesh=(32, 128, 512),
        inner_max_iters=600_000, out=str(out),
    )
    rows = run_mesh_sweep(cfg)
    return rows, time.time() - start, out


def test_criterion_7_mesh_independence(mesh_sweep):
    rows, elapsed, _ = mesh_sweep
    counts = [row.total_iters for row in rows]
    converged = all(row.converged for row in rows)
    ratio = max(counts) / min(counts)
    _report(
        7,
        converged and ratio <= 2.0 and elapsed < 300.0,
        f"outer iteration counts {counts} across meshes (32, 128, 512) agree within "
        f"factor {ratio:.2f}, {elapsed:.1f}s",
    )


@pytest.mark.parametrize("i, mesh, inner, digest", [
    (0, 32, 2296, "6b448ccc5f637ad7d6b72c67c06ad036fc94ee7abbd088e9b0279ef38d965da5"),
    (1, 128, 27247, "d1d52ed6e5d79a573fb71dc687e88097e8dbb645815c7ca20699c03801dbeaa5"),
    (2, 512, 459646, "56a3ccf180129fd8fc5c5d1a53a1b31816928a96adae4d28813343216e31be7a"),
], ids=["mesh32", "mesh128", "mesh512"])
def test_mesh_sweep_records_keep_their_bits(mesh_sweep, i, mesh, inner, digest):
    # each record of criterion 7's sweep: its inner iterations, summed from
    # the CSV, and its sha256, which pins the whole run bit for bit.  Mesh
    # 512 takes the inner iterations of the record that `arplr run --n 512`
    # writes; the digests differ from such records', since these echo the
    # sweep's configuration
    path = mesh_sweep[2] / f"run_pendulum{mesh}_mesh{i}.txt"
    with open(path) as fh:
        rows = csv.DictReader(line for line in fh if not line.startswith("#"))
        total = sum(int(row["inner_iters"]) for row in rows)
    assert (total, hashlib.sha256(path.read_bytes()).hexdigest()) == (inner, digest)


def test_criterion_8_negative_controls():
    class Corrupted(DoubleWell):
        def eval_derivative(self, x, order):
            t = super().eval_derivative(x, order)
            if order == 1:
                bad = t.entries.copy()
                bad[0] += 0.1
                return type(t)(1, self.dim, bad)
            return t

    problem = Corrupted(4)
    fd_err = fd_check_oracle(problem, problem.default_x0(), 1, probes=6, seed=808)
    fd_caught = fd_err > 1e-2

    cfg = OuterConfig(p=2, beta=1.0, epsilon=1e-5)
    bad_record = IterationRecord(
        k=0, sigma=1.0, iterate_norm=1.0, step_norm=1.0, grad_dual_norm=1.0,
        model_decrease=0.05, actual_decrease=0.04, rho=0.8, successful=True,
        inner_iters=2, inner_termination="gradient_below_tol",
        f_evals_so_far=2, deriv_evals_so_far=2,
    )
    synthetic = RunRecord(
        records=(bad_record,), final_point=np.zeros(2), final_grad_dual_norm=1e-9,
        status=SolveStatus.CONVERGED, sigma_max_observed=1.0,
        f_initial=1.0, f_final=0.96, f_evals=2, deriv_evals=2,
    )
    violations = check_trajectory(synthetic, cfg)
    decrease_caught = any(v.code == "a" for v in violations)
    _report(
        8,
        fd_caught and decrease_caught,
        f"corrupted gradient flagged (fd error {fd_err:.2e}) and synthetic "
        "model-decrease violation flagged",
    )


def test_criterion_9_determinism(tmp_path):
    files = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        cfg = ExperimentConfig(problem="double_well", epsilon=1e-5, seed=11, out=str(out))
        _, _, path = run_single(cfg)
        files.append(open(path, "rb").read())
    ok = files[0] == files[1] and len(files[0]) > 0
    _report(9, ok, "identical config and seed produce byte-identical record files")
