"""Experiment driver: single solves, accuracy sweeps, and mesh sweeps.

All three share one step that builds a configuration, solves it, bounds the
Hoelder constant L on the trajectory and, given an output directory, writes
the run record: ``run_<name>.txt`` for a single solve, ``run_<name>_eps<i>.txt``
and ``run_<name>_mesh<i>.txt`` for the i-th point of a sweep, where <name>
is the problem's name (``pendulum32``, ``holder0.5``).  Each sweep also
writes its table of rows to ``summary.csv``.

Record files are line-delimited text: ``# key = value`` lines echoing the
configuration, then a CSV table whose header is the field names of the row
dataclass (``IterationRecord``, ``EpsRow``, ``MeshRow``) and whose cells
render booleans as 0/1, strings as is and everything else by ``repr``, so
that identical configurations and seeds produce byte-identical files.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .geometry import GeometryError, NormedSpace
from .problems import ProblemOracle, get_problem
from .solver import (
    IterationRecord,
    OuterConfig,
    RunRecord,
    SolveStatus,
    check_trajectory,
    solve,
    theorem_success_bound,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "EpsRow",
    "SweepSummary",
    "MeshRow",
    "run_single",
    "run_epsilon_sweep",
    "run_mesh_sweep",
    "trajectory_holder_constant",
    "write_run_record",
]


class ConfigError(ValueError):
    """Bad experiment configuration; the message names the offending field."""


def _option(default, help_text: str):
    """A configuration field with its command-line help text."""
    return field(default=default, metadata={"help": help_text})


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment.  Each field is a config-file key and a command-line
    flag of the same name (dashes for underscores), parsed by its annotation,
    and every field but ``out`` is echoed in the run record's header."""

    problem: str = _option("quadratic", "problem id (see list-problems)")
    n: int | None = _option(None, "dimension (mesh intervals for pendulum)")
    r: float = _option(0.0, "norm exponent; 0 (default): problem's space")
    x0: str = _option("default", "zeros | ones | default | random | v1,v2,...")
    seed: int = 0
    out: str | None = _option(None, "output directory for record files")
    p: int = _option(2, "model order")
    beta: float | None = _option(None, "regularizer Hoelder order")  # None: the problem's
    epsilon: float = _option(OuterConfig.epsilon, "gradient accuracy")
    sigma0: float = _option(OuterConfig.sigma0, "initial regularization weight")
    sigma_min: float = OuterConfig.sigma_min
    eta1: float = OuterConfig.eta1
    eta2: float = OuterConfig.eta2
    gamma1: float = OuterConfig.gamma1
    gamma2: float = OuterConfig.gamma2
    gamma3: float = OuterConfig.gamma3
    chi: float = OuterConfig.chi
    theta: float = OuterConfig.theta
    max_outer_iters: int = OuterConfig.max_outer_iters
    inner_max_iters: int | None = _option(
        OuterConfig.inner_max_iters, "per-solve inner iteration cap (default: solver formula)"
    )
    eps_start: float | None = None
    eps_stop: float | None = None
    eps_points: int = 0
    mesh: tuple = _option((), "comma-separated mesh sizes, e.g. 32,128,512")

    def oracle(self) -> ProblemOracle:
        """The configured problem; a bad id, size or seed raises ConfigError."""
        if self.seed < 0:
            raise ConfigError(f"seed: must be nonnegative, got {self.seed}")
        try:
            return get_problem(self.problem, self.n, self.beta)
        except KeyError as exc:
            raise ConfigError(f"problem: {exc.args[0]}") from None
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def build(self):
        """Resolve the configuration into (problem, space, x0, OuterConfig)."""
        problem = self.oracle()
        if self.p > problem.max_order:
            raise ConfigError(
                f"p: '{problem.name}' supplies derivatives only up to order {problem.max_order}"
            )
        try:
            space = problem.default_space() if self.r == 0.0 else NormedSpace(problem.dim, self.r)
        except GeometryError as exc:
            raise ConfigError(f"r: {exc}") from None
        shared = {f.name for f in fields(OuterConfig)} & {f.name for f in fields(self)}
        kwargs = {name: getattr(self, name) for name in shared}
        kwargs["beta"] = problem.beta if self.beta is None else self.beta
        try:
            outer = OuterConfig(**kwargs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        x0 = self._build_x0(problem)
        return problem, space, x0, outer

    def _build_x0(self, problem: ProblemOracle) -> np.ndarray:
        spec = self.x0
        if spec == "default":
            return problem.default_x0()
        if spec == "zeros":
            return np.zeros(problem.dim)
        if spec == "ones":
            return np.ones(problem.dim)
        if spec == "random":
            return np.random.default_rng(self.seed).standard_normal(problem.dim)
        try:
            values = np.array([float(tok) for tok in spec.split(",")])
        except ValueError:
            raise ConfigError(f"x0: cannot parse {spec!r}") from None
        if not np.isfinite(values).all():
            raise ConfigError(f"x0: entries must be finite, got {spec!r}")
        if values.shape != (problem.dim,):
            raise ConfigError(
                f"x0: expected {problem.dim} entries for '{self.problem}', got {values.size}"
            )
        return values


def trajectory_holder_constant(problem, space: NormedSpace, p: int, x0, run: RunRecord):
    """Hoelder constant of the order-p derivative on the ball of radius 1.01
    max(|x0|, |x_k| + |s_k|), which holds the trajectory and trial points."""
    radius = max([space.norm(x0), *run.trial_norms()])
    return problem.holder_constant(space, p, 1.01 * radius)


def _solve(cfg: ExperimentConfig, suffix: str = ""):
    """Build and solve one configuration; with an output directory
    configured, also write ``run_<problem name><suffix>.txt``.  Returns
    (problem, outer, run, L, path).  L is the Hoelder constant of the
    order-p derivative on a ball covering the recorded trajectory and trial
    points, or None when the oracle knows none or the solver ran with a
    Hoelder order other than the oracle's.  The directory is made before
    the solve, so an unwritable one is a configuration error that costs
    no solve."""
    problem, space, x0, outer = cfg.build()
    if cfg.out:
        try:
            os.makedirs(cfg.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"out: {exc}") from None
    run = solve(problem, x0, outer, space)
    L = path = None
    if outer.beta == problem.beta:
        L = trajectory_holder_constant(problem, space, outer.p, x0, run)
    if cfg.out:
        path = os.path.join(cfg.out, f"run_{problem.name}{suffix}.txt")
        write_run_record(path, cfg, space, run)
    return problem, outer, run, L, path


def run_single(cfg: ExperimentConfig):
    """One solve plus its trajectory checks; writes a record file when an
    output directory is configured.  Returns (run, violations, path)."""
    problem, outer, run, L, path = _solve(cfg)
    return run, check_trajectory(run, outer, L=L, f_low=problem.f_low), path


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    return value if isinstance(value, str) else repr(value)


def _write_table(path: str, cls, rows, head=(), tail=()) -> None:
    """``#`` lines, a CSV header of the dataclass ``cls``'s field names, one
    row per instance, then trailing ``#`` lines.  A file that cannot be
    written is a configuration error of the output directory."""
    names = [f.name for f in fields(cls)]
    lines = [f"# {line}" for line in head]
    lines.append(",".join(names))
    lines.extend(",".join(_cell(getattr(row, name)) for name in names) for row in rows)
    lines.extend(f"# {line}" for line in tail)
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ConfigError(f"out: {exc}") from None


def _echo(obj, names) -> list:
    return [f"{name} = {getattr(obj, name)!r}" for name in names]


def write_run_record(path: str, cfg: ExperimentConfig, space, run: RunRecord) -> None:
    # the output directory is environment, not part of the experiment
    head = ["arplr run record"] + _echo(cfg, [f.name for f in fields(cfg) if f.name != "out"])
    head += [f"space_n = {space.n}", f"space_r = {space.r!r}", f"status = {run.status.value}"]
    head += _echo(run, ["f_initial", "f_final", "final_grad_dual_norm", "sigma_max_observed"])
    _write_table(path, IterationRecord, run.records, head)


# -- accuracy sweep ------------------------------------------------------------


@dataclass(frozen=True)
class EpsRow:
    epsilon: float
    successes: int
    successes_pre_termination: int
    total_iters: int
    f_evals: int
    deriv_evals: int
    sigma_max: float
    converged: bool
    bound: float | None
    within_bound: bool | None


# how far the fitted growth exponent may exceed the theoretical one
_SLOPE_MARGIN = 0.3


@dataclass(frozen=True)
class SweepSummary:
    rows: tuple
    slope: float | None
    slope_residual: float | None
    theoretical_exponent: float
    slope_ok: bool
    all_within_bound: bool


def run_epsilon_sweep(cfg: ExperimentConfig) -> SweepSummary:
    """Solve at each accuracy of the geometric grid with a shared start and
    seed, check each success count against the worst-case bound (when the
    oracle knows its Hoelder constant), and fit the growth exponent."""
    for name in ("eps_start", "eps_stop", "eps_points"):
        value = getattr(cfg, name)
        if value is None or not value > 0:
            raise ConfigError(f"{name}: the sweep needs a positive value, got {value!r}")
    grid = np.geomspace(cfg.eps_start, cfg.eps_stop, cfg.eps_points)
    rows = []
    for i, eps in enumerate(grid):
        problem, outer, run, L, _ = _solve(replace(cfg, epsilon=float(eps)), f"_eps{i}")
        bound = within = None
        if L is not None and problem.f_low is not None:
            bound = theorem_success_bound(
                outer, L, run.f_initial, problem.f_low, run.sigma_max_observed
            )
            within = run.successes_before_termination() <= bound + 1e-9
        rows.append(
            EpsRow(
                epsilon=float(eps),
                successes=run.successes,
                successes_pre_termination=run.successes_before_termination(),
                total_iters=run.total_iterations,
                f_evals=run.f_evals,
                deriv_evals=run.deriv_evals,
                sigma_max=run.sigma_max_observed,
                converged=run.status is SolveStatus.CONVERGED,
                bound=bound,
                within_bound=within,
            )
        )

    e = outer.p + outer.beta
    exponent = e / (e - 1.0)
    fit_rows = [row for row in rows if row.converged and row.successes >= 1]
    slope = residual = None
    if len(fit_rows) >= 2:
        xs = np.log([1.0 / row.epsilon for row in fit_rows])
        ys = np.log([float(row.successes) for row in fit_rows])
        coeffs, res = np.polyfit(xs, ys, 1, full=True)[:2]
        slope = float(coeffs[0])
        residual = float(math.sqrt(res[0] / len(fit_rows))) if len(res) else 0.0
    summary = SweepSummary(
        rows=tuple(rows),
        slope=slope,
        slope_residual=residual,
        theoretical_exponent=exponent,
        slope_ok=slope is None or slope <= exponent + _SLOPE_MARGIN,
        all_within_bound=all(row.within_bound is not False for row in rows),
    )
    if cfg.out:
        _write_table(
            os.path.join(cfg.out, "summary.csv"), EpsRow, rows,
            tail=_echo(summary, ["slope", "slope_residual", "theoretical_exponent"]),
        )
    return summary


# -- mesh sweep ------------------------------------------------------------------


@dataclass(frozen=True)
class MeshRow:
    mesh_size: int
    total_iters: int
    successes: int
    f_evals: int
    converged: bool


def run_mesh_sweep(cfg: ExperimentConfig) -> list:
    """Solve the discretized problem at each mesh size with the same
    accuracy; mesh-consistent variables make the iteration counts directly
    comparable."""
    if not cfg.mesh:
        raise ConfigError("mesh_sweep: a nonempty mesh list is required")
    rows = []
    for i, n_mesh in enumerate(cfg.mesh):
        _, _, run, _, _ = _solve(replace(cfg, n=int(n_mesh)), f"_mesh{i}")
        rows.append(
            MeshRow(
                mesh_size=int(n_mesh),
                total_iters=run.total_iterations,
                successes=run.successes,
                f_evals=run.f_evals,
                converged=run.status is SolveStatus.CONVERGED,
            )
        )
    if cfg.out:
        _write_table(os.path.join(cfg.out, "summary.csv"), MeshRow, rows)
    return rows
