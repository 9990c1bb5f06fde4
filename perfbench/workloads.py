"""Benchmark inputs: one list of solve jobs per workload, built from the seed.

Only ``starts`` and ``lr_mesh`` draw from the seed; ``suite`` and ``mesh``
are fixed problems whose counters are pinned to the values the seed
code produced (``EXPECTED``), so a change of iteration behaviour there
fails the correctness gate instead of passing as a speed-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from arplr import OuterConfig, builtin_suite
from arplr.harness import ExperimentConfig

# (outer, successful, inner, f_evals, deriv_evals) per solve label, as
# produced by the seed code with single-threaded BLAS.
EXPECTED = {
    "quadratic-n6-r2-p2": (10, 10, 18, 11, 11),
    "double_well-n4-r2-p2": (5, 5, 5, 6, 6),
    "double_well-n4-r2-p3": (5, 4, 5, 6, 5),
    "holder0.5-n4-p1": (16, 16, 16, 17, 17),
    "holder0.8-n4-p1": (7, 7, 7, 8, 8),
    "rosenbrock-r1.5-p2": (158, 72, 36307, 159, 73),
    "rosenbrock-r2-p2": (108, 56, 23346, 109, 57),
    "rosenbrock-r3-p2": (101, 45, 18297, 102, 46),
    "pendulum32-r2-p2": (6, 6, 2816, 7, 7),
    "double_well-eps0": (3, 3, 3, 4, 4),
    "double_well-eps1": (4, 4, 4, 5, 5),
    "double_well-eps2": (4, 4, 4, 5, 5),
    "double_well-eps3": (5, 5, 5, 6, 6),
    "holder-eps0": (4, 4, 4, 5, 5),
    "holder-eps1": (7, 7, 7, 8, 8),
    "holder-eps2": (10, 10, 10, 11, 11),
    "holder-eps3": (13, 13, 13, 14, 14),
    "pendulum-mesh32": (6, 6, 2296, 7, 7),
    "pendulum-mesh128": (6, 6, 27247, 7, 7),
    "pendulum-mesh256": (6, 6, 98144, 7, 7),
}


@dataclass(frozen=True)
class Job:
    """One solve: the oracle, its space and start, and the config echoed
    into its run record."""

    label: str
    cfg: ExperimentConfig
    problem: object
    space: object
    x0: np.ndarray
    outer: OuterConfig
    expected: tuple | None


def _from_config(label: str, cfg: ExperimentConfig, pinned: bool) -> Job:
    problem, space, x0, outer = cfg.build()
    return Job(label, cfg, problem, space, x0, outer, EXPECTED[label] if pinned else None)


def suite(seed: int, smoke: bool) -> list:
    """The nine built-in solves at 1e-5 plus the two accuracy sweeps of the
    complexity-exponent criterion.  Small n, so the cost is per-call
    overhead in the inner line minimization (Rosenbrock dominates)."""
    jobs = []
    for entry in builtin_suite():
        if smoke and entry.problem.name == "rosenbrock":
            continue
        beta = entry.problem.beta
        cfg = ExperimentConfig(
            problem=entry.label, n=entry.problem.dim, r=entry.space.r, p=entry.p,
            beta=beta, epsilon=1e-5,
        )
        outer = OuterConfig(p=entry.p, beta=beta, epsilon=1e-5)
        jobs.append(
            Job(entry.label, cfg, entry.problem, entry.space, entry.x0, outer,
                EXPECTED[entry.label])
        )
    for problem_id, p, extra in (("double_well", 2, {}), ("holder", 1, {"beta": 0.5})):
        sweep = ExperimentConfig(
            problem=problem_id, p=p, eps_start=1e-1, eps_stop=1e-4, eps_points=4, **extra
        )
        grid = np.geomspace(sweep.eps_start, sweep.eps_stop, sweep.eps_points)
        for i, eps in enumerate(grid):
            jobs.append(
                _from_config(f"{problem_id}-eps{i}", replace(sweep, epsilon=float(eps)), True)
            )
    return jobs


def mesh(seed: int, smoke: bool) -> list:
    """Pendulum mesh sweep in l^2 (criterion 7 without mesh 512): long
    convex inner solves on the r = 2 fast path, dense Hessian matvecs that
    grow with the mesh."""
    meshes = (32,) if smoke else (32, 128, 256)
    return [
        _from_config(
            f"pendulum-mesh{m}",
            ExperimentConfig(problem="pendulum", n=m, p=2, epsilon=1e-4, inner_max_iters=600_000),
            True,
        )
        for m in meshes
    ]


def lr_mesh(seed: int, smoke: bool) -> list:
    """Pendulum at mesh 128 in l^1.5 and l^3, which bypasses the r = 2 ray
    shortcut.  The start is sqrt(h) A sin(pi t) with A drawn in [1, 3].
    The l^1.5 outer count grows with A (about 16 at A = 1.2, 26 at A = 2.9),
    so l^1.5 is also solved at the antithetic 4 - A, which keeps the
    per-run totals steady across seeds; the l^3 count hardly depends on A."""
    m = 32 if smoke else 128
    amplitude = float(np.random.default_rng(seed).uniform(1.0, 3.0))
    h = 1.0 / m
    wave = math.sqrt(h) * np.sin(math.pi * np.arange(1, m) * h)
    jobs = []
    for a, r in ((amplitude, 1.5), (4.0 - amplitude, 1.5), (amplitude, 3.0)):
        cfg = ExperimentConfig(
            problem="pendulum", n=m, r=r, p=2, epsilon=1e-4, inner_max_iters=600_000,
            x0=",".join(repr(float(v)) for v in a * wave),
        )
        jobs.append(_from_config(f"pendulum{m}-r{r:g}-A{a:.4f}", cfg, False))
    return jobs


def starts(seed: int, smoke: bool) -> list:
    """Double well, n = 96, p = 3, from seed-drawn standard-normal starts,
    alternating l^1.5 and l^3.  Few inner iterations per outer one; the
    cost is dense order-3 contractions and derivative construction."""
    count = 4 if smoke else 128
    start_seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, size=count)
    jobs = []
    for i, s in enumerate(start_seeds):
        r = 1.5 if i % 2 == 0 else 3.0
        cfg = ExperimentConfig(
            problem="double_well", n=96, r=r, p=3, epsilon=1e-5, x0="random", seed=int(s)
        )
        jobs.append(_from_config(f"double_well96-r{r:g}-start{i}", cfg, False))
    return jobs


WORKLOADS = {"suite": suite, "mesh": mesh, "lr_mesh": lr_mesh, "starts": starts}
