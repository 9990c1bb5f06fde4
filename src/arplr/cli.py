"""Command-line driver.

Subcommands: ``run`` (one solve plus trajectory checks), ``sweep-eps``
(accuracy sweep with the worst-case-count check and exponent fit),
``sweep-mesh`` (mesh-independence table), ``check-oracle`` (finite-difference
verification of a problem's derivatives), and ``list-problems``.

Each ``ExperimentConfig`` field is a flag of every solve subcommand
(``--sigma-min`` for ``sigma_min``) and a key of the key-value config file
(``key = value`` lines, ``#`` comments), with ``eps``, ``max_outer`` and
``inner_max`` as aliases; explicit flags override file entries.  A flag
for a field that a subcommand replaces or ignores is a configuration error
(``--mesh`` for ``run``, ``--n`` for ``sweep-mesh``, any but ``--problem``,
``--n``, ``--beta`` and ``--seed`` for ``check-oracle``).  Exit codes: 0
on success, 1 when a check reports violations, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import sys
import typing
from dataclasses import fields

import numpy as np

from .harness import (
    ConfigError,
    ExperimentConfig,
    run_epsilon_sweep,
    run_mesh_sweep,
    run_single,
)
from .problems import fd_check_oracle, get_problem, problem_ids
from .solver import SolveStatus

_KEY_ALIASES = {"eps": "epsilon", "max_outer": "max_outer_iters", "inner_max": "inner_max_iters"}


def _int_list(text: str) -> tuple:
    return tuple(int(tok) for tok in text.split(","))


def _value_parsers() -> dict:
    """Field name -> parser of its text value, read off the annotation:
    ``X | None`` parses as X, and a tuple is comma-separated ints."""
    parsers = {}
    for name, hint in typing.get_type_hints(ExperimentConfig).items():
        base = next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
        parsers[name] = _int_list if base is tuple else base
    return parsers


_PARSERS = _value_parsers()


def _parse_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"config file line {lineno}: expected 'key = value'")
                key, _, val = line.partition("=")
                key, val = key.strip().replace("-", "_"), val.strip()
                key = _KEY_ALIASES.get(key, key)
                if key not in _PARSERS:
                    raise ConfigError(f"config file line {lineno}: unknown key {key!r}")
                try:
                    values[key] = _PARSERS[key](val)
                except ValueError:
                    raise ConfigError(
                        f"config file line {lineno}: cannot parse {key} = {val!r}"
                    ) from None
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path!r} ({exc})") from None
    return values


_SWEEP_EPS = ("eps_start", "eps_stop", "eps_points")
_ORACLE_FIELDS = ("problem", "n", "beta", "seed")  # all that check-oracle reads


def _build_config(args: argparse.Namespace, unused=()) -> ExperimentConfig:
    """The config file overlaid with the flags given; a flag for one of the
    ``unused`` fields, which the subcommand replaces or never reads, is a
    configuration error rather than a silent no-op."""
    for name in unused:
        if getattr(args, name) is not None:
            raise ConfigError(f"{name}: not used by '{args.command}'")
    values = _parse_config_file(args.config) if args.config else {}
    for f in fields(ExperimentConfig):
        if getattr(args, f.name) is not None:
            values[f.name] = getattr(args, f.name)
    return ExperimentConfig(**values)


def _print_run(run, violations) -> None:
    print(f"status: {run.status.value}")
    print(f"iterations: {run.total_iterations} (successful: {run.successes})")
    print(f"f: {run.f_initial!r} -> {run.f_final!r}")
    print(f"final dual gradient norm: {run.final_grad_dual_norm:.6e}")
    print(f"evaluations: f {run.f_evals}, derivatives {run.deriv_evals}")
    print(f"sigma max observed: {run.sigma_max_observed:.6e}")
    if violations:
        print(f"violations ({len(violations)}):")
        for v in violations:
            where = "run" if v.iteration is None else f"k={v.iteration}"
            print(f"  ({v.code}) {v.name} [{where}]: {v.detail}")
    else:
        print("violations: none")


def _cmd_run(args) -> int:
    cfg = _build_config(args, _SWEEP_EPS + ("mesh",))
    run, violations, path = run_single(cfg)
    _print_run(run, violations)
    if path:
        print(f"record: {path}")
    if violations:
        return 1
    return 0 if run.status is SolveStatus.CONVERGED else 1


def _cmd_sweep_eps(args) -> int:
    cfg = _build_config(args, ("epsilon", "mesh"))
    summary = run_epsilon_sweep(cfg)
    print("epsilon      |S|  |S|<bound  iters  f_evals  converged")
    for row in summary.rows:
        mark = "-" if row.within_bound is None else ("yes" if row.within_bound else "NO")
        print(
            f"{row.epsilon:<12.3e} {row.successes:<4d} {mark:<10} "
            f"{row.total_iters:<6d} {row.f_evals:<8d} {row.converged}"
        )
    print(f"theoretical exponent: {summary.theoretical_exponent:.4f}")
    if summary.slope is not None:
        print(f"fitted slope: {summary.slope:.4f} (residual {summary.slope_residual:.3e})")
    ok = summary.slope_ok and summary.all_within_bound and all(r.converged for r in summary.rows)
    print("sweep check:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def _cmd_sweep_mesh(args) -> int:
    cfg = _build_config(args, ("n",) + _SWEEP_EPS)
    rows = run_mesh_sweep(cfg)
    print("mesh  iters  successes  f_evals  converged")
    for row in rows:
        print(
            f"{row.mesh_size:<5d} {row.total_iters:<6d} {row.successes:<10d} "
            f"{row.f_evals:<8d} {row.converged}"
        )
    counts = [row.total_iters for row in rows if row.converged]
    ok = len(counts) == len(rows) and counts and max(counts) <= 2 * min(counts)
    print("mesh-independence check (factor 2):", "ok" if ok else "FAILED")
    return 0 if ok else 1


def _cmd_check_oracle(args) -> int:
    unused = tuple(f.name for f in fields(ExperimentConfig) if f.name not in _ORACLE_FIELDS)
    cfg = _build_config(args, unused)
    problem = cfg.oracle()
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for order in range(1, problem.max_order + 1):
        errs = []
        for trial in range(3):
            # keep coordinates away from zero; some oracles have kinks there
            x = problem.default_x0() + 0.05 * rng.standard_normal(problem.dim)
            errs.append(fd_check_oracle(problem, x, order, seed=cfg.seed + trial))
        err = max(errs)
        worst = max(worst, err)
        print(f"order {order}: max relative finite-difference error {err:.3e}")
    ok = worst <= 1e-5
    print("oracle check:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def _cmd_list_problems(_args) -> int:
    for pid in problem_ids():
        problem = get_problem(pid)
        note = "size = mesh intervals" if pid == "pendulum" else f"default n = {problem.dim}"
        print(
            f"{pid:<12} dim {problem.dim:<4d} orders 1..{problem.max_order}  "
            f"beta {problem.beta:g}  ({note})"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="arplr",
        description="Adaptive higher-order regularization over R^n with l^r norms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, func in (
        ("run", "one solve plus trajectory checks", _cmd_run),
        ("sweep-eps", "accuracy sweep and exponent fit", _cmd_sweep_eps),
        ("sweep-mesh", "mesh-independence table", _cmd_sweep_mesh),
        ("check-oracle", "finite-difference derivative check", _cmd_check_oracle),
    ):
        command = sub.add_parser(name, help=help_text)
        command.add_argument("--config", help="key-value config file; flags override it")
        for f in fields(ExperimentConfig):
            names = [alias for alias, key in _KEY_ALIASES.items() if key == f.name] + [f.name]
            command.add_argument(
                *("--" + flag.replace("_", "-") for flag in names),
                dest=f.name, type=_PARSERS[f.name], help=f.metadata.get("help"),
            )
        command.set_defaults(func=func)

    p_list = sub.add_parser("list-problems", help="available problem ids")
    p_list.set_defaults(func=_cmd_list_problems)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
