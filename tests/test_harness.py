import os
import typing
from dataclasses import fields

import numpy as np
import pytest

from arplr import cli
from arplr.cli import main
from arplr.harness import (
    ConfigError,
    EpsRow,
    ExperimentConfig,
    MeshRow,
    run_epsilon_sweep,
    run_mesh_sweep,
    run_single,
)
from arplr.inner import Termination
from arplr.solver import IterationRecord, SolveStatus, Violation


def _field_type(cls, name):
    # the annotated type of a dataclass field, with "| None" dropped
    hint = typing.get_type_hints(cls)[name]
    return next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))


def _read_table(path, cls):
    """Parse a record file back into (comment lines, header, instances of cls),
    each cell by the field's annotation: bool as 0/1, floats via float."""
    comments, header, rows = [], None, []
    for line in open(path).read().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            values = {}
            for name, cell in zip(header, line.split(",")):
                kind = _field_type(cls, name)
                if cell == "None":
                    values[name] = None
                elif kind is bool:
                    values[name] = {"0": False, "1": True}[cell]
                else:
                    values[name] = kind(cell)
            rows.append(cls(**values))
    return comments, header, rows


def test_run_single_quadratic(tmp_path):
    cfg = ExperimentConfig(problem="quadratic", epsilon=1e-6, out=str(tmp_path))
    run, violations, path = run_single(cfg)
    assert run.status is SolveStatus.CONVERGED
    assert violations == []
    assert path and os.path.exists(path)
    text = open(path).read()
    assert text.startswith("# arplr run record")
    assert "k,sigma," in text


def test_run_single_unknown_problem():
    with pytest.raises(ConfigError, match="problem"):
        run_single(ExperimentConfig(problem="nope"))


def test_run_single_bad_x0_length():
    with pytest.raises(ConfigError, match="x0"):
        run_single(ExperimentConfig(problem="quadratic", x0="1.0,2.0"))


def test_stationary_start_yields_empty_record():
    cfg = ExperimentConfig(problem="holder", p=1, x0="zeros", epsilon=1.0)
    run, violations, _ = run_single(cfg)
    assert run.total_iterations == 0
    assert run.status is SolveStatus.CONVERGED
    assert violations == []


def test_identical_seeds_produce_identical_files(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        cfg = ExperimentConfig(problem="double_well", epsilon=1e-5, seed=7, out=str(out))
        run_single(cfg)
    rec_a = (out_a / "run_double_well.txt").read_bytes()
    rec_b = (out_b / "run_double_well.txt").read_bytes()
    assert rec_a == rec_b and len(rec_a) > 0


def test_epsilon_sweep_on_quadratic(tmp_path):
    cfg = ExperimentConfig(
        problem="quadratic",
        epsilon=1e-5,
        out=str(tmp_path),
        eps_start=1e-1,
        eps_stop=1e-4,
        eps_points=4,
    )
    summary = run_epsilon_sweep(cfg)
    assert len(summary.rows) == 4
    assert all(row.converged for row in summary.rows)
    assert summary.all_within_bound
    assert summary.theoretical_exponent == pytest.approx(1.5)
    assert summary.slope_ok
    comments, header, rows = _read_table(tmp_path / "summary.csv", EpsRow)
    assert header == [f.name for f in fields(EpsRow)]
    assert rows == list(summary.rows)
    assert comments == [
        f"# slope = {summary.slope!r}",
        f"# slope_residual = {summary.slope_residual!r}",
        f"# theoretical_exponent = {summary.theoretical_exponent!r}",
    ]


def test_epsilon_sweep_requires_grid():
    with pytest.raises(ConfigError, match="eps"):
        run_epsilon_sweep(ExperimentConfig(problem="quadratic"))
    for start, stop, field in ((0.0, 1e-3, "eps_start"), (1e-1, 0.0, "eps_stop")):
        cfg = ExperimentConfig(problem="quadratic", eps_start=start, eps_stop=stop, eps_points=3)
        with pytest.raises(ConfigError, match=f"^{field}: .*positive"):
            run_epsilon_sweep(cfg)


def test_mesh_sweep_small(tmp_path):
    cfg = ExperimentConfig(
        problem="pendulum", epsilon=1e-2, mesh=(8, 16), out=str(tmp_path)
    )
    rows = run_mesh_sweep(cfg)
    assert [row.mesh_size for row in rows] == [8, 16]
    assert all(row.converged for row in rows)
    comments, header, parsed = _read_table(tmp_path / "summary.csv", MeshRow)
    assert comments == []
    assert header == [f.name for f in fields(MeshRow)]
    assert parsed == rows


def test_mesh_sweep_writes_one_record_per_size(tmp_path):
    run_mesh_sweep(ExperimentConfig(problem="quadratic", mesh=(4, 8), out=str(tmp_path)))
    records = sorted(tmp_path.glob("run_*.txt"))
    assert [path.name for path in records] == ["run_quadratic_mesh0.txt", "run_quadratic_mesh1.txt"]
    assert ["# n = 4" in path.read_text().splitlines() for path in records] == [True, False]
    assert ["# n = 8" in path.read_text().splitlines() for path in records] == [False, True]


def test_mesh_sweep_requires_list():
    with pytest.raises(ConfigError, match="mesh"):
        run_mesh_sweep(ExperimentConfig(problem="pendulum"))


def test_coarse_accuracy_run_is_fast():
    import time

    start = time.time()
    run, violations, _ = run_single(ExperimentConfig(problem="pendulum", n=32, epsilon=1e-1))
    assert run.status is SolveStatus.CONVERGED
    assert violations == []
    assert time.time() - start < 1.0


def test_x0_modes():
    for mode in ("zeros", "ones", "random", "default"):
        run, _, _ = run_single(
            ExperimentConfig(problem="quadratic", x0=mode, epsilon=1e-4, seed=5)
        )
        assert run.status is SolveStatus.CONVERGED


# -- command-line interface ----------------------------------------------------


def test_cli_list_problems(capsys):
    assert main(["list-problems"]) == 0
    out = capsys.readouterr().out
    assert "quadratic" in out and "pendulum" in out


def test_cli_run_success(tmp_path, capsys):
    code = main(
        ["run", "--problem", "quadratic", "--eps", "1e-6", "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "status: converged" in out
    assert "violations: none" in out


def test_cli_run_lists_violations_and_exits_1(monkeypatch, capsys):
    # a converged run still fails when the trajectory checks report anything
    found = Violation("b", "sigma-cap", 3, "sigma 9.0e+00 exceeds cap 4.0e+00")
    monkeypatch.setattr("arplr.harness.check_trajectory", lambda *args, **kwargs: [found])
    code = main(["run", "--problem", "quadratic", "--eps", "1e-6"])
    out = capsys.readouterr().out
    assert code == 1
    assert "status: converged" in out
    assert "violations (1):\n  (b) sigma-cap [k=3]: sigma 9.0e+00 exceeds cap 4.0e+00\n" in out


def test_cli_run_with_a_subnormal_tolerance_reports_its_status(capsys):
    # 1 / eps overflows, and the inner iteration guard still counts digits
    code = main(["run", "--problem", "quadratic", "--eps", "1e-320", "--max-outer", "1"])
    assert code == 1
    assert "status: max_iters" in capsys.readouterr().out


def test_cli_run_unknown_problem_exits_2(capsys):
    code = main(["run", "--problem", "nope"])
    err = capsys.readouterr().err
    assert code == 2
    assert "configuration error" in err and "problem" in err


@pytest.mark.parametrize("command, flags", [
    ("run", []),
    ("sweep-eps", ["--eps-start", "1e-1", "--eps-stop", "1e-3", "--eps-points", "3"]),
])
def test_cli_unwritable_out_exits_2_before_any_solve(command, flags, tmp_path, monkeypatch, capsys):
    # an output directory under a regular file is a configuration error,
    # found before any solve rather than after it
    blocker = tmp_path / "file"
    blocker.write_text("")
    solves = []
    monkeypatch.setattr("arplr.harness.solve", lambda *args: solves.append(args))
    code = main([command, "--problem", "quadratic", *flags, "--out", str(blocker / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("configuration error: out:")
    assert solves == []


def test_cli_check_oracle(capsys):
    assert main(["check-oracle", "--problem", "rosenbrock"]) == 0
    out = capsys.readouterr().out
    assert "oracle check: ok" in out


def test_cli_sweep_eps(tmp_path, capsys):
    code = main(
        [
            "sweep-eps", "--problem", "double_well",
            "--eps-start", "1e-1", "--eps-stop", "1e-3", "--eps-points", "3",
            "--out", str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "theoretical exponent: 1.5" in out
    assert "sweep check: ok" in out


def test_cli_sweep_mesh(capsys):
    code = main(["sweep-mesh", "--problem", "pendulum", "--mesh", "8,16", "--eps", "1e-2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "mesh-independence check (factor 2): ok" in out


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "# experiment settings\n"
        "problem = double_well\n"
        "n = 4\n"
        "eps = 1e-3\n"
        "seed = 3\n"
    )
    code = main(["run", "--config", str(cfgfile), "--eps", "1e-5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "status: converged" in out


def test_cli_config_file_unknown_key(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("problemo = quadratic\n")
    code = main(["run", "--config", str(cfgfile)])
    assert code == 2
    assert "unknown key" in capsys.readouterr().err


def test_record_file_is_parseable(tmp_path):
    cfg = ExperimentConfig(problem="double_well", epsilon=1e-4, out=str(tmp_path))
    run, _, path = run_single(cfg)
    comments, header, rows = _read_table(path, IterationRecord)
    assert comments[0] == "# arplr run record"
    assert header == [f.name for f in fields(IterationRecord)]
    assert len(rows) == run.total_iterations > 0
    assert rows == list(run.records)
    assert all(Termination(row.inner_termination) for row in rows)


@pytest.mark.parametrize("command", ["run", "sweep-eps", "sweep-mesh", "check-oracle"])
def test_solve_subcommands_share_the_flags(command, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "_cmd_run", lambda args: seen.append(cli._build_config(args)) or 0)
    monkeypatch.setattr(cli, "_cmd_sweep_eps", cli._cmd_run)
    monkeypatch.setattr(cli, "_cmd_sweep_mesh", cli._cmd_run)
    monkeypatch.setattr(cli, "_cmd_check_oracle", cli._cmd_run)
    assert main([command, "--mesh", "8,16", "--eps-points", "3", "--n", "5"]) == 0
    assert (seen[0].mesh, seen[0].eps_points, seen[0].n) == ((8, 16), 3, 5)


_SAMPLES = {int: ("7", 7), float: ("0.25", 0.25), str: ("zeros", "zeros"), tuple: ("8,16", (8, 16))}


@pytest.mark.parametrize(
    "key,name",
    [(f.name, f.name) for f in fields(ExperimentConfig)]
    + [("eps", "epsilon"), ("max_outer", "max_outer_iters"), ("inner_max", "inner_max_iters")],
)
def test_every_config_field_is_a_flag_and_a_key(key, name, tmp_path, monkeypatch):
    text, value = _SAMPLES[_field_type(ExperimentConfig, name)]
    assert getattr(ExperimentConfig(), name) != value
    seen = []
    monkeypatch.setattr(cli, "_cmd_run", lambda args: seen.append(cli._build_config(args)) or 0)
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(f"{key} = {text}\n")
    assert main(["run", "--" + key.replace("_", "-"), text]) == 0
    assert main(["run", "--config", str(cfgfile)]) == 0
    assert [getattr(cfg, name) for cfg in seen] == [value, value]


def test_cli_malformed_config_value_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("problem = quadratic\neps = abc\n")
    assert main(["run", "--config", str(cfgfile)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "line 2" in err and "epsilon" in err


def test_cli_invalid_norm_exponent_exits_2(capsys):
    assert main(["run", "--problem", "quadratic", "--r", "0.5"]) == 2
    err = capsys.readouterr().err
    assert "configuration error: r:" in err


def test_cli_negative_norm_exponent_exits_2(capsys):
    # only r = 0 selects the problem's own space
    assert main(["run", "--problem", "quadratic", "--r", "-3"]) == 2
    assert "configuration error: r:" in capsys.readouterr().err


def test_cli_infinite_sigma0_exits_2(capsys):
    # an infinite start weight would end on sigma_overflow before any step
    assert main(["run", "--problem", "quadratic", "--sigma0", "inf"]) == 2
    captured = capsys.readouterr()
    assert "configuration error: sigma0" in captured.err
    assert captured.out == ""


def test_cli_problem_size_zero_exits_2(capsys):
    assert main(["run", "--problem", "quadratic", "--n", "0"]) == 2
    assert "configuration error: n must be at least 1" in capsys.readouterr().err


def test_cli_run_rejects_sweep_flags(capsys):
    argv = ["run", "--problem", "quadratic", "--mesh", "8,16", "--eps-start", "0.1"]
    assert main(argv) == 2
    err = capsys.readouterr()
    assert "configuration error: eps_start: not used by 'run'" in err.err
    assert err.out == ""


def test_cli_sweep_mesh_rejects_problem_size(capsys):
    assert main(["sweep-mesh", "--problem", "pendulum", "--mesh", "8,16", "--n", "500"]) == 2
    err = capsys.readouterr()
    assert "configuration error: n: not used by 'sweep-mesh'" in err.err
    assert err.out == ""


def test_cli_sweep_eps_rejects_single_accuracy(capsys):
    argv = ["sweep-eps", "--problem", "double_well", "--eps", "1e-3",
            "--eps-start", "1e-1", "--eps-stop", "1e-2", "--eps-points", "2"]
    assert main(argv) == 2
    assert "configuration error: epsilon: not used by 'sweep-eps'" in capsys.readouterr().err


def test_cli_check_oracle_rejects_solve_flags(capsys):
    # it checks every order the problem supplies, whatever --p says
    argv = ["check-oracle", "--problem", "double_well", "--n", "8", "--p", "1", "--r", "1.5"]
    assert main(argv) == 2
    err = capsys.readouterr()
    assert "configuration error: r: not used by 'check-oracle'" in err.err
    assert err.out == ""
    assert main(["check-oracle", "--problem", "double_well", "--n", "8", "--beta", "1",
                 "--seed", "3"]) == 0
    assert "oracle check: ok" in capsys.readouterr().out
    assert main(["check-oracle", "--problem", "quadratic", "--seed", "-1"]) == 2
    assert "configuration error: seed:" in capsys.readouterr().err


def test_cli_config_file_may_carry_fields_a_subcommand_ignores(tmp_path, capsys):
    # one file can serve several subcommands; only explicit flags are checked
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("problem = quadratic\nmesh = 8,16\neps_start = 0.1\n")
    assert main(["run", "--config", str(cfgfile)]) == 0
    assert "status: converged" in capsys.readouterr().out


@pytest.mark.parametrize(
    "cfg,field",
    [
        (ExperimentConfig(problem="quadratic", n=0), "n"),
        (ExperimentConfig(problem="pendulum", n=2), "n"),
        (ExperimentConfig(problem="holder", p=1, beta=1.0), "beta"),
        (ExperimentConfig(problem="holder", p=2), "p"),
        (ExperimentConfig(problem="quadratic", r=0.5), "r"),
        (ExperimentConfig(problem="quadratic", x0="1,2,3,4,5,nan"), "x0"),
        (ExperimentConfig(problem="quadratic", x0="1,2,3,4,5,1e400"), "x0"),
        (ExperimentConfig(problem="quadratic", x0="random", seed=-1), "seed"),
    ],
    ids=["quadratic-n0", "pendulum-n2", "holder-beta1", "holder-p2", "quadratic-r0.5",
         "quadratic-x0-nan", "quadratic-x0-inf", "quadratic-seed-1"],
)
def test_build_errors_name_the_field(cfg, field):
    with pytest.raises(ConfigError, match=f"^{field}\\b"):
        cfg.build()
