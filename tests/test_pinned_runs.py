"""The pinned runs: trajectories every change keeps bit for bit unless it
says why.  Each entry is a label, the ``ExperimentConfig`` of one solve and
its pins: outer, successful and inner iterations, f and derivative
evaluations, ``repr(f_final)`` and the sha256 of the record file of
``harness.run_single``, which holds every iteration's values to the last
bit.  The runs: the built-in suite without Rosenbrock and two accuracy
sweeps, with the seed code's counters; the double well n = 96, p = 3 from
random starts; Rosenbrock, p = 3; the pendulum at mesh 32 in l^1.5 and l^3
from sine waves and in l^2 at 1e-4, and at mesh 128 in l^1.5 (the record
that ``arplr run --n 128 --r 1.5`` writes); and six runs whose records
``test_cli_writes_the_pinned_record`` also writes through ``arplr run``.
A change that moves bits on purpose pastes in the entry its failure prints
(a ``ci-`` entry's digest is also that record's) and says in CHANGES.md
which entries moved, from what, and why.
"""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from arplr.cli import main
from arplr.harness import ExperimentConfig, run_single

_WAVE = math.sqrt(1.0 / 32) * np.sin(math.pi * np.arange(1, 32) * (1.0 / 32))


def _sine(a: float) -> str:
    """x0 of the pendulum at mesh 32: ``a sqrt(h) sin(pi t)``."""
    return ",".join(repr(float(v)) for v in a * _WAVE)


_RUNS = [
    # label, config, (outer, successful, inner, f_evals, deriv_evals), repr(f_final),
    # sha256 of the record file
    ("quadratic-n6-r2-p2", dict(problem="quadratic", r=2.0, epsilon=1e-5),
     (10, 10, 18, 11, 11), "-1.7211677211658274",
     "6db97009c2198e266111a5dff62e8656a52a6dd49f4e84e472723bbb0efb14da"),
    ("double_well-n4-r2-p2", dict(problem="double_well", r=2.0, epsilon=1e-5),
     (5, 5, 5, 6, 6), "-0.9999999999999973",
     "31ea3802338638176074d47d7d895c92a9bdece9b9dfc4d9a848febc701e4ed7"),
    ("double_well-n4-r2-p3", dict(problem="double_well", r=2.0, p=3, epsilon=1e-5),
     (5, 4, 5, 6, 5), "-1.0",
     "738349ef763499e39cfd24f0d34d5adc52a08e5a44ed8f688e66125478aad098"),
    ("holder0.5-n4-p1", dict(problem="holder", p=1, beta=0.5, epsilon=1e-5),
     (16, 16, 16, 17, 17), "3.1577257333911167e-16",
     "2c8a6ec8a7cc505e56fb01bd431127244e4eab3552a9d9c556d24a42c84b3faa"),
    ("holder0.8-n4-p1", dict(problem="holder", p=1, beta=0.8, epsilon=1e-5),
     (7, 7, 7, 8, 8), "9.942817805073173e-14",
     "b7f6c1be09ba5044084f53f312be1165ca06dd83f96455aa3079eccc549e1e63"),
    ("pendulum32-r2-p2", dict(problem="pendulum", epsilon=1e-5),
     (6, 6, 2816, 7, 7), "1.0000000000008022",
     "de4a653d0e8b6c31ebd1028aeee0708c6c3c4b764978d73ed7289cb78304bc24"),
    ("double_well-eps0", dict(problem="double_well", epsilon=0.1),
     (3, 3, 3, 4, 4), "-0.999656076617128",
     "621fb5da0c1098a63f40ff3517d2133958adbcdc84265da364b8efab335797cb"),
    ("double_well-eps1", dict(problem="double_well", epsilon=0.01),
     (4, 4, 4, 5, 5), "-0.9999999322549116",
     "d94e148b551b1a37ec3d993774ef93bc7460dfcdf8e3539d4a1c4ea2a582cce1"),
    ("double_well-eps2", dict(problem="double_well", epsilon=0.001),
     (4, 4, 4, 5, 5), "-0.9999999322549116",
     "46d3caa63496874d83260bb2e05f3f91b652bce83dfed476c5a8211bbaf01a5b"),
    ("double_well-eps3", dict(problem="double_well", epsilon=0.0001),
     (5, 5, 5, 6, 6), "-0.9999999999999973",
     "4810a24f01f3c8f76c463c423ccd0226c78848a97fa2a3bbb2159c2e75fdab1e"),
    ("holder-eps0", dict(problem="holder", p=1, beta=0.5, epsilon=0.1),
     (4, 4, 4, 5, 5), "0.00033882295212907",
     "344a807227d8f754e2ca4befc40da849c6bb42d2c9f036db61d0380b1b418645"),
    ("holder-eps1", dict(problem="holder", p=1, beta=0.5, epsilon=0.01),
     (7, 7, 7, 8, 8), "3.329072681908435e-07",
     "1f8c8fa0e1fa927c59efe947a2b5e515059a484aa60f4d54f8e41e01f869506a"),
    ("holder-eps2", dict(problem="holder", p=1, beta=0.5, epsilon=0.001),
     (10, 10, 10, 11, 11), "3.270948692167445e-10",
     "60b559141cdf07a652617182246566b0bea28a4a3b27e12943a2645c50038823"),
    ("holder-eps3", dict(problem="holder", p=1, beta=0.5, epsilon=0.0001),
     (13, 13, 13, 14, 14), "3.213839519015405e-13",
     "73d21aa5a12499199f3ee77e855fbf76cd25cd704e0863c3822413f16d2dfb9f"),
    ("dw96-r1.5-p3-seed1", dict(problem="double_well", n=96, r=1.5, p=3, x0="random", seed=1),
     (55, 35, 69, 56, 36), "-23.99999999999423",
     "b36e272231ab79a450fa5b2882b8381f625c3b1c1b62c722eb894c3721bf89a9"),
    ("dw96-r1.5-p3-seed2", dict(problem="double_well", n=96, r=1.5, p=3, x0="random", seed=2),
     (33, 20, 51, 34, 21), "-23.999999999990585",
     "32528c45c5cd1566adf97a7b76b59917bf18f841096a6e2e31004a0a5c8b5206"),
    ("dw96-r3-p3-seed3", dict(problem="double_well", n=96, r=3.0, p=3, x0="random", seed=3),
     (12, 10, 34, 13, 11), "-23.99999999999808",
     "4e7898276d3ed2044982c59c64dfcdf73be5c2208e13d00d72290e25ac13ce02"),
    ("dw96-r3-p3-seed4", dict(problem="double_well", n=96, r=3.0, p=3, x0="random", seed=4),
     (13, 11, 35, 14, 12), "-23.9999999999976",
     "f8893b524e2c39fecd64fbf69374943a5944be8a7319777bf07f39c6cf790f4c"),
    ("rosenbrock-r2-p3", dict(problem="rosenbrock", r=2.0, p=3, epsilon=1e-5),
     (41, 18, 6961, 42, 19), "5.323737193415664e-11",
     "60773cd6521d51af9260aecabcb202df171b0ed993c297f3a800ccedd72625bb"),
    ("pendulum32-r1.5-a1.3", dict(problem="pendulum", r=1.5, epsilon=1e-4, x0=_sine(1.3)),
     (11, 11, 3116, 12, 12), "1.000000000442719",
     "c033b0ed7aec594c384a3d1f4dcd0211ab590237d244d43ab800c694d0ec84a5"),
    ("pendulum32-r1.5-a2.7", dict(problem="pendulum", r=1.5, epsilon=1e-4, x0=_sine(2.7)),
     (16, 16, 3514, 17, 17), "1.0000000001856595",
     "aa5a3535803b25f3d17c6eebe398d413fa15377420db89b3625c0ed2e1ccd661"),
    ("pendulum32-r3-a1.3", dict(problem="pendulum", r=3.0, epsilon=1e-4, x0=_sine(1.3)),
     (5, 5, 2306, 6, 6), "1.0000000000227303",
     "82495644db05ebb938273b532023931938e07b966bc765bb958d968b66ae1da8"),
    ("pendulum32-r3-a2.7", dict(problem="pendulum", r=3.0, epsilon=1e-4, x0=_sine(2.7)),
     (6, 6, 2446, 7, 7), "1.0000000000226685",
     "4c4fe46f7b677ba7ead5e6a8628589f7b463a55d53f7ca481519c3e8b688e304"),
    ("pendulum32-r2-eps1e-4", dict(problem="pendulum", epsilon=1e-4, inner_max_iters=600_000),
     (6, 6, 2296, 7, 7), "1.0000000000800362",
     "2194df6757ea733aa813fc3cd4ba2a0234108fc71f6cec2d739b098a74746a2a"),
    ("pendulum128-r1.5", dict(problem="pendulum", n=128, r=1.5, epsilon=1e-4,
                              inner_max_iters=600_000),
     (21, 21, 34319, 22, 22), "1.0000000006122207",
     "49fbe73fc785e7e4c489c481bdd7407e3584aad89f9856fbdc247fb26aa4152a"),
    ("ci-pendulum16-r1.5", dict(problem="pendulum", n=16, r=1.5, epsilon=1e-3),
     (11, 11, 518, 12, 12), "1.0000000126412358",
     "5e6767bb15ebf8c39e6c7ab45c32754cdc0a3dbe813180ae38c15f97360350bf"),
    ("ci-pendulum16-r2", dict(problem="pendulum", n=16, r=2.0, epsilon=1e-3),
     (6, 6, 448, 7, 7), "1.0000000072468584",
     "c371599f505760318b47d21a5c4d30d9e4a3fbe6606703dd1b2c843441dd3c39"),
    ("ci-pendulum16-r3", dict(problem="pendulum", n=16, r=3.0, epsilon=1e-3),
     (6, 6, 379, 7, 7), "1.0000000035516183",
     "208d0a886e32b764f13f56c6362d92ffc84f4aaee079abeddc7226b9ea14e017"),
    ("ci-double_well8-r1.5-p3", dict(problem="double_well", n=8, r=1.5, p=3, x0="random", seed=3),
     (10, 8, 15, 11, 9), "-1.9999999999995275",
     "7465f9d79a95314434778d9efd1f302a7e8b5bd76f231c664c9bbcdcce6d6c20"),
    ("ci-double_well8-r2-p3", dict(problem="double_well", n=8, r=2.0, p=3, x0="random", seed=3),
     (8, 6, 9, 9, 7), "-2.0",
     "8661531f3d990e333ebac4b4544905da7f661ac2c2aebf4b24e1025e274e3ba0"),
    ("ci-double_well8-r3-p3", dict(problem="double_well", n=8, r=3.0, p=3, x0="random", seed=3),
     (9, 6, 15, 10, 7), "-1.999999999997165",
     "cd9fa2574968866fa4c29e3e6fd89ff019ed46564cf7bb822b5085736e867e8a"),
]


@pytest.mark.parametrize(
    "label, config, counters, f_final, digest", [pytest.param(*e, id=e[0]) for e in _RUNS]
)
def test_pinned_run(label, config, counters, f_final, digest, tmp_path):
    run, _, path = run_single(ExperimentConfig(out=str(tmp_path), **config))
    got_digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    got = (
        run.total_iterations,
        run.successes,
        sum(rec.inner_iters for rec in run.records),
        run.f_evals,
        run.deriv_evals,
    )
    assert (got, repr(run.f_final), got_digest) == (counters, f_final, digest), (
        f"{label} moved off its pins; if on purpose, its entry now ends\n"
        f'     {got}, "{run.f_final!r}",\n     "{got_digest}"),'
    )


@pytest.mark.parametrize(
    "config, digest", [pytest.param(e[1], e[4], id=e[0]) for e in _RUNS if e[0].startswith("ci-")]
)
def test_cli_writes_the_pinned_record(config, digest, tmp_path):
    # the same solve through ``arplr run``, one flag per config field
    flags = [a for k, v in config.items() for a in (f"--{k.replace('_', '-')}", str(v))]
    assert main(["run", *flags, "--out", str(tmp_path)]) == 0
    (path,) = tmp_path.glob("run_*.txt")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
