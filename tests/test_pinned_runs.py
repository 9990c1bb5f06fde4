"""The pinned runs: trajectories every change keeps bit for bit unless it
says why.  Each entry is a label, the ``ExperimentConfig`` of one solve and
its pins: outer, successful and inner iterations, f and derivative
evaluations, ``repr(f_final)`` and the sha256 of the record file of
``harness.run_single``, which holds every iteration's values to the last
bit.  The runs: the built-in suite without Rosenbrock and two accuracy
sweeps, with the seed code's counters; the double well n = 96, p = 3 from
random starts; Rosenbrock, p = 3; the pendulum at mesh 32 in l^1.5 and l^3
from sine waves and in l^2 at 1e-4, and at mesh 128 in l^1.5 (the record
that CI's ``arplr run --n 128 --r 1.5`` writes); and six runs whose records
``test_cli_writes_the_pinned_record`` also writes through ``arplr run``.  A
change that moves bits on purpose pastes in the entry its failure prints.
Sending every convex line search through one root search, which takes a
bracket end whose slope is at most 1e-12 of the initial slope's size, moved
three l^1.5 entries, and sending every grid scan through the row-wise l^r
pass moved the three r = 2, p = 3 ones: four only in the digest,
``rosenbrock-r2-p3`` and ``pendulum32-r1.5-a1.3`` also in the last digits
of ``f_final``; no counter moved.  Taking the r = 2 root with a correctly
rounded square root, where ``** 0.5`` rounded a few sums differently,
moved ``pendulum32-r2-p2`` and ``pendulum32-r2-eps1e-4`` in the digest and
``rosenbrock-r2-p3`` also in the last digits of ``f_final``; no counter
moved.  Recording the model decrease as -T_k(s_k) from the Taylor terms
alone, where f(x_k) - (f(x_k) + T_k(s_k)) rounded at the spacing of
doubles near f(x_k), moved every entry but the six p = 1 Hoelder runs in
the digest only, whose records' ``model_decrease`` and ``rho`` columns
changed in the last bits; no counter and no ``f_final`` moved.  Carrying
the sum of squares of an r = 2, p = 2 inner step, whose norm is then the
square root of the BLAS sum, moved ``ci-pendulum16-r2`` in the digest only:
from its third record on the step, iterate, dual gradient norm, model
decrease and rho columns changed in the last bits; no counter and no
``f_final`` moved.
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
     (10, 10, 18, 11, 11), "-1.7211677211658276",
     "0396fcc3d5f288363cc46383ed933c40bbe7f67210ebfca4fd7da8f82c2581bf"),
    ("double_well-n4-r2-p2", dict(problem="double_well", r=2.0, epsilon=1e-5),
     (5, 5, 5, 6, 6), "-0.9999999999999973",
     "31ea3802338638176074d47d7d895c92a9bdece9b9dfc4d9a848febc701e4ed7"),
    ("double_well-n4-r2-p3", dict(problem="double_well", r=2.0, p=3, epsilon=1e-5),
     (5, 4, 5, 6, 5), "-1.0",
     "184c2ff30414f7c45a15d46d9e894c2f6b3f223f52641cd5df306b1bc6af442f"),
    ("holder0.5-n4-p1", dict(problem="holder", p=1, beta=0.5, epsilon=1e-5),
     (16, 16, 16, 17, 17), "3.1577257333911167e-16",
     "2c8a6ec8a7cc505e56fb01bd431127244e4eab3552a9d9c556d24a42c84b3faa"),
    ("holder0.8-n4-p1", dict(problem="holder", p=1, beta=0.8, epsilon=1e-5),
     (7, 7, 7, 8, 8), "9.942817805073173e-14",
     "b7f6c1be09ba5044084f53f312be1165ca06dd83f96455aa3079eccc549e1e63"),
    ("pendulum32-r2-p2", dict(problem="pendulum", epsilon=1e-5),
     (6, 6, 2816, 7, 7), "1.0000000000008022",
     "08256c62fcf2050c7cf3f13701d74b7695585c704c373bb3ac055e505a962d86"),
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
     (48, 29, 59, 49, 30), "-23.999999999980858",
     "34e1ffa8eb880287bc519293f55bc3b2b826e6f6502810b5f78909f83b3596a6"),
    ("dw96-r1.5-p3-seed2", dict(problem="double_well", n=96, r=1.5, p=3, x0="random", seed=2),
     (34, 19, 41, 35, 20), "-23.999999999992816",
     "3483b4cf438b57865f045696fda0738ce6b66d4bd513bfa20ae4a7730d4232a7"),
    ("dw96-r3-p3-seed3", dict(problem="double_well", n=96, r=3.0, p=3, x0="random", seed=3),
     (12, 10, 34, 13, 11), "-23.99999999999808",
     "519213947c7b1a802f789898c54357301a00a42de46d7f9641ba12d398f80c97"),
    ("dw96-r3-p3-seed4", dict(problem="double_well", n=96, r=3.0, p=3, x0="random", seed=4),
     (13, 11, 35, 14, 12), "-23.9999999999976",
     "73687a19a8f60fe1abff936e569c0e926b1039079f4360dc5cf0e478d800caa5"),
    ("rosenbrock-r2-p3", dict(problem="rosenbrock", r=2.0, p=3, epsilon=1e-5),
     (52, 25, 7151, 53, 26), "2.9959820993734785e-11",
     "95ab9572a88e1314541e4a4a077d69c122ca9fbf1a6b4a921b5c7fb2fc36879f"),
    ("pendulum32-r1.5-a1.3", dict(problem="pendulum", r=1.5, epsilon=1e-4, x0=_sine(1.3)),
     (11, 11, 3116, 12, 12), "1.000000000442719",
     "f70c8decbe6736c57e53469f52c0e3f8a6e8c1bcd576e889cc5ac81a0a831a82"),
    ("pendulum32-r1.5-a2.7", dict(problem="pendulum", r=1.5, epsilon=1e-4, x0=_sine(2.7)),
     (16, 16, 3514, 17, 17), "1.0000000001856595",
     "08ff2f48193707af3c2bbd489bd81d3c245e732a2d597011f669a5d8835c53d4"),
    ("pendulum32-r3-a1.3", dict(problem="pendulum", r=3.0, epsilon=1e-4, x0=_sine(1.3)),
     (5, 5, 2304, 6, 6), "1.0000000000231903",
     "6116c91a7ebdd602f3d5fef46c6e4e8413f40f7c4f4e975a74c2343b6a4a69c1"),
    ("pendulum32-r3-a2.7", dict(problem="pendulum", r=3.0, epsilon=1e-4, x0=_sine(2.7)),
     (6, 6, 2446, 7, 7), "1.0000000000226752",
     "04e57ef92efe272bcca143f8814100295c2dc034063e9949dc3c7a2cdf53b2b8"),
    ("pendulum32-r2-eps1e-4", dict(problem="pendulum", epsilon=1e-4, inner_max_iters=600_000),
     (6, 6, 2296, 7, 7), "1.0000000000800362",
     "0dd86d4be0439da49b9d800a72955c6b18f3b56f1e4640258b4582138006a552"),
    ("pendulum128-r1.5", dict(problem="pendulum", n=128, r=1.5, epsilon=1e-4,
                              inner_max_iters=600_000),
     (21, 21, 34105, 22, 22), "1.000000000644245",
     "7c7a31d9b76f1835d1618d13e2da9e5302adcdd11eb77f678b67641185a2bf54"),
    ("ci-pendulum16-r1.5", dict(problem="pendulum", n=16, r=1.5, epsilon=1e-3),
     (11, 11, 518, 12, 12), "1.0000000126412358",
     "0794b0871e24b0ea01377c0749a241ba1f5e64245e713d16bc408f6af1ff45df"),
    ("ci-pendulum16-r2", dict(problem="pendulum", n=16, r=2.0, epsilon=1e-3),
     (6, 6, 448, 7, 7), "1.0000000072468584",
     "63ba9e3f49383336b3f292ddbf9154e8bbb2848fd29ced1fdeecc7b5e8a59db7"),
    ("ci-pendulum16-r3", dict(problem="pendulum", n=16, r=3.0, epsilon=1e-3),
     (6, 6, 379, 7, 7), "1.0000000035508838",
     "674caa90662882f533ad5dff37ebb1f6f1f2eb84211d3bd47e6feaed358d513b"),
    ("ci-double_well8-r1.5-p3", dict(problem="double_well", n=8, r=1.5, p=3, x0="random", seed=3),
     (10, 8, 15, 11, 9), "-1.9999999999995275",
     "4c29aaea92766d013323726633792f1b670b718e25011ca6b1d5a09df204fe60"),
    ("ci-double_well8-r2-p3", dict(problem="double_well", n=8, r=2.0, p=3, x0="random", seed=3),
     (8, 6, 9, 9, 7), "-2.0",
     "adb15f4bb17bb321da6df14b93b3fa90fd43206da847af8a98f4c59443285706"),
    ("ci-double_well8-r3-p3", dict(problem="double_well", n=8, r=3.0, p=3, x0="random", seed=3),
     (9, 6, 15, 10, 7), "-1.999999999997165",
     "61454aebe12a9247457bcbda71ecc5ab1038442007a6038273c61b52091f2264"),
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
