"""The pinned runs: trajectories every change keeps bit for bit unless it
says why.  Each entry is a label, the ``ExperimentConfig`` of one solve and
its pins: outer, successful and inner iterations, f and derivative
evaluations, ``repr(f_final)`` and the sha256 of the record file of
``harness.run_single``, which holds every iteration's values to the last
bit.  The runs: the built-in suite without Rosenbrock and two accuracy
sweeps, with the seed code's counters; the double well n = 96, p = 3 from
random starts; Rosenbrock, p = 3; the pendulum at mesh 32 in l^1.5 and l^3
from sine waves and in l^2 at 1e-4; and six runs whose records
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
moved.
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
     "020edad38819cce8baea65290524a95c7d72dfab42216a1747238a799872532a"),
    ("double_well-n4-r2-p2", dict(problem="double_well", r=2.0, epsilon=1e-5),
     (5, 5, 5, 6, 6), "-0.9999999999999973",
     "5cf9706b9361fa81ae79c8b1b0d4fd641bfaae689f65e843d06af3d1250451c4"),
    ("double_well-n4-r2-p3", dict(problem="double_well", r=2.0, p=3, epsilon=1e-5),
     (5, 4, 5, 6, 5), "-1.0",
     "99fb44d1d4f14f86b3b81ff760bbdeab4fbc5514c1cbdc44e004ec2a448a7229"),
    ("holder0.5-n4-p1", dict(problem="holder", p=1, beta=0.5, epsilon=1e-5),
     (16, 16, 16, 17, 17), "3.1577257333911167e-16",
     "2c8a6ec8a7cc505e56fb01bd431127244e4eab3552a9d9c556d24a42c84b3faa"),
    ("holder0.8-n4-p1", dict(problem="holder", p=1, beta=0.8, epsilon=1e-5),
     (7, 7, 7, 8, 8), "9.942817805073173e-14",
     "b7f6c1be09ba5044084f53f312be1165ca06dd83f96455aa3079eccc549e1e63"),
    ("pendulum32-r2-p2", dict(problem="pendulum", epsilon=1e-5),
     (6, 6, 2816, 7, 7), "1.0000000000008022",
     "10f773a44bce2bbc39fafc5e52d8580d3170b98bc1649ce7ba59228e7c366f05"),
    ("double_well-eps0", dict(problem="double_well", epsilon=0.1),
     (3, 3, 3, 4, 4), "-0.999656076617128",
     "2bbe2de04548bec1a87ee5bf901e7647764c2fd7b524843b5f91f56a20851f87"),
    ("double_well-eps1", dict(problem="double_well", epsilon=0.01),
     (4, 4, 4, 5, 5), "-0.9999999322549116",
     "491057539c8c7edca98df830f73b1941c9682817774fc521b40c58342f1b0621"),
    ("double_well-eps2", dict(problem="double_well", epsilon=0.001),
     (4, 4, 4, 5, 5), "-0.9999999322549116",
     "6eafeb25c26aab833c7da6dd1c953194783275f20a2ae809e98eb24fdff9145e"),
    ("double_well-eps3", dict(problem="double_well", epsilon=0.0001),
     (5, 5, 5, 6, 6), "-0.9999999999999973",
     "3baf260735304e76d929f82f878086fb811486d00cfb84bee6caf1e2103cfce1"),
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
     "5af7651e4f4be7f5c4c04a8f15eb1bfc00b081c2453725a0674fa576403b7306"),
    ("dw96-r1.5-p3-seed2", dict(problem="double_well", n=96, r=1.5, p=3, x0="random", seed=2),
     (34, 19, 41, 35, 20), "-23.999999999992816",
     "c8bda60128f75013f5c84a837f387ca9802649b52a277aae8956ce5aeaaf692a"),
    ("dw96-r3-p3-seed3", dict(problem="double_well", n=96, r=3.0, p=3, x0="random", seed=3),
     (12, 10, 34, 13, 11), "-23.99999999999808",
     "6e27cf1a7ed6f98b6acb619bb67c05c13d30418f7209cf545c59d64292809502"),
    ("dw96-r3-p3-seed4", dict(problem="double_well", n=96, r=3.0, p=3, x0="random", seed=4),
     (13, 11, 35, 14, 12), "-23.9999999999976",
     "17ae2e2c5d69e7efe1cc8b30124ca9bfa038101fc1bd816bf9e243618f700e75"),
    ("rosenbrock-r2-p3", dict(problem="rosenbrock", r=2.0, p=3, epsilon=1e-5),
     (52, 25, 7151, 53, 26), "2.9959820993734785e-11",
     "49ae2a4ebc8823f44f2a3c3d18f5078df7d1ceb28bda749394c40ed2a52bd696"),
    ("pendulum32-r1.5-a1.3", dict(problem="pendulum", r=1.5, epsilon=1e-4, x0=_sine(1.3)),
     (11, 11, 3116, 12, 12), "1.000000000442719",
     "42486966d94653c172085e7e860e4b0c6ce65901cf01a091dcfbdd64fe759737"),
    ("pendulum32-r1.5-a2.7", dict(problem="pendulum", r=1.5, epsilon=1e-4, x0=_sine(2.7)),
     (16, 16, 3514, 17, 17), "1.0000000001856595",
     "ca5f75e1783af3175180342c3638ab7278a184016071213ec12b13dd80d3b3ff"),
    ("pendulum32-r3-a1.3", dict(problem="pendulum", r=3.0, epsilon=1e-4, x0=_sine(1.3)),
     (5, 5, 2304, 6, 6), "1.0000000000231903",
     "2cafc05ea92ff4ed66c0c39082af675bf82cc2ccc9eafd9f872f2295117f8341"),
    ("pendulum32-r3-a2.7", dict(problem="pendulum", r=3.0, epsilon=1e-4, x0=_sine(2.7)),
     (6, 6, 2446, 7, 7), "1.0000000000226752",
     "32038215485c31c42084f170382875c5c3357a4d835e565e58c4b2ca85042f9f"),
    ("pendulum32-r2-eps1e-4", dict(problem="pendulum", epsilon=1e-4, inner_max_iters=600_000),
     (6, 6, 2296, 7, 7), "1.0000000000800362",
     "d0ce3c8e2353b3ab7ff2682b0e8a7a909dd1ae40c20c25408cd0d715268f88b3"),
    ("ci-pendulum16-r1.5", dict(problem="pendulum", n=16, r=1.5, epsilon=1e-3),
     (11, 11, 518, 12, 12), "1.0000000126412358",
     "a4310ba8e81441523fe6a0cb22d19b7a9380495bb229b095d6279387468c1c21"),
    ("ci-pendulum16-r2", dict(problem="pendulum", n=16, r=2.0, epsilon=1e-3),
     (6, 6, 448, 7, 7), "1.0000000072468584",
     "f5d6d8aeaeb727f4895734fb3df10ef553a31cb0ed383e96c6635cf699ae4b00"),
    ("ci-pendulum16-r3", dict(problem="pendulum", n=16, r=3.0, epsilon=1e-3),
     (6, 6, 379, 7, 7), "1.0000000035508838",
     "af612256ff8083e41c0839bdd326f31b53e8b3ce146e1eab1b5719e696962425"),
    ("ci-double_well8-r1.5-p3", dict(problem="double_well", n=8, r=1.5, p=3, x0="random", seed=3),
     (10, 8, 15, 11, 9), "-1.9999999999995275",
     "7731c930689b65051adfac1736dcf45a36e81ca2be38cef838f1ccf31a860312"),
    ("ci-double_well8-r2-p3", dict(problem="double_well", n=8, r=2.0, p=3, x0="random", seed=3),
     (8, 6, 9, 9, 7), "-2.0",
     "091f94dfbf5cfb401e109b2b235fcbda3738e039d4d3428760e8f4b355197a53"),
    ("ci-double_well8-r3-p3", dict(problem="double_well", n=8, r=3.0, p=3, x0="random", seed=3),
     (9, 6, 15, 10, 7), "-1.999999999997165",
     "5461623adf552464ff960d6ad4f43b9ef7307d33c34762469ff01892caaa7886"),
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
