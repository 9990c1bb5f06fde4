"""The pinned runs: trajectories every change keeps bit for bit unless it
says why.  Each entry is a label, the ``ExperimentConfig`` of one solve and
its pins: outer, successful and inner iterations, f and derivative
evaluations, ``repr(f_final)`` and the sha256 of the record file of
``harness.run_single``, which holds every iteration's values to the last
bit.  The runs: the built-in suite without Rosenbrock and two accuracy
sweeps, as the seed code recorded them; the double well n = 96, p = 3 from
random starts; Rosenbrock, p = 3; the pendulum at mesh 32 in l^1.5 and l^3
from sine waves and in l^2 at 1e-4; and the six records CI compares.  A
change that moves bits on purpose pastes in the entry its failure prints.
"""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from arplr.harness import ExperimentConfig, run_single

_WAVE = math.sqrt(1.0 / 32) * np.sin(math.pi * np.arange(1, 32) * (1.0 / 32))


def _sine(a: float) -> str:
    """x0 of the pendulum at mesh 32: ``a sqrt(h) sin(pi t)``."""
    return ",".join(repr(float(v)) for v in a * _WAVE)


_RUNS = [
    # label, config, (outer, successful, inner, f_evals, deriv_evals), repr(f_final),
    # sha256 of the record file
    ("quadratic-n6-r2-p2", dict(problem="quadratic", r=2.0, epsilon=1e-5),
     (10, 10, 18, 11, 11), "-1.721167721165828",
     "b1ebf7fd2c41834da77ee5df8f245749982fbaf6df70981044a0c80ebe78362a"),
    ("double_well-n4-r2-p2", dict(problem="double_well", r=2.0, epsilon=1e-5),
     (5, 5, 5, 6, 6), "-0.9999999999999973",
     "e4409fa14b166c47a2d5493120d81cc59c8e91c3c68b18e14bbb9a895ffeef46"),
    ("double_well-n4-r2-p3", dict(problem="double_well", r=2.0, p=3, epsilon=1e-5),
     (5, 4, 5, 6, 5), "-1.0",
     "632deab6f3bf54a71a2a8124e0013715383bb744d552ede672ab3472e2ea9022"),
    ("holder0.5-n4-p1", dict(problem="holder", p=1, beta=0.5, epsilon=1e-5),
     (16, 16, 16, 17, 17), "3.1577257333911167e-16",
     "2c8a6ec8a7cc505e56fb01bd431127244e4eab3552a9d9c556d24a42c84b3faa"),
    ("holder0.8-n4-p1", dict(problem="holder", p=1, beta=0.8, epsilon=1e-5),
     (7, 7, 7, 8, 8), "9.942817805073173e-14",
     "b7f6c1be09ba5044084f53f312be1165ca06dd83f96455aa3079eccc549e1e63"),
    ("pendulum32-r2-p2", dict(problem="pendulum", epsilon=1e-5),
     (6, 6, 2816, 7, 7), "1.0000000000008054",
     "42b508d50e5b0eeaf2004cd04335676cb3d89aef0c33da34e531096253fa08b5"),
    ("double_well-eps0", dict(problem="double_well", epsilon=0.1),
     (3, 3, 3, 4, 4), "-0.99965607661713",
     "1bc543a845124a001faf7636a10b1d7c4dc3423965ee16a5991466b6d08495b3"),
    ("double_well-eps1", dict(problem="double_well", epsilon=0.01),
     (4, 4, 4, 5, 5), "-0.9999999322549116",
     "9565027d4c4f7518a103f05995011037e2ec95fa8d3f3454593e4db81f12697b"),
    ("double_well-eps2", dict(problem="double_well", epsilon=0.001),
     (4, 4, 4, 5, 5), "-0.9999999322549116",
     "bd8eeb617538ffca4eee328b9189a8fe49e6c227821c88c621cfdf0bf0045d59"),
    ("double_well-eps3", dict(problem="double_well", epsilon=0.0001),
     (5, 5, 5, 6, 6), "-0.9999999999999973",
     "b26a795c163666104f9b28ea6d071b66ea34a5d8c27fe53cb24aa5b96bc57904"),
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
     "ec6e64f8149516eb90cce564d75fed3e475665bfcad097ef12bbc9ea35e2d719"),
    ("dw96-r1.5-p3-seed2", dict(problem="double_well", n=96, r=1.5, p=3, x0="random", seed=2),
     (34, 19, 41, 35, 20), "-23.999999999992816",
     "417c553f0e91eaeb5cc8b41169363b4cbdf706b58b6370b38d01cbc09bc7ee17"),
    ("dw96-r3-p3-seed3", dict(problem="double_well", n=96, r=3.0, p=3, x0="random", seed=3),
     (12, 10, 34, 13, 11), "-23.99999999999808",
     "e6a7465d6cd25ae2e23696db672108b48e382e60080e1020e7f834409696a7fa"),
    ("dw96-r3-p3-seed4", dict(problem="double_well", n=96, r=3.0, p=3, x0="random", seed=4),
     (13, 11, 35, 14, 12), "-23.9999999999976",
     "31a67dddc38595bdf04b6c2d61865a925b9f46c56bf1f04265aa4ca3b3c72424"),
    ("rosenbrock-r2-p3", dict(problem="rosenbrock", r=2.0, p=3, epsilon=1e-5),
     (52, 25, 7151, 53, 26), "2.99599878492989e-11",
     "41f8d9c4335cc1dfed9956d9fe9f82d43b136f8a94f7df7d79c5aa6533439078"),
    ("pendulum32-r1.5-a1.3", dict(problem="pendulum", r=1.5, epsilon=1e-4, x0=_sine(1.3)),
     (11, 11, 3116, 12, 12), "1.0000000004427143",
     "5ea608cb0ed5637c1a1db7db33df0623aeeccb2999dd7a797ddb0ee1bfb90dc3"),
    ("pendulum32-r1.5-a2.7", dict(problem="pendulum", r=1.5, epsilon=1e-4, x0=_sine(2.7)),
     (16, 16, 3514, 17, 17), "1.0000000001856595",
     "42035ffe5738bdd764147955a5c7275beeaa40e0278c0c90e1eeae64e3bb0260"),
    ("pendulum32-r3-a1.3", dict(problem="pendulum", r=3.0, epsilon=1e-4, x0=_sine(1.3)),
     (5, 5, 2305, 6, 6), "1.0000000000229652",
     "2d627538dea3b1e6bd8ca9be99b692ec6da457ba43c1f8ddad1be76b4d32efbb"),
    ("pendulum32-r3-a2.7", dict(problem="pendulum", r=3.0, epsilon=1e-4, x0=_sine(2.7)),
     (6, 6, 2446, 7, 7), "1.0000000000226683",
     "2f97051da708e9a670344127c43fb8976ec4a7f7eebec2b0b3267f682af406df"),
    ("pendulum32-r2-eps1e-4", dict(problem="pendulum", epsilon=1e-4, inner_max_iters=600_000),
     (6, 6, 2296, 7, 7), "1.0000000000802856",
     "a47b8066e5141ed416f4b151f7f0767b6b890c893f9267399734ad3ea2bcf96d"),
    ("ci-pendulum16-r1.5", dict(problem="pendulum", n=16, r=1.5, epsilon=1e-3),
     (11, 11, 518, 12, 12), "1.0000000126412358",
     "41e8357a7972242560d9547ba2e8e9e12036befd667c93b1c4177ab0b5fd9c57"),
    ("ci-pendulum16-r2", dict(problem="pendulum", n=16, r=2.0, epsilon=1e-3),
     (6, 6, 448, 7, 7), "1.0000000072468618",
     "a19837904bc0483281e31191a865a195460584c68be47ad5857d16e39f7a6b93"),
    ("ci-pendulum16-r3", dict(problem="pendulum", n=16, r=3.0, epsilon=1e-3),
     (6, 6, 379, 7, 7), "1.000000003550523",
     "5dbd633e44d885bc2cb0cfc0e4f5413d0ed74a461571663d3441f99a4d36340e"),
    ("ci-double_well8-r1.5-p3", dict(problem="double_well", n=8, r=1.5, p=3, x0="random", seed=3),
     (10, 8, 15, 11, 9), "-1.9999999999995275",
     "f7fed76bc8e90c26895921cf71ae891a0837e3fda2a8c4fa9200ffbf8b643d98"),
    ("ci-double_well8-r2-p3", dict(problem="double_well", n=8, r=2.0, p=3, x0="random", seed=3),
     (8, 6, 9, 9, 7), "-2.0",
     "67aa64c822eb95658905e75c3ed083b245b83b2c92591f457436cf807da1d7ef"),
    ("ci-double_well8-r3-p3", dict(problem="double_well", n=8, r=3.0, p=3, x0="random", seed=3),
     (9, 6, 15, 10, 7), "-1.999999999997165",
     "2ddabdeadfd67d4038e5d99a1d5be7ccbd8254902376ec4142c4ca284934bc45"),
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
