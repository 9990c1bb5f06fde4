"""Problem oracles: objective values and derivative tensors up to order p.

Each oracle reports the Hoelder order ``beta`` of its highest derivative, a
global lower bound ``f_low`` when one is known, and — through
``holder_constant`` — an upper bound on the Hoelder constant of its order-p
derivative valid on a ball of a given radius, in the geometry of a given
space.  Constants are analytic where a closed form exists; `None` means no
usable bound is known and trajectory checks that need one are skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import NormedSpace
from .tensors import DiagonalTensor, SymmetricTensor, diagonal_tensor

__all__ = [
    "ProblemOracle",
    "QuadraticBowl",
    "DoubleWell",
    "HolderGradient",
    "Rosenbrock",
    "PendulumLattice",
    "SuiteEntry",
    "builtin_suite",
    "get_problem",
    "problem_ids",
    "fd_check_oracle",
    "holder_from_euclidean",
]


def _euclidean_embedding_factor(n: int, r: float) -> float:
    # sup of |v|_2 over the unit l^r sphere
    return float(n) ** max(0.0, 0.5 - 1.0 / r)


def holder_from_euclidean(l2_constant: float, n: int, r: float, order: int, beta: float) -> float:
    """Convert a Euclidean Hoelder constant of an order-``order`` derivative
    into a valid (possibly loose) constant for the l^r operator norm."""
    return l2_constant * _euclidean_embedding_factor(n, r) ** (order + beta)


class ProblemOracle:
    """Interface: dimension, objective, and symmetric derivative tensors."""

    name: str = "oracle"
    dim: int = 0
    max_order: int = 0
    beta: float = 1.0
    f_low: float | None = None

    def eval_f(self, x) -> float:
        raise NotImplementedError

    def eval_derivative(self, x, order: int) -> SymmetricTensor | DiagonalTensor:
        """The order-``order`` derivative at x; separable oracles return a
        ``DiagonalTensor`` for orders 2 and up, the pendulum a banded one."""
        raise NotImplementedError

    def holder_constant(self, space: NormedSpace, order: int, radius: float):
        """Upper bound on the order-``order`` derivative's Hoelder constant
        on the centered ball of the given radius, or None if unknown."""
        return None

    def default_x0(self) -> np.ndarray:
        return np.ones(self.dim)

    def default_space(self) -> NormedSpace:
        return NormedSpace(self.dim, 2.0)

    def _check_order(self, order: int):
        if not 1 <= order <= self.max_order:
            raise ValueError(
                f"problem '{self.name}' has derivatives of orders 1..{self.max_order}, "
                f"order {order} requested"
            )


class QuadraticBowl(ProblemOracle):
    """Strictly convex quadratic with diagonal curvature between 1 and 3."""

    def __init__(self, n: int = 6):
        self.name = "quadratic"
        self.dim = n
        self.max_order = 2
        self.beta = 1.0
        self.a = np.linspace(1.0, 3.0, n)
        self.b = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        self.f_low = float(-0.5 * np.sum(self.b ** 2 / self.a))

    def eval_f(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * np.dot(self.a * x, x) + np.dot(self.b, x))

    def eval_derivative(self, x, order: int) -> SymmetricTensor | DiagonalTensor:
        self._check_order(order)
        x = np.asarray(x, dtype=float)
        if order == 1:
            return SymmetricTensor(1, self.dim, self.a * x + self.b)
        return diagonal_tensor(2, self.a)

    def holder_constant(self, space, order, radius):
        if order == 2:
            return 0.0
        if order == 1:
            return holder_from_euclidean(float(self.a.max()), self.dim, space.r, 1, 1.0)
        return None

    def minimizer(self) -> np.ndarray:
        return -self.b / self.a


class DoubleWell(ProblemOracle):
    """Separable double well, sum of x_i^4/4 - x_i^2/2."""

    def __init__(self, n: int = 4):
        self.name = "double_well"
        self.dim = n
        self.max_order = 3
        self.beta = 1.0
        self.f_low = -n / 4.0

    def eval_f(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(np.sum(x ** 4 / 4.0 - x ** 2 / 2.0))

    def eval_derivative(self, x, order: int) -> SymmetricTensor | DiagonalTensor:
        self._check_order(order)
        x = np.asarray(x, dtype=float)
        if order == 1:
            return SymmetricTensor(1, self.dim, x ** 3 - x)
        if order == 2:
            return diagonal_tensor(2, 3.0 * x ** 2 - 1.0)
        return diagonal_tensor(3, 6.0 * x)

    def holder_constant(self, space, order, radius):
        # differences of the diagonal derivative tensors are controlled by
        # the max-abs coordinate, which the r-norm radius dominates
        if order == 2:
            return holder_from_euclidean(6.0 * radius, self.dim, space.r, 2, 1.0)
        if order == 3:
            return holder_from_euclidean(6.0, self.dim, space.r, 3, 1.0)
        return None

    def default_x0(self) -> np.ndarray:
        return 1.5 + 0.3 * np.linspace(0.0, 1.0, self.dim)


class HolderGradient(ProblemOracle):
    """Separable power objective, sum of |x_i|^(1+beta) / (1+beta).

    The gradient sign(x_i)|x_i|^beta is exactly beta-Hoelder; in the
    matching l^(1+beta) geometry the constant is 2^(1-beta) in every
    dimension, which is why that space is the default.
    """

    def __init__(self, n: int = 4, beta: float = 0.5):
        if not 0.0 < beta < 1.0:
            raise ValueError("beta must lie strictly between 0 and 1")
        self.name = f"holder{beta:g}"
        self.dim = n
        self.max_order = 1
        self.beta = beta
        self.f_low = 0.0

    def eval_f(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(np.sum(np.abs(x) ** (1.0 + self.beta)) / (1.0 + self.beta))

    def eval_derivative(self, x, order: int) -> SymmetricTensor:
        self._check_order(order)
        x = np.asarray(x, dtype=float)
        return SymmetricTensor(1, self.dim, np.sign(x) * np.abs(x) ** self.beta)

    def holder_constant(self, space, order, radius):
        if order != 1:
            return None
        excess = max(0.0, 1.0 / (self.beta * space.r_dual) - 1.0 / space.r)
        return 2.0 ** (1.0 - self.beta) * self.dim ** (self.beta * excess)

    def default_x0(self) -> np.ndarray:
        signs = np.where(np.arange(self.dim) % 2 == 0, 1.0, -1.0)
        return signs * (1.0 + np.arange(self.dim) / (2.0 * self.dim))

    def default_space(self) -> NormedSpace:
        return NormedSpace(self.dim, 1.0 + self.beta)


class Rosenbrock(ProblemOracle):
    """The two-dimensional banana valley."""

    def __init__(self):
        self.name = "rosenbrock"
        self.dim = 2
        self.max_order = 3
        self.beta = 1.0
        self.f_low = 0.0

    def eval_f(self, x) -> float:
        x1, x2 = np.asarray(x, dtype=float)
        return float((1.0 - x1) ** 2 + 100.0 * (x2 - x1 ** 2) ** 2)

    def eval_derivative(self, x, order: int) -> SymmetricTensor:
        self._check_order(order)
        x1, x2 = np.asarray(x, dtype=float)
        if order == 1:
            g = np.array(
                [
                    -2.0 * (1.0 - x1) - 400.0 * x1 * (x2 - x1 ** 2),
                    200.0 * (x2 - x1 ** 2),
                ]
            )
            return SymmetricTensor(1, 2, g)
        if order == 2:
            h = np.array(
                [
                    [2.0 - 400.0 * x2 + 1200.0 * x1 ** 2, -400.0 * x1],
                    [-400.0 * x1, 200.0],
                ]
            )
            return SymmetricTensor(2, 2, h)
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = 2400.0 * x1
        t[0, 0, 1] = t[0, 1, 0] = t[1, 0, 0] = -400.0
        return SymmetricTensor(3, 2, t)

    def holder_constant(self, space, order, radius):
        if order == 2:
            l2 = math.sqrt((2400.0 * radius) ** 2 + 480000.0)
            return holder_from_euclidean(l2, 2, space.r, 2, 1.0)
        if order == 3:
            return holder_from_euclidean(2400.0, 2, space.r, 3, 1.0)
        return None

    def default_x0(self) -> np.ndarray:
        return np.array([-1.2, 1.0])


class PendulumLattice(ProblemOracle):
    """Composite-trapezoid discretization of the pendulum-type energy
    ``integral of (u'(t)^2 / 2 + cos u(t))`` on [0, 1] with zero boundary.

    Unknowns are mesh-weighted nodal values v = sqrt(h) u, so the plain
    Euclidean norm of v approximates the L2 norm of u and gradient
    tolerances mean the same thing on every mesh.  The Hessian is
    tridiagonal, ``2/h^2 - cos(u_i)`` on the diagonal and ``-1/h^2`` beside
    it, and comes as a banded ``DiagonalTensor``: O(n) to store and to
    contract.
    """

    def __init__(self, mesh_size: int = 32):
        if mesh_size < 4:
            raise ValueError("mesh must have at least 4 intervals")
        n_mesh = int(mesh_size)
        self.name = f"pendulum{n_mesh}"
        self.dim = n_mesh - 1
        self.max_order = 2
        self.beta = 1.0
        self.f_low = -1.0
        self.h = 1.0 / n_mesh
        self.mesh_size = n_mesh
        # trapezoid weights: positive, summing to the domain length
        self.weights = np.full(n_mesh + 1, self.h)
        self.weights[0] = self.weights[-1] = self.h / 2.0

    def _grid_values(self, v) -> np.ndarray:
        u_full = np.zeros(self.mesh_size + 1)
        u_full[1:-1] = np.asarray(v, dtype=float) / math.sqrt(self.h)
        return u_full

    def eval_f(self, v) -> float:
        u = self._grid_values(v)
        energy = float(np.sum(np.diff(u) ** 2) / (2.0 * self.h))
        cosine = float(np.dot(self.weights, np.cos(u)))
        return energy + cosine

    def eval_derivative(self, v, order: int) -> SymmetricTensor | DiagonalTensor:
        self._check_order(order)
        u = self._grid_values(v)
        interior = u[1:-1]
        if order == 1:
            lap = (2.0 * interior - u[:-2] - u[2:]) / self.h
            grad_u = lap - self.h * np.sin(interior)
            return SymmetricTensor(1, self.dim, grad_u / math.sqrt(self.h))
        main = 2.0 / self.h ** 2 - np.cos(interior)
        return diagonal_tensor(2, main, np.full(self.dim - 1, -1.0 / self.h ** 2))

    def default_x0(self) -> np.ndarray:
        ts = np.arange(1, self.mesh_size) * self.h
        return math.sqrt(self.h) * 2.0 * np.sin(math.pi * ts)


# -- derivative verification --------------------------------------------------


def fd_check_oracle(problem: ProblemOracle, x, order: int, probes: int = 4, seed: int = 0) -> float:
    """Worst relative error of the order-``order`` tensor against central
    finite differences of the order-(order-1) contraction along random
    directions."""
    problem._check_order(order)
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(seed)
    tensor = problem.eval_derivative(x, order)
    h = 1e-6 * max(1.0, float(np.max(np.abs(x))))
    worst = 0.0
    for _ in range(probes):
        dirs = rng.standard_normal((order, problem.dim))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        us, v = [dirs[i] for i in range(order - 1)], dirs[-1]
        exact = tensor.apply(list(us) + [v])

        def lower_contraction(y):
            if order == 1:
                return float(problem.eval_f(y))
            return problem.eval_derivative(y, order - 1).apply(us)

        plus = lower_contraction(x + h * v)
        minus = lower_contraction(x - h * v)
        fd = (plus - minus) / (2.0 * h)
        # measure against the contraction's own scale so that exact zeros
        # (stationary points) compare roundoff to the function, not to 0
        denom = max(abs(exact), abs(fd), 0.5 * (abs(plus) + abs(minus)), 1e-8)
        worst = max(worst, abs(exact - fd) / denom)
    return worst


# -- the built-in suite --------------------------------------------------------


@dataclass(frozen=True)
class SuiteEntry:
    label: str
    problem: ProblemOracle
    space: NormedSpace
    p: int
    x0: np.ndarray


def builtin_suite() -> list:
    """Canonical (problem, space, order, start) combinations used by the
    verification harness."""
    entries = []
    quad = QuadraticBowl(6)
    entries.append(SuiteEntry("quadratic-n6-r2-p2", quad, NormedSpace(6, 2.0), 2, quad.default_x0()))
    well = DoubleWell(4)
    entries.append(SuiteEntry("double_well-n4-r2-p2", well, NormedSpace(4, 2.0), 2, well.default_x0()))
    entries.append(SuiteEntry("double_well-n4-r2-p3", well, NormedSpace(4, 2.0), 3, well.default_x0()))
    for beta in (0.5, 0.8):
        hold = HolderGradient(4, beta)
        entries.append(
            SuiteEntry(f"holder{beta:g}-n4-p1", hold, hold.default_space(), 1, hold.default_x0())
        )
    rosen = Rosenbrock()
    for r in (1.5, 2.0, 3.0):
        entries.append(
            SuiteEntry(f"rosenbrock-r{r:g}-p2", rosen, NormedSpace(2, r), 2, rosen.default_x0())
        )
    pend = PendulumLattice(32)
    entries.append(SuiteEntry("pendulum32-r2-p2", pend, pend.default_space(), 2, pend.default_x0()))
    return entries


# id -> (default size, smallest size, builder(size, beta))
_BUILDERS = {
    "quadratic": (6, 1, lambda n, beta: QuadraticBowl(n)),
    "double_well": (4, 1, lambda n, beta: DoubleWell(n)),
    "holder": (4, 1, lambda n, beta: HolderGradient(n, 0.5 if beta is None else beta)),
    "rosenbrock": (2, 2, lambda n, beta: Rosenbrock()),
    "pendulum": (32, 4, lambda n, beta: PendulumLattice(n)),
}


def problem_ids() -> list:
    return sorted(_BUILDERS)


def get_problem(problem_id: str, n: int | None = None, beta: float | None = None) -> ProblemOracle:
    """Build a problem by id; for 'pendulum' the size argument is the mesh
    interval count, for the others it is the dimension, and None picks the
    problem's default.  A ``ValueError`` message starts with the name of the
    argument at fault."""
    try:
        default, smallest, builder = _BUILDERS[problem_id]
    except KeyError:
        raise KeyError(
            f"unknown problem id {problem_id!r}; available: {', '.join(problem_ids())}"
        ) from None
    size = default if n is None else n
    if size < smallest:
        raise ValueError(f"n must be at least {smallest} for '{problem_id}', got {n}")
    if problem_id == "rosenbrock" and size != 2:
        raise ValueError("n must be 2 for 'rosenbrock' (two-dimensional), or omitted")
    return builder(size, beta)
