"""Adaptive higher-order regularization for smooth minimization on R^n with l^r norms."""

from .geometry import GeometryError, NormedSpace, smoothness_modulus_estimate
from .inner import InnerResult, Termination, minimize_model
from .problems import (
    DoubleWell,
    HolderGradient,
    PendulumLattice,
    ProblemOracle,
    QuadraticBowl,
    Rosenbrock,
    SuiteEntry,
    builtin_suite,
    fd_check_oracle,
    get_problem,
    problem_ids,
)
from .psi import PsiSpec, psi_descent_bound, psi_eval, psi_minimize
from .solver import (
    IterationRecord,
    OuterConfig,
    RunRecord,
    SolveStatus,
    Violation,
    check_trajectory,
    solve,
    theorem_success_bound,
)
from .tensors import (
    DiagonalTensor,
    RegularizedModel,
    SymmetricTensor,
    TaylorModel,
    diagonal_tensor,
)

__version__ = "0.1.0"

__all__ = [
    "GeometryError",
    "NormedSpace",
    "smoothness_modulus_estimate",
    "SymmetricTensor",
    "DiagonalTensor",
    "TaylorModel",
    "RegularizedModel",
    "diagonal_tensor",
    "PsiSpec",
    "psi_eval",
    "psi_minimize",
    "psi_descent_bound",
    "InnerResult",
    "Termination",
    "minimize_model",
    "OuterConfig",
    "IterationRecord",
    "RunRecord",
    "SolveStatus",
    "Violation",
    "solve",
    "check_trajectory",
    "theorem_success_bound",
    "ProblemOracle",
    "QuadraticBowl",
    "DoubleWell",
    "HolderGradient",
    "Rosenbrock",
    "PendulumLattice",
    "SuiteEntry",
    "builtin_suite",
    "fd_check_oracle",
    "get_problem",
    "problem_ids",
]
