"""Third-order local optimization for smooth non-convex functions.

Second-order methods stall at degenerate critical points, where the
gradient vanishes and the Hessian is singular positive-semidefinite.
This package alternates cubic-regularized second-order steps with
randomized third-order escape steps, certifies or refutes third-order
optimality of given points, and produces explicit descent witnesses at
points that fail.
"""

from .conditions import (
    CHECKER_NOTE,
    ConditionReport,
    ConditionTolerances,
    DescentWitness,
    HessianClass,
    Verdict,
    check_third_order,
    classify_hessian,
    descent_witness,
)
from .cubic import (
    CubicSolution,
    solve_cubic_model,
    stationarity,
)
from .escape import (
    DirectionSample,
    EscapeSubspace,
    IterationRecord,
    OptimizerConfig,
    RateReport,
    SamplerBudgetError,
    Trace,
    escape_subspace,
    minimize,
    rate_report,
    sample_direction,
)
from .polynomials import (
    CORPUS_NAMES,
    DerivativeBundle,
    FdResiduals,
    Objective,
    OracleObjective,
    Polynomial,
    SmoothnessConstants,
    corpus,
    finite_difference_check,
    quartic_plus_sixth,
    smoothness_bounds,
)
from .spectral import EigenDecomp, Subspace, eig_sym, null_space
from .tensors import SymTensor3

__version__ = "0.1.0"

__all__ = [
    "CHECKER_NOTE",
    "CORPUS_NAMES",
    "ConditionReport",
    "ConditionTolerances",
    "CubicSolution",
    "DerivativeBundle",
    "DescentWitness",
    "DirectionSample",
    "EigenDecomp",
    "EscapeSubspace",
    "FdResiduals",
    "HessianClass",
    "IterationRecord",
    "Objective",
    "OptimizerConfig",
    "OracleObjective",
    "Polynomial",
    "RateReport",
    "SamplerBudgetError",
    "SmoothnessConstants",
    "Subspace",
    "SymTensor3",
    "Trace",
    "Verdict",
    "check_third_order",
    "classify_hessian",
    "corpus",
    "descent_witness",
    "eig_sym",
    "escape_subspace",
    "finite_difference_check",
    "minimize",
    "null_space",
    "quartic_plus_sixth",
    "rate_report",
    "sample_direction",
    "smoothness_bounds",
    "solve_cubic_model",
    "stationarity",
]
