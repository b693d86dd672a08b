"""Verification of third-order optimality conditions at a point.

A point passes when, within tolerances, the gradient vanishes, the
Hessian is positive semidefinite, and the third derivative restricted to
the Hessian's numerical null space is zero.  The restriction is tested
because a nonzero one is equivalent to the existence of a null direction
u with a nonzero cubic form T(u, u, u), while maximizing the cubic form
directly is intractable.

The checker certifies these three residual conditions at the reported
tolerances; it does not (and cannot, by any finite procedure) certify
the existential definition of a local minimum with its unknown constants.

When a condition fails, :func:`descent_witness` produces an explicit
direction and step size with a guaranteed decrease, which turns every
negative verdict into an executable certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .escape import SAMPLER_CONSTANT, _approx_factor, sample_direction
from .polynomials import Objective, _all_finite, as_point, check_positive
from .spectral import EigenDecomp, _norm, _zero_band, eig_sym, null_space

CHECKER_NOTE = (
    "certifies the gradient, curvature, and null-space third-derivative "
    "residuals at the stated tolerances; not the existential definition "
    "of a local minimum"
)


class HessianClass(Enum):
    LOCAL_MIN = "LocalMinType"
    LOCAL_MAX = "LocalMaxType"
    STRICT_SADDLE = "StrictSaddle"
    DEGENERATE = "Degenerate"


class Verdict(Enum):
    FIRST_ORDER_FAIL = "FirstOrderFail"
    SECOND_ORDER_FAIL = "SecondOrderFail"
    THIRD_ORDER_FAIL = "ThirdOrderFail"
    HOLDS = "ThirdOrderNecessaryHolds"


def classify_hessian(decomp: EigenDecomp) -> HessianClass:
    """Classify a critical point by the eigenvalue signs of its Hessian's ``decomp``.

    Eigenvalues with |lambda| <= tol count as zero, where the band tol is
    the default ``ConditionTolerances().eig`` relative to the extreme
    eigenvalue magnitudes.  Any mix of signs is a strict saddle;
    same-signed spectra with zeros are degenerate, which is the case
    second-order methods cannot resolve.
    """
    tol = _zero_band(decomp, ConditionTolerances().eig)
    lam = decomp.eigenvalues
    pos = np.any(lam > tol)
    neg = np.any(lam < -tol)
    zero = np.any(np.abs(lam) <= tol)
    if pos and neg:
        return HessianClass.STRICT_SADDLE
    if zero:
        return HessianClass.DEGENERATE
    return HessianClass.LOCAL_MIN if pos else HessianClass.LOCAL_MAX


@dataclass(frozen=True)
class ConditionTolerances:
    """Residual tolerances for the three conditions.

    ``grad`` and ``third`` are absolute; ``eig`` is relative to the
    spectral magnitude and doubles as the null-space band.  Each must be
    finite and non-negative.
    """

    grad: float = 1e-8
    eig: float = 1e-8
    third: float = 1e-8

    def __post_init__(self):
        for name in ("grad", "eig", "third"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} tolerance must be non-negative and finite, got {value}")


@dataclass(frozen=True)
class ConditionReport:
    grad_norm: float
    min_eig: float
    null_dim: int
    third_residual: float
    verdict: Verdict
    tolerances: ConditionTolerances
    # (objective, read-only point, bundle, EigenDecomp, kernel), for descent_witness
    _model: tuple = field(compare=False, repr=False)

    @property
    def holds(self) -> bool:
        return self.verdict is Verdict.HOLDS

    def to_dict(self) -> dict:
        return {
            "grad_norm": self.grad_norm,
            "min_eig": self.min_eig,
            "null_dim": self.null_dim,
            "third_residual": self.third_residual,
            "verdict": self.verdict.value,
            "tolerances": {
                "grad": self.tolerances.grad,
                "eig": self.tolerances.eig,
                "third": self.tolerances.third,
            },
            "note": CHECKER_NOTE,
        }


def check_third_order(
    objective: Objective, x, tols: ConditionTolerances = ConditionTolerances()
) -> ConditionReport:
    """Test the three conditions at ``x``; verdict is the first failure.

    All residual fields are populated regardless of which condition
    fails, so reports are comparable across points.  The third-derivative
    residual is ||T(V, V, V)||_F for the kernel's eigenvector columns V.
    Raises ValueError if the value, gradient, Hessian or third derivative
    at ``x`` has a non-finite entry, or if the gradient norm or the third
    residual overflows: each condition is a comparison, which a NaN
    residual would pass and an infinite one report as a number.
    """
    point = as_point(x, objective.dim).copy()
    point.flags.writeable = False
    b = objective.bundle(point, 3)
    if not (_all_finite(b.grad) and np.isfinite(b.hess).all()
            and np.isfinite(b.third.entries).all()):
        raise ValueError("gradient, hessian or third derivative has non-finite entries")
    if not math.isfinite(b.value):
        raise ValueError(f"value {b.value} is not finite")
    decomp = eig_sym(b.hess)
    min_eig = float(decomp.eigenvalues[-1])
    kernel = null_space(decomp, tols.eig)
    # finite entries can still overflow a norm to inf, or to NaN where partial
    # sums of both signs overflow, which no comparison should see
    with np.errstate(over="ignore", invalid="ignore"):
        grad_norm = _norm(b.grad)
        third_residual = b.third.transform(kernel.basis).frobenius_norm()
    for name, norm in (("gradient norm", grad_norm), ("third residual", third_residual)):
        if not norm < math.inf:
            raise ValueError(f"{name} overflows")

    if grad_norm > tols.grad:
        verdict = Verdict.FIRST_ORDER_FAIL
    elif min_eig < -_zero_band(decomp, tols.eig):
        verdict = Verdict.SECOND_ORDER_FAIL
    elif third_residual > tols.third:
        verdict = Verdict.THIRD_ORDER_FAIL
    else:
        verdict = Verdict.HOLDS
    return ConditionReport(
        grad_norm=grad_norm,
        min_eig=min_eig,
        null_dim=kernel.rank,
        third_residual=third_residual,
        verdict=verdict,
        tolerances=tols,
        _model=(objective, point, b, decomp, kernel),
    )


@dataclass(frozen=True)
class DescentWitness:
    """Unit direction and step with a guaranteed objective decrease.

    ``order`` records which condition the witness exploits (1 gradient,
    2 negative curvature, 3 cubic form on the null space).
    """

    direction: np.ndarray
    step: float
    predicted_decrease: float
    order: int


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(v)))
    return v if v[i] >= 0 else -v


def descent_witness(
    objective: Objective,
    x,
    report: ConditionReport,
    third_lipschitz: float,
    seed: int = 0,
) -> Optional[DescentWitness]:
    """Construct an explicit descent step for a failed condition report.

    Step sizes follow the constructive sufficiency arguments for each
    failure mode: along the negative gradient with
    eps * ||grad|| <= 1 and eps * (2 L'/3 + L/24) <= 1/2 (decrease
    eps/2 * ||grad||^2); along a bottom eigenvector with
    eps < min(sqrt(3c/L), 3c/(4L')) for curvature c (decrease c eps^2/4);
    or against a sampled null-space direction with eps < 2c/L for cubic
    form c (decrease c eps^3/12).  L is ``third_lipschitz``; L' bounds
    the operator norms of the second and third derivatives at ``x``
    (the Frobenius norm for the tensor, which is conservative but
    sound).  The null-space direction comes from the sampler at threshold
    ``report.third_residual`` / (SAMPLER_CONSTANT * n^1.5), that residual
    being ||T restricted to the null space||_F.

    ``report`` must come from this ``objective`` object at this ``x``
    (ValueError otherwise): the witness reuses its derivatives and
    eigendecomposition.  The decrease is verified by evaluating the
    objective at the step; an ArithmeticError therefore means the supplied
    bounds are not valid.  Returns None when the report already holds.
    """
    owner, point, b, decomp, kernel = report._model
    if objective is not owner or not np.array_equal(x, point):
        raise ValueError("report was built for another objective or point")
    check_positive("third_lipschitz", third_lipschitz)
    if report.holds:
        return None
    n = objective.dim
    lip3 = third_lipschitz

    if report.verdict is Verdict.FIRST_ORDER_FAIL:
        g_norm = report.grad_norm
        l_prime = max(
            abs(decomp.eigenvalues[0]), abs(decomp.eigenvalues[-1]), b.third.frobenius_norm()
        )
        eps = 0.999 * min(1.0 / g_norm, 0.5 / (2.0 * l_prime / 3.0 + lip3 / 24.0))
        direction = -b.grad / g_norm
        step = eps * g_norm
        predicted = 0.5 * eps * g_norm**2
        order = 1
    elif report.verdict is Verdict.SECOND_ORDER_FAIL:
        c = -float(decomp.eigenvalues[-1])
        l_prime = b.third.frobenius_norm()
        limits = [math.sqrt(3.0 * c / lip3)]
        if l_prime > 0:
            limits.append(3.0 * c / (4.0 * l_prime))
        eps = 0.9 * min(limits)
        direction = _canonical_sign(decomp.eigenvectors[:, -1])
        step = eps
        predicted = c * eps**2 / 4.0
        order = 2
    else:
        threshold = report.third_residual / _approx_factor(SAMPLER_CONSTANT, n)
        sample = sample_direction(b.third, kernel, threshold, np.random.default_rng(seed))
        c = b.third.trilinear(sample.direction, sample.direction, sample.direction)
        eps = 0.9 * 2.0 * c / lip3
        direction = -sample.direction
        step = eps
        predicted = c * eps**3 / 12.0
        order = 3

    actual = b.value - objective.value(point + step * direction)
    # written so that a NaN fails it
    if not actual >= 0.99 * predicted:
        raise ArithmeticError(
            f"witness decrease {actual:.3e} fell short of predicted {predicted:.3e}; "
            "the supplied derivative bounds are not valid at this point"
        )
    return DescentWitness(direction=direction, step=step, predicted_decrease=predicted, order=order)
