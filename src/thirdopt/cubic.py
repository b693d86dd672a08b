"""Cubic-regularized second-order steps.

One step minimizes the quadratic Taylor model plus a cubic distance
penalty,

    m(s) = <g, s> + 1/2 s'Hs + (reg/6) ||s||^3,

which is globally solvable despite non-convexity.  The global minimizer
is characterized by

    (H + (reg/2) ||s|| I) s = -g   with   H + (reg/2) ||s|| I  psd,

so the solver reduces H to its eigenbasis and finds the radius r = ||s||
from the scalar secular equation

    phi(r) = 1 / ||(H + (reg r / 2) I)^{-1} g|| - 1 / r = 0

on r >= r_floor = max(0, -2 lambda_min / reg).  There phi is increasing
and concave, so Newton's method started below the root climbs to it
monotonically and quadratically (More and Sorensen, 1983; Cartis, Gould
and Toint, ARC Part I, Math. Prog. 2011, section 6.1).  The start and a
bracket come in closed form from one-component bounds on the norm, and
bisection inside the bracket is only the fallback for a Newton step
that roundoff pushes out of it.  The iteration runs in the offset
t = r - r_floor, with shifted eigenvalues formed as the gaps
(lambda_i - lambda_min) + (reg/2) t, which keep full relative precision
when the root sits just above the floor (the near-hard case).  When g
has no component on the bottom eigenspace and the secular equation
undershoots the floor (the hard case), a bottom-eigenvector component
tops the step up to the required radius.  The stationarity and
eigenvalue certificate above makes every returned solution checkable
independently of the method.

``stationarity`` packages the progress measure that combines the
gradient norm with the most negative Hessian eigenvalue; it vanishes
exactly at second-order stationary points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polynomials import Objective, as_point
from .spectral import EigenDecomp, eig_sym

# Bottom-eigenspace gradient components below this relative size are
# treated as zero, which routes the solve through the hard-case branch.
_HARD_CASE_REL = 1e-12

# The secular iteration stops once |psi(r) - r| <= _SECULAR_RTOL * r, which
# pins the radius to about that relative accuracy; the evaluation cap only
# guards against a stall that roundoff could cause.
_SECULAR_RTOL = 1e-13
_SECULAR_MAX_EVALS = 100


@dataclass(frozen=True)
class CubicSolution:
    """Global minimizer of the cubic-regularized model.

    ``model_value`` is the model at the step (the constant f(x) omitted);
    ``radius`` is the step norm; ``secular_evals`` counts the evaluations
    of the secular function it took to find the radius.
    """

    step: np.ndarray
    model_value: float
    radius: float
    secular_evals: int


def _offset_lower_root(g_abs, base, half_reg: float, r_floor: float):
    """Non-negative root t of (base + half_reg t)(r_floor + t) = g_abs.

    Since psi(t) >= g_abs / (base + half_reg t) for any single gradient
    component (or for ||g|| against the largest shift), this root is a
    lower bound for the secular root; against the smallest shift it is an
    upper bound.  Written in the cancellation-free form of the quadratic
    formula.
    """
    disc = (base - half_reg * r_floor) ** 2 + 4.0 * half_reg * g_abs
    t = 2.0 * (g_abs - base * r_floor) / (base + half_reg * r_floor + np.sqrt(disc))
    return np.maximum(t, 0.0)


def _secular_offset(g_sq: np.ndarray, base: np.ndarray, half_reg: float, r_floor: float):
    """Solve psi(t) = r_floor + t for the offset t >= 0 above the floor radius.

    ``psi(t)^2 = sum g_sq / (base + half_reg t)^2`` over the components
    with ``g_sq > 0``, whose ``base`` (shifted eigenvalue at the floor)
    is non-negative.  Newton's method runs on the concave increasing
    phi(t) = 1/psi(t) - 1/(r_floor + t) from a lower bound, so its
    iterates stay below the root.  A Newton step that leaves the bracket,
    or is no shorter than the one before it, is replaced by bisection.
    Returns the offset and the number of psi evaluations.
    """
    active = g_sq > 0.0
    if not active.any():
        return 0.0, 0
    g_sq, base = g_sq[active], base[active]
    g_abs = np.sqrt(g_sq)
    g_norm = math.sqrt(float(g_sq.sum()))
    lo = max(
        float(_offset_lower_root(g_abs, base, half_reg, r_floor).max()),
        float(_offset_lower_root(g_norm, base.max(), half_reg, r_floor)),
    )
    hi = max(lo, float(_offset_lower_root(g_norm, base.min(), half_reg, r_floor)))
    t, last_step = lo, math.inf
    for evals in range(1, _SECULAR_MAX_EVALS + 1):
        d = base + half_reg * t
        w = g_sq / d**2
        psi = math.sqrt(float(w.sum()))
        r = r_floor + t
        phi = 1.0 / psi - 1.0 / r
        if abs(phi) * psi <= _SECULAR_RTOL:
            break
        if phi < 0.0:
            lo = t
        else:
            hi = t
        dphi = half_reg * float((w / d).sum()) / psi**3 + 1.0 / r**2
        t_next = t - phi / dphi
        step = abs(t_next - t)
        if lo < t_next < hi and step < last_step:
            last_step = step
        else:
            # Newton left the bracket or stopped shrinking its steps, as it
            # does while it crawls out of a pole of psi at the floor; the
            # geometric midpoint halves the bracket's width in log scale.
            t_next = math.sqrt(lo * hi) if lo > 0.0 else 0.5 * hi
            last_step = math.inf
        if t_next == t:
            break
        t = t_next
    return t, evals


def solve_cubic_model(grad, hess, reg: float) -> CubicSolution:
    """Globally minimize <g,s> + 1/2 s'Hs + (reg/6)||s||^3.

    Args:
        grad: gradient vector g.
        hess: symmetric matrix H, or its :class:`EigenDecomp` when the
            caller already holds one.
        reg: cubic regularization weight, must be positive.

    Returns:
        CubicSolution whose step satisfies the stationarity equation and
        the eigenvalue certificate lambda_min(H) + (reg/2)||s|| >= 0 up
        to roundoff.
    """
    g = np.asarray(grad, dtype=float)
    if reg <= 0 or not math.isfinite(reg):
        raise ValueError(f"regularization weight must be positive, got {reg}")
    if not np.isfinite(g).all():
        raise ValueError("gradient has non-finite entries")
    decomp = hess if isinstance(hess, EigenDecomp) else eig_sym(hess)
    lam = decomp.eigenvalues
    if not np.isfinite(lam).all():
        raise ValueError("hessian has non-finite entries")
    v = decomp.eigenvectors
    g_hat = v.T @ g
    g_norm = float(np.linalg.norm(g))
    lam_min = float(lam[-1])
    spectral = decomp.spectral_scale()
    half_reg = 0.5 * reg

    # Shifted eigenvalues at the floor radius, lam + (reg/2) r_floor,
    # formed as gaps so they keep relative precision near zero.
    if lam_min < 0.0:
        r_floor = -lam_min / half_reg
        base = lam - lam_min
    else:
        r_floor = 0.0
        base = lam
    bottom = (lam - lam_min) <= 1e-12 * spectral
    g_bottom = float(np.linalg.norm(g_hat[bottom]))
    hard_candidate = g_bottom <= _HARD_CASE_REL * max(1.0, g_norm)
    keep = ~bottom if hard_candidate else np.ones_like(bottom)
    g_sq = np.where(keep, g_hat, 0.0) ** 2

    t, evals = 0.0, 0
    if g_norm == 0.0 and lam_min >= -1e-15 * spectral:
        s_hat = np.zeros_like(g_hat)
    else:
        if hard_candidate:
            # The floor radius is a root when the gradient, solved on the
            # complement of the bottom eigenspace, falls short of it.
            with np.errstate(divide="ignore", invalid="ignore"):
                p = float(np.linalg.norm(np.where(keep, g_hat / base, 0.0)))
            evals = 1
        if not hard_candidate or p >= r_floor:
            t, solve_evals = _secular_offset(g_sq, base, half_reg, r_floor)
            evals += solve_evals
        with np.errstate(divide="ignore", invalid="ignore"):
            s_hat = np.where(keep, -g_hat / (base + half_reg * t), 0.0)
        if hard_candidate and p < r_floor:
            # Hard case: sit at the floor radius and fill the deficit
            # along one bottom eigenvector.
            s_hat[int(np.argmax(bottom))] += math.sqrt(max(r_floor * r_floor - p * p, 0.0))

    step = v @ s_hat
    radius = float(np.linalg.norm(step))
    hess_s = (v * lam) @ s_hat
    model_value = float(g @ step + 0.5 * step @ hess_s + reg * radius**3 / 6.0)

    # Internal sanity certificate; scale-aware so legitimate large-norm
    # inputs do not trip it on roundoff.
    residual = float(np.linalg.norm(g + hess_s + 0.5 * reg * radius * step))
    margin = lam_min + 0.5 * reg * radius
    res_scale = max(1.0, g_norm, spectral * max(1.0, radius))
    if residual > 1e-9 * res_scale or margin < -1e-9 * spectral:
        raise ArithmeticError(
            f"cubic subproblem certificate failed (residual {residual:.3e}, margin {margin:.3e})"
        )
    return CubicSolution(step=step, model_value=model_value, radius=radius, secular_evals=evals)


def cubic_step(objective: Objective, x, reg: float) -> np.ndarray:
    """One cubic-regularized step from ``x``; returns the new point.

    At a point with zero gradient and positive-semidefinite Hessian the
    model is minimized by the zero step, so the iterate does not move;
    escaping such points requires third-order information.
    """
    x = as_point(x, objective.dim)
    b = objective.bundle(x, 2)
    return x + solve_cubic_model(b.grad, b.hess, reg).step


@dataclass(frozen=True)
class Stationarity:
    """Second-order progress measure at a point.

    ``value`` is the max of a gradient term sqrt(||g||/reg) and a
    curvature term -(2/(3 reg)) lambda_min clamped at zero; it is zero
    exactly when the gradient vanishes and the Hessian is psd.
    """

    value: float
    grad_part: float
    eig_part: float


def stationarity(objective: Objective, z, reg: float, derivs=None) -> Stationarity:
    """Second-order progress measure of ``objective`` at ``z``.

    ``derivs`` is an optional ``(DerivativeBundle, EigenDecomp)`` pair of
    order >= 2 already computed at ``z`` (its Hessian's decomposition);
    without it both are computed here.
    """
    if reg <= 0:
        raise ValueError("regularization weight must be positive")
    if derivs is None:
        z = as_point(z, objective.dim)
        b = objective.bundle(z, 2)
        derivs = (b, eig_sym(b.hess))
    b, decomp = derivs
    grad_part = math.sqrt(float(np.linalg.norm(b.grad)) / reg)
    eig_part = max(0.0, -2.0 * float(decomp.eigenvalues[-1]) / (3.0 * reg))
    return Stationarity(value=max(grad_part, eig_part), grad_part=grad_part, eig_part=eig_part)
