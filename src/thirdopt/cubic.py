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

The secular solve has two implementations with the same floats.  The
array one runs numpy on the active components (those with a nonzero
gradient component); it is the reference.  With at most 7 active
components and Python-float scalars, a Python-float one runs instead,
at a fraction of the per-call overhead; at n <= 2 that is every solve.
It keeps the floats for three reasons:

- numpy adds fewer than eight float64 terms left to right (eight or
  more in a pairwise, unrolled order), so sums of up to 7 terms run as
  a plain loop from 0.0; hence the limit of 7;
- numpy squares an array's entries with ``x * x`` and a float64
  scalar with libm ``pow``, as Python's ``**`` does, so the
  per-component lower roots square with ``x * x`` and the two
  ||g|| bracket ends with ``**``; the two roundings differ on about
  0.1 % of inputs, and both are kept;
- where Python would raise (``**`` overflowing, division by an
  underflowed zero) or make an infinity or NaN that numpy would warn
  on, the call goes to the array path, so warnings and exceptions are
  numpy's too (under numpy's default error state, which ignores
  underflow).

``stationarity`` is the progress measure that combines the gradient
norm with the most negative Hessian eigenvalue; it vanishes exactly at
second-order stationary points.  Both take the Hessian's EigenDecomp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polynomials import check_positive
from .spectral import EigenDecomp, _norm

# Bottom-eigenspace gradient components below this relative size are
# treated as zero, which routes the solve through the hard-case branch.
_HARD_CASE_REL = 1e-12

# The secular iteration stops once |psi(r) - r| <= _SECULAR_RTOL * r, which
# pins the radius to about that relative accuracy; the evaluation cap only
# guards against a stall that roundoff could cause.
_SECULAR_RTOL = 1e-13
_SECULAR_MAX_EVALS = 100

# Most active components solved in Python floats: numpy adds fewer than
# eight float64 terms left to right, and eight or more in another order.
_FLOAT_PATH_MAX_ACTIVE = 7


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
    """Solve psi(t) = r_floor + t as ``_secular_offset_arrays`` does, bit for bit.

    The Python-float path runs when the module docstring says it keeps
    the floats, and hands any call it cannot finish back to the array
    path.  A numpy scalar ``half_reg`` or ``r_floor`` (from a numpy
    ``reg``) keeps the array path, where numpy rounds and warns on that
    scalar's arithmetic.
    """
    if (type(half_reg) is not float or type(r_floor) is not float
            or (g_sq.size > _FLOAT_PATH_MAX_ACTIVE
                and np.count_nonzero(g_sq > 0.0) > _FLOAT_PATH_MAX_ACTIVE)):
        return _secular_offset_arrays(g_sq, base, half_reg, r_floor)
    terms = [(g, b) for g, b in zip(g_sq.tolist(), base.tolist()) if g > 0.0]
    try:
        return _secular_offset_floats(terms, half_reg, r_floor)
    except ArithmeticError:
        return _secular_offset_arrays(g_sq, base, half_reg, r_floor)


def _clamped_root(num: float, den: float) -> float:
    """``np.maximum(num / den, 0.0)`` in Python floats, for a finite quotient only.

    An infinite denominator or a non-finite quotient may be where numpy
    warned, or would hide a value that numpy warned on; FloatingPointError
    hands the call to the array path.
    """
    t = num / den
    if not (den < math.inf and -math.inf < t < math.inf):
        raise FloatingPointError("lower root is not finite")
    return t if t > 0.0 else 0.0


def _bracket_root(g_norm: float, base: float, half_reg: float, r_floor: float) -> float:
    """``_offset_lower_root`` of ||g|| against one shift, in Python floats.

    It squares with ``**`` (libm ``pow``), as numpy's float64 scalar does
    in the array path, not with the ``x * x`` of the per-component roots.
    """
    shift = half_reg * r_floor
    disc = (base - shift) ** 2 + 4.0 * half_reg * g_norm
    return _clamped_root(2.0 * (g_norm - base * r_floor), base + shift + math.sqrt(disc))


def _secular_offset_floats(terms: list, half_reg: float, r_floor: float):
    """``_secular_offset_arrays`` on the active ``(g_sq, base)`` pairs, in Python floats.

    Each operation is the array path's on the same operands in the same
    order, and sums run left to right from 0.0.  Raises ArithmeticError
    where the array path may warn or raise: Python's OverflowError or
    ZeroDivisionError, or FloatingPointError once a value that numpy
    computes is not finite.
    """
    if not terms:
        return 0.0, 0
    shift = half_reg * r_floor
    g_norm_sq = lo = 0.0
    for g, b in terms:
        g_norm_sq += g
        g_abs = math.sqrt(g)
        a = b - shift
        disc = a * a + 4.0 * half_reg * g_abs
        lo = max(lo, _clamped_root(2.0 * (g_abs - b * r_floor), b + shift + math.sqrt(disc)))
    g_norm = math.sqrt(g_norm_sq)
    bases = [b for _, b in terms]
    lo = max(lo, _bracket_root(g_norm, max(bases), half_reg, r_floor))
    hi = max(lo, _bracket_root(g_norm, min(bases), half_reg, r_floor))
    t, last_step = lo, math.inf
    for evals in range(1, _SECULAR_MAX_EVALS + 1):
        shift_t = half_reg * t
        psi_sq = slope = 0.0
        for g, b in terms:
            d = b + shift_t
            d_sq = d * d
            if d_sq == math.inf:  # g / d_sq would hide numpy's overflow as 0
                raise FloatingPointError("shifted eigenvalue squares to inf")
            w = g / d_sq
            psi_sq += w
            slope += w / d
        if not (psi_sq < math.inf and slope < math.inf):
            raise FloatingPointError("secular sums are not finite")
        psi = math.sqrt(psi_sq)
        r = r_floor + t
        phi = 1.0 / psi - 1.0 / r
        if abs(phi) * psi <= _SECULAR_RTOL:
            break
        if phi < 0.0:
            lo = t
        else:
            hi = t
        dphi = half_reg * slope / psi**3 + 1.0 / r**2
        t_next = t - phi / dphi
        step = abs(t_next - t)
        if lo < t_next < hi and step < last_step:
            last_step = step
        else:
            t_next = math.sqrt(lo * hi) if lo > 0.0 else 0.5 * hi
            last_step = math.inf
        if t_next == t:
            break
        t = t_next
    return t, evals


def _secular_offset_arrays(g_sq: np.ndarray, base: np.ndarray, half_reg: float, r_floor: float):
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


def solve_cubic_model(grad, decomp: EigenDecomp, reg: float) -> CubicSolution:
    """Globally minimize <g,s> + 1/2 s'Hs + (reg/6)||s||^3.

    Args:
        grad: gradient vector g.
        decomp: eigendecomposition of the symmetric matrix H.
        reg: cubic regularization weight, must be positive.

    Returns:
        CubicSolution whose step satisfies the stationarity equation and
        the eigenvalue certificate lambda_min(H) + (reg/2)||s|| >= 0 up
        to roundoff.
    """
    g = np.asarray(grad, dtype=float)
    check_positive("reg", reg)
    if g.shape != (decomp.dim,):
        raise ValueError(f"gradient of shape {g.shape} does not match hessian dim {decomp.dim}")
    if not np.isfinite(g).all():
        raise ValueError("gradient has non-finite entries")
    lam = decomp.eigenvalues
    if not np.isfinite(lam).all():
        raise ValueError("hessian has non-finite entries")
    v = decomp.eigenvectors
    g_hat = v.T @ g
    g_norm = _norm(g)
    lam_min = float(lam[-1])
    spectral = decomp.spectral_scale()
    half_reg = 0.5 * reg

    # Shifted eigenvalues at the floor radius, lam + (reg/2) r_floor,
    # formed as gaps so they keep relative precision near zero.
    gap = lam - lam_min
    if lam_min < 0.0:
        r_floor = -lam_min / half_reg
        base = gap
    else:
        r_floor = 0.0
        base = lam
    bottom = gap <= 1e-12 * spectral
    g_bottom = _norm(g_hat[bottom])
    # A hard-case candidate solves on the complement of the bottom eigenspace.
    hard_candidate = g_bottom <= _HARD_CASE_REL * max(1.0, g_norm)
    g_sq = g_hat**2
    if hard_candidate:
        g_sq[bottom] = 0.0

    t, evals = 0.0, 0
    if g_norm == 0.0 and lam_min >= -1e-15 * spectral:
        s_hat = np.zeros_like(g_hat)
    else:
        if hard_candidate:
            # The floor radius is a root when the gradient, solved on the
            # complement of the bottom eigenspace, falls short of it.
            with np.errstate(divide="ignore", invalid="ignore"):
                p = _norm(np.where(bottom, 0.0, g_hat / base))
            evals = 1
        if not hard_candidate or p >= r_floor:
            t, solve_evals = _secular_offset(g_sq, base, half_reg, r_floor)
            evals += solve_evals
        with np.errstate(divide="ignore", invalid="ignore"):
            s_hat = -g_hat / (base + half_reg * t)
        if hard_candidate:
            s_hat[bottom] = 0.0
        if hard_candidate and p < r_floor:
            # Hard case: sit at the floor radius and fill the deficit
            # along one bottom eigenvector.
            s_hat[int(np.argmax(bottom))] += math.sqrt(max(r_floor * r_floor - p * p, 0.0))

    step = v @ s_hat
    radius = _norm(step)
    hess_s = (v * lam) @ s_hat
    model_value = float(g @ step + 0.5 * step @ hess_s + reg * radius**3 / 6.0)

    # Internal sanity certificate; scale-aware so legitimate large-norm
    # inputs do not trip it on roundoff.
    residual = _norm(g + hess_s + 0.5 * reg * radius * step)
    margin = lam_min + 0.5 * reg * radius
    res_scale = max(1.0, g_norm, spectral * max(1.0, radius))
    if residual > 1e-9 * res_scale or margin < -1e-9 * spectral:
        raise ArithmeticError(
            f"cubic subproblem certificate failed (residual {residual:.3e}, margin {margin:.3e})"
        )
    return CubicSolution(step=step, model_value=model_value, radius=radius, secular_evals=evals)


def stationarity(grad, decomp: EigenDecomp, reg: float) -> float:
    """Second-order progress measure from the gradient and Hessian spectrum at a point.

    The max of a gradient term sqrt(||g||/reg) and a curvature term
    -(2/(3 reg)) lambda_min clamped at zero; it is zero exactly when the
    gradient vanishes and the Hessian is psd.
    """
    check_positive("reg", reg)
    g = np.asarray(grad, dtype=float)
    if g.shape != (decomp.dim,):
        raise ValueError(f"gradient of shape {g.shape} does not match hessian dim {decomp.dim}")
    if not (np.isfinite(g).all() and np.isfinite(decomp.eigenvalues).all()):
        raise ValueError("gradient or hessian has non-finite entries")
    grad_part = math.sqrt(_norm(g) / reg)
    eig_part = max(0.0, -2.0 * float(decomp.eigenvalues[-1]) / (3.0 * reg))
    return max(grad_part, eig_part)
