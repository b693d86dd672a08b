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

The step is assembled in Python floats, at a fraction of numpy's
per-call overhead on vectors of a few entries, and gives the floats
numpy gives on arrays.  The spectrum and the rotated gradient g_hat
arrive as one ``tolist`` each; the gaps, the bottom block (a suffix of
the descending spectrum), the squared components, the hard-case
quotients and the rotated step -g_hat / (base + (reg/2) t) are
elementwise IEEE operations, the same in Python as in numpy, with
``_divide`` for numpy's zero divisors.  The products with the
eigenvector matrix, the model value's dot products and the norms are
``spectral``'s reductions.

The secular solve runs in Python floats too, and gives the floats and
exceptions numpy gives on arrays of the active (nonzero) gradient
components.  Sums add in numpy's order (``_sum``).  Each component's
lower root squares with ``x * x``, as numpy squares an array, and the
two ||g|| bracket ends with ``**`` (libm ``pow``), as numpy squares a
float64 scalar; the two roundings differ on about 0.1 % of inputs, and
both are kept.  Where Python raises
and numpy returns inf or NaN (``**`` overflowing, a zero divisor), the
solve takes numpy's value, without numpy's warnings.

``stationarity`` is the progress measure that combines the gradient
norm with the most negative Hessian eigenvalue; it vanishes exactly at
second-order stationary points.  Both take the Hessian's EigenDecomp.

``_model_inputs`` owns the checks on a local model's inputs (a positive
finite ``reg``, a gradient of the Hessian's dimension, a finite gradient
and spectrum, a gradient norm that does not overflow) and returns them
as a ``_LocalModel`` with the gradient's norm.  The public functions
build one per call.  ``minimize`` builds one per point from the point's
bundle and its one ``eig_sym``, so each iterate is checked, normed and
decomposed once, and both the step from that point and its stationarity
read the same model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .polynomials import DerivativeBundle, _all_finite, check_positive
from .spectral import EigenDecomp, _matmul, _norm

# Bottom-eigenspace gradient components below this relative size are
# treated as zero, which routes the solve through the hard-case branch.
_HARD_CASE_REL = 1e-12

# The secular iteration stops once |psi(r) - r| <= _SECULAR_RTOL * r, which
# pins the radius to about that relative accuracy; the evaluation cap only
# guards against a stall that roundoff could cause.
_SECULAR_RTOL = 1e-13
_SECULAR_MAX_EVALS = 100

# A vector whose norm is below this has finite entries whose sum of squares
# cannot overflow, so its norm needs no overflow check.
_NORM_SAFE = 2.0**500


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


def _sum(values) -> float:
    """``float(np.add.reduce(values))`` for a sequence of floats, addition for addition.

    numpy adds fewer than eight float64 terms left to right from 0.0; up
    to 128 in eight interleaved partial sums, combined pairwise, then the
    remainder left to right; and more as two such sums split at half the
    length rounded down to a multiple of 8.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _sum(values[:half]) + _sum(values[half:])
    end = n - n % 8
    r = values[:8]
    for i in range(8, end, 8):
        r = [a + b for a, b in zip(r, values[i:i + 8])]
    # 0.0 + turns an all -0.0 sum into numpy's 0.0
    total = 0.0 + (((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))
    for v in values[end:]:
        total += v
    return total


def _divide(num: float, den: float) -> float:
    """num / den as numpy divides float64: a zero divisor gives inf or NaN."""
    if den:
        return num / den
    if num != num or num == 0.0:
        return math.nan
    return math.copysign(math.inf, num) * math.copysign(1.0, den)


def _squared(x: float) -> float:
    """x ** 2 by libm ``pow``, as numpy squares a float64 scalar; inf on overflow."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def _lower_root(g_abs: float, base: float, gap_sq: float, half_reg: float, r_floor: float):
    """Non-negative root t of (base + half_reg t)(r_floor + t) = g_abs.

    ``gap_sq`` is (base - half_reg r_floor)^2.  Since psi(t) >= g_abs /
    (base + half_reg t) for any single gradient component (or for ||g||
    against the largest shift), this root is a lower bound for the secular
    root; against the smallest shift it is an upper bound.  Written in the
    cancellation-free form of the quadratic formula, and clamped at zero
    as ``np.maximum(t, 0.0)`` clamps: a NaN stays NaN.
    """
    num = 2.0 * (g_abs - base * r_floor)
    den = base + half_reg * r_floor + math.sqrt(gap_sq + 4.0 * half_reg * g_abs)
    t = num / den if den else _divide(num, den)
    return 0.0 if t <= 0.0 else t


def _secular_offset(g_sq: list, base: list, half_reg: float, r_floor: float):
    """Solve psi(t) = r_floor + t for the offset t >= 0 above the floor radius.

    ``psi(t)^2 = sum g_sq / (base + half_reg t)^2`` over the components
    with ``g_sq > 0``, whose ``base`` (shifted eigenvalue at the floor)
    is non-negative.  Newton's method runs on the concave increasing
    phi(t) = 1/psi(t) - 1/(r_floor + t) from a lower bound, so its
    iterates stay below the root.  A Newton step that leaves the bracket,
    or is no shorter than the one before it, is replaced by bisection.
    Returns the offset and the number of psi evaluations.  ``g_sq`` and
    ``base`` are lists of Python floats, ``half_reg`` and ``r_floor``
    Python floats.
    """
    terms = [(g, b) for g, b in zip(g_sq, base) if g > 0.0]
    if not terms:
        return 0.0, 0
    gs, bases = zip(*terms)
    g_norm = math.sqrt(_sum(gs))
    shift = half_reg * r_floor
    lo = 0.0
    for g, b in terms:
        gap = b - shift
        t = _lower_root(math.sqrt(g), b, gap * gap, half_reg, r_floor)
        if t > lo or t != t:  # a NaN root stays, as in numpy's max
            lo = t
    b = max(bases)
    lo = max(lo, _lower_root(g_norm, b, _squared(b - shift), half_reg, r_floor))
    b = min(bases)
    hi = max(lo, _lower_root(g_norm, b, _squared(b - shift), half_reg, r_floor))
    t, last_step = lo, math.inf
    for evals in range(1, _SECULAR_MAX_EVALS + 1):
        shift_t = half_reg * t
        ws, slopes = [], []
        for g, b in terms:
            d = b + shift_t
            d_sq = d * d
            w = g / d_sq if d_sq else _divide(g, d_sq)
            ws.append(w)
            slopes.append(w / d if d else _divide(w, d))
        psi = math.sqrt(_sum(ws))
        r = r_floor + t
        phi = 1.0 / psi - 1.0 / r
        if abs(phi) * psi <= _SECULAR_RTOL:
            break
        if phi < 0.0:
            lo = t
        else:
            hi = t
        dphi = half_reg * _sum(slopes) / psi**3 + 1.0 / r**2
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


class _LocalModel(NamedTuple):
    """The checked inputs of the cubic model at one point.

    ``grad`` is the gradient as a float array, ``grad_norm`` its norm,
    ``decomp`` the Hessian's EigenDecomp and ``reg`` a Python float.
    ``bundle`` is the point's derivatives when the model was built from
    them, else None.
    """

    grad: np.ndarray
    grad_norm: float
    decomp: EigenDecomp
    reg: float
    bundle: Optional[DerivativeBundle] = None


def _model_inputs(grad, decomp: EigenDecomp, reg: float,
                  bundle: Optional[DerivativeBundle] = None) -> _LocalModel:
    """The local model of ``grad``, ``decomp`` and ``reg``, checked.

    Raises ValueError unless ``reg`` is positive and finite, the gradient
    has the Hessian's dimension, the gradient and eigenvalues are finite,
    and the gradient's norm is finite too: past about 1.3e154 it overflows,
    and an infinite norm would pass the solver's scale-relative
    certificate with a zero step.  A Python-float ``reg`` keeps the
    arithmetic after it in float64, whatever scalar type the caller passed.
    """
    check_positive("reg", reg)
    g = np.asarray(grad, dtype=float)
    if g.shape != (decomp.dim,):
        raise ValueError(f"gradient of shape {g.shape} does not match hessian dim {decomp.dim}")
    if not _all_finite(decomp.eigenvalues):
        raise ValueError("gradient or hessian has non-finite entries")
    # One call clears the common case: hypot is inf or NaN if an entry is
    if not math.hypot(*g.tolist()) < _NORM_SAFE:
        if not _all_finite(g):
            raise ValueError("gradient or hessian has non-finite entries")
        # The sum of squares may overflow, and numpy would warn about it
        # before this check could raise
        with np.errstate(over="ignore"):
            if _norm(g) == math.inf:
                raise ValueError("gradient norm overflows")
    return _LocalModel(g, _norm(g), decomp, float(reg), bundle)


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
    return _solve_model(_model_inputs(grad, decomp, reg))


def _solve_model(model: _LocalModel) -> CubicSolution:
    """:func:`solve_cubic_model` on a checked local model."""
    g, g_norm, decomp, reg, _ = model
    lam = decomp.eigenvalues
    v = decomp.eigenvectors
    g_hat = _matmul(v.T, g)
    lam_list = lam.tolist()
    g_list = g_hat.tolist()
    n = len(lam_list)
    lam_min = lam_list[-1]
    spectral = max(1.0, abs(lam_list[0]), abs(lam_min))
    half_reg = 0.5 * reg

    # Shifted eigenvalues at the floor radius, lam + (reg/2) r_floor,
    # formed as gaps so they keep relative precision near zero.
    gap = [x - lam_min for x in lam_list]
    if lam_min < 0.0:
        r_floor = -lam_min / half_reg
        base = gap
    else:
        r_floor = 0.0
        base = lam_list
    # The bottom eigenspace is the suffix from index k: rounding keeps the
    # gaps of a descending spectrum non-increasing.
    k = n - 1
    while k and gap[k - 1] <= 1e-12 * spectral:
        k -= 1
    g_bottom = _norm(g_hat[k:])
    # A hard-case candidate solves on the complement of the bottom eigenspace.
    hard_candidate = g_bottom <= _HARD_CASE_REL * max(1.0, g_norm)
    g_sq = [x * x for x in g_list]
    if hard_candidate:
        g_sq[k:] = [0.0] * (n - k)

    t, evals = 0.0, 0
    if g_norm == 0.0 and lam_min >= -1e-15 * spectral:
        s_hat = [0.0] * n
    else:
        if hard_candidate:
            # The floor radius is a root when the gradient, solved on the
            # complement of the bottom eigenspace, falls short of it.
            quotients = [_divide(x, b) for x, b in zip(g_list[:k], base)]
            p = _norm(np.array(quotients + [0.0] * (n - k)))
            evals = 1
        if not hard_candidate or p >= r_floor:
            t, solve_evals = _secular_offset(g_sq, base, half_reg, r_floor)
            evals += solve_evals
        shift = half_reg * t
        s_hat = [_divide(-x, b + shift) for x, b in zip(g_list, base)]
        if hard_candidate:
            s_hat[k:] = [0.0] * (n - k)
            if p < r_floor:
                # Hard case: sit at the floor radius and fill the deficit
                # along one bottom eigenvector.
                s_hat[k] = math.sqrt(max(r_floor * r_floor - p * p, 0.0))

    s_hat = np.array(s_hat)
    step = _matmul(v, s_hat)
    radius = _norm(step)
    hess_s = _matmul(v * lam, s_hat)
    model_value = float(_matmul(g, step) + _matmul(0.5 * step, hess_s) + reg * radius**3 / 6.0)

    # Internal sanity certificate; scale-aware so legitimate large-norm
    # inputs do not trip it on roundoff, and written so that a NaN fails it.
    residual = _norm(g + hess_s + 0.5 * reg * radius * step)
    margin = lam_min + 0.5 * reg * radius
    res_scale = max(1.0, g_norm, spectral * max(1.0, radius))
    if not residual <= 1e-9 * res_scale or not margin >= -1e-9 * spectral:
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
    return _stationarity(_model_inputs(grad, decomp, reg))


def _stationarity(model: _LocalModel) -> float:
    """:func:`stationarity` on a checked local model."""
    grad_part = math.sqrt(model.grad_norm / model.reg)
    eig_part = max(0.0, -2.0 * float(model.decomp.eigenvalues[-1]) / (3.0 * model.reg))
    return max(grad_part, eig_part)
