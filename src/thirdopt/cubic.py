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

The step and its radius are computed in Python floats, at a fraction
of numpy's per-call overhead on vectors of a few entries, by IEEE rules:
elementwise operations as numpy's, ``_divide`` for zero divisors,
``math.fsum`` for each sum of non-negative terms and ``x * x`` for each
square.  The products with the eigenvector matrix and the norms are
``spectral``'s reductions.  A secular problem far from unit scale is
solved in a power-of-two unit of radius.  ``_solve_step`` returns the
step and its radius; only ``solve_cubic_model`` adds the model value,
from two more products, since ``minimize`` reads the step alone.

``stationarity`` is the progress measure that combines the gradient
norm with the most negative Hessian eigenvalue; it vanishes exactly at
second-order stationary points.  Both take the Hessian's EigenDecomp,
check ``reg``, then check their inputs into a ``_LocalModel``, the one
checked point model: ``_point_model`` builds it from one bundle and one
``eig_sym``, once per point for ``minimize`` and ``check_third_order``.
``reg``, a constant of the run, is passed beside the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .polynomials import DerivativeBundle, Objective, _all_finite, check_positive
from .spectral import EigenDecomp, _finite_decomp, _matmul, _norm, eig_sym

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


def _sum(terms) -> float:
    """The correctly rounded sum of non-negative floats: inf where it overflows."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def _divide(num: float, den: float) -> float:
    """num / den by IEEE rules: a zero divisor gives inf or NaN."""
    if den:
        return num / den
    if num != num or num == 0.0:
        return math.nan
    return math.copysign(math.inf, num) * math.copysign(1.0, den)


def _lower_root(g_abs: float, base: float, half_reg: float, r_floor: float):
    """Non-negative root t of (base + half_reg t)(r_floor + t) = g_abs.

    Since psi(t) >= g_abs / (base + half_reg t) for any single gradient
    component (or for ||g|| against the largest shift), this root is a
    lower bound for the secular root; against the smallest shift it is an
    upper bound.  Written in the cancellation-free form of the quadratic
    formula, and clamped at zero; a NaN stays NaN.  The root is unchanged
    when g_abs, base and half_reg are scaled by one factor, so where M =
    max(base, half_reg r_floor, sqrt(half_reg g_abs)) is far from 1 they
    are scaled by the power of two that puts M in [0.5, 1).
    """
    shift = half_reg * r_floor
    if not (2.0**-128 <= half_reg * g_abs < 2.0**128 and base < 2.0**128 and shift < 2.0**128):
        m = max(base, shift, math.sqrt(half_reg) * math.sqrt(g_abs))
        if 0.0 < m < math.inf:
            c = math.ldexp(1.0, min(-math.frexp(m)[1], 1000))
            g_abs, base, half_reg, shift = g_abs * c, base * c, half_reg * c, shift * c
    gap = base - shift
    num = 2.0 * (g_abs - base * r_floor)
    den = base + shift + math.sqrt(gap * gap + 4.0 * half_reg * g_abs)
    t = num / den if den else _divide(num, den)
    return 0.0 if t <= 0.0 else t


def _secular_bracket(terms: list, half_reg: float, r_floor: float) -> tuple:
    """The secular problem of ``terms``, bracketed and in floating-point range.

    ``terms`` are the (g_sq, base) pairs with g_sq > 0.  Returns ``(terms,
    half_reg, r_floor, lo, hi, unit)``: the problem with radii measured in
    ``unit``, a power of two, and a bracket [lo, hi] of its offset t.  The
    bracket is ``_lower_root`` on each component and on ||g|| against the
    largest and the smallest base.  The component that sets lo has g_i /
    (base_i + half_reg lo) = r_floor + lo = r_lo and leads psi near the
    root.  Where r_lo, its shift g_i / r_lo or lo is far from 1, the unit
    is the power of two that brings r_lo near sqrt(g_i) (lo / r_lo)^(-1/4),
    and so both the shift's square and lo r_lo near g_i sqrt(lo / r_lo).
    The bases scale by the unit, half_reg by its square, r_floor and the
    bracket by its inverse, and g not at all; a power of two scales
    exactly away from underflow and overflow.
    """
    gs, bases = zip(*terms)
    g_norm = math.sqrt(_sum(gs))
    lo, g_lo = 0.0, g_norm
    for g, b in terms:
        t = _lower_root(math.sqrt(g), b, half_reg, r_floor)
        if t > lo or t != t:  # a NaN root stays, as IEEE 754 maximum keeps it
            lo, g_lo = t, math.sqrt(g)
    t = _lower_root(g_norm, max(bases), half_reg, r_floor)
    if t > lo:
        lo, g_lo = t, g_norm
    hi = max(lo, _lower_root(g_norm, min(bases), half_reg, r_floor))
    r_lo = r_floor + lo
    if not 0.0 < r_lo < math.inf or (2.0**-128 <= r_lo < 2.0**128 and not 0.0 < lo < 2.0**-256
                                     and 2.0**-128 <= g_lo / r_lo < 2.0**128):
        return terms, half_reg, r_floor, lo, hi, 1.0
    e_r = math.frexp(r_lo)[1]
    e_g = math.frexp(g_lo)[1] // 2 - ((math.frexp(lo)[1] - e_r) // 4 if lo > 0.0 else 0)
    unit = math.ldexp(1.0, max(-1000, min(1000, e_r - max(-300, min(300, e_g)))))
    return ([(g, b * unit) for g, b in terms], half_reg * unit * unit,
            r_floor / unit, lo / unit, hi / unit, unit)


def _secular_offset(g_sq: list, base: list, half_reg: float, r_floor: float):
    """Solve psi(t) = r_floor + t for the offset t >= 0 above the floor radius.

    ``psi(t)^2 = sum g_sq / (base + half_reg t)^2`` over the components
    with ``g_sq > 0``, whose ``base`` (shifted eigenvalue at the floor)
    is non-negative; all are Python floats.  Newton's method runs on the
    concave increasing phi(t) = 1/psi(t) - 1/(r_floor + t) from a lower
    bound, in ``_secular_bracket``'s unit, so its iterates stay below the
    root; a step that leaves the bracket, or is no shorter than the one
    before it, is replaced by bisection.  Returns t and the psi evaluations.
    """
    terms = [(g, b) for g, b in zip(g_sq, base) if g > 0.0]
    if not terms:
        return 0.0, 0
    terms, half_reg, r_floor, lo, hi, unit = _secular_bracket(terms, half_reg, r_floor)
    if hi == 0.0:
        return 0.0, 1  # the bracket closes at the floor, where psi may not be a normal float
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
        dphi = half_reg * _sum(slopes) / psi**3 + 1.0 / (r * r)
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
    return t * unit, evals


class _LocalModel(NamedTuple):
    """The checked inputs of the cubic model at one point.

    ``grad`` is the gradient as a float array, ``grad_norm`` its norm and
    ``decomp`` the Hessian's EigenDecomp.  ``bundle`` is the point's
    derivatives when the model was built from them, else None.
    """

    grad: np.ndarray
    grad_norm: float
    decomp: EigenDecomp
    bundle: Optional[DerivativeBundle] = None


def _model_inputs(grad, decomp: EigenDecomp,
                  bundle: Optional[DerivativeBundle] = None) -> _LocalModel:
    """The local model of ``grad`` and ``decomp``, checked.

    Raises ValueError unless the gradient has the Hessian's dimension,
    the gradient, eigenvalues and eigenvectors are finite (``eigh`` can
    return finite eigenvalues and NaN vectors for a matrix with a NaN),
    and the gradient's norm is finite too: past about 1.3e154 it
    overflows, and an infinite norm would pass the solver's
    scale-relative certificate with a zero step.
    """
    g = np.asarray(grad, dtype=float)
    if g.shape != (decomp.dim,):
        raise ValueError(f"gradient of shape {g.shape} does not match hessian dim {decomp.dim}")
    if not _finite_decomp(decomp):
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
    return _LocalModel(g, _norm(g), decomp, bundle)


def _point_model(objective: Objective, x: np.ndarray, order: int) -> _LocalModel:
    """The checked local model at x: one bundle, one eig_sym, one input check and norm."""
    b = objective.bundle(x, order)
    return _model_inputs(b.grad, eig_sym(b.hess), b)


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

    Raises ValueError on a malformed or non-finite gradient, spectrum or
    ``reg``, and where the step's radius is too large for its cube to be
    a float.
    """
    check_positive("reg", reg)
    reg = float(reg)
    model = _model_inputs(grad, decomp)
    step, radius, evals, hess_s = _solve_step(model, reg)
    model_value = float(_matmul(model.grad, step) + _matmul(0.5 * step, hess_s)
                        + reg * radius**3 / 6.0)
    return CubicSolution(step=step, model_value=model_value, radius=radius, secular_evals=evals)


def _solve_step(model: _LocalModel, reg: float) -> tuple:
    """The step of :func:`solve_cubic_model` without its model value.

    Returns ``(step, radius, secular_evals, hess_s)``, hess_s being H
    times the step, for a positive Python-float ``reg``.  The certificate
    is checked here, and the radius's cube, which the model value and the
    step's promised decrease take, is checked to be a float.
    """
    g, g_norm, decomp, _ = model
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
    try:
        radius**3  # the model value and minimize's decrease test take the cube
    except OverflowError:
        # Python's ** raises once the cube passes the largest float, near radius 5.6e102
        raise ValueError(f"model value overflows: step radius {radius:.3e}") from None

    # Internal sanity certificate; scale-aware so legitimate large-norm
    # inputs do not trip it on roundoff, and written so that a NaN fails it.
    residual = _norm(g + hess_s + 0.5 * reg * radius * step)
    margin = lam_min + 0.5 * reg * radius
    res_scale = max(1.0, g_norm, spectral * max(1.0, radius))
    if not residual <= 1e-9 * res_scale or not margin >= -1e-9 * spectral:
        raise ArithmeticError(
            f"cubic subproblem certificate failed (residual {residual:.3e}, margin {margin:.3e})"
        )
    return step, radius, evals, hess_s


def stationarity(grad, decomp: EigenDecomp, reg: float) -> float:
    """Second-order progress measure from the gradient and Hessian spectrum at a point.

    The max of a gradient term sqrt(||g||/reg) and a curvature term
    -(2/(3 reg)) lambda_min clamped at zero; it is zero exactly when the
    gradient vanishes and the Hessian is psd.
    """
    check_positive("reg", reg)
    return _stationarity(_model_inputs(grad, decomp), float(reg))


def _stationarity(model: _LocalModel, reg: float) -> float:
    """:func:`stationarity` on a checked local model and a positive Python-float ``reg``."""
    grad_part = math.sqrt(model.grad_norm / reg)
    eig_part = max(0.0, -2.0 * float(model.decomp.eigenvalues[-1]) / (3.0 * reg))
    return max(grad_part, eig_part)
