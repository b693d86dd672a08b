"""Independent oracles used to derive and verify expected test values.

Everything here deliberately avoids the library's own computation paths:
derivatives come from sympy, contractions from explicit loops, minima
from brute-force grids, and roots from closed forms.
"""

import math

import numpy as np
import sympy as sp


def sympy_bundle(poly, x):
    """Symbolic value/grad/hess/third of a Polynomial at x, via sympy."""
    n = poly.dim
    syms = sp.symbols(f"v0:{n}")
    expr = sp.Integer(0)
    for coeff, exps in poly.terms:
        term = sp.Float(coeff, 25)
        for s, e in zip(syms, exps):
            term *= s**e
        expr += term
    subs = {s: sp.Float(float(v), 25) for s, v in zip(syms, x)}
    value = float(expr.subs(subs))
    grad = np.array([float(sp.diff(expr, s).subs(subs)) for s in syms])
    hess = np.array(
        [[float(sp.diff(expr, a, b).subs(subs)) for b in syms] for a in syms]
    )
    third = np.array(
        [[[float(sp.diff(expr, a, b, c).subs(subs)) for c in syms] for b in syms] for a in syms]
    )
    return value, grad, hess, third


def triple_loop_trilinear(entries, u, v, w):
    n = entries.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                total += entries[i, j, k] * u[i] * v[j] * w[k]
    return total


# Direct formula evaluations for the corpus members the acceptance
# criteria drive; independent of the Polynomial evaluator.

def confined_monkey_fn(x, y):
    return -3.0 * x**2 * y + y**3 + (x**2 + y**2) ** 2


def quartic_1d_fn(x):
    return x**2 - 100.0 * x**3 + x**4


def grid_min_2d(fn, lo, hi, points):
    axis = np.linspace(lo, hi, points)
    xx, yy = np.meshgrid(axis, axis)
    return float(fn(xx, yy).min())


def grid_min_1d(fn, lo, hi, points):
    axis = np.linspace(lo, hi, points)
    return float(fn(axis).min())


def quartic_1d_positive_root():
    """Largest stationary point of x^2 - 100x^3 + x^4, in closed form.

    The derivative factors as 2x (2x^2 - 150x + 1); the larger quadratic
    root is the global minimizer.
    """
    return (150.0 + math.sqrt(150.0**2 - 8.0)) / 4.0


def cubic_model_grid_min(g, hess, reg, radius=3.0, points=401):
    """Brute-force minimum of the cubic-regularized model over a ball grid."""
    axis = np.linspace(-radius, radius, points)
    xx, yy = np.meshgrid(axis, axis)
    s1, s2 = xx.ravel(), yy.ravel()
    norms = np.sqrt(s1**2 + s2**2)
    keep = norms <= radius
    s1, s2, norms = s1[keep], s2[keep], norms[keep]
    model = (
        g[0] * s1
        + g[1] * s2
        + 0.5 * (hess[0, 0] * s1**2 + 2 * hess[0, 1] * s1 * s2 + hess[1, 1] * s2**2)
        + reg / 6.0 * norms**3
    )
    return float(model.min())


def cubic_model_radius(eigenvalues, g_hat, reg):
    """Step norm of the global minimizer of the cubic model, by bisection.

    Works from exact spectral data: H = Q diag(eigenvalues) Q' and
    g_hat = Q'g.  The radius is the root r >= r_floor = max(0, -2
    lambda_min / reg) of ||g_hat / (eigenvalues + reg r / 2)|| = r, or
    r_floor itself when that norm already falls short of it (the hard
    case, possible only when g_hat vanishes on the bottom eigenspace).
    """
    lam = np.asarray(eigenvalues, dtype=float)
    g_hat = np.asarray(g_hat, dtype=float)
    r_floor = max(0.0, -2.0 * float(lam.min()) / reg)

    def excess(r):
        d = lam + 0.5 * reg * r
        with np.errstate(divide="ignore", invalid="ignore"):
            y = np.where(g_hat == 0.0, 0.0, g_hat / d)
        if np.any((d <= 0.0) & (g_hat != 0.0)):
            return math.inf
        return float(np.linalg.norm(y)) - r

    if excess(r_floor) <= 0.0:
        return r_floor
    lo, hi = r_floor, max(1.0, 2.0 * r_floor)
    while excess(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def triple_loop_transform(entries, matrix):
    """T(M e_p, M e_q, M e_r) for every output index triple, one at a time."""
    k = matrix.shape[1]
    out = np.zeros((k, k, k))
    for p in range(k):
        for q in range(k):
            for r in range(k):
                a, b, c = matrix[:, p], matrix[:, q], matrix[:, r]
                out[p, q, r] = float(
                    (entries * a[:, None, None] * b[None, :, None] * c[None, None, :]).sum()
                )
    return out
