"""Independent oracles used to derive and verify expected test values.

Everything here deliberately avoids the library's own computation paths:
derivatives come from sympy, contractions from explicit loops, minima
from brute-force grids, and roots from closed forms.  The exceptions are
``regularized_step``, a shared helper that takes the library's cubic step,
and the references that pin the floats of a fast path to the plainer code
it replaced: ``per_order_bundle`` reads a ``Polynomial``'s derivative rows,
``tensordot_transform`` and ``symmetrized_eigh`` are numpy calls,
``_secular_offset_arrays`` runs the secular iteration in numpy arrays
from the library's bracket and unit of radius,
``solve_model_arrays`` assembles the cubic step around it in numpy arrays,
``eig_sym_by_value`` tests symmetry with ``np.array_equal`` alone,
``full_escape_search`` walks every suffix without the spectral screen,
and ``subproblem_grid_min`` evaluates the subproblem suite's model at
every grid point.  ``reference_minimize`` rebuilds the optimizer loop
from the oracles above, with the library's constants and RNG stream.
``cubic_model_radius`` bisects on a norm taken at a power-of-two scale,
so it checks the solver's radius independently at any scale.
"""

import functools
import itertools
import math
import warnings

import numpy as np
import sympy as sp

from thirdopt import Subspace, SymTensor3, eig_sym, solve_cubic_model
from thirdopt.escape import MAX_SAMPLER_DRAWS, PROJ_NORM_FLOOR, QUIET_WINDOW, EscapeSubspace
from thirdopt.cubic import (_HARD_CASE_REL, _SECULAR_MAX_EVALS, _SECULAR_RTOL, CubicSolution,
                            _secular_bracket, _sum)
from thirdopt.spectral import _SYM_TOL, EigenDecomp, _norm


def regularized_step(objective, x, reg):
    """x plus the global minimizer of the cubic-regularized model at x."""
    b = objective.bundle(x, 2)
    return x + solve_cubic_model(b.grad, eig_sym(b.hess), reg).step


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


def term_loop_partial(poly, x, axes):
    """One derivative entry by a loop over the terms, in the library's float order.

    Per term: the integer falling-factorial multiplier times the coefficient,
    times the residual monomial multiplied up in axis order from scalar
    powers, added to the entry in term order.
    """
    total = 0.0
    for coeff, exps in poly.terms:
        left, factor = list(exps), 1
        for a in axes:
            factor *= left[a]
            left[a] -= 1
        if factor == 0:
            continue
        mono = 1.0
        for i, e in enumerate(left):
            if e:
                mono *= x[i] ** e
        total += coeff * factor * mono
    return total


def sympy_frobenius_bound(poly, order, radius):
    """Term-wise bound of sup ||D^order f||_F on a ball, in exact arithmetic.

    For each ordered index tuple, every term's symbolic partial c * x^a is
    bounded by |c| radius^|a| on the ball; an entry's bound is the sum over
    terms, and the result is the Frobenius norm of the entry bounds.
    Partials commute, so entry bounds are memoized by the sorted tuple.
    """
    syms = sp.symbols(f"v0:{poly.dim}")
    r = sp.Rational(radius)
    monomials = [sp.Rational(c) * sp.prod([s**e for s, e in zip(syms, exps)])
                 for c, exps in poly.terms]

    @functools.cache
    def entry_bound(index):
        bound = sp.Integer(0)
        for mono in monomials:
            partial = sp.Poly(sp.diff(mono, *(syms[i] for i in index)), *syms)
            if not partial.is_zero:
                bound += abs(partial.LC()) * r**partial.total_degree()
        return bound

    total = sum(entry_bound(tuple(sorted(index)))**2
                for index in itertools.product(range(poly.dim), repeat=order))
    return float(sp.sqrt(total).evalf(30))


def rank_one(v):
    """The symmetric outer cube v (x) v (x) v, from an explicit outer product."""
    v = np.asarray(v, dtype=float)
    return SymTensor3(v[:, None, None] * v[None, :, None] * v[None, None, :])


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


@functools.cache
def _subproblem_grid():
    """The 401 x 401 grid on [-3, 3]^2 cut to the radius-3 ball, in row-major order."""
    axis = np.linspace(-3.0, 3.0, 401)
    xx, yy = np.meshgrid(axis, axis)
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    norms = np.linalg.norm(pts, axis=1)
    inside = norms <= 3.0
    cubed = norms[inside]
    cubed *= cubed * cubed
    pts = pts[inside]
    x0, x1 = pts.T.copy()
    return pts, x0, x1, cubed


def subproblem_grid_min(g, h, reg):
    """The subproblem suite's model at every point of its grid; the least.

    The model is ``pts @ g + 0.5 * quad + reg / 6 * r * (r * r)`` with
    x'Hx taken term by term.
    """
    pts, x0, x1, cubed = _subproblem_grid()
    quad = np.zeros(len(pts))
    quad += x0 * h[0, 0] * x0
    quad += x0 * h[0, 1] * x1
    quad += x1 * h[1, 0] * x0
    quad += x1 * h[1, 1] * x1
    model = pts @ g + 0.5 * quad + reg / 6.0 * cubed
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
        # the norm of y scaled by a power of two, so that no square under- or overflows
        scale = math.ldexp(1.0, min(1000, -math.frexp(float(np.abs(y).max()))[1]))
        return float(np.linalg.norm(y * scale)) / scale - r

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


def _reference_derivatives(poly, x, order):
    """Value, gradient, Hessian and (at order 3) third derivative by ``term_loop_partial``."""
    n, row = poly.dim, x.tolist()
    value = term_loop_partial(poly, row, ())
    grad = np.array([term_loop_partial(poly, row, (i,)) for i in range(n)])
    hess = np.array([[term_loop_partial(poly, row, (i, j)) for j in range(n)] for i in range(n)])
    third = None
    if order == 3:
        third = np.array([[[term_loop_partial(poly, row, (i, j, k)) for k in range(n)]
                           for j in range(n)] for i in range(n)])
    return value, grad, hess, third


def _near(a, b, rel=1e-9):
    """Whether a decision between a and b lies within ``rel`` of its threshold."""
    return abs(a - b) <= rel * max(abs(a), abs(b))


def reference_minimize(poly, x0, config):
    """``minimize`` rebuilt from the oracles: (rows, complete).

    Derivatives come from ``term_loop_partial``, the spectrum from plain
    ``np.linalg.eigh`` sorted descending, the step radius from
    ``cubic_model_radius`` with the step taken in the eigenbasis, the
    escape search from a ``triple_loop_transform`` rotation walked over
    every suffix, and the sampler's contraction from
    ``triple_loop_trilinear``.  The RNG stream, the trigger, escape and
    stop rules and the hard-case thresholds are ``minimize``'s.

    Each row is (iteration, phase, value, grad_norm, stationarity,
    proj_norm, subspace_dim, step_norm).  The run stops early at the
    first trigger, escape, sampler, hard-case or stop decision that lies
    within 1e-9 relative of its threshold, since the library's rounding
    may take it the other way; ``complete`` is False then, and the rows
    are those decided before it.  A complete run appends
    ('end', reason, final_value, final_point).
    """
    n = poly.dim
    x = np.array(x0, dtype=float)
    rng = np.random.default_rng(config.seed)
    q = config.sampler_constant * n**1.5
    reg, lip3 = config.hess_lipschitz, config.third_lipschitz
    denom = 12.0 * lip3 * q**2
    rows = []

    def spectrum(hess):
        values, vectors = np.linalg.eigh(hess)
        return values[::-1], vectors[:, ::-1]

    f_x, grad, hess, _ = _reference_derivatives(poly, x, 2)
    quiet = 0
    reason = "budget"
    for it in range(config.max_iters):
        # The cubic step, in the eigenbasis of the Hessian at x
        lam, vecs = spectrum(hess)
        g_hat = vecs.T @ grad
        spectral = max(1.0, abs(lam[0]), abs(lam[-1]))
        bottom = lam - lam[-1] <= 1e-12 * spectral
        g_norm = float(np.linalg.norm(grad))
        g_bottom = float(np.linalg.norm(g_hat[bottom]))
        if _near(g_bottom, _HARD_CASE_REL * max(1.0, g_norm)):
            return rows, False
        hard_candidate = g_bottom <= _HARD_CASE_REL * max(1.0, g_norm)
        if hard_candidate:
            g_hat[bottom] = 0.0
        radius = cubic_model_radius(lam, g_hat, reg)
        r_floor = max(0.0, -2.0 * float(lam[-1]) / reg)
        with np.errstate(divide="ignore", invalid="ignore"):
            s_hat = np.where(g_hat == 0.0, 0.0, -g_hat / (lam + 0.5 * reg * radius))
        if g_norm == 0.0 and lam[-1] >= -1e-15 * spectral:
            s_hat[:] = 0.0
        elif hard_candidate and r_floor > 0.0:
            # The hard case when the complement's solution at the floor
            # falls short of it: fill the deficit along the first bottom
            # eigenvector
            p = float(np.linalg.norm(g_hat[~bottom] / (lam - lam[-1])[~bottom]))
            if _near(p, r_floor):
                return rows, False
            if p < r_floor:
                s_hat[int(np.argmax(bottom))] = math.sqrt(max(r_floor**2 - p**2, 0.0))
        step = vecs @ s_hat
        step_norm = float(np.linalg.norm(step))
        z = x + step

        # The post-cubic point: stationarity, escape search and trigger
        f_z, grad_z, hess_z, third_z = _reference_derivatives(poly, z, 3)
        lam_z, vecs_z = spectrum(hess_z)
        grad_norm = float(np.linalg.norm(grad_z))
        mu = max(math.sqrt(grad_norm / reg), max(0.0, -2.0 * float(lam_z[-1]) / (3.0 * reg)))
        rotated_sq = triple_loop_transform(third_z, vecs_z) ** 2
        proj_norm, rank = 0.0, 0
        for i in range(n):
            proj_sq = float(rotated_sq[i:, i:, i:].sum())
            if _near(lam_z[i], proj_sq / denom):
                return rows, False
            if lam_z[i] <= proj_sq / denom:
                norm = math.sqrt(proj_sq)
                if _near(norm, PROJ_NORM_FLOOR):
                    return rows, False
                if norm > PROJ_NORM_FLOOR:
                    proj_norm, rank = norm, n - i
                break
        threshold = q * (24.0 * grad_norm * lip3) ** (1.0 / 3.0)
        if rank and _near(proj_norm, threshold):
            return rows, False
        trigger = bool(rank) and proj_norm >= threshold
        shared = (grad_norm, mu, proj_norm, rank)
        rows.append((it, "cubic", f_z) + shared + (step_norm,))

        if trigger:
            basis = vecs_z[:, n - rank:]
            for _ in range(MAX_SAMPLER_DRAWS):
                u = basis @ rng.standard_normal(rank)
                u /= np.linalg.norm(u)
                t = triple_loop_trilinear(third_z, u, u, u)
                if _near(abs(t), proj_norm / q):
                    return rows, False
                if abs(t) >= proj_norm / q:
                    break
            else:
                raise AssertionError("the reference sampler ran out of draws")
            x = z - proj_norm / (lip3 * q) * (u if t > 0 else -u)
            f_x, grad, hess, _ = _reference_derivatives(poly, x, 2)
            rows.append((it, "third", f_x) + shared + (float(np.linalg.norm(x - z)),))
            quiet = 0
        else:
            x, f_x, grad, hess = z, f_z, grad_z, hess_z
            quiet += 1

        if quiet >= QUIET_WINDOW and _near(mu, config.tol_mu):
            return rows, False
        if mu <= config.tol_mu and quiet >= QUIET_WINDOW:
            rows.append((it, "terminal", f_x) + shared + (0.0,))
            reason = "terminal"
            break
    rows.append(("end", reason, f_x, x))
    return rows, True


def projected(entries, basis):
    """T(P, P, P) for the orthogonal projector P = V V' onto the span of the
    orthonormal columns V of ``basis``, by one einsum over the n x n projector."""
    basis = np.asarray(basis, dtype=float)
    p = basis @ basis.T
    return np.einsum("ijk,ip,jq,kr->pqr", entries, p, p, p)


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


def per_order_bundle(poly, x, order):
    """Value and derivatives of a Polynomial at one point, one order at a time.

    The float order the fused derivative table has to keep: scalar powers
    ``x[i] ** e``, then for each order k <= ``order`` its own rows, each
    residual product in table order times the multiplier, added by one
    ``bincount`` over the n**k entries.  Orders above ``order`` are zero.
    """
    n = poly.dim
    row = [float(v) for v in x]
    powers = np.array([row[i] ** e for i, e in poly._slots], dtype=float)
    flat = []
    for k in range(4):
        if k > order:
            flat.append(np.zeros(n**k))
            continue
        pos, residual, mult, _ = poly._rows(k)
        terms = mult * np.multiply.reduce(powers[residual], axis=0)
        flat.append(np.bincount(pos, terms, minlength=n**k))
    return flat[0][0], flat[1], flat[2].reshape(n, n), flat[3].reshape(n, n, n)


def full_escape_search(decomp, third, denom):
    """The escape search as a plain walk over every suffix, with no screen.

    Rotates T into the eigenbasis and takes the first suffix i with
    lambda_i <= ||T_suffix||_F^2 / denom; a qualifying norm at or below
    ``PROJ_NORM_FLOOR`` ends the walk empty, as does no qualifying suffix.
    """
    n = decomp.dim
    if third.dim != n:
        raise ValueError(f"tensor dim {third.dim} does not match matrix dim {n}")
    rotated_sq = third.transform(decomp.eigenvectors).entries ** 2
    for i in range(n):
        proj_sq = float(rotated_sq[i:, i:, i:].sum())
        bound = proj_sq / denom
        if decomp.eigenvalues[i] <= bound:
            proj_norm = math.sqrt(proj_sq)
            if proj_norm <= PROJ_NORM_FLOOR:
                break
            return EscapeSubspace(
                subspace=Subspace(n, decomp.eigenvectors[:, i:]),
                proj_norm=proj_norm,
                curvature_bound=bound,
                suffix_index=i,
            )
    return EscapeSubspace(Subspace.empty(n), 0.0, 0.0, None)


def tensordot_transform(entries, matrix):
    """T(M e_p, M e_q, M e_r) by three ``np.tensordot`` contractions of the leading slot."""
    out = entries
    for _ in range(3):
        out = np.tensordot(out, matrix, axes=(0, 0))
    return out


def eig_sym_by_value(matrix):
    """``eig_sym`` with its exact-symmetry test on values alone, ``np.array_equal``
    with a NaN equal to a NaN.

    Input that is not exactly symmetric is checked against ``_SYM_TOL``
    and averaged, as in ``eig_sym``: each facing pair's sum halved, or
    where that sum overflows, the sum of the halves.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.array_equal(m, m.T, equal_nan=True):
        # Both norms of m over 2^e, where 2^(e - 1) <= max |m_ij| < 2^e, e >= 0
        exponent = max(math.frexp(float(np.abs(m).max()))[1], 0)
        scaled = np.ldexp(m, -exponent)
        with np.errstate(invalid="ignore"):
            asym = float(np.linalg.norm(scaled - scaled.T))
        if not asym / max(2.0**-exponent, float(np.linalg.norm(scaled))) <= _SYM_TOL:
            raise ValueError(f"matrix is not symmetric or has non-finite entries "
                             f"(asymmetry {asym / 2.0**-exponent:.3e})")
        with np.errstate(over="ignore"):
            total = m + m.T
        m = np.where(np.isfinite(total), total / 2.0, np.ldexp(m, -1) + np.ldexp(m.T, -1))
    values, vectors = np.linalg.eigh(m)
    return EigenDecomp(values[::-1].copy(), vectors[:, ::-1].copy())


def symmetrized_eigh(matrix):
    """Descending eigenvalues and eigenvectors of (M + M') / 2 by ``np.linalg.eigh``.

    Overflow or NaN in the averaging passes through as it comes.
    """
    m = np.asarray(matrix, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        values, vectors = np.linalg.eigh((m + m.T) / 2.0)
    return values[::-1], vectors[:, ::-1]


def _secular_offset_arrays(g_sq: np.ndarray, base: np.ndarray, half_reg: float, r_floor: float):
    """Solve psi(t) = r_floor + t for the offset t >= 0 above the floor radius.

    The Newton and bisection iteration of ``cubic._secular_offset`` in
    numpy arrays, on the components with ``g_sq > 0``: ``psi(t)^2 = sum
    g_sq / (base + half_reg t)^2``, sums by ``cubic._sum``, squares
    ``x * x``.  The bracket and the unit of radius are the library's
    ``_secular_bracket``.  Returns the offset and the number of psi
    evaluations.
    """
    active = g_sq > 0.0
    if not active.any():
        return 0.0, 0
    terms, half_reg, r_floor, lo, hi, unit = _secular_bracket(
        list(zip(g_sq[active].tolist(), base[active].tolist())), half_reg, r_floor)
    if hi == 0.0:
        return 0.0, 1
    g_sq, base = np.array(terms).T
    t, last_step = lo, math.inf
    for evals in range(1, _SECULAR_MAX_EVALS + 1):
        d = base + half_reg * t
        w = g_sq / (d * d)
        psi = math.sqrt(_sum(w.tolist()))
        r = r_floor + t
        phi = 1.0 / psi - 1.0 / r
        if abs(phi) * psi <= _SECULAR_RTOL:
            break
        if phi < 0.0:
            lo = t
        else:
            hi = t
        dphi = half_reg * _sum((w / d).tolist()) / psi**3 + 1.0 / (r * r)
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
    return t * unit, evals


def solve_model_arrays(model):
    """The cubic step of a checked ``cubic._LocalModel``, assembled in numpy arrays.

    The same method as ``cubic._solve_model``: masks for the bottom
    eigenspace, ``np.where`` and ``np.errstate`` for the hard case's zero
    divisors, and ``_secular_offset_arrays`` for the radius.  numpy's
    warnings are silenced.
    """
    g, g_norm, decomp, reg, _ = model
    lam = decomp.eigenvalues
    v = decomp.eigenvectors
    g_hat = v.T @ g
    lam_min = float(lam[-1])
    spectral = decomp.spectral_scale()
    half_reg = 0.5 * reg

    gap = lam - lam_min
    if lam_min < 0.0:
        r_floor = -lam_min / half_reg
        base = gap
    else:
        r_floor = 0.0
        base = lam
    bottom = gap <= 1e-12 * spectral
    g_bottom = _norm(g_hat[bottom])
    hard_candidate = g_bottom <= _HARD_CASE_REL * max(1.0, g_norm)
    g_sq = g_hat**2
    if hard_candidate:
        g_sq[bottom] = 0.0

    t, evals = 0.0, 0
    with np.errstate(all="ignore"):
        if g_norm == 0.0 and lam_min >= -1e-15 * spectral:
            s_hat = np.zeros_like(g_hat)
        else:
            if hard_candidate:
                p = _norm(np.where(bottom, 0.0, g_hat / base))
                evals = 1
            if not hard_candidate or p >= r_floor:
                t, solve_evals = _secular_offset_arrays(g_sq, base, half_reg, r_floor)
                evals += solve_evals
            s_hat = -g_hat / (base + half_reg * t)
            if hard_candidate:
                s_hat[bottom] = 0.0
            if hard_candidate and p < r_floor:
                s_hat[int(np.argmax(bottom))] += math.sqrt(max(r_floor * r_floor - p * p, 0.0))

    step = v @ s_hat
    radius = _norm(step)
    hess_s = (v * lam) @ s_hat
    model_value = float(g @ step + 0.5 * step @ hess_s + reg * radius**3 / 6.0)
    residual = _norm(g + hess_s + 0.5 * reg * radius * step)
    margin = lam_min + 0.5 * reg * radius
    res_scale = max(1.0, g_norm, spectral * max(1.0, radius))
    if residual > 1e-9 * res_scale or margin < -1e-9 * spectral:
        raise ArithmeticError(
            f"cubic subproblem certificate failed (residual {residual:.3e}, margin {margin:.3e})"
        )
    return CubicSolution(step=step, model_value=model_value, radius=radius, secular_evals=evals)
