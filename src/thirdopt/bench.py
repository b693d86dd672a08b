"""Seeded benchmark suites that exercise the optimizer's guarantees.

Each suite returns one row per case with a pass flag and the measured
quantities, so a CSV dump doubles as evidence for the per-step decrease
inequalities, the escape behaviour on the degenerate corpus, the rate
envelope, the sampler contract, the Taylor remainder bound, and the
subproblem solver's agreement with a brute-force grid.

Everything here is deterministic given the seed: runs write byte
identical CSV files, which makes regressions diffable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .conditions import check_third_order
from .cubic import solve_cubic_model, stationarity
from .escape import (
    DECREASE_TOL,
    SAMPLER_CONSTANT,
    OptimizerConfig,
    _approx_factor,
    minimize,
    rate_report,
    sample_direction,
)
from .polynomials import Polynomial, corpus, smoothness_bounds
from .spectral import Subspace, _einsum, _matmul, _norm, _row_norms, _vecdot, eig_sym
from .tensors import SymTensor3, _symmetrized


@dataclass(frozen=True)
class BenchRow:
    suite: str
    case: str
    passed: bool
    quantities: tuple

    def quantities_str(self) -> str:
        return ";".join(f"{k}={v!r}" for k, v in self.quantities)


def write_csv(rows, path) -> None:
    lines = ["suite,case,passed,quantities"]
    for r in rows:
        lines.append(f"{r.suite},{r.case},{int(r.passed)},{r.quantities_str()}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


# -- shared oracles ---------------------------------------------------------

# Relative gap allowed between a grid minimum's screen and the exact values;
# see _grid_minimum and _subproblem_grid_minimum.
SCREEN_SLACK = 2.0**-30
# Most grid points a grid minimum evaluates exactly at once.
SCREEN_CHUNK = 2**16


def grid_minimum_2d(poly: Polynomial, lo: float, hi: float, points: int) -> float:
    """Minimum of a 2-D polynomial over the square grid ``linspace(lo, hi, points)`` squared."""
    return _grid_minimum(poly, 2, lo, hi, points)


def grid_minimum_1d(poly: Polynomial, lo: float, hi: float, points: int) -> float:
    """Minimum of a 1-D polynomial over ``linspace(lo, hi, points)``."""
    return _grid_minimum(poly, 1, lo, hi, points)


def _grid_minimum(poly: Polynomial, dim: int, lo: float, hi: float, points: int) -> float:
    """The least of ``poly.value`` over the grid with ``dim`` copies of one axis.

    Returns that float bit for bit, but evaluates exactly only where the
    minimum can be.  A screen approximates the grid from the Vandermonde
    matrix ``V[:, e] = axis ** e`` (repeated multiplication) and the
    coefficients ``C`` with a matmul chain, ``V @ C`` in 1-D and
    ``(V @ C) @ V.T`` in 2-D.  With ``R = max |axis|`` and ``M = sum |c| *
    R ** d`` over the terms, ``d`` a term's degree, ``M`` bounds the terms'
    absolute sum at every grid point.  Either path takes each of at most
    28 terms of degree at most 6 through at most k = 31 roundings, so it
    strays from the true value by at most ``gamma_k * M``, about 3.4e-15 M
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 3.1).  For
    the exact engine this assumes libm ``pow`` is within an ulp of
    ``x ** e``, as glibc's is.  ``SCREEN_SLACK`` is far above both, so
    ``|screen - exact| <= slack * M`` at every point.  If ``p`` minimises
    the exact values and the screen is least at ``q``::

        screen(p) <= exact(p) + slack M <= exact(q) + slack M
                  <= screen(q) + 2 slack M

    So the points whose screened value is at most ``screen.min() + 2 slack
    M`` include ``p``, and their least exact value is the grid's.  A loose
    slack only admits more candidates.  When ``2 M`` overflows, the bound
    says nothing and every point is evaluated exactly, which returns the
    same ``inf`` or ``nan`` as evaluating the grid point by point.
    """
    if poly.dim != dim:
        raise ValueError(f"expected a {dim}-D polynomial, got dimension {poly.dim}")
    for name, bound in (("lo", lo), ("hi", hi)):
        if not math.isfinite(bound):
            raise ValueError(f"{name} must be finite, got {bound}")
    if points < 1:
        raise ValueError(f"points must be at least 1, got {points}")
    axis = np.linspace(lo, hi, points)
    terms = poly.terms
    reach = float(np.abs(axis).max())
    scale = sum(abs(c) * math.prod(reach**e for e in exps) for c, exps in terms)
    if math.isfinite(2.0 * scale):
        top = max((max(exps) for _, exps in terms), default=0)
        # V transposed, so each power is a contiguous row
        powers = np.ones((top + 1, points))
        for e in range(1, top + 1):
            powers[e] = powers[e - 1] * axis
        coeffs = np.zeros((top + 1,) * dim)
        for c, exps in terms:
            coeffs[exps] = c
        screen = powers.T @ coeffs
        if dim == 2:
            screen = screen @ powers
        keep = np.flatnonzero(screen <= screen.min() + 2.0 * SCREEN_SLACK * scale)
    else:
        keep = np.arange(points**dim)
    candidates = np.column_stack([axis[i] for i in np.unravel_index(keep, (points,) * dim)])
    # bundle_many's work arrays grow with the points times the table's rows,
    # so a large candidate set (every point, for a constant polynomial) goes
    # in chunks
    least = [poly.bundle_many(candidates[k:k + SCREEN_CHUNK], 0)[0].min()
             for k in range(0, len(candidates), SCREEN_CHUNK)]
    return float(np.min(least))


def quartic_descent_target() -> float:
    """Largest stationary point of x^2 - 100 x^3 + x^4 (its global minimizer)."""
    roots = np.roots([4.0, -300.0, 2.0, 0.0])
    real = roots[np.abs(roots.imag) < 1e-9].real
    return float(real.max())


def unit_ball_points(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """Uniform points in the unit ball (rejection-free radial sampling)."""
    return ball_points(rng.standard_normal((count, dim)), rng.random(count))


def ball_points(gaussians: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Map rows of Gaussian draws and one uniform draw per row into the unit ball.

    Each radius is ``u ** (1 / dim)``: a square root at dim 2, which is
    correctly rounded where libm ``pow`` is not, else scalar ``pow``.
    numpy's vectorized power would round by the machine's SIMD level at
    dim >= 3.
    """
    dim = gaussians.shape[1]
    directions = gaussians / _row_norms(gaussians)[:, None]
    if dim == 2:
        radii = np.sqrt(uniforms)
    else:
        e = 1.0 / dim
        radii = np.array([u**e for u in uniforms.tolist()])
    return directions * radii[:, None]


# -- run configurations for the degenerate corpus ---------------------------


def confined_monkey_config(max_iters: int = 50, seed: int = 0) -> OptimizerConfig:
    # Bounds on the radius-2 ball: iterates stay in the f<=0 level set
    # (inside the unit ball) and no step can leave radius 2.
    bounds = smoothness_bounds(corpus("monkey_saddle_confined"), radius=2.0)
    return OptimizerConfig(
        hess_lipschitz=bounds.hess_lipschitz,
        third_lipschitz=bounds.third_lipschitz,
        max_iters=max_iters,
        seed=seed,
    )


def quartic_1d_config(max_iters: int = 100, seed: int = 0) -> OptimizerConfig:
    # The fourth derivative is the constant 24, so that bound is exact and
    # global.  The Hessian bound is the term-wise value on |x| <= 125,
    # which contains the whole excursion of any descent run (the starting
    # level set ends near x = 100 and steps are shorter than 25).
    bounds = smoothness_bounds(corpus("quartic_1d"), radius=125.0)
    return OptimizerConfig(
        hess_lipschitz=bounds.hess_lipschitz,
        third_lipschitz=24.0,
        max_iters=max_iters,
        seed=seed,
    )


def xxy_fixed_point_config(max_iters: int = 10, seed: int = 0) -> OptimizerConfig:
    # The third derivative of x^2 y + y^2 is constant, so any positive
    # third-order constant is valid; 1.0 keeps the curvature threshold
    # below the Hessian's positive eigenvalue, so no subspace competes.
    # The Hessian bound 12 is the global Frobenius norm of the third
    # derivative.
    return OptimizerConfig(
        hess_lipschitz=12.0, third_lipschitz=1.0, max_iters=max_iters, seed=seed
    )


# -- suites ------------------------------------------------------------------


def run_decrease(seed: int) -> list:
    """Per-step decrease and step-vs-stationarity inequalities.

    20 seeded cubic steps per corpus member from points in the unit ball,
    then every triggered escape step from the degenerate-corpus runs.
    Bounds are taken on the radius-5 ball, which contains every segment a
    step from the unit ball can traverse (checked per case).
    """
    rows = []
    rng = np.random.default_rng(seed)
    for name in ("monkey_saddle", "monkey_saddle_confined", "xxy_plus_yy",
                 "quartic_1d", "wine_bottle", "inverted_wine_bottle", "quartic_plus_sixth"):
        poly = corpus(name)
        bounds = smoothness_bounds(poly, radius=5.0)
        reg = bounds.hess_lipschitz
        for idx, x in enumerate(unit_ball_points(rng, poly.dim, 20)):
            b = poly.bundle(x, 2)
            sol = solve_cubic_model(b.grad, eig_sym(b.hess), reg)
            z = x + sol.step
            inside = _norm(z) <= 5.0
            b_z = poly.bundle(z, 2)
            mu = stationarity(b_z.grad, eig_sym(b_z.hess), reg)
            dec_margin = b.value - reg * sol.radius**3 / 12.0 - b_z.value
            mu_margin = sol.radius - mu
            ok = inside and dec_margin >= -DECREASE_TOL and mu_margin >= -DECREASE_TOL
            rows.append(BenchRow(
                "decrease", f"{name}/cubic{idx}", ok,
                (("decrease_margin", dec_margin), ("mu_margin", mu_margin), ("inside", inside)),
            ))
    for name, trace in (
        ("monkey_saddle_confined", minimize(corpus("monkey_saddle_confined"),
                                            np.zeros(2), confined_monkey_config(seed=seed))),
        ("quartic_1d", minimize(corpus("quartic_1d"), np.zeros(1), quartic_1d_config(seed=seed))),
    ):
        for rec in trace.third_records():
            rows.append(BenchRow(
                "decrease", f"{name}/third{rec.iteration}", rec.flags["third_decrease"] is True,
                (("proj_norm", rec.proj_norm), ("step_norm", rec.step_norm)),
            ))
    return rows


def run_escape(seed: int) -> list:
    """Escape behaviour on the degenerate corpus.

    At the confined monkey saddle's origin all derivatives the cubic
    model sees vanish, so a second-order method is a fixed point there;
    the third-order trigger is what moves.
    """
    rows = []

    confined = corpus("monkey_saddle_confined")
    cfg = confined_monkey_config(seed=seed)
    x = np.zeros(2)
    drift = 0.0
    for _ in range(100):
        b = confined.bundle(x, 2)
        x = x + solve_cubic_model(b.grad, eig_sym(b.hess), cfg.hess_lipschitz).step
        drift = max(drift, _norm(x))
    rows.append(BenchRow("escape", "confined_monkey/cubic_only_stalls", drift <= 1e-12,
                         (("max_drift", drift),)))

    delta = -grid_minimum_2d(confined, -2.0, 2.0, 1001)
    trace = minimize(confined, np.zeros(2), cfg)
    escaped = trace.final_value <= -delta
    rows.append(BenchRow("escape", "confined_monkey/full_algorithm_escapes", bool(escaped),
                         (("final_f", trace.final_value), ("delta", delta),
                          ("third_steps", len(trace.third_records())))))

    quartic = corpus("quartic_1d")
    qtrace = minimize(quartic, np.zeros(1), quartic_1d_config(seed=seed))
    target = quartic_descent_target()
    q_ok = qtrace.final_value < 0.0 and abs(float(qtrace.final_point[0]) - target) <= 1e-2
    rows.append(BenchRow("escape", "quartic_1d/escapes_to_global_min", bool(q_ok),
                         (("final_x", float(qtrace.final_point[0])), ("target", target),
                          ("final_f", qtrace.final_value))))

    xxy = corpus("xxy_plus_yy")
    xtrace = minimize(xxy, np.zeros(2), xxy_fixed_point_config(seed=seed))
    report = check_third_order(xxy, xtrace.final_point)
    x_ok = (xtrace.reason == "terminal"
            and _norm(xtrace.final_point) <= 1e-12
            and report.holds)
    rows.append(BenchRow("escape", "xxy_plus_yy/third_order_fixed_point", bool(x_ok),
                         (("final_norm", _norm(xtrace.final_point)),
                          ("reason", xtrace.reason), ("verdict", report.verdict.value))))
    return rows


def run_rate(seed: int) -> list:
    """Finite-budget quality envelope over t = 100 iterations."""
    rows = []
    cases = []

    confined = corpus("monkey_saddle_confined")
    cases.append(("monkey_saddle_confined", confined, np.zeros(2),
                  confined_monkey_config(max_iters=100, seed=seed),
                  grid_minimum_2d(confined, -2.0, 2.0, 1001)))

    wine = corpus("wine_bottle")
    wb = smoothness_bounds(wine, radius=3.0)
    cases.append(("wine_bottle", wine, np.array([1.2, -0.7]),
                  OptimizerConfig(wb.hess_lipschitz, wb.third_lipschitz, max_iters=100, seed=seed),
                  grid_minimum_2d(wine, -2.0, 2.0, 1001)))

    inverted = corpus("inverted_wine_bottle")
    ib = smoothness_bounds(inverted, radius=3.0)
    cases.append(("inverted_wine_bottle", inverted, np.array([0.4, 0.3]),
                  OptimizerConfig(ib.hess_lipschitz, ib.third_lipschitz, max_iters=100, seed=seed),
                  grid_minimum_2d(inverted, -2.0, 2.0, 1001)))

    quartic = corpus("quartic_1d")
    cases.append(("quartic_1d", quartic, np.zeros(1), quartic_1d_config(max_iters=100, seed=seed),
                  grid_minimum_1d(quartic, -20.0, 110.0, 130001)))

    for name, poly, x0, cfg, f_star in cases:
        trace = minimize(poly, x0, cfg)
        report = rate_report(trace, f_star)
        rows.append(BenchRow("rate", name, report.satisfied,
                             (("mu_bound", report.mu_bound),
                              ("static_proj_bound", report.static_proj_bound),
                              ("n_qualifying", len(report.qualifying)))))
    return rows


def run_sampler(seed: int) -> list:
    """Direction-sampler contract on 1000 random dimension-5 tensors.

    Each tensor's threshold is its Frobenius norm over B * 5^1.5, B being
    ``SAMPLER_CONSTANT``, and every accepted direction must reach it; the
    empirical mean number of draws must stay at or below 3 (the
    acceptance constant of the underlying anti-concentration bound is
    not pinned down, hence the slack over the ideal expectation of 2).

    Each tensor is a Gaussian draw from its own generator, which the
    sampler then goes on drawing from.  The 1000 draws come first, and one
    ``_symmetrized`` over their stack gives each tensor the entries
    ``SymTensor3`` gives it alone: the permutations are added element by
    element in the same order.
    """
    rows = []
    base = np.random.default_rng(seed)
    n = 5
    full = Subspace.full(n)
    rngs = [np.random.default_rng(base.integers(2**63)) for _ in range(1000)]
    entries = _symmetrized(np.stack([rng.standard_normal((n, n, n)) for rng in rngs]))
    draws = []
    for case, rng in enumerate(rngs):
        tensor = SymTensor3._trusted(entries[case])
        bound = tensor.frobenius_norm() / _approx_factor(SAMPLER_CONSTANT, n)
        sample = sample_direction(tensor, full, bound, rng)
        t = tensor.trilinear(sample.direction, sample.direction, sample.direction)
        ok = t >= bound and abs(_norm(sample.direction) - 1.0) <= 1e-12
        draws.append(sample.draws)
        rows.append(BenchRow("sampler", f"tensor{case}", bool(ok),
                             (("contraction", t), ("bound", bound), ("draws", sample.draws))))
    mean_draws = float(np.mean(draws))
    rows.append(BenchRow("sampler", "mean_draws", mean_draws <= 3.0,
                         (("mean_draws", mean_draws),)))
    return rows


def run_taylor(seed: int) -> list:
    """Fourth-order Taylor remainder bound on the degree <= 4 members.

    1000 seeded pairs per member inside the unit ball; the remainder of
    the order-3 expansion must stay below (L/24) ||y-x||^4 within a 1e-6
    relative slack.  Pairs closer than 0.05 are redrawn: there the exact
    remainder is far below float cancellation noise and the ratio would
    measure roundoff, not the bound.
    """
    rows = []
    rng = np.random.default_rng(seed)
    members = ("monkey_saddle", "monkey_saddle_confined", "xxy_plus_yy",
               "quartic_1d", "wine_bottle")
    for name in members:
        poly = corpus(name)
        lip3 = smoothness_bounds(poly, radius=1.0).third_lipschitz
        x, y, d, dist = _taylor_pairs(rng, poly.dim, 1000)
        expansion = taylor_expansion(*poly.bundle_many(x, 3), d)
        remainder = np.abs(poly.bundle_many(y, 0)[0] - expansion)
        # dist**4 by scalar pow: numpy's array power can differ in the last bit
        ratio = remainder / (lip3 / 24.0 * np.array([r**4 for r in dist.tolist()]))
        # the first largest ratio, or 0.0 when none is positive, as a running max
        worst = max([0.0, *ratio])
        rows.append(BenchRow("taylor", name, worst <= 1.0 + 1e-6,
                             (("worst_ratio", worst), ("third_lipschitz", lip3))))
    return rows


def _taylor_pairs(rng: np.random.Generator, dim: int, count: int) -> tuple:
    """``count`` pairs of unit-ball points at least 0.05 apart: x, y, y - x, ||y - x||.

    Each pair is drawn as two ``unit_ball_points(rng, dim, 1)`` calls would
    draw it, and a pair too close is redrawn.  Draws come in chunks of the
    pairs still missing, so the stream stops where the pair-by-pair loop
    stops.
    """
    pairs = []
    missing = count
    while missing:
        draws = [(rng.standard_normal(dim), rng.random(), rng.standard_normal(dim), rng.random())
                 for _ in range(missing)]
        gx, ux, gy, uy = (np.array(column) for column in zip(*draws))
        x = ball_points(gx, ux)
        y = ball_points(gy, uy)
        d = y - x
        dist = np.sqrt(_vecdot(d, d))
        keep = dist >= 0.05
        pairs.append((x[keep], y[keep], d[keep], dist[keep]))
        missing -= int(keep.sum())
    return tuple(np.concatenate(part) for part in zip(*pairs))


def taylor_expansion(value, grad, hess, third, d) -> np.ndarray:
    """Order-3 Taylor expansion at each of N points along the rows of ``d``.

    Row i equals ``value[i] + grad[i] @ d[i] + 0.5 * d[i] @ hess[i] @ d[i]
    + SymTensor3(third[i]).trilinear(d[i], d[i], d[i]) / 6.0`` bit for bit,
    given C-contiguous stacks.
    """
    half_d = (0.5 * d)[:, None, :]
    quadratic = _vecdot(_matmul(half_d, hess)[:, 0, :], d)
    cubic = _einsum("pijk,pi,pj,pk->p", third, d, d, d)
    return value + _vecdot(grad, d) + quadratic + cubic / 6.0


class _BallGrid(NamedTuple):
    """The 401 x 401 grid on [-3, 3]^2, cut to the radius-3 ball and sorted by norm.

    ``pts`` holds the points as rows and ``x0``, ``x1`` their coordinates;
    ``radii`` the norms in ascending order and ``cubed`` each as ``r * (r
    * r)``.  ``distinct`` lists each radius once, and the points of
    ``distinct[j]`` are ``starts[j]:starts[j + 1]``.
    """

    pts: np.ndarray
    x0: np.ndarray
    x1: np.ndarray
    radii: np.ndarray
    cubed: np.ndarray
    distinct: np.ndarray
    starts: np.ndarray


def _ball_grid() -> _BallGrid:
    """The subproblem suite's grid, sorted once per call of ``run_subproblem``."""
    axis = np.linspace(-3.0, 3.0, 401)
    x0, x1 = (v.ravel() for v in np.meshgrid(axis, axis))
    # The floats of np.linalg.norm(pts, axis=1): each row's squares added once
    norms = np.sqrt(x0 * x0 + x1 * x1)
    inside = np.flatnonzero(norms <= 3.0)
    # Equal radii may come in any order: a slice always holds whole radii
    order = inside[np.argsort(norms[inside])]
    # The meshgrid and the full norm array are freed as the sorted copies replace them
    radii = norms[order]
    del norms
    x0 = x0[order]
    x1 = x1[order]
    del inside, order
    pts = np.column_stack([x0, x1])
    # Cubed by two multiplications, r * (r * r): the vectorized power's
    # rounding depends on the CPU's SIMD level.
    cubed = radii * (radii * radii)
    starts = np.concatenate(([0], np.flatnonzero(radii[1:] != radii[:-1]) + 1))
    return _BallGrid(pts, x0, x1, radii, cubed, radii[starts], np.append(starts, len(radii)))


def _model_values(grid: _BallGrid, g, h, reg: float, lo: int, hi: int) -> np.ndarray:
    """The cubic model <g, p> + p'Hp / 2 + (reg / 6) ||p||^3 at the grid points lo:hi."""
    x0, x1 = grid.x0[lo:hi], grid.x1[lo:hi]
    # x'Hx term by term, in the order and rounding of einsum("pi,ij,pj->p")
    quad = np.zeros(hi - lo)
    quad += x0 * h[0, 0] * x0
    quad += x0 * h[0, 1] * x1
    quad += x1 * h[1, 0] * x0
    quad += x1 * h[1, 1] * x1
    return _matmul(grid.pts[lo:hi], g) + 0.5 * quad + reg / 6.0 * grid.cubed[lo:hi]


def _subproblem_grid_minimum(grid: _BallGrid, g, h, reg: float, radius: float) -> float:
    """The least cubic-model value over the grid, bit for bit, from the radii that can hold it.

    In exact arithmetic, Cauchy-Schwarz and the Rayleigh quotient bound
    the model at each grid point p of norm r from below::

        m(p) >= l(r) = -||g|| r + (lambda_min / 2) r^2 + (reg / 6) r^3

    The least computed model value U on a ring of radii within 0.03 of
    ``min(radius, 3)`` is a grid value, so it bounds the grid minimum
    from above whatever ``radius`` is: a wrong solver only widens what is
    kept.  With |p_i| <= r <= 3, each term of m and of l is at most 3
    ||g||_1, 4.5 sum |h_ij| or 4.5 reg in size (|lambda_min| <= sum
    |h_ij|).  The computed m~ takes each term through about a dozen
    roundings, the norm's included.  The computed l~ at the computed norm
    r~ strays by a few more, plus ``eigvalsh``'s backward error, a small
    multiple of u sum |h_ij|.  So with ``S = 1 + 3 ||g||_1 + 9 sum |h_ij|
    + 4.5 reg``, each error is below c u S for a c of a few hundred, and
    the sum that forms the bound rounds by at most 2 u S.  If q holds the
    least computed value::

        l~(r~_q) <= l(r_q) + c u S <= m(q) + c u S <= m~(q) + 2 c u S
                 <= U + 2 c u S

    and ``SCREEN_SLACK = 2^-30`` is far above (2 c + 2) u.  So the slice
    of sorted radii from the first to the last distinct radius whose l~
    is at most ``U + SCREEN_SLACK * S`` holds q.  Each point's value is
    the same float in whichever slice it is evaluated: the products and
    sums go element by element, and the BLAS matrix-vector product takes
    each row's two-term dot alone.  ``min`` is exact, so the slice's
    minimum is the grid's.  A bound that is not finite (an overflowing
    input, or a NaN radius that leaves the ring empty) says nothing, and
    the whole sorted grid is evaluated.
    """
    r0 = min(radius, 3.0)
    lo, hi = grid.radii.searchsorted([r0 - 0.03, r0 + 0.03], side="right")
    upper = float(_model_values(grid, g, h, reg, lo, hi).min()) if lo < hi else math.inf
    scale = 1.0 + 3.0 * float(np.abs(g).sum()) + 9.0 * float(np.abs(h).sum()) + 4.5 * reg
    bound = upper + SCREEN_SLACK * scale
    if math.isfinite(bound):
        r = grid.distinct
        half_lam = 0.5 * float(np.linalg.eigvalsh(h)[0])
        lower = r * (r * (half_lam + reg / 6.0 * r) - _norm(g))
        kept = np.flatnonzero(lower <= bound)
        lo, hi = grid.starts[kept[0]], grid.starts[kept[-1] + 1]
    else:
        lo, hi = 0, len(grid.radii)
    return float(_model_values(grid, g, h, reg, lo, hi).min())


def run_subproblem(seed: int) -> list:
    """Solver versus a 401 x 401 grid on the radius-3 ball, 50 instances.

    Each instance's grid minimum comes from ``_subproblem_grid_minimum``,
    which evaluates the model only on the radii that can hold it and
    returns the full grid's minimum bit for bit.  The grid is built once
    per call.
    """
    rows = []
    rng = np.random.default_rng(seed)
    grid = _ball_grid()
    for case in range(50):
        g = rng.standard_normal(2)
        a = rng.standard_normal((2, 2))
        h = (a + a.T) / 2.0
        reg = float(rng.uniform(0.5, 3.0))
        sol = solve_cubic_model(g, eig_sym(h), reg)
        grid_min = _subproblem_grid_minimum(grid, g, h, reg, sol.radius)
        stat_res = _norm(g + _matmul(h, sol.step) + 0.5 * reg * sol.radius * sol.step)
        eigs = np.linalg.eigvalsh(h)
        margin = float(eigs[0]) + 0.5 * reg * sol.radius
        h_scale = max(1.0, float(np.abs(eigs).max()))
        ok = (sol.model_value <= grid_min + 1e-3
              and stat_res <= 1e-8 * max(1.0, _norm(g))
              and margin >= -1e-8 * h_scale)
        rows.append(BenchRow("subproblem", f"instance{case}", bool(ok),
                             (("model_value", sol.model_value), ("grid_min", grid_min),
                              ("stat_residual", stat_res), ("psd_margin", margin))))
    return rows


_RUNNERS = {
    "decrease": run_decrease,
    "escape": run_escape,
    "rate": run_rate,
    "sampler": run_sampler,
    "taylor": run_taylor,
    "subproblem": run_subproblem,
}
ALL_SUITES = tuple(_RUNNERS)


def run_suite(name: str, seed: int = 0) -> list:
    if name not in _RUNNERS:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(ALL_SUITES)}")
    return _RUNNERS[name](seed)
