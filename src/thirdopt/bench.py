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
from .polynomials import CORPUS_NAMES, corpus, smoothness_bounds
from .spectral import EigenDecomp, Subspace, _einsum, _matmul, _norm, _row_norms, _vecdot, eig_sym
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

# Relative gap allowed between _subproblem_grid_minimum's screen and the
# exact values.
SCREEN_SLACK = 2.0**-30

# f* of the escape and rate suites: each member's least value on a fixed grid,
# as Polynomial.bundle_many evaluates it at every grid point.  The 2-D members'
# grid is linspace(-2, 2, 1001) squared, quartic_1d's is linspace(-20, 110,
# 130001).  tests/test_bench.py recomputes each value bit for bit and checks
# it against the member's closed-form minimum: -27/256, 0, 0 and f(t*) for
# t* = (300 + sqrt(89968)) / 8.  The wine bottles' values lie below 0 by
# rounding alone.
GRID_MINIMA = {
    "monkey_saddle_confined": float.fromhex("-0x1.affb4c54c44d8p-4"),
    "wine_bottle": float.fromhex("-0x1.0000000000000p-53"),
    "inverted_wine_bottle": float.fromhex("-0x1.d400000000000p-56"),
    "quartic_1d": float.fromhex("-0x1.41b184ff5ebacp+23"),
}


def unit_ball_points(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """Uniform points in the unit ball (rejection-free radial sampling)."""
    return ball_points(rng.standard_normal((count, dim)), rng.random(count))


def ball_points(gaussians: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Map rows of Gaussian draws and one uniform draw per row into the unit ball.

    Each radius is ``u ** (1 / dim)``: a square root at dim 2, which is
    correctly rounded where libm ``pow`` is not, else ``np.float_power``,
    which calls libm ``pow`` per element.  ``np.power`` would round by the
    machine's SIMD level at dim >= 3.
    """
    dim = gaussians.shape[1]
    directions = gaussians / _row_norms(gaussians)[:, None]
    radii = np.sqrt(uniforms) if dim == 2 else np.float_power(uniforms, 1.0 / dim)
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
    for name in CORPUS_NAMES:
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

    delta = -GRID_MINIMA["monkey_saddle_confined"]
    trace = minimize(confined, np.zeros(2), cfg)
    escaped = trace.final_value <= -delta
    rows.append(BenchRow("escape", "confined_monkey/full_algorithm_escapes", bool(escaped),
                         (("final_f", trace.final_value), ("delta", delta),
                          ("third_steps", len(trace.third_records())))))

    quartic = corpus("quartic_1d")
    qtrace = minimize(quartic, np.zeros(1), quartic_1d_config(seed=seed))
    # The largest root of f'(x) = x (4 x^2 - 300 x + 2), the global minimizer
    target = (300.0 + math.sqrt(89968.0)) / 8.0
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
    """Finite-budget quality envelope over t = 100 iterations, with f* from ``GRID_MINIMA``."""
    rows = []
    wb = smoothness_bounds(corpus("wine_bottle"), radius=3.0)
    ib = smoothness_bounds(corpus("inverted_wine_bottle"), radius=3.0)
    cases = (
        ("monkey_saddle_confined", np.zeros(2), confined_monkey_config(max_iters=100, seed=seed)),
        ("wine_bottle", np.array([1.2, -0.7]),
         OptimizerConfig(wb.hess_lipschitz, wb.third_lipschitz, max_iters=100, seed=seed)),
        ("inverted_wine_bottle", np.array([0.4, 0.3]),
         OptimizerConfig(ib.hess_lipschitz, ib.third_lipschitz, max_iters=100, seed=seed)),
        ("quartic_1d", np.zeros(1), quartic_1d_config(max_iters=100, seed=seed)),
    )
    for name, x0, cfg in cases:
        trace = minimize(corpus(name), x0, cfg)
        report = rate_report(trace, GRID_MINIMA[name])
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

    One generator draws the 1000 Gaussian tensors as one stack, which one
    ``_symmetrized`` call symmetrizes, and then every sampler call's
    directions, case by case.
    """
    rows = []
    rng = np.random.default_rng(seed)
    n = 5
    full = Subspace.full(n)
    entries = _symmetrized(rng.standard_normal((1000, n, n, n)))
    draws = []
    for case, tensor_entries in enumerate(entries):
        tensor = SymTensor3._trusted(tensor_entries)
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

    1000 seeded pairs per member inside the unit ball, from one generator;
    the remainder of the order-3 expansion must stay below (L/24)
    ||y-x||^4 within a 1e-6 relative slack.  Pairs closer than 0.05 are
    redrawn: there the exact remainder is far below float cancellation
    noise and the ratio would measure roundoff, not the bound.
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
        # dist**4 by libm pow per element: np.power can differ in the last bit
        ratio = remainder / (lip3 / 24.0 * np.float_power(dist, 4))
        # the first largest ratio, or 0.0 when none is positive, as a running max
        worst = max([0.0, *ratio])
        rows.append(BenchRow("taylor", name, worst <= 1.0 + 1e-6,
                             (("worst_ratio", worst), ("third_lipschitz", lip3))))
    return rows


def _taylor_pairs(rng: np.random.Generator, dim: int, count: int) -> tuple:
    """``count`` pairs of unit-ball points at least 0.05 apart: x, y, y - x, ||y - x||.

    The pairs still missing are drawn as one chunk, the x points and then
    the y points by ``unit_ball_points``, until none is missing; pairs too
    close are dropped.
    """
    pairs = []
    missing = count
    while missing:
        x = unit_ball_points(rng, dim, missing)
        y = unit_ball_points(rng, dim, missing)
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
    """The 401 x 401 grid on [-3, 3]^2, cut to the radius-3 ball and grouped by radius.

    ``pts`` holds the points as rows and ``cubed`` each point's norm r as
    ``r * (r * r)``.  The points i and j grid steps from the centre along
    the two axes form one group for each i^2 + j^2.  A group's norms
    differ by rounding alone, by less than 2^-40, and its points are
    ``starts[k]:starts[k + 1]``.  Groups come in ascending order of
    radius, and ``radii[k]`` is the norm of group k's first point.
    """

    pts: np.ndarray
    cubed: np.ndarray
    radii: np.ndarray
    starts: np.ndarray


def _ball_grid() -> _BallGrid:
    """The subproblem suite's grid, grouped once per call of ``run_subproblem``."""
    axis = np.linspace(-3.0, 3.0, 401)
    sq = axis * axis
    # Row-major, with x0 = axis[column] and x1 = axis[row] as np.meshgrid(axis,
    # axis) gives them; each norm is the float of np.linalg.norm(pts, axis=1),
    # which adds each row's two squares once
    norms = sq + sq[:, None]
    norms = np.sqrt(norms, out=norms).ravel()
    inside = np.flatnonzero(norms <= 3.0)
    steps = np.arange(-200, 201, dtype=np.int32) ** 2
    # At most 200^2 inside the ball, so 16 bits hold it and the stable sort is
    # numpy's radix sort; the order within a group is immaterial
    groups = (steps + steps[:, None]).ravel()[inside].astype(np.uint16)
    by_group = np.argsort(groups, kind="stable")
    order = inside[by_group]
    groups = groups[by_group]
    starts = np.concatenate(([0], np.flatnonzero(groups[1:] != groups[:-1]) + 1, [len(order)]))
    del groups, by_group, inside
    cubed = norms[order]
    del norms
    # Filled column by column, so at most one index and one value array of
    # the points' length are alive beside it
    pts = np.empty((len(order), 2))
    pts[:, 0] = axis[order % 401]
    pts[:, 1] = axis[order // 401]
    radii = cubed[starts[:-1]]
    # Cubed by two multiplications, r * (r * r): the vectorized power's
    # rounding depends on the CPU's SIMD level.
    cubed *= cubed * cubed
    return _BallGrid(pts, cubed, radii, starts)


def _model_values(grid: _BallGrid, g, h, reg: float, lo: int, hi: int) -> np.ndarray:
    """The cubic model <g, p> + p'Hp / 2 + (reg / 6) ||p||^3 at the grid points lo:hi."""
    x0, x1 = grid.pts[lo:hi].T
    # x'Hx term by term, in the order and rounding of einsum("pi,ij,pj->p")
    quad = np.zeros(hi - lo)
    quad += x0 * h[0, 0] * x0
    quad += x0 * h[0, 1] * x1
    quad += x1 * h[1, 0] * x0
    quad += x1 * h[1, 1] * x1
    return _matmul(grid.pts[lo:hi], g) + 0.5 * quad + reg / 6.0 * grid.cubed[lo:hi]


def _subproblem_grid_minimum(grid: _BallGrid, g, h, decomp: EigenDecomp, reg: float,
                             radius: float) -> float:
    """The least cubic-model value over the grid, bit for bit, from the radii that can hold it.

    ``decomp`` is ``eig_sym(h)``.  In exact arithmetic, two bounds hold
    for the model at each grid point p of norm r.  Cauchy-Schwarz and the
    Rayleigh quotient give::

        m(p) >= l(r) = -||g|| r + (lambda_min / 2) r^2 + (reg / 6) r^3

    and the Lagrangian dual of the cubic model (Nesterov and Polyak,
    *Math. Program.* 108, 2006) gives, for any mu with lambda_min + mu >
    0, since g'p + p'(H + mu I)p / 2 >= c_mu for every p::

        m(p) >= d(r) = c_mu - (mu / 2) r^2 + (reg / 6) r^3,
        c_mu = -(1 / 2) sum_i ghat_i^2 / (lambda_i + mu),  ghat = V'g

    At mu = reg r^ / 2 for the solver's radius r^, d(r) - m* = (reg / 12)
    (r - r^)^2 (2 r + r^), so d keeps a thin band of radii about r^.  Any
    mu is sound: a wrong radius only loosens d, and where lambda_min + mu
    is not positive (the hard case), or mu or c_mu is not finite, d is
    left out and l screens alone.

    The least computed model value U on the ring of groups within half a
    grid step of ``min(radius, 3)`` is a grid value, so it bounds the
    grid minimum from above whatever ``radius`` is: a wrong solver only
    widens what is kept.  With |p_i| <= r <= 3, each term of m and of l is at most 3
    ||g||_1, 4.5 sum |h_ij| or 4.5 reg in size (|lambda_min| <= sum
    |h_ij|).  The computed m~ takes each term through about a dozen
    roundings, the norm's included.  The computed l~ at the computed norm
    r~ strays by a few more, plus ``eigh``'s backward error, a small
    multiple of u sum |h_ij|.  So with ``S = 1 + 3 ||g||_1 + 9 sum |h_ij|
    + 4.5 reg``, each error is below c u S for a c of a few hundred, and
    the sum that forms the bound rounds by at most 2 u S.  If q holds the
    least computed value::

        l~(r~_q) <= l(r_q) + c u S <= m(q) + c u S <= m~(q) + 2 c u S
                 <= U + 2 c u S

    and ``SCREEN_SLACK = 2^-30`` is far above (2 c + 2) u.  For d, ``eigh``
    returns V and lambda_i that decompose exactly, with an orthogonal Q
    within a small multiple of u of V, a matrix H + E with ||E|| a small
    multiple of u sum |h_ij|; and the computed ghat is Q'g' exactly for a
    g' within a small multiple of u ||g||_1 of g.  The dual bound holds
    exactly for the model of g' and H + E, which strays from m by at most
    3 ||g' - g|| + 4.5 ||E||, at the computed ghat, lambda_i and mu.  A
    computed lambda_i + mu is positive exactly when the exact sum is, and
    the computed c_mu is within a few u |c_mu| of the exact one.  The
    terms of d are at most |c_mu|, 4.5 |mu| and 4.5 reg in size, so with
    ``S' = S + |c_mu| + 4.5 |mu|`` the chain above holds for d with S'.
    Both bounds are taken at each group's first norm, which is within
    2^-40 of each of its points' norms.  As |l'(r)| <= S and |d'(r)| <=
    S' for r <= 3, that adds at most 2^-40 S or 2^-40 S' to the chain.
    So q is in a group where d~ is at most ``U + SCREEN_SLACK * S'`` and
    l~ at most ``U + SCREEN_SLACK * S``.  d is evaluated first, over
    every group, and l over the groups from the first to the last that d
    keeps; the slice from the first to the last group that l keeps there
    holds q, and it is never wider than the slice l alone keeps.  Each
    point's value is the same float in whichever slice it is evaluated:
    the products and sums go element by element, and the BLAS
    matrix-vector product takes each row's two-term dot alone.  ``min``
    is exact, so the slice's minimum is the grid's.  A bound that is not
    finite (an overflowing input, or a NaN radius that leaves the ring
    empty) says nothing, and the whole grid is evaluated.
    """
    r0 = min(radius, 3.0)
    lo, hi = grid.starts[grid.radii.searchsorted([r0 - 0.0075, r0 + 0.0075], side="right")]
    upper = float(_model_values(grid, g, h, reg, lo, hi).min()) if lo < hi else math.inf
    scale = 1.0 + 3.0 * float(np.abs(g).sum()) + 9.0 * float(np.abs(h).sum()) + 4.5 * reg
    bound = upper + SCREEN_SLACK * scale
    if not math.isfinite(bound):
        return float(_model_values(grid, g, h, reg, 0, len(grid.cubed)).min())
    first, last = 0, len(grid.radii)
    lam = decomp.eigenvalues.tolist()
    mu = 0.5 * reg * radius
    if math.isfinite(mu) and lam[-1] + mu > 0.0:
        g_hat = _matmul(g, decomp.eigenvectors).tolist()
        c_mu = -0.5 * sum(gi * gi / (li + mu) for gi, li in zip(g_hat, lam))
        dual_bound = upper + SCREEN_SLACK * (scale - c_mu + 4.5 * abs(mu))
        if math.isfinite(dual_bound):
            r = grid.radii
            kept = np.flatnonzero(r * r * (reg / 6.0 * r - 0.5 * mu) + c_mu <= dual_bound)
            first, last = kept[0], kept[-1] + 1
    r = grid.radii[first:last]
    kept = first + np.flatnonzero(r * (r * (0.5 * lam[-1] + reg / 6.0 * r) - _norm(g)) <= bound)
    lo, hi = grid.starts[kept[0]], grid.starts[kept[-1] + 1]
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
        decomp = eig_sym(h)
        sol = solve_cubic_model(g, decomp, reg)
        grid_min = _subproblem_grid_minimum(grid, g, h, decomp, reg, sol.radius)
        stat_res = _norm(g + _matmul(h, sol.step) + 0.5 * reg * sol.radius * sol.step)
        margin = float(decomp.eigenvalues[-1]) + 0.5 * reg * sol.radius
        ok = (sol.model_value <= grid_min + 1e-3
              and stat_res <= 1e-8 * max(1.0, _norm(g))
              and margin >= -1e-8 * decomp.spectral_scale())
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
