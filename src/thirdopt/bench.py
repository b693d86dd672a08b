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

from dataclasses import dataclass

import numpy as np

from .conditions import check_third_order
from .cubic import solve_cubic_model, stationarity
from .escape import DECREASE_TOL, OptimizerConfig, minimize, rate_report, sample_direction
from .polynomials import Polynomial, corpus, smoothness_bounds
from .spectral import Subspace
from .tensors import SymTensor3

ALL_SUITES = ("decrease", "escape", "rate", "sampler", "taylor", "subproblem")


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


def grid_minimum_2d(poly: Polynomial, lo: float, hi: float, points: int) -> float:
    """Brute-force minimum of a 2-D polynomial over a square grid."""
    axis = np.linspace(lo, hi, points)
    xx, yy = np.meshgrid(axis, axis)
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    return float(poly.values(pts).min())


def grid_minimum_1d(poly: Polynomial, lo: float, hi: float, points: int) -> float:
    axis = np.linspace(lo, hi, points).reshape(-1, 1)
    return float(poly.values(axis).min())


def quartic_descent_target() -> float:
    """Largest stationary point of x^2 - 100 x^3 + x^4 (its global minimizer)."""
    roots = np.roots([4.0, -300.0, 2.0, 0.0])
    real = roots[np.abs(roots.imag) < 1e-9].real
    return float(real.max())


def unit_ball_points(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """Uniform points in the unit ball (rejection-free radial sampling)."""
    directions = rng.standard_normal((count, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = rng.random(count) ** (1.0 / dim)
    return directions * radii[:, None]


def random_symmetric_tensor(rng: np.random.Generator, dim: int) -> SymTensor3:
    return SymTensor3(rng.standard_normal((dim, dim, dim)))


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


def run_decrease(seed: int = 0) -> list:
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
            sol = solve_cubic_model(b.grad, b.hess, reg)
            z = x + sol.step
            inside = bool(np.linalg.norm(z) <= 5.0)
            f_x, f_z = poly.value(x), poly.value(z)
            mu = stationarity(poly, z, reg).value
            dec_margin = f_x - reg * sol.radius**3 / 12.0 - f_z
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


def run_escape(seed: int = 0) -> list:
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
        x = x + solve_cubic_model(b.grad, b.hess, cfg.hess_lipschitz).step
        drift = max(drift, float(np.linalg.norm(x)))
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
            and float(np.linalg.norm(xtrace.final_point)) <= 1e-12
            and report.holds)
    rows.append(BenchRow("escape", "xxy_plus_yy/third_order_fixed_point", bool(x_ok),
                         (("final_norm", float(np.linalg.norm(xtrace.final_point))),
                          ("reason", xtrace.reason), ("verdict", report.verdict.value))))
    return rows


def run_rate(seed: int = 0) -> list:
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


def run_sampler(seed: int = 0) -> list:
    """Direction-sampler contract on 1000 random dimension-5 tensors.

    Every accepted direction must reach proj_norm / (8 * 5^1.5) of the
    projected Frobenius norm; the empirical mean number of draws must
    stay at or below 3 (the acceptance constant of the underlying
    anti-concentration bound is not pinned down, hence the slack over
    the ideal expectation of 2).
    """
    rows = []
    base = np.random.default_rng(seed)
    n = 5
    b_const = 8.0
    full = Subspace.full(n)
    draws = []
    for case in range(1000):
        rng = np.random.default_rng(base.integers(2**63))
        tensor = random_symmetric_tensor(rng, n)
        bound = tensor.frobenius_norm() / (b_const * n**1.5)
        sample = sample_direction(tensor, full, b_const, rng)
        t = tensor.trilinear(sample.direction, sample.direction, sample.direction)
        ok = t >= bound and abs(np.linalg.norm(sample.direction) - 1.0) <= 1e-12
        draws.append(sample.draws)
        rows.append(BenchRow("sampler", f"tensor{case}", bool(ok),
                             (("contraction", t), ("bound", bound), ("draws", sample.draws))))
    mean_draws = float(np.mean(draws))
    rows.append(BenchRow("sampler", "mean_draws", mean_draws <= 3.0,
                         (("mean_draws", mean_draws),)))
    return rows


def run_taylor(seed: int = 0) -> list:
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
        worst = 0.0
        count = 0
        while count < 1000:
            x = unit_ball_points(rng, poly.dim, 1)[0]
            y = unit_ball_points(rng, poly.dim, 1)[0]
            d = y - x
            dist = float(np.linalg.norm(d))
            if dist < 0.05:
                continue
            count += 1
            b = poly.bundle(x, 3)
            expansion = (b.value + b.grad @ d + 0.5 * d @ b.hess @ d
                         + b.third.trilinear(d, d, d) / 6.0)
            remainder = abs(poly.value(y) - expansion)
            ratio = remainder / (lip3 / 24.0 * dist**4)
            worst = max(worst, ratio)
        rows.append(BenchRow("taylor", name, worst <= 1.0 + 1e-6,
                             (("worst_ratio", worst), ("third_lipschitz", lip3))))
    return rows


def run_subproblem(seed: int = 0) -> list:
    """Solver versus a 401 x 401 grid on the radius-3 ball, 50 instances."""
    rows = []
    rng = np.random.default_rng(seed)
    axis = np.linspace(-3.0, 3.0, 401)
    xx, yy = np.meshgrid(axis, axis)
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    inside = np.linalg.norm(pts, axis=1) <= 3.0
    pts = pts[inside]
    for case in range(50):
        g = rng.standard_normal(2)
        a = rng.standard_normal((2, 2))
        h = (a + a.T) / 2.0
        reg = float(rng.uniform(0.5, 3.0))
        sol = solve_cubic_model(g, h, reg)
        model = (pts @ g + 0.5 * np.einsum("pi,ij,pj->p", pts, h, pts)
                 + reg / 6.0 * np.linalg.norm(pts, axis=1) ** 3)
        grid_min = float(model.min())
        stat_res = float(np.linalg.norm(g + h @ sol.step + 0.5 * reg * sol.radius * sol.step))
        lam_min = float(np.linalg.eigvalsh(h)[0])
        margin = lam_min + 0.5 * reg * sol.radius
        h_scale = max(1.0, float(np.abs(np.linalg.eigvalsh(h)).max()))
        ok = (sol.model_value <= grid_min + 1e-3
              and stat_res <= 1e-8 * max(1.0, float(np.linalg.norm(g)))
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


def run_suite(name: str, seed: int = 0) -> list:
    if name not in _RUNNERS:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(ALL_SUITES)}")
    return _RUNNERS[name](seed)
