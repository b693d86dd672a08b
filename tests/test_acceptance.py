"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``)
and enforces the stated tolerance and runtime budget.  Expected values
come from independent oracles: brute-force grids, closed-form roots,
and direct formula evaluation (see oracles.py).
"""

import time

import numpy as np

from thirdopt import (
    OptimizerConfig,
    Verdict,
    check_third_order,
    corpus,
    descent_witness,
    eig_sym,
    minimize,
    rate_report,
    smoothness_bounds,
    solve_cubic_model,
    stationarity,
)
from thirdopt import bench
from thirdopt.cli import main

from oracles import (
    confined_monkey_fn,
    cubic_model_grid_min,
    grid_min_2d,
    quartic_1d_fn,
    quartic_1d_positive_root,
    regularized_step,
)

CORPUS = ("monkey_saddle", "monkey_saddle_confined", "xxy_plus_yy",
          "quartic_1d", "wine_bottle", "inverted_wine_bottle", "quartic_plus_sixth")
DEGREE_LE_4 = ("monkey_saddle", "monkey_saddle_confined", "xxy_plus_yy",
               "quartic_1d", "wine_bottle")


def _verdict(num, name, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({elapsed:.2f}s of {budget:.0f}s budget)")
    assert ok, name
    assert elapsed < budget, f"{name} exceeded the {budget}s budget ({elapsed:.2f}s)"


def _seeded_cubic_steps():
    """140 seeded cubic steps across the corpus with radius-5 bounds."""
    rng = np.random.default_rng(0)
    steps = []
    for name in CORPUS:
        poly = corpus(name)
        reg = smoothness_bounds(poly, radius=5.0).hess_lipschitz
        for x in bench.unit_ball_points(rng, poly.dim, 20):
            b = poly.bundle(x, 2)
            sol = solve_cubic_model(b.grad, eig_sym(b.hess), reg)
            z = x + sol.step
            steps.append((poly, reg, x, z, sol))
    return steps


def test_criterion_01_cubic_step_decrease():
    start = time.perf_counter()
    steps = _seeded_cubic_steps()
    assert len(steps) >= 100
    ok = True
    for poly, reg, x, z, sol in steps:
        ok &= np.linalg.norm(z) <= 5.0  # bounds stay valid on the segment
        ok &= poly.value(z) <= poly.value(x) - reg * sol.radius**3 / 12.0 + 1e-9
    _verdict(1, "cubic-step decrease", ok, time.perf_counter() - start, 10.0)


def test_criterion_02_step_vs_stationarity():
    start = time.perf_counter()
    ok = True
    for poly, reg, x, z, sol in _seeded_cubic_steps():
        b = poly.bundle(z, 2)
        ok &= sol.radius >= stationarity(b.grad, eig_sym(b.hess), reg) - 1e-9
    _verdict(2, "step norm dominates stationarity", ok, time.perf_counter() - start, 10.0)


def test_criterion_03_third_step_decrease():
    start = time.perf_counter()
    ok = True
    total_third = 0
    for poly, x0, cfg in (
        (corpus("monkey_saddle_confined"), np.zeros(2), bench.confined_monkey_config()),
        (corpus("quartic_1d"), np.zeros(1), bench.quartic_1d_config()),
    ):
        trace = minimize(poly, x0, cfg)
        q = trace.approx_factor
        lip3 = cfg.third_lipschitz
        value_before = {r.iteration: r.value for r in trace.cubic_records()}
        for rec in trace.third_records():
            total_third += 1
            promised = rec.proj_norm**4 / (24.0 * lip3**3 * q**4)
            ok &= rec.value <= value_before[rec.iteration] - promised + 1e-9
    ok &= total_third >= 1
    _verdict(3, "third-order step decrease", ok, time.perf_counter() - start, 10.0)


def test_criterion_04_degenerate_saddle_escape():
    start = time.perf_counter()
    confined = corpus("monkey_saddle_confined")
    cfg = bench.confined_monkey_config(max_iters=50)

    x = np.zeros(2)
    baseline_ok = True
    for _ in range(100):
        x = regularized_step(confined, x, cfg.hess_lipschitz)
        baseline_ok &= np.linalg.norm(x) <= 1e-12

    delta = -grid_min_2d(confined_monkey_fn, -2.0, 2.0, 1001)
    trace = minimize(confined, np.zeros(2), cfg)
    full_ok = trace.iterations <= 50 and trace.final_value <= -delta
    _verdict(4, "degenerate-saddle escape", baseline_ok and full_ok,
             time.perf_counter() - start, 5.0)


def test_criterion_05_quartic_escape_to_global_min():
    # third-derivative constant 24 is exact and global; the Hessian
    # constant is the term-wise bound on |x| <= 125, which contains the
    # whole level-set excursion of the run
    start = time.perf_counter()
    trace = minimize(corpus("quartic_1d"), np.zeros(1), bench.quartic_1d_config())
    root = quartic_1d_positive_root()
    ok = trace.final_value < 0.0 and abs(float(trace.final_point[0]) - root) <= 1e-2
    _verdict(5, "quartic remark reproduction", ok, time.perf_counter() - start, 5.0)


def test_criterion_06_third_order_fixed_point():
    start = time.perf_counter()
    trace = minimize(corpus("xxy_plus_yy"), np.zeros(2), bench.xxy_fixed_point_config())
    report = check_third_order(corpus("xxy_plus_yy"), trace.final_point)
    ok = (trace.reason == "terminal"
          and float(np.linalg.norm(trace.final_point)) == 0.0
          and report.verdict is Verdict.HOLDS)
    _verdict(6, "third-order fixed point", ok, time.perf_counter() - start, 1.0)


def test_criterion_07_taylor_remainder_bound():
    # pairs closer than 0.05 are redrawn: their exact remainder sits far
    # below float cancellation noise, so the ratio would measure roundoff
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    ok = True
    for name in DEGREE_LE_4:
        poly = corpus(name)
        lip3 = smoothness_bounds(poly, radius=1.0).third_lipschitz
        count = 0
        while count < 1000:
            x = bench.unit_ball_points(rng, poly.dim, 1)[0]
            y = bench.unit_ball_points(rng, poly.dim, 1)[0]
            d = y - x
            dist = float(np.linalg.norm(d))
            if dist < 0.05:
                continue
            count += 1
            b = poly.bundle(x, 3)
            expansion = (b.value + b.grad @ d + 0.5 * d @ b.hess @ d
                         + b.third.trilinear(d, d, d) / 6.0)
            ok &= abs(poly.value(y) - expansion) <= lip3 / 24.0 * dist**4 * (1.0 + 1e-6)
    _verdict(7, "taylor remainder bound", ok, time.perf_counter() - start, 10.0)


def test_criterion_08_sampler_guarantee():
    # mean draws at most 3 instead of the ideal 2: the acceptance
    # constant behind the expectation is not pinned down numerically
    start = time.perf_counter()
    rows = bench.run_sampler(seed=0)
    ok = all(r.passed for r in rows)
    mean_row = rows[-1]
    assert mean_row.case == "mean_draws"
    _verdict(8, "sampler guarantee", ok, time.perf_counter() - start, 10.0)


def test_criterion_09_subproblem_grid_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(50):
        g = rng.standard_normal(2)
        a = rng.standard_normal((2, 2))
        h = (a + a.T) / 2.0
        reg = float(rng.uniform(0.5, 3.0))
        sol = solve_cubic_model(g, eig_sym(h), reg)
        ok &= sol.model_value <= cubic_model_grid_min(g, h, reg, radius=3.0, points=401) + 1e-3
        residual = np.linalg.norm(g + h @ sol.step + 0.5 * reg * sol.radius * sol.step)
        ok &= residual <= 1e-8 * max(1.0, float(np.linalg.norm(g)))
        lam = np.linalg.eigvalsh(h)
        ok &= lam[0] + 0.5 * reg * sol.radius >= -1e-8 * max(1.0, float(np.abs(lam).max()))
    _verdict(9, "subproblem grid equivalence", ok, time.perf_counter() - start, 30.0)


def test_criterion_10_rate_envelope():
    start = time.perf_counter()
    ok = True

    confined = corpus("monkey_saddle_confined")
    trace = minimize(confined, np.zeros(2), bench.confined_monkey_config(max_iters=100))
    ok &= rate_report(trace, grid_min_2d(confined_monkey_fn, -2, 2, 1001)).satisfied

    wine = corpus("wine_bottle")
    sc = smoothness_bounds(wine, radius=3.0)
    trace = minimize(wine, np.array([1.2, -0.7]),
                     OptimizerConfig(sc.hess_lipschitz, sc.third_lipschitz, max_iters=100))
    ok &= rate_report(trace, grid_min_2d(lambda X, Y: (X**2 + Y**2 - 1) ** 2, -2, 2, 1001)).satisfied

    inverted = corpus("inverted_wine_bottle")
    sc = smoothness_bounds(inverted, radius=3.0)
    trace = minimize(inverted, np.array([0.4, 0.3]),
                     OptimizerConfig(sc.hess_lipschitz, sc.third_lipschitz, max_iters=100))
    ok &= rate_report(
        trace,
        grid_min_2d(lambda X, Y: (X**2 + Y**2) * (X**2 + Y**2 - 1) ** 2, -2, 2, 1001),
    ).satisfied

    quartic = corpus("quartic_1d")
    trace = minimize(quartic, np.zeros(1), bench.quartic_1d_config(max_iters=100))
    f_star = float(quartic_1d_fn(np.linspace(-20, 110, 130001)).min())
    ok &= rate_report(trace, f_star).satisfied

    _verdict(10, "rate envelope", ok, time.perf_counter() - start, 10.0)


def test_criterion_11_condition_checker_and_witnesses():
    start = time.perf_counter()
    expected = {
        "monkey_saddle": Verdict.THIRD_ORDER_FAIL,
        "monkey_saddle_confined": Verdict.THIRD_ORDER_FAIL,
        "xxy_plus_yy": Verdict.HOLDS,
        "quartic_1d": Verdict.HOLDS,
        "wine_bottle": Verdict.SECOND_ORDER_FAIL,
        "inverted_wine_bottle": Verdict.HOLDS,
        "quartic_plus_sixth": Verdict.HOLDS,
    }
    ok = True
    for name, verdict in expected.items():
        poly = corpus(name)
        origin = np.zeros(poly.dim)
        report = check_third_order(poly, origin)
        ok &= report.verdict is verdict
        if verdict is Verdict.HOLDS:
            continue
        lip3 = max(smoothness_bounds(poly, radius=2.0).third_lipschitz, 1e-6)
        witness = descent_witness(poly, origin, report, third_lipschitz=lip3, seed=0)
        achieved = poly.value(origin) - poly.value(origin + witness.step * witness.direction)
        ok &= achieved >= 0.99 * witness.predicted_decrease

    # off-critical first-order witness
    monkey = corpus("monkey_saddle")
    x = np.array([1.0, 1.0])
    report = check_third_order(monkey, x)
    ok &= report.verdict is Verdict.FIRST_ORDER_FAIL
    w = descent_witness(monkey, x, report,
                        third_lipschitz=smoothness_bounds(monkey, 3.0).third_lipschitz)
    ok &= monkey.value(x) - monkey.value(x + w.step * w.direction) >= 0.99 * w.predicted_decrease
    _verdict(11, "condition checker and witnesses", ok, time.perf_counter() - start, 5.0)


def test_criterion_12_bench_determinism(tmp_path):
    start = time.perf_counter()
    ok = True
    for suite in bench.ALL_SUITES:
        a = tmp_path / f"{suite}_a.csv"
        b = tmp_path / f"{suite}_b.csv"
        code_a = main(["bench", "--suite", suite, "--out", str(a), "--seed", "5"])
        code_b = main(["bench", "--suite", suite, "--out", str(b), "--seed", "5"])
        ok &= code_a == code_b == 0
        ok &= a.read_bytes() == b.read_bytes()
    _verdict(12, "bench determinism", ok, time.perf_counter() - start, 60.0)
