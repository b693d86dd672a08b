import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import thirdopt.escape
from thirdopt import (
    EigenDecomp,
    OptimizerConfig,
    OracleObjective,
    Polynomial,
    corpus,
    cubic_step,
    eig_sym,
    minimize,
    smoothness_bounds,
    solve_cubic_model,
    stationarity,
)
from thirdopt.bench import confined_monkey_config, quartic_1d_config

from oracles import cubic_model_grid_min, cubic_model_radius, grid_min_2d


def certificate(g, h, reg, sol):
    residual = np.linalg.norm(g + h @ sol.step + 0.5 * reg * sol.radius * sol.step)
    lam_min = np.linalg.eigvalsh(h)[0]
    margin = lam_min + 0.5 * reg * sol.radius
    return residual, margin


class TestSolveCubicModel:
    def test_zero_gradient_psd_hessian(self):
        sol = solve_cubic_model(np.zeros(2), np.diag([1.0, 2.0]), 1.0)
        assert_allclose(sol.step, 0.0)
        assert sol.model_value == 0.0
        assert sol.radius == 0.0

    def test_one_dimensional_closed_form(self):
        # stationarity: 1 + s + |s| s = 0 with s = -t gives t + t^2 = 1
        sol = solve_cubic_model(np.array([1.0]), np.array([[1.0]]), 2.0)
        t = (math.sqrt(5.0) - 1.0) / 2.0
        assert sol.step[0] == pytest.approx(-t, abs=1e-12)

    def test_seeded_instances_match_grid_and_certificate(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            g = rng.standard_normal(2)
            a = rng.standard_normal((2, 2))
            h = (a + a.T) / 2.0
            reg = float(rng.uniform(0.5, 3.0))
            sol = solve_cubic_model(g, h, reg)
            grid = cubic_model_grid_min(g, h, reg)
            assert sol.model_value <= grid + 1e-3
            residual, margin = certificate(g, h, reg, sol)
            assert residual <= 1e-8 * max(1.0, np.linalg.norm(g))
            assert margin >= -1e-8 * max(1.0, np.abs(np.linalg.eigvalsh(h)).max())

    def test_hard_case_orthogonal_gradient(self):
        # gradient orthogonal to the bottom eigenspace and too short to
        # reach the floor radius: a bottom component must be added
        g = np.array([1.0, 0.0])
        h = np.diag([1.0, -2.0])
        reg = 1.0
        sol = solve_cubic_model(g, h, reg)
        assert sol.radius == pytest.approx(4.0, abs=1e-10)  # 2*|lambda_min|/reg
        assert sol.step[0] == pytest.approx(-1.0 / 3.0, abs=1e-10)
        assert abs(sol.step[1]) == pytest.approx(math.sqrt(16.0 - 1.0 / 9.0), abs=1e-9)
        assert sol.model_value <= cubic_model_grid_min(g, h, reg, radius=5.0, points=801) + 1e-3
        residual, margin = certificate(g, h, reg, sol)
        assert residual <= 1e-8
        assert margin >= -1e-10

    def test_pure_negative_curvature(self):
        # zero gradient, indefinite hessian: step rides the bottom eigenvector
        h = np.diag([1.0, -3.0])
        sol = solve_cubic_model(np.zeros(2), h, 2.0)
        assert sol.radius == pytest.approx(3.0, abs=1e-12)
        assert sol.step[0] == 0.0
        assert abs(sol.step[1]) == pytest.approx(3.0, abs=1e-12)

    def test_gradient_on_bottom_eigenspace_regular_root(self):
        g = np.array([0.0, 1.0])
        h = np.diag([1.0, -2.0])
        reg = 1.0
        sol = solve_cubic_model(g, h, reg)
        residual, margin = certificate(g, h, reg, sol)
        assert residual <= 1e-8
        assert margin >= -1e-10
        assert sol.model_value <= cubic_model_grid_min(g, h, reg, radius=6.0, points=1201) + 1e-3

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            solve_cubic_model(np.zeros(2), np.eye(2), 0.0)
        with pytest.raises(ValueError):
            solve_cubic_model(np.array([np.inf, 0.0]), np.eye(2), 1.0)

    def test_dimension_five_engineered_spectra(self):
        # structured spectra that stress every branch: repeated bottom
        # eigenvalues, bottom-orthogonal gradients (hard case), and
        # near-singular shifts; oracle is 200 random probes of the model
        rng = np.random.default_rng(71)
        spectra = [
            np.array([3.0, 1.0, 0.5, -2.0, -2.0]),       # repeated bottom pair
            np.array([2.0, 2.0, 2.0, 2.0, 2.0]),          # definite
            np.array([1.0, 0.5, 0.0, 0.0, 0.0]),          # degenerate psd
            np.array([4.0, 1.0, -1e-14, -1.0, -5.0]),     # wide spread
            np.array([-1.0, -1.0, -1.0, -1.0, -1.0]),     # negative definite
        ]
        for lam in spectra:
            q_mat, _ = np.linalg.qr(rng.standard_normal((5, 5)))
            h = (q_mat * lam) @ q_mat.T
            for grad_mode in ("generic", "bottom_orthogonal", "zero"):
                if grad_mode == "generic":
                    g = rng.standard_normal(5)
                elif grad_mode == "bottom_orthogonal":
                    g = q_mat[:, :3] @ rng.standard_normal(3)
                else:
                    g = np.zeros(5)
                reg = float(rng.uniform(0.5, 4.0))
                sol = solve_cubic_model(g, h, reg)
                residual, margin = certificate(g, h, reg, sol)
                assert residual <= 1e-8 * max(1.0, np.linalg.norm(g))
                assert margin >= -1e-8 * max(1.0, np.abs(lam).max())
                # global optimality vs random probes around the solution
                def model(s):
                    return g @ s + 0.5 * s @ h @ s + reg / 6.0 * np.linalg.norm(s) ** 3
                probes = rng.standard_normal((200, 5))
                probes *= (rng.random(200) ** 0.2 * max(1.0, 2.0 * sol.radius)
                           / np.linalg.norm(probes, axis=1))[:, None]
                for s in probes:
                    assert sol.model_value <= model(s) + 1e-9


# Bottom-eigenspace gradient components at or below this fraction of ||g||
# are documented to be treated as zero by the solver; the reference root
# below is computed for that same model.
HARD_CASE_REL = 1e-12

# Most secular evaluations any generated instance may take.  Newton from
# the closed-form lower bound needs 1-6 on generic instances; near-hard
# instances whose complement solution lands within 1e-12 of the floor
# radius took at most 15 over 40000 random trials.
SECULAR_EVAL_CAP = 20

# Bottom-eigenspace gradient component relative to ||g||, or "generic".
GRADIENT_KINDS = ("generic", 0.0, 1e-13, 1e-11, 1e-8)


@st.composite
def cubic_models(draw):
    """(decomp, g, reg) at n in {1, 2, 5, 10}, easy, hard and near-hard.

    ||g|| >= 1, so the solver's hard-case threshold is purely relative.
    With ``floor_ratio`` set, reg is chosen so that the solution on the
    complement of the bottom eigenspace has norm floor_ratio * r_floor,
    which puts the root just above the floor in the near-hard cases.
    """
    n = draw(st.sampled_from((1, 2, 5, 10)))
    kind = draw(st.sampled_from(GRADIENT_KINDS if n > 1 else GRADIENT_KINDS[:2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam_scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    g_scale = 10.0 ** draw(st.floats(0.0, 3.0))
    reg = 10.0 ** draw(st.floats(-3.0, 3.0))
    floor_ratio = draw(st.none() | st.floats(-12.0, 0.0).map(lambda e: 1.0 + 10.0**e)
                       | st.floats(-12.0, -0.5).map(lambda e: 1.0 - 10.0**e))

    q_mat, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.sort(rng.standard_normal(n))[::-1] * lam_scale
    if n > 1:  # a simple bottom eigenvalue, so g_hat[-1] is its whole component
        lam[-1] = lam[-2] - lam_scale * rng.uniform(1e-3, 1.0)
    g_hat = rng.standard_normal(n)
    if kind != "generic":
        g_hat[-1] = 0.0
    if n > 1 or kind == "generic":
        g_hat *= g_scale / np.linalg.norm(g_hat)
    if kind != "generic":
        g_hat[-1] = kind * np.linalg.norm(g_hat)
    if floor_ratio is not None and n > 1 and lam[-1] < 0.0:
        p = np.linalg.norm(g_hat[:-1] / (lam[:-1] - lam[-1]))
        reg = -2.0 * lam[-1] * floor_ratio / p
    return EigenDecomp(lam, q_mat), q_mat @ g_hat, reg


class TestSecularNewton:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(cubic_models())
    def test_radius_matches_bisection_reference(self, model):
        decomp, g, reg = model
        sol = solve_cubic_model(g, decomp, reg)  # raises if the certificate fails
        g_hat = decomp.eigenvectors.T @ g
        if abs(g_hat[-1]) <= HARD_CASE_REL * np.linalg.norm(g):
            g_hat[-1] = 0.0
        reference = cubic_model_radius(decomp.eigenvalues, g_hat, reg)
        assert abs(sol.radius - reference) <= 1e-10 * reference
        assert sol.secular_evals <= SECULAR_EVAL_CAP

    def test_matrix_and_decomposition_inputs_agree(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4))
        h = (a + a.T) / 2.0
        g = rng.standard_normal(4)
        from_matrix = solve_cubic_model(g, h, 1.5)
        from_decomp = solve_cubic_model(g, eig_sym(h), 1.5)
        assert np.array_equal(from_matrix.step, from_decomp.step)
        assert from_matrix.secular_evals == from_decomp.secular_evals

    def test_mean_evaluations_on_bounded_corpus(self, monkeypatch):
        evals = []
        solve = thirdopt.escape.solve_cubic_model

        def counting_solve(*args):
            sol = solve(*args)
            evals.append(sol.secular_evals)
            return sol

        monkeypatch.setattr(thirdopt.escape, "solve_cubic_model", counting_solve)
        rng = np.random.default_rng(11)
        runs = [("monkey_saddle_confined", confined_monkey_config()),
                ("quartic_1d", quartic_1d_config())]
        for name in ("wine_bottle", "inverted_wine_bottle", "quartic_plus_sixth"):
            b = smoothness_bounds(corpus(name), radius=2.0)
            runs.append((name, OptimizerConfig(b.hess_lipschitz, b.third_lipschitz)))
        for name, cfg in runs:
            poly = corpus(name)
            for _ in range(3):
                d = rng.standard_normal(poly.dim)
                minimize(poly, d / np.linalg.norm(d) * rng.random(), cfg)
        assert len(evals) > 100
        assert np.mean(evals) <= 10.0


class TestCubicStep:
    def test_quadratic_moves_toward_minimum(self):
        quad = Polynomial(2, [(1.0, (2, 0)), (1.0, (0, 2))])
        x = np.array([1.0, 1.0])
        z = cubic_step(quad, x, 50.0)
        assert np.linalg.norm(z) < np.linalg.norm(x)
        assert quad.value(z) < quad.value(x)

    def test_degenerate_origin_is_a_stall(self):
        # gradient and hessian both vanish, so the model is minimized by
        # the zero step; this is the failure mode third-order steps fix
        confined = corpus("monkey_saddle_confined")
        z = cubic_step(confined, np.zeros(2), 86.0)
        assert_allclose(z, 0.0)

    def test_fixed_point_at_quadratic_minimum(self):
        quad = Polynomial(2, [(1.0, (2, 0)), (2.0, (0, 2))])
        z = cubic_step(quad, np.zeros(2), 1.0)
        assert_allclose(z, 0.0)


class TestStationarity:
    def test_zero_at_second_order_points(self):
        quad = Polynomial(2, [(1.0, (2, 0)), (1.0, (0, 2))])
        s = stationarity(quad, np.zeros(2), 3.0)
        assert s.value == 0.0

    def test_gradient_part_scale(self):
        # ||grad|| equal to the regularizer gives value 1
        reg = 2.5
        linear = Polynomial(2, [(reg, (1, 0))])
        s = stationarity(linear, np.zeros(2), reg)
        assert s.value == pytest.approx(1.0)
        assert s.grad_part == pytest.approx(1.0)
        assert s.eig_part == 0.0

    def test_eigenvalue_part_scale(self):
        # lambda_min = -3 reg / 2 gives value 1
        reg = 2.0
        obj = OracleObjective(
            1,
            value=lambda x: -0.75 * reg * x[0] ** 2,
            grad=lambda x: np.array([-1.5 * reg * x[0]]),
            hess=lambda x: np.array([[-1.5 * reg]]),
        )
        s = stationarity(obj, np.zeros(1), reg)
        assert s.value == pytest.approx(1.0)
        assert s.eig_part == pytest.approx(1.0)
        assert s.grad_part == 0.0

    def test_precomputed_derivatives_give_the_same_measure(self):
        wine = corpus("wine_bottle")
        z = np.array([0.3, -0.8])
        b = wine.bundle(z, 3)
        assert stationarity(wine, z, 4.0, (b, eig_sym(b.hess))) == stationarity(wine, z, 4.0)


class TestPureCubicSequence:
    def test_wine_bottle_min_stationarity_envelope(self):
        # over t steps the best stationarity value must fall below
        # (8/3) * (3 (f0 - f*) / (2 t reg))^(1/3); the bottle's exact
        # minimum value 0 is a valid lower bound
        wine = corpus("wine_bottle")
        sc = smoothness_bounds(wine, radius=3.0)
        reg = sc.hess_lipschitz
        x = np.array([1.4, -0.9])
        f0 = wine.value(x)
        mus = []
        t = 30
        for _ in range(t):
            x = cubic_step(wine, x, reg)
            mus.append(stationarity(wine, x, reg).value)
        bound = (8.0 / 3.0) * (3.0 * f0 / (2.0 * t * reg)) ** (1.0 / 3.0)
        assert min(mus) <= bound

    def test_wine_bottle_limit_proxy(self):
        # the tail iterate behaves like a second-order stationary point
        wine = corpus("wine_bottle")
        reg = smoothness_bounds(wine, radius=3.0).hess_lipschitz
        x = np.array([1.4, -0.9])
        for _ in range(60):
            x = cubic_step(wine, x, reg)
        b = wine.bundle(x, 2)
        assert np.linalg.norm(b.grad) < 1e-8
        assert np.linalg.eigvalsh(b.hess)[0] > -1e-8
        # it lands on the gutter circle
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-8)
        assert wine.value(x) <= grid_min_2d(lambda X, Y: (X**2 + Y**2 - 1) ** 2, -2, 2, 501) + 1e-12
