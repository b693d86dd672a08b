from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

import thirdopt.cubic
import thirdopt.escape
from thirdopt import (
    OptimizerConfig,
    Polynomial,
    SamplerBudgetError,
    Subspace,
    SymTensor3,
    corpus,
    eig_sym,
    escape_step,
    escape_subspace,
    minimize,
    rate_report,
    sample_direction,
    smoothness_bounds,
)
from thirdopt.bench import (
    confined_monkey_config,
    quartic_1d_config,
    xxy_fixed_point_config,
)

from oracles import confined_monkey_fn, grid_min_2d, quartic_1d_fn


def monkey_third(confined=False):
    name = "monkey_saddle_confined" if confined else "monkey_saddle"
    return corpus(name).bundle(np.zeros(2), 3).third


class TestEscapeSubspace:
    def test_monkey_saddle_full_space_qualifies(self):
        # zero hessian: the first suffix (the full space) already passes
        esc = escape_subspace(np.zeros((2, 2)), monkey_third(), 39.2, 8.0 * 2**1.5)
        assert esc.suffix_index == 0
        assert esc.subspace.rank == 2
        assert esc.proj_norm == pytest.approx(12.0, abs=1e-12)
        assert esc.curvature_bound >= 0.0

    def test_zero_tensor_gives_empty(self):
        esc = escape_subspace(np.diag([1.0, -1.0]), SymTensor3.zeros(2), 1.0, 1.0)
        assert esc.is_empty
        assert esc.proj_norm == 0.0
        assert esc.suffix_index is None

    def test_large_curvature_disqualifies(self):
        tiny = SymTensor3.rank_one(np.array([1e-3, 0.0]))
        esc = escape_subspace(np.diag([5.0, 5.0]), tiny, 1.0, 1.0)
        assert esc.is_empty

    def test_floor_suppresses_vanishing_norm(self):
        tiny = SymTensor3.rank_one(np.array([1e-5, 0.0]))
        esc = escape_subspace(np.zeros((2, 2)), tiny, 1.0, 1.0, proj_norm_floor=1e-3)
        assert esc.is_empty

    def test_proj_norm_matches_projection_route(self):
        # the suffix-slice norm must equal the projector-based norm
        rng = np.random.default_rng(67)
        for _ in range(10):
            a = rng.standard_normal((4, 4))
            hess = (a + a.T) / 2.0
            tensor = SymTensor3(rng.standard_normal((4, 4, 4)))
            esc = escape_subspace(hess, tensor, 1.0, 4.0)
            if esc.is_empty:
                continue
            via_projector = tensor.project(esc.subspace).frobenius_norm()
            assert esc.proj_norm == pytest.approx(via_projector, rel=1e-10)
            # qualification inequality holds for the chosen suffix
            lam = np.linalg.eigvalsh(hess)[::-1]
            assert lam[esc.suffix_index] <= esc.proj_norm**2 / (12.0 * 1.0 * 16.0) + 1e-12

    def test_chooses_largest_qualifying_suffix(self):
        # hessian diag(5, 0): full space needs proj_norm^2 >= 60 L Q^2;
        # give the tensor mass only on e2 so just the trailing suffix works
        hess = np.diag([5.0, 0.0])
        tensor = SymTensor3.rank_one(np.array([0.0, 1.0]))
        esc = escape_subspace(hess, tensor, 1.0, 1.0)
        assert esc.suffix_index == 1
        assert esc.subspace.rank == 1
        assert esc.proj_norm == pytest.approx(1.0)

    def test_decomposition_input_matches_matrix_input(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((4, 4))
        hess = (a + a.T) / 2.0
        tensor = SymTensor3(rng.standard_normal((4, 4, 4)))
        for factor in (0.5, 2.0, 8.0):
            from_matrix = escape_subspace(hess, tensor, 1.0, factor)
            from_decomp = escape_subspace(eig_sym(hess), tensor, 1.0, factor)
            assert from_decomp.suffix_index == from_matrix.suffix_index
            assert from_decomp.proj_norm == from_matrix.proj_norm
            assert np.array_equal(from_decomp.subspace.basis, from_matrix.subspace.basis)


class TestSampleDirection:
    def test_rank_one_span_returns_signed_axis(self):
        v = np.array([0.6, 0.8])
        tensor = SymTensor3.rank_one(v)
        span = Subspace(2, v.reshape(2, 1))
        rng = np.random.default_rng(71)
        sample = sample_direction(tensor, span, 8.0, rng)
        assert sample.draws == 1
        assert_allclose(np.abs(sample.direction), v, atol=1e-12)
        t = tensor.trilinear(sample.direction, sample.direction, sample.direction)
        assert t == pytest.approx(tensor.frobenius_norm(), abs=1e-12)

    def test_monkey_saddle_lower_bound(self):
        tensor = monkey_third()
        rng = np.random.default_rng(73)
        bound = 12.0 / (8.0 * 2**1.5)
        for _ in range(50):
            s = sample_direction(tensor, Subspace.full(2), 8.0, rng)
            t = tensor.trilinear(s.direction, s.direction, s.direction)
            assert t >= bound
            assert np.linalg.norm(s.direction) == pytest.approx(1.0, abs=1e-12)

    def test_budget_error_when_threshold_unreachable(self):
        # sampler_constant far below 1 demands more than the best unit
        # direction can deliver, so every draw is rejected
        tensor = monkey_third()
        rng = np.random.default_rng(79)
        with pytest.raises(SamplerBudgetError) as err:
            sample_direction(tensor, Subspace.full(2), 0.01, rng, max_draws=25)
        assert err.value.draws == 25

    def test_empty_subspace_rejected(self):
        with pytest.raises(ValueError):
            sample_direction(monkey_third(), Subspace.empty(2), 8.0, np.random.default_rng(0))

    def test_zero_projection_rejected(self):
        span_e1 = Subspace(2, np.array([[1.0], [0.0]]))
        tensor = SymTensor3.rank_one(np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            sample_direction(tensor, span_e1, 8.0, np.random.default_rng(0))


class TestEscapeStep:
    def test_confined_monkey_origin_descends(self):
        confined = corpus("monkey_saddle_confined")
        b = confined.bundle(np.zeros(2), 3)
        lip3 = 39.2
        q = 8.0 * 2**1.5
        esc = escape_subspace(b.hess, b.third, lip3, q)
        rng = np.random.default_rng(83)
        sample = sample_direction(b.third, esc.subspace, 8.0, rng)
        x_new = escape_step(np.zeros(2), esc, sample.direction, lip3, q)
        assert np.linalg.norm(x_new) == pytest.approx(esc.proj_norm / (lip3 * q), abs=1e-12)
        assert confined.value(x_new) < 0.0

    def test_quartic_1d_escapes_right(self):
        quartic = corpus("quartic_1d")
        b = quartic.bundle(np.zeros(1), 3)
        q = 8.0
        esc = escape_subspace(b.hess, b.third, 24.0, q)
        assert esc.proj_norm == pytest.approx(600.0)
        sample = sample_direction(b.third, esc.subspace, 8.0, np.random.default_rng(5))
        x_new = escape_step(np.zeros(1), esc, sample.direction, 24.0, q)
        assert x_new[0] == pytest.approx(600.0 / (24.0 * 8.0))
        assert quartic.value(x_new) < 0.0

    def test_requires_non_empty(self):
        esc = escape_subspace(np.diag([1.0, 1.0]), SymTensor3.zeros(2), 1.0, 1.0)
        with pytest.raises(ValueError):
            escape_step(np.zeros(2), esc, np.array([1.0, 0.0]), 1.0, 1.0)


class TestMinimize:
    def test_quadratic_uses_no_third_steps(self):
        quad = Polynomial(2, [(1.0, (2, 0)), (1.0, (0, 2))])
        trace = minimize(quad, np.array([1.0, 1.0]), OptimizerConfig(1.0, 1.0))
        assert trace.reason == "terminal"
        assert len(trace.third_records()) == 0
        assert np.linalg.norm(trace.final_point) < 1e-8
        assert trace.all_flags_ok()

    def test_confined_monkey_baseline_vs_full(self):
        confined = corpus("monkey_saddle_confined")
        cfg = confined_monkey_config()
        # cubic-only baseline never leaves the origin
        from thirdopt import cubic_step

        x = np.zeros(2)
        for _ in range(30):
            x = cubic_step(confined, x, cfg.hess_lipschitz)
        assert np.linalg.norm(x) <= 1e-12
        # the full loop takes a third-order step and reaches the bottom
        trace = minimize(confined, np.zeros(2), cfg)
        delta = -grid_min_2d(confined_monkey_fn, -2.0, 2.0, 1001)
        assert len(trace.third_records()) >= 1
        assert trace.final_value <= -delta
        assert trace.all_flags_ok()

    def test_xxy_terminates_at_origin(self):
        # zero-curvature direction e1 carries no third-derivative mass,
        # so no subspace competes and the origin is a fixed point
        xxy = corpus("xxy_plus_yy")
        trace = minimize(xxy, np.zeros(2), xxy_fixed_point_config())
        assert trace.reason == "terminal"
        assert np.linalg.norm(trace.final_point) == 0.0
        assert all(r.proj_norm == 0.0 for r in trace.cubic_records())

    def test_values_non_increasing_with_valid_constants(self):
        for poly, x0, cfg in (
            (corpus("monkey_saddle_confined"), np.zeros(2), confined_monkey_config()),
            (corpus("quartic_1d"), np.zeros(1), quartic_1d_config()),
            (corpus("wine_bottle"), np.array([1.3, 0.4]),
             OptimizerConfig(*_wine_constants(), max_iters=40)),
        ):
            trace = minimize(poly, x0, cfg)
            values = trace.values()
            assert np.all(np.diff(values) <= 1e-9)
            assert trace.all_flags_ok()

    def test_deterministic_given_seed(self):
        confined = corpus("monkey_saddle_confined")
        cfg = confined_monkey_config(seed=123)
        t1 = minimize(confined, np.zeros(2), cfg)
        t2 = minimize(confined, np.zeros(2), cfg)
        assert len(t1.records) == len(t2.records)
        for a, b in zip(t1.records, t2.records):
            assert a == b
        assert np.array_equal(t1.final_point, t2.final_point)

    def test_budget_exhaustion_reported(self):
        quad = Polynomial(2, [(1.0, (2, 0)), (1.0, (0, 2))])
        trace = minimize(quad, np.array([1.0, 1.0]), OptimizerConfig(1.0, 1.0, max_iters=2))
        assert trace.reason == "budget"
        assert trace.iterations == 2

    def test_sampler_failure_propagates(self):
        confined = corpus("monkey_saddle_confined")
        cfg = OptimizerConfig(86.0, 39.2, sampler_constant=0.01,
                              max_sampler_draws=10, max_iters=5)
        with pytest.raises(SamplerBudgetError):
            minimize(confined, np.zeros(2), cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(0.0, 1.0)
        with pytest.raises(ValueError):
            OptimizerConfig(1.0, 1.0, max_iters=0)

    def test_proper_suffix_escape_in_three_dimensions(self):
        # confined monkey saddle plus a strongly convex third coordinate:
        # the full space is disqualified by the +2 curvature, so the
        # chosen subspace is the proper two-dimensional trailing block
        x = Polynomial.variable(3, 0)
        y = Polynomial.variable(3, 1)
        w = Polynomial.variable(3, 2)
        f3 = -3.0 * x**2 * y + y**3 + (x**2 + y**2) ** 2 + w**2
        sc = smoothness_bounds(f3, radius=2.0)
        cfg = OptimizerConfig(sc.hess_lipschitz, sc.third_lipschitz, max_iters=60, seed=0)
        trace = minimize(f3, np.zeros(3), cfg)
        first = trace.cubic_records()[0]
        assert first.subspace_dim == 2
        assert first.proj_norm == pytest.approx(12.0, abs=1e-12)
        assert len(trace.third_records()) >= 1
        assert trace.reason == "terminal"
        assert trace.final_value == pytest.approx(-27.0 / 256.0, abs=1e-12)
        assert abs(trace.final_point[2]) < 1e-10
        assert trace.all_flags_ok()

    def test_strict_saddle_style_milestone(self):
        # some iterate simultaneously has a small gradient, a not-too
        # negative bottom eigenvalue, and a small competitive norm
        confined = corpus("monkey_saddle_confined")
        trace = minimize(confined, np.zeros(2), confined_monkey_config(max_iters=100))
        reg = trace.config.hess_lipschitz
        hit = any(
            rec.grad_norm < 0.1
            and -1.5 * reg * rec.stationarity < 0.1  # lower bound on -lambda_min
            and rec.proj_norm < 1.0
            for rec in trace.cubic_records()
        )
        assert hit

    def test_one_derivative_pass_per_point(self, monkeypatch):
        # The post-cubic point's order-3 bundle and eigendecomposition are
        # reused for the next cubic step; only an escape step, which lands
        # on a new point, needs a fresh order-2 bundle and decomposition.
        eig_calls = []

        def counting_eig_sym(matrix):
            eig_calls.append(1)
            return eig_sym(matrix)

        for module in (thirdopt.cubic, thirdopt.escape):
            monkeypatch.setattr(module, "eig_sym", counting_eig_sym)
        runs = (
            (corpus("monkey_saddle_confined"), np.zeros(2), confined_monkey_config()),
            (corpus("quartic_1d"), np.zeros(1), quartic_1d_config()),
            (corpus("wine_bottle"), np.array([1.3, 0.4]),
             OptimizerConfig(*_wine_constants(), max_iters=40)),
        )
        for poly, x0, cfg in runs:
            counting = _CountingObjective(poly)
            eig_calls.clear()
            trace = minimize(counting, x0, cfg)
            escapes = len(trace.third_records())
            assert trace.iterations > 1 + escapes
            assert counting.orders[3] == trace.iterations
            assert counting.orders[2] <= 1 + escapes
            assert len(eig_calls) - trace.iterations <= 1 + escapes


class _CountingObjective:
    """Objective wrapper that counts bundle calls by order."""

    def __init__(self, inner):
        self.inner = inner
        self.orders = Counter()

    @property
    def dim(self):
        return self.inner.dim

    def value(self, x):
        return self.inner.value(x)

    def bundle(self, x, order=3):
        self.orders[order] += 1
        return self.inner.bundle(x, order)


def _wine_constants():
    sc = smoothness_bounds(corpus("wine_bottle"), radius=3.0)
    return sc.hess_lipschitz, sc.third_lipschitz


class TestRateReport:
    def test_quadratic_trivially_satisfied(self):
        quad = Polynomial(2, [(1.0, (2, 0)), (1.0, (0, 2))])
        trace = minimize(quad, np.array([1.0, 1.0]), OptimizerConfig(2.0, 1.0, max_iters=20))
        report = rate_report(trace, 0.0)
        assert report.satisfied

    def test_confined_monkey_t100(self):
        confined = corpus("monkey_saddle_confined")
        trace = minimize(confined, np.zeros(2), confined_monkey_config(max_iters=100))
        f_star = grid_min_2d(confined_monkey_fn, -2.0, 2.0, 1001)
        report = rate_report(trace, f_star)
        assert report.satisfied
        assert len(report.qualifying) >= 1

    def test_single_iteration_qualifies_by_construction(self):
        quartic = corpus("quartic_1d")
        cfg = quartic_1d_config(max_iters=1)
        trace = minimize(quartic, np.zeros(1), cfg)
        f_star = float(quartic_1d_fn(np.linspace(-20, 110, 130001)).min())
        report = rate_report(trace, f_star)
        assert report.satisfied
        assert report.qualifying == (0,)
