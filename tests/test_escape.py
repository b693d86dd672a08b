import contextlib
import copy
import dataclasses
import json
import math
import pickle
import warnings
from collections import Counter

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
    SamplerBudgetError,
    Subspace,
    SymTensor3,
    Trace,
    check_third_order,
    corpus,
    descent_witness,
    eig_sym,
    escape_subspace,
    minimize,
    null_space,
    rate_report,
    sample_direction,
    smoothness_bounds,
    stationarity,
)
from thirdopt.bench import (
    confined_monkey_config,
    quartic_1d_config,
    xxy_fixed_point_config,
)
from thirdopt.escape import (
    FLAG_KEYS,
    MAX_SAMPLER_DRAWS,
    PROJ_NORM_FLOOR,
    _curvature_denom,
    _escape_search,
    _no_subspace,
    dump_records,
    read_records,
    write_trace,
)

from oracles import (
    confined_monkey_fn,
    full_escape_search,
    grid_min_2d,
    projected,
    quartic_1d_fn,
    rank_one,
    reference_minimize,
    regularized_step,
)


def monkey_third(confined=False):
    name = "monkey_saddle_confined" if confined else "monkey_saddle"
    return corpus(name).bundle(np.zeros(2), 3).third


class TestEscapeSubspace:
    def test_monkey_saddle_full_space_qualifies(self):
        # zero hessian: the first suffix (the full space) already passes
        esc = escape_subspace(eig_sym(np.zeros((2, 2))), monkey_third(), 39.2, 8.0 * 2**1.5)
        assert esc.suffix_index == 0
        assert esc.subspace.rank == 2
        assert esc.proj_norm == pytest.approx(12.0, abs=1e-12)
        assert esc.curvature_bound >= 0.0

    def test_zero_tensor_gives_empty(self):
        esc = escape_subspace(eig_sym(np.diag([1.0, -1.0])), SymTensor3.zeros(2), 1.0, 1.0)
        assert esc.is_empty
        assert esc.proj_norm == 0.0
        assert esc.suffix_index is None

    def test_large_curvature_disqualifies(self):
        tiny = rank_one(np.array([1e-3, 0.0]))
        esc = escape_subspace(eig_sym(np.diag([5.0, 5.0])), tiny, 1.0, 1.0)
        assert esc.is_empty

    def test_floor_suppresses_vanishing_norm(self):
        tiny = rank_one(np.array([1e-5, 0.0]))
        esc = escape_subspace(eig_sym(np.zeros((2, 2))), tiny, 1.0, 1.0)
        assert esc.is_empty

    def test_proj_norm_matches_projection_route(self):
        # the suffix-slice norm must equal the norm of T(P, P, P)
        rng = np.random.default_rng(67)
        for _ in range(10):
            a = rng.standard_normal((4, 4))
            hess = (a + a.T) / 2.0
            tensor = SymTensor3(rng.standard_normal((4, 4, 4)))
            esc = escape_subspace(eig_sym(hess), tensor, 1.0, 4.0)
            if esc.is_empty:
                continue
            via_projector = np.linalg.norm(projected(tensor.entries, esc.subspace.basis))
            assert esc.proj_norm == pytest.approx(via_projector, rel=1e-10)
            # qualification inequality holds for the chosen suffix
            lam = np.linalg.eigvalsh(hess)[::-1]
            assert lam[esc.suffix_index] <= esc.proj_norm**2 / (12.0 * 1.0 * 16.0) + 1e-12

    def test_chooses_largest_qualifying_suffix(self):
        # hessian diag(5, 0): full space needs proj_norm^2 >= 60 L Q^2;
        # give the tensor mass only on e2 so just the trailing suffix works
        hess = np.diag([5.0, 0.0])
        tensor = rank_one(np.array([0.0, 1.0]))
        esc = escape_subspace(eig_sym(hess), tensor, 1.0, 1.0)
        assert esc.suffix_index == 1
        assert esc.subspace.rank == 1
        assert esc.proj_norm == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match matrix dim"):
            escape_subspace(eig_sym(np.zeros((3, 3))), monkey_third(), 1.0, 1.0)

    def test_screen_returns_what_the_full_walk_returns(self):
        # around the spectral bound lambda_i * denom = 2 ||T||_F^2 and at the
        # extremes, the public search and the walk from index 0 agree to the
        # bit, exceptions included; searches the bound settles, searches it
        # starts inside the spectrum and non-empty outcomes must all occur.
        # A tensor with a NaN or an infinity, which the walk reads as a
        # suffix that does not qualify, is refused by the public search and
        # by minimize's alike, and is counted apart from the shares
        screened, inside, non_empty, refused = [], [], [], []

        @settings(max_examples=400, deadline=None, derandomize=True)
        @given(screen_cases())
        def check(case):
            decomp, tensor, lip3, q = case
            denom = _curvature_denom(lip3, q)
            with _counting_rotations() as rotations:
                got = _outcome(lambda: escape_subspace(decomp, tensor, lip3, q))
            if not np.isfinite(tensor.entries).all():
                assert got is ValueError and not rotations
                assert _outcome(lambda: _escape_search(decomp, tensor, denom)) is ValueError
                refused.append(True)
                return
            screened.append(not rotations)
            inside.append(0 < _walk_start(decomp, tensor, lip3, q) < decomp.dim)
            want = _outcome(lambda: full_escape_search(decomp, tensor, denom))
            if isinstance(want, type):
                assert got is want
                return
            assert not isinstance(got, type), got
            assert got.suffix_index == want.suffix_index
            assert repr(got.proj_norm) == repr(want.proj_norm)
            assert repr(got.curvature_bound) == repr(want.curvature_bound)
            assert got.subspace.dim == want.subspace.dim
            assert np.array_equal(got.subspace.basis, want.subspace.basis)
            non_empty.append(not want.is_empty)

        check()
        assert len(refused) >= 0.1 * (len(refused) + len(screened)), len(refused)
        share = sum(screened) / len(screened)
        assert 0.2 <= share <= 0.8, share
        assert sum(inside) >= 0.1 * len(inside), sum(inside)
        assert sum(non_empty) >= 0.1 * len(non_empty)

    @pytest.mark.parametrize("lam_min, kind", [(-1.0, "walk"), (0.0, "walk"), (1e300, "bound")])
    def test_non_orthonormal_columns_raise_where_the_walk_raises(self, lam_min, kind):
        # a hand-built decomposition whose columns are not orthonormal: the
        # public search checks the suffix it returns, so it raises wherever
        # the walk's checked Subspace does, and returns empty otherwise
        columns = np.array([[1.0, 1.0], [0.0, 1.0]])
        third = monkey_third()
        for tensor in (third, SymTensor3.zeros(2)):
            decomp = EigenDecomp(np.array([max(lam_min, 0.0), lam_min]), columns)
            got = _outcome(lambda: escape_subspace(decomp, tensor, 1.0, 1.0))
            want = _outcome(lambda: full_escape_search(decomp, tensor, _curvature_denom(1.0, 1.0)))
            if tensor is third and kind == "walk":
                assert want is ValueError and got is ValueError
            else:
                assert want.is_empty and got.is_empty and got.suffix_index is None

    def test_zero_dimension_gives_empty(self):
        esc = escape_subspace(eig_sym(np.zeros((0, 0))), SymTensor3.zeros(0), 1.0, 1.0)
        assert esc.is_empty and esc.suffix_index is None and esc.subspace.dim == 0

    def test_screen_skips_rotations_near_a_minimizer(self):
        # from (0.5, -0.4) quartic_plus_sixth descends to a minimizer with a
        # clearly positive Hessian, so the screen rules out the escape
        # searches; the trace equals the one the unscreened walk gives
        poly = corpus("quartic_plus_sixth")
        bounds = smoothness_bounds(poly, 2.0)
        cfg = OptimizerConfig(bounds.hess_lipschitz, bounds.third_lipschitz,
                              max_iters=100, seed=1)
        x0 = np.array([0.5, -0.4])
        with _counting_rotations() as rotations:
            trace = minimize(poly, x0, cfg)
        assert len(rotations) < len(trace.cubic_records())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(thirdopt.escape, "_escape_search", full_escape_search)
            walked = minimize(poly, x0, cfg)
        assert dump_records(trace.records) == dump_records(walked.records)
        assert trace.final_point.tobytes() == walked.final_point.tobytes()


@contextlib.contextmanager
def _counting_rotations():
    """Record each ``SymTensor3.transform`` call in the list it yields."""
    calls = []
    transform = SymTensor3.transform

    def counting(tensor, matrix):
        calls.append(1)
        return transform(tensor, matrix)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SymTensor3, "transform", counting)
        yield calls


def _outcome(call):
    """The call's result, or the type of what it raised; warnings count as raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except Exception as exc:
            return type(exc)


def _walk_start(decomp, tensor, lip3, q):
    """The first index whose lambda_i * denom does not exceed 2 ||T||_F^2; n if none."""
    flat = tensor.entries.ravel()
    cap = 2.0 * float(flat.dot(flat))
    denom = _curvature_denom(lip3, q)
    return next((i for i, lam in enumerate(decomp.eigenvalues.tolist())
                 if not lam * denom > cap), decomp.dim)


@st.composite
def screen_cases(draw):
    """(decomp, tensor, third_lipschitz, approx_factor) for the escape search.

    lambda_min * denom lies between 0.5 and 4 times ||T||_F^2, or is
    negative, zero or about 1e300 * denom; or the spectrum straddles
    2 ||T||_F^2 / denom, so the walk starts inside it.  T is Gaussian at
    several scales, zero, of norm near ``PROJ_NORM_FLOOR``, or has one NaN
    or +-inf entry.
    """
    n = draw(st.sampled_from((1, 2, 3, 6, 10)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lip3 = draw(st.floats(0.1, 10.0))
    q = draw(st.floats(1.0, 100.0))
    entries = rng.standard_normal((n, n, n)) * 10.0 ** draw(st.integers(-2, 2))
    kind = draw(st.sampled_from(("gaussian",) * 6 + ("zero", "tiny", "nan", "inf", "-inf")))
    if kind == "zero":
        entries[...] = 0.0
    elif kind == "tiny":
        entries *= PROJ_NORM_FLOOR * draw(st.floats(0.1, 10.0)) / np.linalg.norm(entries)
    elif kind != "gaussian":
        entries[tuple(rng.integers(0, n, size=3))] = float(kind)
    tensor = SymTensor3(entries)
    frob_sq = float(np.sum(tensor.entries**2))
    spectrum = draw(st.sampled_from(("ratio",) * 5 + ("straddle",) * 2
                                    + ("negative", "zero", "huge")))
    bound = (frob_sq if 0.0 < frob_sq < math.inf else 1.0) / _curvature_denom(lip3, q)
    if spectrum == "ratio":
        lam_min = rng.uniform(0.5, 4.0) * bound
    elif spectrum == "straddle":
        lam_min = rng.uniform(-1.0, 1.8) * bound
    elif spectrum == "negative":
        lam_min = -draw(st.floats(1e-6, 10.0))
    else:
        lam_min = {"zero": 0.0, "huge": 1e300}[spectrum]
    # the rest of the spectrum lies above lambda_min, or on it; a straddling
    # one reaches above 2 ||T||_F^2 / denom
    if spectrum == "straddle":
        top = rng.uniform(2.2, 10.0) * bound
        eigenvalues = np.sort(rng.uniform(lam_min, top, n))[::-1].copy()
        eigenvalues[0] = top
    else:
        spread = draw(st.sampled_from((0.0, 0.1, 1.0, 10.0))) * max(abs(lam_min), 1e-3)
        eigenvalues = np.sort(lam_min + spread * rng.random(n))[::-1].copy()
    eigenvalues[-1] = lam_min
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return EigenDecomp(eigenvalues, basis), tensor, lip3, q



class TestSampleDirection:
    def test_rank_one_span_returns_signed_axis(self):
        v = np.array([0.6, 0.8])
        tensor = rank_one(v)
        span = Subspace(2, v.reshape(2, 1))
        rng = np.random.default_rng(71)
        sample = sample_direction(tensor, span, tensor.frobenius_norm() / (8.0 * 2**1.5), rng)
        assert sample.draws == 1
        assert_allclose(np.abs(sample.direction), v, atol=1e-12)
        t = tensor.trilinear(sample.direction, sample.direction, sample.direction)
        assert t == pytest.approx(tensor.frobenius_norm(), abs=1e-12)

    def test_monkey_saddle_lower_bound(self):
        tensor = monkey_third()
        rng = np.random.default_rng(73)
        bound = 12.0 / (8.0 * 2**1.5)
        for _ in range(50):
            s = sample_direction(tensor, Subspace.full(2), bound, rng)
            t = tensor.trilinear(s.direction, s.direction, s.direction)
            assert t >= bound
            assert np.linalg.norm(s.direction) == pytest.approx(1.0, abs=1e-12)

    def test_budget_error_when_threshold_unreachable(self):
        # the largest unit cubic form of the monkey saddle's third
        # derivative is 6, so a threshold of 7 rejects every draw
        tensor = monkey_third()
        rng = np.random.default_rng(79)
        with pytest.raises(SamplerBudgetError) as err:
            sample_direction(tensor, Subspace.full(2), 7.0, rng)
        assert err.value.draws == MAX_SAMPLER_DRAWS
        assert err.value.threshold == 7.0

    def test_empty_subspace_rejected(self):
        with pytest.raises(ValueError):
            sample_direction(monkey_third(), Subspace.empty(2), 1.0, np.random.default_rng(0))

    def test_zero_projection_rejected(self):
        # no threshold is met on a subspace the tensor vanishes on
        span_e1 = Subspace(2, np.array([[1.0], [0.0]]))
        tensor = rank_one(np.array([0.0, 1.0]))
        with pytest.raises(SamplerBudgetError):
            sample_direction(tensor, span_e1, 1e-300, np.random.default_rng(0))


class TestEscapeStep:
    """Every 'third' row moved proj_norm / (third_lipschitz * approx_factor)."""

    @staticmethod
    def check_step_lengths(trace):
        thirds = trace.third_records()
        assert thirds
        for rec in thirds:
            expected = rec.proj_norm / (trace.config.third_lipschitz * trace.approx_factor)
            assert rec.step_norm == pytest.approx(expected, rel=1e-12, abs=0.0)
        return thirds[0]

    def test_confined_monkey_origin_descends(self):
        trace = minimize(corpus("monkey_saddle_confined"), np.zeros(2), confined_monkey_config())
        first = self.check_step_lengths(trace)
        assert first.iteration == 0
        assert first.value < 0.0

    def test_quartic_1d_escapes_right(self):
        trace = minimize(corpus("quartic_1d"), np.zeros(1), quartic_1d_config())
        first = self.check_step_lengths(trace)
        assert first.proj_norm == pytest.approx(600.0)
        assert first.step_norm == pytest.approx(600.0 / (24.0 * 8.0))
        assert first.value < 0.0
        assert trace.final_point[0] > 0.0


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
        x = np.zeros(2)
        for _ in range(30):
            x = regularized_step(confined, x, cfg.hess_lipschitz)
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

    def test_trace_points_are_read_only(self):
        x0 = np.zeros(2)
        trace = minimize(corpus("monkey_saddle_confined"), x0, confined_monkey_config())
        final = trace.final_point.copy()
        for point in (trace.initial_point, trace.final_point):
            with pytest.raises(ValueError, match="read-only"):
                point[0] = 99.0
        x0[0] = 99.0  # the trace holds its own copy of the start
        assert trace.initial_point[0] == 0.0
        assert np.array_equal(trace.final_point, final)

    def test_budget_exhaustion_reported(self):
        quad = Polynomial(2, [(1.0, (2, 0)), (1.0, (0, 2))])
        trace = minimize(quad, np.array([1.0, 1.0]), OptimizerConfig(1.0, 1.0, max_iters=2))
        assert trace.reason == "budget"
        assert trace.iterations == 2

    def test_sampler_failure_propagates(self):
        confined = corpus("monkey_saddle_confined")
        cfg = OptimizerConfig(86.0, 39.2, sampler_constant=0.01, max_iters=5)
        with pytest.raises(SamplerBudgetError):
            minimize(confined, np.zeros(2), cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(0.0, 1.0)
        with pytest.raises(ValueError):
            OptimizerConfig(1.0, 1.0, max_iters=0)

    @pytest.mark.parametrize("make, name", [
        (lambda: OptimizerConfig(1.0, 1.0, max_iters=1.5), "max_iters"),
        (lambda: OptimizerConfig(1.0, 1.0, max_iters=np.int64(0)), "max_iters"),
        (lambda: OptimizerConfig(1.0, 1.0, seed=1.5), "seed"),
        (lambda: OptimizerConfig(1.0, 1.0, seed=-1), "seed"),
        (lambda: OracleObjective(0, None, None, None, None), "dimension"),
        (lambda: OracleObjective(2.0, None, None, None, None), "dimension"),
    ], ids=["max-iters-float", "max-iters-zero", "seed-float", "seed-negative", "dim-zero",
            "dim-float"])
    def test_run_parameters_fail_at_construction(self, make, name):
        with pytest.raises(ValueError, match=f"^{name} must be a"):
            make()

    def test_numpy_integer_run_parameters(self):
        quad = Polynomial(2, [(1.0, (2, 0)), (1.0, (0, 2))])
        cfg = OptimizerConfig(2.0, 1.0, max_iters=np.int64(3), seed=np.uint32(4))
        expected = minimize(quad, np.array([1.0, 1.0]), OptimizerConfig(2.0, 1.0, max_iters=3, seed=4))
        assert minimize(quad, np.array([1.0, 1.0]), cfg).records == expected.records

    @pytest.mark.parametrize(
        "name", ["hess_lipschitz", "third_lipschitz", "sampler_constant", "tol_mu"]
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_config_rejects_non_finite(self, name, bad):
        values = {"hess_lipschitz": 1.0, "third_lipschitz": 1.0, name: bad}
        with pytest.raises(ValueError, match=name):
            OptimizerConfig(**values)

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
        # reused for the next cubic step; only x0 and the landing point of
        # each escape step get an order-2 bundle and a decomposition, and
        # every objective value comes from a bundle.
        eig_calls = []

        def counting_eig_sym(matrix):
            eig_calls.append(1)
            return eig_sym(matrix)

        monkeypatch.setattr(thirdopt.escape, "eig_sym", counting_eig_sym)
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
            assert counting.orders[2] == 1 + escapes
            assert counting.values == 0
            assert len(eig_calls) - trace.iterations == 1 + escapes

    def test_each_point_is_checked_normed_and_decomposed_once(self, monkeypatch):
        # x0, every post-cubic z and every post-escape x get one input
        # check, one gradient norm and one eigendecomposition, shared by
        # the step from the point, its stationarity and its trace row
        checks, norms, eigs = [], [], []
        model_inputs, norm = thirdopt.cubic._model_inputs, thirdopt.cubic._norm

        def counting_inputs(*args):
            checks.append(1)
            return model_inputs(*args)

        def counting_norm(v):
            if any(v is g for g in objective.grads):
                norms.append(1)
            return norm(v)

        def counting_eig_sym(matrix):
            eigs.append(1)
            return eig_sym(matrix)

        for module in (thirdopt.cubic, thirdopt.escape):
            monkeypatch.setattr(module, "_model_inputs", counting_inputs, raising=False)
            monkeypatch.setattr(module, "_norm", counting_norm)
        monkeypatch.setattr(thirdopt.escape, "eig_sym", counting_eig_sym)
        sixth = smoothness_bounds(corpus("quartic_plus_sixth"), radius=2.0)
        runs = (
            (corpus("quartic_plus_sixth"), np.array([0.5, 0.25]),
             OptimizerConfig(sixth.hess_lipschitz, sixth.third_lipschitz)),
            (corpus("monkey_saddle_confined"), np.zeros(2), confined_monkey_config()),
            (corpus("monkey_saddle_confined"), np.array([0.3, -0.7]), confined_monkey_config()),
        )
        escapes = 0
        for poly, x0, cfg in runs:
            objective = _CountingObjective(poly)
            for counts in (checks, norms, eigs):
                counts.clear()
            trace = minimize(objective, x0, cfg)
            points = 1 + len(trace.cubic_records()) + len(trace.third_records())
            assert len(objective.grads) == points
            assert (len(checks), len(norms), len(eigs)) == (points, points, points)
            escapes += len(trace.third_records())
        assert escapes >= 1

    @pytest.mark.parametrize("field", ["grad", "hess"])
    @pytest.mark.parametrize("point", ["x0", "first z", "post-escape x"])
    def test_non_finite_derivatives_fail_at_every_point(self, field, point):
        # x0 and the post-escape x are the first and second order-2
        # bundles, the first post-cubic z the first order-3 bundle
        order, call = {"x0": (2, 1), "first z": (3, 1), "post-escape x": (2, 2)}[point]
        poly = corpus("monkey_saddle_confined")
        clean = minimize(poly, np.zeros(2), confined_monkey_config())
        assert clean.records[1].phase == "third"
        objective = _NonFiniteAt(poly, order, call, field)
        with pytest.raises(ValueError, match="^gradient or hessian has non-finite entries$"):
            minimize(objective, np.zeros(2), confined_monkey_config())
        assert objective.orders[order] == call

    def test_non_finite_third_derivative_fails_at_the_first_z(self):
        # the escape fires at the first post-cubic z of the clean run; with a
        # NaN third derivative there the search would find no subspace and
        # the run would go on without the escape
        objective = _NonFiniteAt(corpus("monkey_saddle_confined"), 3, 1, "third")
        with pytest.raises(ValueError, match="^third derivative has non-finite entries or its "
                                             "squared norm overflows$"):
            minimize(objective, np.zeros(2), confined_monkey_config())
        assert objective.orders[3] == 1

    def test_sampler_threshold_is_the_step_norm_over_q(self, monkeypatch):
        # the escape step's c sets the sampler threshold, the step length
        # and the promised decrease alike
        thresholds = []

        def recording_sampler(third, subspace, threshold, rng):
            thresholds.append(threshold)
            return sample_direction(third, subspace, threshold, rng)

        monkeypatch.setattr(thirdopt.escape, "sample_direction", recording_sampler)
        for poly, x0, cfg in (
            (corpus("monkey_saddle_confined"), np.zeros(2), confined_monkey_config()),
            (corpus("quartic_1d"), np.zeros(1), quartic_1d_config()),
        ):
            thresholds.clear()
            trace = minimize(poly, x0, cfg)
            thirds = trace.third_records()
            assert thirds
            assert thresholds == [rec.proj_norm / trace.approx_factor for rec in thirds]


class _CountingObjective:
    """Objective wrapper that counts bundle calls by order, and value calls.

    ``grads`` keeps every gradient array its bundles returned.
    """

    def __init__(self, inner):
        self.inner = inner
        self.orders = Counter()
        self.values = 0
        self.grads = []

    @property
    def dim(self):
        return self.inner.dim

    def value(self, x):
        self.values += 1
        return self.inner.value(x)

    def bundle(self, x, order=3):
        self.orders[order] += 1
        b = self.inner.bundle(x, order)
        self.grads.append(b.grad)
        return b


class _NonFiniteAt(_CountingObjective):
    """Counting wrapper whose ``call``-th bundle of ``order`` has a NaN ``field``.

    ``field`` is "grad", "hess" or "third".
    """

    def __init__(self, inner, order, call, field):
        super().__init__(inner)
        self.order = order
        self.call = call
        self.field = field

    def bundle(self, x, order=3):
        b = super().bundle(x, order)
        if (order, self.orders[order]) != (self.order, self.call):
            return b
        if self.field == "third":
            return dataclasses.replace(b, third=SymTensor3(np.full_like(b.third.entries, np.nan)))
        nan = np.full_like(getattr(b, self.field), np.nan)
        return dataclasses.replace(b, **{self.field: nan})


def _wine_constants():
    sc = smoothness_bounds(corpus("wine_bottle"), radius=3.0)
    return sc.hess_lipschitz, sc.third_lipschitz


class TestRateReport:
    def test_rejects_empty_trace(self):
        empty = Trace(dim=2, config=OptimizerConfig(1.0, 1.0), approx_factor=1.0,
                      initial_point=np.zeros(2), initial_value=0.0, records=(),
                      final_point=np.zeros(2), final_value=0.0, reason="budget")
        with pytest.raises(ValueError, match="no iterations"):
            rate_report(empty, 0.0)

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


def _ior(flags):
    flags |= {"cubic_decrease": False}


# Every dict method that changes the mapping, applied to a row's flags.
FLAG_MUTATORS = {
    "__setitem__": lambda f: f.__setitem__("cubic_decrease", False),
    "__delitem__": lambda f: f.__delitem__("cubic_decrease"),
    "__ior__": _ior,
    "clear": lambda f: f.clear(),
    "pop": lambda f: f.pop("cubic_decrease"),
    "popitem": lambda f: f.popitem(),
    "setdefault": lambda f: f.setdefault("extra", False),
    "update": lambda f: f.update(cubic_decrease=False),
}


class TestTraceFlags:
    @pytest.fixture(scope="class")
    def trace(self):
        return minimize(corpus("monkey_saddle_confined"), np.zeros(2), confined_monkey_config())

    def test_every_row_carries_the_flag_keys_in_order(self, trace):
        assert {r.phase for r in trace.records} == {"cubic", "third", "terminal"}
        for rec in trace.records:
            assert tuple(rec.flags) == FLAG_KEYS
        for line in dump_records(trace.records).splitlines():
            assert tuple(json.loads(line)["flags"]) == FLAG_KEYS

    def test_any_false_decrease_flag_fails_the_trace(self, trace):
        assert trace.all_flags_ok()
        for i, rec in enumerate(trace.records):
            for key in FLAG_KEYS:
                records = list(trace.records)
                records[i] = dataclasses.replace(rec, flags={**rec.flags, key: False})
                broken = dataclasses.replace(trace, records=records)
                assert broken.all_flags_ok() is (key == "trigger"), (i, key)


    @pytest.fixture(params=["minimize", "read_records"])
    def records(self, request, trace, tmp_path):
        if request.param == "minimize":
            return trace.records
        path = tmp_path / "trace.jsonl"
        write_trace(trace, path)
        return read_records(path)

    def test_flags_cannot_be_edited_into_a_failure(self, trace, records):
        rows = dataclasses.replace(trace, records=records)
        assert rows.all_flags_ok()
        with pytest.raises(TypeError, match="read-only"):
            rows.records[0].flags["cubic_decrease"] = False
        assert rows.records[0].flags["cubic_decrease"] is True
        assert rows.all_flags_ok()

    @pytest.mark.parametrize("mutate", sorted(FLAG_MUTATORS))
    def test_every_mutator_is_refused(self, records, mutate):
        for rec in records:
            before = dict(rec.flags)
            with pytest.raises(TypeError, match="read-only"):
                FLAG_MUTATORS[mutate](rec.flags)
            assert rec.flags == before and tuple(rec.flags) == FLAG_KEYS

    def test_flags_keep_the_dict_repr_json_and_equality(self, trace, records):
        assert records == trace.records
        assert dump_records(records) == dump_records(trace.records)
        for rec in records:
            plain = dict(rec.flags)
            assert rec.flags == plain
            assert repr(rec.flags) == repr(plain)
            assert json.dumps(rec.flags) == json.dumps(plain)

    def test_copies_and_pickles_round_trip_read_only(self, records):
        for rec in records:
            for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
                assert twin == rec and repr(twin) == repr(rec)
                with pytest.raises(TypeError, match="read-only"):
                    twin.flags["trigger"] = None

    def test_row_keeps_a_copy_of_the_flags_it_was_given(self, trace):
        flags = dict(trace.records[0].flags)
        rec = dataclasses.replace(trace.records[0], flags=flags)
        flags["cubic_decrease"] = False
        assert rec.flags["cubic_decrease"] is True

    def test_row_keeps_read_only_flags_without_a_copy(self, trace):
        flags = trace.records[0].flags
        assert dataclasses.replace(trace.records[0], flags=flags).flags is flags


# The bounded corpus members, each with the radius its bounds hold on
CYCLE_RADII = {"monkey_saddle_confined": 2.0, "wine_bottle": 2.0, "inverted_wine_bottle": 2.0,
               "quartic_plus_sixth": 2.0, "quartic_1d": 125.0}


def _corpus_cycle(before_run=lambda: None, seed=1, starts=10):
    """Seeded runs on the bounded corpus: the origin and unit-ball starts.

    The starts come from default_rng's bit generator, built without it, so
    that a test may count the library's own default_rng calls.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    traces = []
    for name, radius in CYCLE_RADII.items():
        poly = corpus(name)
        b = smoothness_bounds(poly, radius)
        cfg = OptimizerConfig(b.hess_lipschitz, b.third_lipschitz, seed=seed)
        for k in range(starts):
            d = rng.standard_normal(poly.dim)
            x0 = np.zeros(poly.dim) if k == 0 else d / np.linalg.norm(d) * rng.random()
            before_run()
            traces.append(minimize(poly, x0, cfg))
    return traces


class TestLeanIteration:
    """minimize computes what its trace reads and nothing more."""

    @staticmethod
    def assert_empty(esc, n):
        assert esc.is_empty and esc.subspace.rank == 0 and esc.subspace.dim == n
        assert esc.subspace.basis.shape == (n, 0)
        assert (esc.proj_norm, esc.curvature_bound, esc.suffix_index) == (0.0, 0.0, None)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_every_empty_exit_returns_the_shared_subspace(self, n):
        shared = _no_subspace(n)
        third = np.zeros((n, n, n))
        third[0, 0, 0] = 1.0
        searches = {
            # lambda_min above the spectral bound 2 ||T||_F^2 = 0
            "screened": (np.eye(n), SymTensor3.zeros(n)),
            # every suffix qualifies at 0 <= 0 with projected norm 0, below the floor
            "floored": (np.zeros((n, n)), SymTensor3.zeros(n)),
            # 1.5 <= 2 ||T||_F^2 = 2 walks, and no suffix reaches 1.5 <= ||T||_F^2
            "walked": (1.5 * np.eye(n), SymTensor3(third)),
        }
        for label, (hess, tensor) in searches.items():
            esc = _escape_search(eig_sym(hess), tensor, 1.0)
            assert esc is shared, label
            self.assert_empty(esc, n)
            # the public entry point hands out a checked object of its own
            public = escape_subspace(eig_sym(hess), tensor, 1.0, 1.0)
            assert public is not shared and public.subspace is not shared.subspace
            self.assert_empty(public, n)

    def test_corpus_runs_seed_only_to_escape_and_keep_the_shared_empty(self, monkeypatch):
        seeded = []
        default_rng = np.random.default_rng

        def counting_rng(seed):
            seeded[-1] += 1
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        empties = []
        search = thirdopt.escape._escape_search

        def spying_search(*args):
            esc = search(*args)
            empties.append(esc is _no_subspace(esc.subspace.dim))
            return esc

        monkeypatch.setattr(thirdopt.escape, "_escape_search", spying_search)
        shared = _no_subspace(2)
        traces = _corpus_cycle(lambda: seeded.append(0))
        assert seeded == [1 if t.third_records() else 0 for t in traces]
        assert 0 < sum(seeded) < len(traces)
        assert sum(empties) > len(empties) / 2
        # every run read the shared empty subspace and left it as it was
        assert _no_subspace(2) is shared
        self.assert_empty(shared, 2)


def _quadratic_trace():
    quad = Polynomial(2, [(1.0, (2, 0)), (1.0, (0, 2))])
    return minimize(quad, np.array([1.0, 1.0]), OptimizerConfig(2.0, 1.0, max_iters=2))


# Entry points that take a run constant, keyed by "function/parameter"; each
# call puts the bad value in that parameter.
CONSTANT_ENTRY_POINTS = {
    "escape_subspace/third_lipschitz":
        lambda bad: escape_subspace(eig_sym(np.zeros((2, 2))), monkey_third(), bad, 1.0),
    "escape_subspace/approx_factor":
        lambda bad: escape_subspace(eig_sym(np.zeros((2, 2))), monkey_third(), 1.0, bad),
    "sample_direction/threshold":
        lambda bad: sample_direction(monkey_third(), Subspace.full(2), bad,
                                     np.random.default_rng(0)),
    "rate_report/lower_bound": lambda bad: rate_report(_quadratic_trace(), bad),
    "stationarity/reg": lambda bad: stationarity(np.zeros(2), eig_sym(np.zeros((2, 2))), bad),
    "null_space/tol": lambda bad: null_space(eig_sym(np.diag([1.0, -1.0])), bad),
    "smoothness_bounds/radius":
        lambda bad: smoothness_bounds(corpus("monkey_saddle_confined"), bad),
    "descent_witness/third_lipschitz":
        lambda bad: descent_witness(corpus("monkey_saddle"), np.zeros(2),
                                    check_third_order(corpus("monkey_saddle"), np.zeros(2)),
                                    third_lipschitz=bad),
}


@pytest.mark.parametrize("entry", sorted(CONSTANT_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_entry_point_rejects_non_finite_constant(entry, bad):
    parameter = entry.split("/")[1]
    with pytest.raises(ValueError, match=parameter):
        CONSTANT_ENTRY_POINTS[entry](bad)


@st.composite
def confined_cubics(draw):
    """(poly, x0, config): a seeded cubic plus ||x||^4 at n <= 4, as in the benchmark.

    The cubic has up to 2n distinct random monomials with unit-normal
    coefficients.  The run starts at the degenerate origin or at a
    uniform point of the unit ball, with the smoothness bounds on the
    ball of radius max(2, ||D^3 f(0)||_F / 3), a drawn budget, seed and
    tol_mu.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(1, 5))
    exps = sorted({tuple(np.bincount(rng.integers(0, n, size=3), minlength=n).tolist())
                   for _ in range(2 * n)})
    cubic = Polynomial(n, [(float(rng.standard_normal()), e) for e in exps])
    r2 = Polynomial(n, [(1.0, tuple(2 * (j == i) for j in range(n))) for i in range(n)])
    poly = cubic + r2 * r2
    x0 = np.zeros(n)
    if draw(st.booleans()):
        x0 = rng.standard_normal(n)
        x0 *= rng.random() ** (1.0 / n) / np.linalg.norm(x0)
    radius = max(2.0, poly.bundle(np.zeros(n), 3).third.frobenius_norm() / 3.0)
    b = smoothness_bounds(poly, radius)
    config = OptimizerConfig(b.hess_lipschitz, b.third_lipschitz,
                             max_iters=draw(st.integers(1, 12)), seed=draw(st.integers(0, 99)),
                             tol_mu=10.0 ** draw(st.integers(-8, -3)))
    return poly, x0, config


def assert_columns_close(got, expected, rtol=1e-9):
    """Each column within ``rtol`` of its largest magnitude in either run.

    A norm that converges to zero carries the absolute rounding of the
    point it is taken at, so its own size is no scale for it.
    """
    got, expected = np.array(got, dtype=float), np.array(expected, dtype=float)
    scale = np.maximum(np.abs(got), np.abs(expected)).max(axis=0, initial=0.0)
    assert (np.abs(got - expected) <= rtol * scale).all(), (got, expected)


class TestReferenceLoop:
    """``minimize`` against ``reference_minimize``, the loop rebuilt from the oracles."""

    def test_matches_reference(self):
        full = []

        @settings(max_examples=150, deadline=None, derandomize=True)
        @given(confined_cubics())
        def check(case):
            poly, x0, config = case
            trace = minimize(poly, x0, config)
            expected, complete = reference_minimize(poly, x0, config)
            if complete:
                *expected, (_, reason, final_value, final_point) = expected
                assert len(trace.records) == len(expected) and trace.reason == reason
                assert_columns_close([trace.final_value], [final_value])
                # the point as one column, at the scale of its largest entry
                assert_columns_close(trace.final_point[:, None], final_point[:, None])
            got = [(r.iteration, r.phase, r.value, r.grad_norm, r.stationarity, r.proj_norm,
                    r.subspace_dim, r.step_norm) for r in trace.records[:len(expected)]]
            assert [r[:2] + r[6:7] for r in got] == [r[:2] + r[6:7] for r in expected]
            assert_columns_close([r[2:6] + r[7:] for r in got], [r[2:6] + r[7:] for r in expected])
            full.append(complete)

        check()
        print(f"reference loop: {sum(full)} of {len(full)} examples compared in full")
        assert sum(full) >= 0.8 * len(full), f"only {sum(full)} of {len(full)} compared in full"
