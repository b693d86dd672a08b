import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thirdopt.cubic
from thirdopt import (
    ConditionTolerances,
    DerivativeBundle,
    HessianClass,
    OptimizerConfig,
    OracleObjective,
    Polynomial,
    SymTensor3,
    Verdict,
    check_third_order,
    classify_hessian,
    corpus,
    descent_witness,
    eig_sym,
    minimize,
    smoothness_bounds,
)
from thirdopt.bench import confined_monkey_config, xxy_fixed_point_config
from thirdopt.escape import PROJ_NORM_FLOOR

from oracles import projected


class TestClassifyHessian:
    def test_definite_cases(self):
        assert classify_hessian(eig_sym(np.diag([1.0, 2.0]))) is HessianClass.LOCAL_MIN
        assert classify_hessian(eig_sym(np.diag([-1.0, -2.0]))) is HessianClass.LOCAL_MAX

    def test_strict_saddle(self):
        assert classify_hessian(eig_sym(np.diag([1.0, -1.0]))) is HessianClass.STRICT_SADDLE

    def test_degenerate_corpus_hessian(self):
        hess = corpus("xxy_plus_yy").bundle(np.zeros(2), 2).hess
        assert classify_hessian(eig_sym(hess)) is HessianClass.DEGENERATE

    def test_zero_matrix_is_degenerate(self):
        assert classify_hessian(eig_sym(np.zeros((3, 3)))) is HessianClass.DEGENERATE

    def test_tolerance_band(self):
        # the zero band is 1e-8 relative to max(1, |extreme eigenvalues|)
        assert classify_hessian(eig_sym(np.diag([1.0, 1e-12]))) is HessianClass.DEGENERATE
        assert classify_hessian(eig_sym(np.diag([1.0, 1e-6]))) is HessianClass.LOCAL_MIN
        assert classify_hessian(eig_sym(np.diag([1e4, 1e-5]))) is HessianClass.DEGENERATE
        assert classify_hessian(eig_sym(np.diag([1e4, 1e-3]))) is HessianClass.LOCAL_MIN


class TestCheckThirdOrder:
    def test_monkey_saddle_origin_fails_third(self):
        report = check_third_order(corpus("monkey_saddle"), np.zeros(2))
        assert report.verdict is Verdict.THIRD_ORDER_FAIL
        assert report.grad_norm == 0.0
        assert report.min_eig == 0.0
        assert report.null_dim == 2
        assert report.third_residual == pytest.approx(12.0, abs=1e-12)
        assert not report.holds

    def test_xxy_origin_holds(self):
        report = check_third_order(corpus("xxy_plus_yy"), np.zeros(2))
        assert report.verdict is Verdict.HOLDS
        assert report.null_dim == 1
        assert report.third_residual == pytest.approx(0.0, abs=1e-13)

    def test_monkey_saddle_off_origin_fails_first(self):
        report = check_third_order(corpus("monkey_saddle"), np.array([1.0, 1.0]))
        assert report.verdict is Verdict.FIRST_ORDER_FAIL
        assert report.grad_norm == pytest.approx(6.0)  # gradient (-6, 0)

    def test_local_max_fails_second(self):
        bowl = Polynomial(2, [(-1.0, (2, 0)), (-1.0, (0, 2))])
        report = check_third_order(bowl, np.zeros(2))
        assert report.verdict is Verdict.SECOND_ORDER_FAIL
        assert report.min_eig == pytest.approx(-2.0)

    def test_corpus_origin_classifications(self):
        expected = {
            "monkey_saddle": Verdict.THIRD_ORDER_FAIL,
            "monkey_saddle_confined": Verdict.THIRD_ORDER_FAIL,
            "xxy_plus_yy": Verdict.HOLDS,
            "quartic_1d": Verdict.HOLDS,            # genuine local minimum
            "wine_bottle": Verdict.SECOND_ORDER_FAIL,  # central bump is a max
            "inverted_wine_bottle": Verdict.HOLDS,  # central dip is a strict min
            "quartic_plus_sixth": Verdict.HOLDS,    # quartic structure invisible
        }
        for name, verdict in expected.items():
            poly = corpus(name)
            report = check_third_order(poly, np.zeros(poly.dim))
            assert report.verdict is verdict, name

    def test_gutter_points_pass(self):
        report = check_third_order(corpus("wine_bottle"), np.array([1.0, 0.0]))
        assert report.verdict is Verdict.HOLDS
        assert report.null_dim == 1

    def test_report_dict_fields(self):
        d = check_third_order(corpus("monkey_saddle"), np.zeros(2)).to_dict()
        assert d["verdict"] == "ThirdOrderFail"
        assert set(d) == {"grad_norm", "min_eig", "null_dim", "third_residual",
                          "verdict", "tolerances", "note"}

    def test_numpy_tolerances_give_a_json_report(self):
        # the tolerances are stored as Python floats, so the report's dict
        # holds no numpy scalar that json cannot serialize
        tols = ConditionTolerances(grad=np.float32(1e-8), eig=np.float64(1e-8), third=np.int64(0))
        report = check_third_order(corpus("wine_bottle"), [1.0, 0.0], tols)
        assert json.loads(json.dumps(report.to_dict()))["tolerances"] == {
            "grad": float(np.float32(1e-8)), "eig": 1e-8, "third": 0.0}

    @pytest.mark.parametrize("name", ["grad", "eig", "third"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-8])
    def test_tolerances_must_be_finite_and_non_negative(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} tolerance"):
            ConditionTolerances(**{name: bad})


class FixedBundle:
    """An objective whose bundle is the same at every point and order."""

    def __init__(self, bundle):
        self.dim = bundle.grad.shape[0]
        self._bundle = bundle

    def value(self, x):
        return self._bundle.value

    def bundle(self, x, order):
        return self._bundle


def _bundle_with(part, bad):
    """A bundle of zero value, zero gradient, identity Hessian and zero third
    derivative, with ``bad`` as the last entry of ``part``."""
    arrays = {"grad": np.zeros(2), "hess": np.eye(2), "third": np.zeros((2, 2, 2))}
    arrays[part].flat[-1] = bad
    return DerivativeBundle(0.0, arrays["grad"], arrays["hess"], SymTensor3(arrays["third"]))


@pytest.mark.parametrize("part, message", [
    ("grad", "gradient or hessian has non-finite entries"),
    ("hess", "gradient or hessian has non-finite entries"),
    ("third", "third derivative has non-finite entries"),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_derivatives_are_refused(part, message, bad):
    # Each condition is a comparison; a NaN residual would fail none of them
    # and the verdict would fall through to HOLDS
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_third_order(FixedBundle(_bundle_with(part, bad)), np.zeros(2))


@pytest.mark.parametrize("part", ["grad", "hess"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_minimize_and_the_checker_refuse_alike(part, bad):
    # both read the one checked point model, so they refuse the same
    # gradient or Hessian with the same message
    objective = FixedBundle(_bundle_with(part, bad))
    for run in (lambda: minimize(objective, np.zeros(2), OptimizerConfig(1.0, 1.0)),
                lambda: check_third_order(objective, np.zeros(2))):
        with pytest.raises(ValueError, match="^gradient or hessian has non-finite entries$"):
            run()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_value_is_refused(bad):
    # the derivatives alone would hold at this point
    bundle = DerivativeBundle(bad, np.zeros(2), np.eye(2), SymTensor3.zeros(2))
    with pytest.raises(ValueError, match=f"^value {bad} is not finite$"):
        check_third_order(FixedBundle(bundle), np.zeros(2))


def test_overflowing_polynomial_derivatives_are_refused():
    # 3 * 1e308 overflows as the derivative table is built, which names it
    # before numpy's overflow warning
    poly = Polynomial(1, [(1e308, (3,)), (-5e307, (4,))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^order-1 derivative of the term 1e\+308\*x0\^3 "
                                             "overflows: the coefficient times 3$"):
            check_third_order(poly, np.ones(1))


@pytest.mark.parametrize("poly, point, name", [
    (Polynomial(2, [(1e200, (1, 0)), (1e200, (0, 1))]), np.zeros(2), "gradient norm"),
    (Polynomial(2, [(1.7e308, (1, 0)), (1.7e308, (0, 1))]), np.zeros(2), "gradient norm"),
    (Polynomial(1, [(1e200, (3,))]), np.zeros(1), "third residual"),
    (Polynomial(2, [(1e200, (2, 1)), (1e200, (0, 3))]), np.zeros(2), "third residual"),
    (Polynomial(2, [(0.5, (2, 0)), (-1.0, (1, 1)), (0.5, (0, 2)), (1.7e308 / 6, (3, 0)),
                    (0.85e308, (2, 1)), (-0.85e308, (1, 2)), (-1.7e308 / 6, (0, 3))]),
     np.zeros(2), "third residual"),
], ids=["gradient-1e200", "gradient-1.7e308", "third-1-d", "third-2-d", "third-nan"])
def test_overflowing_norms_are_named(poly, point, name):
    # Every entry is finite, but the norm is inf, which the conditions
    # would compare as a number and strict JSON refuses.  In third-nan the
    # kernel of the Hessian (x - y)^2 is spanned by (1, 1) / sqrt(2), and
    # the contraction's partial sums overflow to +inf and -inf, whose sum
    # is a NaN residual that every comparison would pass
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} overflows$"):
            check_third_order(poly, point)


@st.composite
def null_block_hessians(draw):
    """A random symmetric tensor and a Hessian Q diag(lam) Q' with a known null block.

    The zero eigenvalues form no block ("empty"), the whole spectrum
    ("full"), or sit at the top (the rest negative), the bottom (the rest
    positive) or in the middle of the descending spectrum, and can repeat.
    Returns the Hessian, the tensor and orthonormal columns spanning the
    exact null space.
    """
    layout = draw(st.sampled_from(["empty", "full", "top", "middle", "bottom"]))
    n = draw(st.integers({"top": 2, "bottom": 2, "middle": 3}.get(layout, 1), 6))
    zeros = {"empty": 0, "full": n}.get(layout)
    if zeros is None:
        zeros = draw(st.integers(1, n - (2 if layout == "middle" else 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam = rng.uniform(0.5, 5.0, n - zeros)
    if layout == "top":
        lam = -lam
    elif layout == "middle":
        lam[draw(st.integers(1, n - zeros - 1)):] *= -1.0
    elif layout == "empty":
        lam *= rng.choice([-1.0, 1.0], n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    hess = (q * np.concatenate([lam, np.zeros(zeros)])) @ q.T
    third = SymTensor3(rng.standard_normal((n, n, n)))
    return hess, third, q[:, n - zeros:]


class TestThirdResidual:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(null_block_hessians())
    def test_matches_projector_oracle(self, case):
        hess, third, null_basis = case
        n = hess.shape[0]
        objective = OracleObjective(n, lambda x: 0.0, lambda x: np.zeros(n),
                                    lambda x: hess, lambda x: third.entries)
        report = check_third_order(objective, np.zeros(n))
        assert report.null_dim == null_basis.shape[1]
        expected = np.linalg.norm(projected(third.entries, null_basis))
        assert abs(report.third_residual - expected) <= (
            1e-12 * expected + 1e-14 * third.frobenius_norm())


class _CountingObjective:
    """Delegates to an objective and counts its ``bundle`` calls."""

    def __init__(self, inner):
        self.inner = inner
        self.bundles = 0

    @property
    def dim(self):
        return self.inner.dim

    def value(self, x):
        return self.inner.value(x)

    def bundle(self, x, order=3):
        self.bundles += 1
        return self.inner.bundle(x, order)


class TestDescentWitness:
    @pytest.mark.parametrize("poly, x", [
        (corpus("monkey_saddle"), np.array([1.0, 1.0])),
        (Polynomial(2, [(-1.0, (2, 0)), (-1.0, (0, 2))]), np.zeros(2)),
        (corpus("monkey_saddle"), np.zeros(2)),
    ], ids=["first_order", "second_order", "third_order"])
    def test_reuses_the_reports_derivatives(self, monkeypatch, poly, x):
        # the report's one checked point model serves the witness too
        eig_calls, checks = [], []
        eig_sym, model_inputs = thirdopt.cubic.eig_sym, thirdopt.cubic._model_inputs
        monkeypatch.setattr(thirdopt.cubic, "eig_sym",
                            lambda m: eig_calls.append(1) or eig_sym(m))
        monkeypatch.setattr(thirdopt.cubic, "_model_inputs",
                            lambda *args: checks.append(1) or model_inputs(*args))
        objective = _CountingObjective(poly)
        report = check_third_order(objective, x)
        assert (objective.bundles, len(eig_calls), len(checks)) == (1, 1, 1)
        w = descent_witness(objective, x, report, third_lipschitz=24.0)
        assert w is not None
        assert (objective.bundles, len(eig_calls), len(checks)) == (1, 1, 1)

    def test_rejects_a_report_for_another_objective_or_point(self):
        monkey = corpus("monkey_saddle")
        x = np.zeros(2)
        report = check_third_order(monkey, x)
        for objective, point in ((monkey, np.array([1.0, 1.0])),
                                 (corpus("monkey_saddle_confined"), np.zeros(2))):
            with pytest.raises(ValueError, match="another objective or point"):
                descent_witness(objective, point, report, third_lipschitz=1.0)
        # the report keeps its own copy of the point it was built at
        x[:] = [1.0, 1.0]
        assert report == check_third_order(monkey, np.zeros(2))
        with pytest.raises(ValueError, match="another objective or point"):
            descent_witness(monkey, x, report, third_lipschitz=1.0)
        fresh = check_third_order(monkey, np.zeros(2))
        w, w_fresh = (descent_witness(monkey, np.zeros(2), r, third_lipschitz=1.0, seed=3)
                      for r in (report, fresh))
        assert np.array_equal(w.direction, w_fresh.direction) and w.step == w_fresh.step

    def test_none_when_conditions_hold(self):
        xxy = corpus("xxy_plus_yy")
        report = check_third_order(xxy, np.zeros(2))
        assert descent_witness(xxy, np.zeros(2), report, third_lipschitz=1.0) is None

    def test_third_order_case_monkey_saddle(self):
        monkey = corpus("monkey_saddle")
        x = np.zeros(2)
        report = check_third_order(monkey, x)
        w = descent_witness(monkey, x, report, third_lipschitz=1.0, seed=3)
        assert w is not None and w.order == 3
        assert np.linalg.norm(w.direction) == pytest.approx(1.0, abs=1e-12)
        decrease = monkey.value(x) - monkey.value(x + w.step * w.direction)
        assert decrease >= 0.99 * w.predicted_decrease
        assert w.predicted_decrease > 0.0

    def test_third_order_case_with_floored_constant(self):
        # a cubic has exact third-order expansion, so even a tiny
        # lipschitz constant (hence a huge step) keeps the guarantee
        monkey = corpus("monkey_saddle")
        report = check_third_order(monkey, np.zeros(2))
        w = descent_witness(monkey, np.zeros(2), report, third_lipschitz=1e-6, seed=1)
        decrease = monkey.value(np.zeros(2)) - monkey.value(w.step * w.direction)
        assert decrease >= 0.99 * w.predicted_decrease

    def test_second_order_case(self):
        bowl = Polynomial(2, [(-1.0, (2, 0)), (-1.0, (0, 2))])
        report = check_third_order(bowl, np.zeros(2))
        w = descent_witness(bowl, np.zeros(2), report, third_lipschitz=1.0)
        assert w.order == 2
        decrease = bowl.value(np.zeros(2)) - bowl.value(w.step * w.direction)
        assert decrease >= 0.99 * w.predicted_decrease
        # predicted c eps^2 / 4 with c = 2
        assert w.predicted_decrease == pytest.approx(2.0 * w.step**2 / 4.0)

    def test_first_order_case(self):
        monkey = corpus("monkey_saddle")
        x = np.array([1.0, 1.0])
        sc = smoothness_bounds(monkey, radius=3.0)
        report = check_third_order(monkey, x)
        w = descent_witness(monkey, x, report, third_lipschitz=sc.third_lipschitz)
        assert w.order == 1
        decrease = monkey.value(x) - monkey.value(x + w.step * w.direction)
        assert decrease >= 0.99 * w.predicted_decrease
        # step goes against the gradient
        g = monkey.bundle(x, 1).grad
        assert w.direction @ g < 0

    def test_invalid_bounds_detected(self):
        # understating the lipschitz constant inflates the step until the
        # quartic term dominates and the promised decrease is missed
        hump = Polynomial(1, [(-1.0, (2,)), (1.0, (4,))])
        report = check_third_order(hump, np.zeros(1))
        assert report.verdict is Verdict.SECOND_ORDER_FAIL
        with pytest.raises(ArithmeticError):
            descent_witness(hump, np.zeros(1), report, third_lipschitz=1e-9)
        # with the true constant (fourth derivative 24) the witness works
        w = descent_witness(hump, np.zeros(1), report, third_lipschitz=24.0)
        decrease = hump.value(np.zeros(1)) - hump.value(w.step * w.direction)
        assert decrease >= 0.99 * w.predicted_decrease


class TestOptimizerConsistency:
    def test_terminal_points_pass_checker(self):
        # a terminal trace means: stationarity below tol_mu and no
        # competitive subspace; translate those into checker tolerances
        cases = [
            (corpus("monkey_saddle_confined"), np.zeros(2), confined_monkey_config()),
            (corpus("xxy_plus_yy"), np.zeros(2), xxy_fixed_point_config()),
            (corpus("inverted_wine_bottle"), np.array([0.3, 0.2]),
             _config_for("inverted_wine_bottle", max_iters=200)),
            (corpus("wine_bottle"), np.array([1.2, -0.5]), _config_for("wine_bottle")),
        ]
        for poly, x0, cfg in cases:
            trace = minimize(poly, x0, cfg)
            assert trace.reason == "terminal", poly
            reg = cfg.hess_lipschitz
            q = trace.approx_factor
            grad_tol = max(1e-12, reg * cfg.tol_mu**2 * 1.01)
            eig_abs = 1.5 * reg * cfg.tol_mu * 1.01
            b = poly.bundle(trace.final_point, 2)
            scale = max(1.0, np.abs(np.linalg.eigvalsh(b.hess)).max())
            eig_rel = max(1e-10, eig_abs / scale)
            band = eig_rel * scale
            third_tol = max(
                np.sqrt(12.0 * cfg.third_lipschitz * q**2 * band) * 1.01,
                PROJ_NORM_FLOOR * 1.01,
            )
            tols = ConditionTolerances(grad=grad_tol, eig=eig_rel, third=third_tol)
            report = check_third_order(poly, trace.final_point, tols)
            assert report.holds, (poly, report)


def _config_for(name, max_iters=60):
    sc = smoothness_bounds(corpus(name), radius=3.0)
    return OptimizerConfig(sc.hess_lipschitz, sc.third_lipschitz, max_iters=max_iters)
