import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import thirdopt.escape
from thirdopt import (
    EigenDecomp,
    OptimizerConfig,
    Polynomial,
    corpus,
    eig_sym,
    minimize,
    smoothness_bounds,
    solve_cubic_model,
    stationarity,
)
from thirdopt.bench import confined_monkey_config, quartic_1d_config
from thirdopt.cubic import (_SECULAR_RTOL, _LocalModel, _model_inputs, _secular_bracket,
                            _secular_offset, _solve_model, _solve_step, _sum)
from thirdopt.polynomials import as_point

from oracles import (
    _secular_offset_arrays,
    cubic_model_grid_min,
    cubic_model_radius,
    grid_min_2d,
    regularized_step,
    solve_model_arrays,
)


def point_stationarity(objective, x, reg):
    """The stationarity measure from the order-2 bundle at x."""
    b = objective.bundle(x, 2)
    return stationarity(b.grad, eig_sym(b.hess), reg)


def stationarity_parts(grad, decomp, reg):
    """The measure's gradient and curvature terms: each is the measure with
    the other term's input zeroed."""
    g = np.asarray(grad, dtype=float)
    flat = EigenDecomp(np.zeros(g.size), np.eye(g.size))
    return stationarity(g, flat, reg), stationarity(np.zeros_like(g), decomp, reg)


def certificate(g, h, reg, sol):
    residual = np.linalg.norm(g + h @ sol.step + 0.5 * reg * sol.radius * sol.step)
    lam_min = np.linalg.eigvalsh(h)[0]
    margin = lam_min + 0.5 * reg * sol.radius
    return residual, margin


class TestSolveCubicModel:
    def test_zero_gradient_psd_hessian(self):
        sol = solve_cubic_model(np.zeros(2), eig_sym(np.diag([1.0, 2.0])), 1.0)
        assert_allclose(sol.step, 0.0)
        assert sol.model_value == 0.0
        assert sol.radius == 0.0

    def test_one_dimensional_closed_form(self):
        # stationarity: 1 + s + |s| s = 0 with s = -t gives t + t^2 = 1
        sol = solve_cubic_model(np.array([1.0]), eig_sym(np.array([[1.0]])), 2.0)
        t = (math.sqrt(5.0) - 1.0) / 2.0
        assert sol.step[0] == pytest.approx(-t, abs=1e-12)

    def test_seeded_instances_match_grid_and_certificate(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            g = rng.standard_normal(2)
            a = rng.standard_normal((2, 2))
            h = (a + a.T) / 2.0
            reg = float(rng.uniform(0.5, 3.0))
            sol = solve_cubic_model(g, eig_sym(h), reg)
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
        sol = solve_cubic_model(g, eig_sym(h), reg)
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
        sol = solve_cubic_model(np.zeros(2), eig_sym(h), 2.0)
        assert sol.radius == pytest.approx(3.0, abs=1e-12)
        assert sol.step[0] == 0.0
        assert abs(sol.step[1]) == pytest.approx(3.0, abs=1e-12)

    def test_gradient_on_bottom_eigenspace_regular_root(self):
        g = np.array([0.0, 1.0])
        h = np.diag([1.0, -2.0])
        reg = 1.0
        sol = solve_cubic_model(g, eig_sym(h), reg)
        residual, margin = certificate(g, h, reg, sol)
        assert residual <= 1e-8
        assert margin >= -1e-10
        assert sol.model_value <= cubic_model_grid_min(g, h, reg, radius=6.0, points=1201) + 1e-3

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            solve_cubic_model(np.zeros(2), eig_sym(np.eye(2)), 0.0)
        with pytest.raises(ValueError):
            solve_cubic_model(np.array([np.inf, 0.0]), eig_sym(np.eye(2)), 1.0)
        for grad in (np.ones((2, 1)), np.ones(3), np.float64(1.0)):
            with pytest.raises(ValueError, match="gradient of shape"):
                solve_cubic_model(grad, eig_sym(np.diag([1.0, -2.0])), 1.0)

    def test_float32_reg_solves_as_its_python_float(self):
        # numpy would keep 0.5 * reg and the floor radius in float32, and the
        # step would then miss the certificate; reg is taken as a Python float.
        rng = np.random.default_rng(17)
        cases = [(np.array([1.0, 1e-3]), np.diag([1.0, -1.0 / 3.0]), np.float32(2.0))]
        for _ in range(300):
            a = rng.standard_normal((3, 3))
            cases.append((1e-3 * rng.standard_normal(3), (a + a.T) / 2.0,
                          np.float32(rng.uniform(0.5, 3.0))))
        for g, h, reg in cases:
            got = solve_cubic_model(g, eig_sym(h), reg)
            expected = solve_cubic_model(g, eig_sym(h), float(reg))
            assert got.step.tobytes() == expected.step.tobytes()
            assert repr(got) == repr(expected)

    def test_rejects_non_finite_hessian(self):
        with pytest.raises(ValueError, match="hessian has non-finite entries"):
            solve_cubic_model(np.zeros(2), eig_sym(np.array([[math.nan, 0.0], [0.0, 1.0]])), 1.0)

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
                sol = solve_cubic_model(g, eig_sym(h), reg)
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
def cubic_models(draw, dims=(1, 2, 3, 4, 5, 6, 7, 10)):
    """(decomp, g, reg) at n in ``dims``, easy, hard and near-hard.

    ||g|| >= 1, so the solver's hard-case threshold is purely relative.
    With ``floor_ratio`` set, reg is chosen so that the solution on the
    complement of the bottom eigenspace has norm floor_ratio * r_floor,
    which puts the root just above the floor in the near-hard cases.
    """
    n = draw(st.sampled_from(dims))
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

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(cubic_models())
    def test_solution_is_the_step_and_its_model_value(self, model):
        decomp, g, reg = model
        checked = _model_inputs(g, decomp, reg)
        sol = _solve_model(checked)
        step, radius, evals, hess_s = _solve_step(checked)
        assert step.tobytes() == sol.step.tobytes()
        assert (radius, evals) == (sol.radius, sol.secular_evals)
        # hess_s is H s, formed in the eigenbasis
        h = (decomp.eigenvectors * decomp.eigenvalues) @ decomp.eigenvectors.T
        scale = decomp.spectral_scale() * max(1.0, radius)
        assert np.abs(hess_s - h @ step).max() <= 1e-12 * scale
        value = float(checked.grad @ step + (0.5 * step) @ hess_s + checked.reg * radius**3 / 6.0)
        assert repr(value) == repr(sol.model_value)

    def test_mean_evaluations_on_bounded_corpus(self, monkeypatch):
        evals = []
        solve = thirdopt.escape._solve_step

        def counting_solve(*args):
            step = solve(*args)
            evals.append(step[2])
            return step

        monkeypatch.setattr(thirdopt.escape, "_solve_step", counting_solve)
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


@st.composite
def secular_inputs(draw):
    """(g_sq, base, half_reg, r_floor) as solve_cubic_model forms them.

    On top of a ``cubic_models`` draw at n <= 16: a bottom eigenvalue
    repeated up to n times, optionally a spectrum shifted psd
    (r_floor = 0), exact zeros in g_sq, one scale s in [1e-300, 1e300] on
    the eigenvalues, reg and g, which keeps the radius and can overflow or
    underflow the intermediates, and a second scale on g alone, 1 or in
    [1e-200, 1e200], which sets the gradient's magnitude apart from the
    shifts' and moves the radius.
    """
    decomp, g, reg = draw(cubic_models(dims=tuple(range(1, 17))))
    lam = decomp.eigenvalues.copy()
    g_hat = decomp.eigenvectors.T @ g
    n = lam.size
    lam[n - 1 - draw(st.integers(0, n - 1)):] = lam[-1]
    if draw(st.booleans()):
        lam -= min(lam[-1], 0.0)
    zeros = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    g_hat[zeros] = 0.0
    scale = 10.0 ** draw(st.integers(-300, 300))
    spread = 10.0 ** draw(st.one_of(st.just(0), st.integers(-200, 200)))
    with np.errstate(all="ignore"):
        lam, g_hat, half_reg = scale * lam, spread * scale * g_hat, 0.5 * scale * float(reg)
        lam_min = float(lam[-1])
        if lam_min < 0.0:
            return g_hat**2, lam - lam_min, half_reg, -lam_min / half_reg
        return g_hat**2, lam, half_reg, 0.0


def as_lists(g_sq, base, half_reg, r_floor):
    """The secular inputs as ``_secular_offset`` takes them: lists of Python floats."""
    return g_sq.tolist(), base.tolist(), half_reg, r_floor


def secular_outcome(solve, *args):
    """repr of one call's result, or its exception type, and its warnings.

    repr tells -0.0 from 0.0 and keeps NaN equal to itself.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = repr(solve(*args))
        except ArithmeticError as exc:
            result = type(exc).__name__
    return result, [(w.category, str(w.message)) for w in caught]


class TestSecularSolve:
    """The Python-float secular solve against the numpy array reference."""

    def test_sum_is_the_exact_sum_rounded_once(self):
        # Each psi^2, psi' and ||g||^2 sum is the exact sum of its
        # non-negative terms rounded once, inf past the largest float:
        # subnormal, zero and huge terms, at the overflow boundary too
        big = sys.float_info.max
        half_ulp = math.ldexp(1.0, 970)
        cases = [[], [0.0], [5e-324] * 3, [big, half_ulp], [big, half_ulp / 2.0],
                 [big, half_ulp / 2.0, half_ulp / 2.0], [big / 2.0, big / 2.0, 5e-324],
                 [big, 0.0, 0.0], [math.inf, 1.0], [1e308] * 2]
        rng = np.random.default_rng(5)
        for n in [*range(1, 40), 100, 1000]:
            for low, high in ((-20.0, 20.0), (-330.0, -300.0), (300.0, 308.2), (-330.0, 308.2)):
                cases.append((10.0 ** rng.uniform(low, high, n) * rng.random(n)).tolist())
        for terms in cases:
            try:
                expected = float(sum(map(Fraction, terms), Fraction(0)))
            except OverflowError:  # an infinite term, or a sum past the largest float
                expected = math.inf
            assert repr(_sum(terms)) == repr(expected), terms
        assert _sum([big, half_ulp]) == math.inf and _sum([big, half_ulp / 2.0]) == big

    def test_equals_reference_bit_for_bit(self):
        rescaled = []

        @settings(max_examples=400, deadline=None, derandomize=True)
        @given(secular_inputs())
        def check(inputs):
            expected, _ = secular_outcome(_secular_offset_arrays, *inputs)
            assert secular_outcome(_secular_offset, *as_lists(*inputs)) == (expected, [])
            g_sq, base, half_reg, r_floor = as_lists(*inputs)
            terms = [(g, b) for g, b in zip(g_sq, base) if g > 0.0]
            if terms:
                with np.errstate(all="ignore"):
                    rescaled.append(_secular_bracket(terms, half_reg, r_floor)[-1] != 1.0)

        check()
        # both the problems solved as they are and the rescaled ones are compared
        assert 50 <= sum(rescaled) <= len(rescaled) - 50

    @pytest.mark.parametrize("g_sq, base, half_reg, r_floor, warning", [
        ([1e-20], [5e-324], 2.0, 1e200, "divide by zero encountered in divide"),
        ([1.0, 1.0], [1e200, 0.0], 1.0, 0.0, "overflow encountered in multiply"),
    ], ids=["shift-squares-to-zero", "shift-squares-to-inf"])
    def test_silent_where_numpy_warns(self, g_sq, base, half_reg, r_floor, warning):
        g_sq, base = np.array(g_sq), np.array(base)
        expected, caught = secular_outcome(_secular_offset_arrays, g_sq, base, half_reg, r_floor)
        assert caught[0] == (RuntimeWarning, warning)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert repr(_secular_offset(*as_lists(g_sq, base, half_reg, r_floor))) == expected

    def test_radius_matches_bisection(self):
        # On finite squares, r_floor + t is the radius of the spectral data
        # the inputs stand for, as bisection finds it.  The stop test puts
        # |psi - r| within _SECULAR_RTOL r, and psi decreases in r, so the
        # radius is as close; twice that leaves room for the rounding of
        # psi and of the eigenvalues rebuilt from the gaps (worst seen:
        # 5.4e-14 relative).
        compared = []

        @settings(max_examples=400, deadline=None, derandomize=True)
        @given(secular_inputs())
        def check(inputs):
            g_sq, base, half_reg, r_floor = inputs
            if not np.isfinite(g_sq).all():
                return
            t, _ = _secular_offset(*as_lists(*inputs))
            eigenvalues = base - half_reg * r_floor
            reference = cubic_model_radius(eigenvalues, np.sqrt(g_sq), 2.0 * half_reg)
            assert abs(r_floor + t - reference) <= 2.0 * _SECULAR_RTOL * reference
            compared.append(reference > 0.0)

        check()
        assert sum(compared) >= 250

    @pytest.mark.parametrize("eigenvalues, g, reg", [
        ([1e155], [1.0], 2.0),
        ([1e155, 0.0], [1e-6, 1e-6], 2.0),
        ([1e155, 0.0], [1e-8, 1e-8], 2.0),
        ([1e155, 0.0], [1e-6, 1e-6], 2e-200),
        ([1e308, 0.0], [1.0, 1.0], 2.0),
        ([1.0, -1.0], [1.0, 1.0], 2e150),
    ], ids=["radius-1e-155", "gradient-1e-6", "gradient-1e-8", "radius-1e97", "shift-1e308",
            "floor-1e-150"])
    def test_huge_shift_beside_the_gradient_solves(self, eigenvalues, g, reg):
        # A shift of 1e155 or more squares past the largest float, and a
        # radius of 1e-155 to a subnormal, unless radii are rescaled; a
        # scale that fits the shifts alone underflows the squares of the
        # small gradient components instead
        decomp = eig_sym(np.diag(eigenvalues))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_cubic_model(np.array(g), decomp, reg)
        reference = cubic_model_radius(decomp.eigenvalues, decomp.eigenvectors.T @ g, reg)
        assert abs(sol.radius - reference) <= _SECULAR_RTOL * reference


@st.composite
def step_models(draw):
    """(g, decomp, reg, tags) for the step assembly's bit-identity test.

    On top of a ``cubic_models`` draw at n in {1, 2, 3, 6, 10}: the
    bottom eigenvalue tied up to n times, with the gradient optionally
    zeroed on the tied block (the hard case); optionally one eigenvalue
    shifted to exactly zero, the bottom one (a singular psd spectrum) or
    one above it; optionally a zero gradient; and one scale 10^e on the
    eigenvalues, g and reg, with |e| near 150 or e = 0, which keeps the
    radius.  ``tags`` names the options drawn.
    """
    decomp, g, reg = draw(cubic_models(dims=(1, 2, 3, 6, 10)))
    lam, q_mat = decomp.eigenvalues.copy(), decomp.eigenvectors
    g_hat = q_mat.T @ g
    n = lam.size
    tags = set()
    tied = n - 1 - draw(st.integers(0, n - 1))
    lam[tied:] = lam[-1]
    if tied < n - 1:
        tags.add("tied")
    if draw(st.booleans()):
        g_hat[tied:] = 0.0
        tags.add("bottom-free")
    zero = draw(st.sampled_from((None, n - 1, 0)))
    if zero is not None:
        lam -= lam[zero]
        tags.add("zero-bottom" if zero == n - 1 else "zero-eigenvalue")
    if draw(st.integers(0, 4)) == 0:
        g_hat[:] = 0.0
        tags.add("zero-gradient")
    exponent = draw(st.sampled_from((0, 0, -152, -150, -148, 148, 150, 152)))
    if exponent:
        tags.add("scaled")
    scale = 10.0**exponent
    return scale * (q_mat @ g_hat), EigenDecomp(scale * lam, q_mat), scale * float(reg), tags


def step_outcome(solve, model):
    """The step's bytes and the repr of every field, or the exception's type."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            sol = solve(model)
        except (ArithmeticError, RuntimeWarning) as exc:
            return type(exc).__name__
    return sol.step.tobytes(), repr((sol.step.tolist(), sol.model_value, sol.radius,
                                     sol.secular_evals))


class TestStepAssembly:
    """The step assembled on Python floats against the numpy array reference."""

    def test_equals_reference_bit_for_bit(self):
        seen = []

        @settings(max_examples=600, deadline=None, derandomize=True)
        @given(step_models())
        def check(case):
            g, decomp, reg, tags = case
            try:
                model = _model_inputs(g, decomp, reg)
            except ValueError:  # a gradient norm past 1.3e154
                seen.append("rejected")
                return
            expected = step_outcome(solve_model_arrays, model)
            assert step_outcome(_solve_model, model) == expected
            seen.extend(tags)
            seen.append("raised" if isinstance(expected, str) else "solved")

        check()
        counts = {tag: seen.count(tag) for tag in set(seen)}
        assert counts["solved"] >= 300
        for tag in ("tied", "bottom-free", "zero-bottom", "zero-eigenvalue", "zero-gradient",
                    "scaled"):
            assert counts.get(tag, 0) >= 20, counts


class TestCubicStep:
    def test_quadratic_moves_toward_minimum(self):
        quad = Polynomial(2, [(1.0, (2, 0)), (1.0, (0, 2))])
        x = np.array([1.0, 1.0])
        z = regularized_step(quad, x, 50.0)
        assert np.linalg.norm(z) < np.linalg.norm(x)
        assert quad.value(z) < quad.value(x)

    def test_degenerate_origin_is_a_stall(self):
        # gradient and hessian both vanish, so the model is minimized by
        # the zero step; this is the failure mode third-order steps fix
        confined = corpus("monkey_saddle_confined")
        z = regularized_step(confined, np.zeros(2), 86.0)
        assert_allclose(z, 0.0)

    def test_fixed_point_at_quadratic_minimum(self):
        quad = Polynomial(2, [(1.0, (2, 0)), (2.0, (0, 2))])
        z = regularized_step(quad, np.zeros(2), 1.0)
        assert_allclose(z, 0.0)


class TestStationarity:
    def test_zero_at_second_order_points(self):
        quad = Polynomial(2, [(1.0, (2, 0)), (1.0, (0, 2))])
        s = point_stationarity(quad, np.zeros(2), 3.0)
        assert s == 0.0

    def test_gradient_part_scale(self):
        # ||grad|| equal to the regularizer gives value 1
        reg = 2.5
        linear = Polynomial(2, [(reg, (1, 0))])
        s = point_stationarity(linear, np.zeros(2), reg)
        b = linear.bundle(np.zeros(2), 2)
        grad_part, eig_part = stationarity_parts(b.grad, eig_sym(b.hess), reg)
        assert s == pytest.approx(1.0)
        assert grad_part == pytest.approx(1.0)
        assert eig_part == 0.0

    def test_eigenvalue_part_scale(self):
        # lambda_min = -3 reg / 2 gives value 1
        reg = 2.0
        decomp = eig_sym(np.array([[-1.5 * reg]]))
        s = stationarity(np.zeros(1), decomp, reg)
        grad_part, eig_part = stationarity_parts(np.zeros(1), decomp, reg)
        assert s == pytest.approx(1.0)
        assert eig_part == pytest.approx(1.0)
        assert grad_part == 0.0

    def test_float32_reg_equals_its_python_float(self):
        decomp = eig_sym(np.diag([0.7, -0.2]))
        for reg in (np.float32(0.3), np.float32(2.0 / 3.0)):
            for g in (np.array([0.1, 0.7]), np.zeros(2)):
                assert repr(stationarity(g, decomp, reg)) == repr(stationarity(g, decomp, float(reg)))

    @pytest.mark.parametrize("grad, hess", [
        (np.zeros(3), eig_sym(np.eye(2))),
        (np.array([math.nan, 0.0]), eig_sym(np.eye(2))),
        (np.zeros(2), EigenDecomp(np.array([1.0, math.nan]), np.eye(2))),
    ], ids=["shape", "nan-grad", "nan-eigenvalue"])
    def test_rejects_malformed_derivatives(self, grad, hess):
        with pytest.raises(ValueError, match="gradient"):
            stationarity(grad, hess, 1.0)



class TestFiniteInputs:
    """The point and model-input checks test every entry, whatever its magnitude."""

    @pytest.mark.parametrize("n", [1, 2, 10])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_entry_rejected_at_each_position(self, n, bad):
        identity = eig_sym(np.eye(n))
        for i in range(n):
            v = np.ones(n)
            v[i] = bad
            with pytest.raises(ValueError, match="^point has non-finite entries$"):
                as_point(v, n)
            spectrum = EigenDecomp(np.arange(n, 0, -1.0), np.eye(n))
            spectrum.eigenvalues[i] = bad
            for entry in (solve_cubic_model, stationarity):
                for grad, decomp in ((v, identity), (np.zeros(n), spectrum)):
                    with pytest.raises(ValueError,
                                       match="^gradient or hessian has non-finite entries$"):
                        entry(grad, decomp, 1.0)

    @pytest.mark.parametrize("n", [1, 2, 10])
    @pytest.mark.parametrize("big", [1.7e308, -1.7e308])
    def test_extreme_finite_entry_accepted_at_each_position(self, n, big):
        # x.dot(x) overflows for each of these vectors, so a check on the
        # squared norm would reject them as points and as spectra; as a
        # gradient, whose norm the model needs, see the test below
        for i in range(n):
            v = np.zeros(n)
            v[i] = big
            assert np.array_equal(as_point(v, n), v)
            # in the descending spectrum, at position i and on the side its
            # sign belongs to: a zero gradient over a psd spectrum stays
            # put, and lambda_min = -1.7e308 puts stationarity at inf
            if big > 0:
                decomp = EigenDecomp(np.array([big] * (i + 1) + [1.0] * (n - i - 1)), np.eye(n))
                assert stationarity(np.zeros(n), decomp, 1.0) == 0.0
                sol = solve_cubic_model(np.zeros(n), decomp, 1.0)
                assert sol.radius == 0.0 and not sol.step.any()
            else:
                decomp = EigenDecomp(np.array([1.0] * i + [big] * (n - i)), np.eye(n))
                assert stationarity(np.zeros(n), decomp, 1.0) == math.inf

    @pytest.mark.parametrize("n", [1, 2, 10])
    @pytest.mark.parametrize("big", [1.7e308, -1.7e308, 2e154])
    @pytest.mark.parametrize("warn", ["default", "error"])
    def test_overflowing_gradient_norm_rejected_at_each_position(self, n, big, warn):
        # Each entry is finite but ||g|| overflows to inf, against which the
        # solver's scale-relative certificate would pass a zero step; the
        # rejection must not turn into numpy's overflow warning under -W error
        identity = eig_sym(np.eye(n))
        for i in range(n):
            g = np.zeros(n)
            g[i] = big
            if n > 1:
                g[(i + 1) % n] = 1e154
            for entry in (solve_cubic_model, stationarity):
                with warnings.catch_warnings():
                    warnings.simplefilter(warn)
                    with pytest.raises(ValueError, match="^gradient norm overflows$"):
                        entry(g, identity, 1.0)

    def test_nan_eigenvectors_fail_the_certificate(self):
        # eigh keeps the eigenvalues of this NaN matrix finite and puts the
        # NaNs in the vectors, which the input check refuses; past it, the
        # certificate's residual and margin are NaN, which must not pass it
        decomp = eig_sym(np.array([[math.nan, 1.0], [1.0, 1.0]]))
        assert np.isfinite(decomp.eigenvalues).all()
        for entry in (solve_cubic_model, stationarity):
            with pytest.raises(ValueError, match="^gradient or hessian has non-finite entries$"):
                entry(np.ones(2), decomp, 1.0)
        unchecked = _LocalModel(np.ones(2), math.sqrt(2.0), decomp, 1.0)
        with pytest.raises(ArithmeticError, match="certificate failed"):
            _solve_model(unchecked)

    def test_model_value_overflow_is_named(self):
        # the minimizer of this finite model has norm about 1.4e125, whose cube
        # is past the largest float
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=r"^model value overflows: step radius 1\.414e\+125$"):
                solve_cubic_model(np.array([1e150]), eig_sym(np.diag([1.0])), 1e-100)
        # a radius whose cube is a float still solves
        sol = solve_cubic_model(np.array([1e150]), eig_sym(np.diag([1.0])), 1e-50)
        assert math.isfinite(sol.model_value) and sol.radius > 1e100

    def test_largest_gradient_norm_accepted(self):
        # 1.3e154 squared stays below the largest float, so the norm is finite
        identity = eig_sym(np.eye(2))
        g = np.array([1.3e154, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert stationarity(g, identity, 1.0) == math.sqrt(1.3e154)


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
            x = regularized_step(wine, x, reg)
            mus.append(point_stationarity(wine, x, reg))
        bound = (8.0 / 3.0) * (3.0 * f0 / (2.0 * t * reg)) ** (1.0 / 3.0)
        assert min(mus) <= bound

    def test_wine_bottle_limit_proxy(self):
        # the tail iterate behaves like a second-order stationary point
        wine = corpus("wine_bottle")
        reg = smoothness_bounds(wine, radius=3.0).hess_lipschitz
        x = np.array([1.4, -0.9])
        for _ in range(60):
            x = regularized_step(wine, x, reg)
        b = wine.bundle(x, 2)
        assert np.linalg.norm(b.grad) < 1e-8
        assert np.linalg.eigvalsh(b.hess)[0] > -1e-8
        # it lands on the gutter circle
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-8)
        assert wine.value(x) <= grid_min_2d(lambda X, Y: (X**2 + Y**2 - 1) ** 2, -2, 2, 501) + 1e-12
