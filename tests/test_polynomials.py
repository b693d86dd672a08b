import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from thirdopt import (
    CORPUS_NAMES,
    DerivativeBundle,
    OracleObjective,
    Polynomial,
    SmoothnessConstants,
    corpus,
    finite_difference_check,
    quartic_plus_sixth,
    smoothness_bounds,
    SymTensor3,
)
from thirdopt.polynomials import MAX_DEGREE, _derivative_frobenius_bound

from oracles import per_order_bundle, sympy_bundle, sympy_frobenius_bound, term_loop_partial

# Dimensions the bit-identity tests of the fast paths cover.
FAST_PATH_DIMS = (1, 2, 3, 5, 6, 10, 20)


@st.composite
def sparse_polynomials(draw, max_dim=4):
    """Up to 8 distinct terms of degree <= 6 in 1..max_dim variables."""
    n = draw(st.integers(1, max_dim))
    monomial_axes = st.lists(st.integers(0, n - 1), max_size=6)
    exps = {tuple(a.count(i) for i in range(n)) for a in draw(st.lists(monomial_axes, max_size=8))}
    coeffs = st.floats(-1.0, 1.0).filter(lambda c: c == 0.0 or abs(c) >= 1e-6)
    return Polynomial(n, [(draw(coeffs), e) for e in sorted(exps)])


@st.composite
def polynomials_and_points(draw):
    p = draw(sparse_polynomials())
    return p, np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=p.dim, max_size=p.dim)))


@st.composite
def grid_cases(draw):
    """A polynomial in 1..3 variables and one axis per variable.

    Every axis holds 0.0, a negative value and a repeated entry, plus six
    uniform values: on about 3 % of those, numpy's vectorized ``power``
    differs in the last bit from scalar ``pow`` for exponents 3 to 6.
    """
    p = draw(sparse_polynomials(max_dim=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    drawn = st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4)
    axes = []
    for _ in range(p.dim):
        values = draw(drawn)
        axes.append([0.0, *values, *rng.uniform(-3.0, 3.0, 6).tolist(), -0.75, values[0]])
    return p, axes


def grid_values(p, *axes):
    """Values at every point of the grid, in ``itertools.product`` order.

    This is the exact path of the grid minima: ``bundle_many`` at order 0
    over the grid's points.
    """
    points = np.array(list(itertools.product(*axes)), dtype=float).reshape(-1, p.dim)
    return p.bundle_many(points, 0)[0]


@st.composite
def point_stacks(draw):
    """A polynomial in 1..4 variables and a stack of points to evaluate it at.

    The stack holds drawn rows, a row of zeros, a row with one zero
    coordinate, a repeat of the first row and six uniform rows.
    """
    p = draw(sparse_polynomials())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    row = st.lists(st.floats(-3.0, 3.0), min_size=p.dim, max_size=p.dim)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    partial_zero = rng.uniform(-3.0, 3.0, p.dim)
    partial_zero[0] = 0.0
    points = np.vstack([rows, np.zeros(p.dim), partial_zero, rows[0],
                        rng.uniform(-3.0, 3.0, (6, p.dim))])
    return p, points


@st.composite
def fast_path_cases(draw):
    """A corpus member, or a random polynomial of degree up to MAX_DEGREE, and a point."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    name = draw(st.sampled_from((None,) + CORPUS_NAMES))
    if name is None:
        dim = draw(st.sampled_from(FAST_PATH_DIMS))
        terms = {}
        for _ in range(int(rng.integers(1, 16))):
            axes = rng.integers(0, dim, size=int(rng.integers(0, MAX_DEGREE + 1)))
            terms[tuple(np.bincount(axes, minlength=dim).tolist())] = float(rng.standard_normal())
        p = Polynomial(dim, [(c, e) for e, c in terms.items()])
    else:
        p = corpus(name)
    x = rng.standard_normal(p.dim) * 10.0 ** rng.integers(-2, 2)
    x[rng.random(p.dim) < 0.2] = 0.0
    return p, x


@st.composite
def symmetry_cases(draw):
    """A random polynomial in 1..10 variables and a point, both at scales up to overflow.

    Coefficients are scaled by 10^-300..10^300 and the point by
    10^-200..10^60, half of them by 10^20 or more, so some powers
    overflow the scalar ``pow`` and some products overflow to inf, or to
    NaN where an inf meets a zero or -inf.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 10))
    p = random_sparse_polynomial(rng, dim)
    scale = 10.0 ** int(rng.integers(-300, 301))
    p = Polynomial(dim, [(c * scale, e) for c, e in p.terms])
    low = draw(st.sampled_from((-200, -200, 20, 45)))
    x = rng.standard_normal(dim) * 10.0 ** int(rng.integers(low, 61))
    x[rng.random(dim) < 0.2] = 0.0
    return p, x


def random_sparse_polynomial(rng, dim):
    terms = {}
    for _ in range(int(rng.integers(1, 12))):
        exps = np.bincount(rng.integers(0, dim, size=int(rng.integers(0, 7))), minlength=dim)
        terms[tuple(int(e) for e in exps)] = float(rng.standard_normal())
    return Polynomial(dim, [(c, e) for e, c in terms.items()])


class TestConstruction:
    def test_rejects_duplicate_multi_index(self):
        with pytest.raises(ValueError, match="duplicate"):
            Polynomial(2, [(1.0, (1, 0)), (2.0, (1, 0))])
        with pytest.raises(ValueError, match="duplicate"):
            Polynomial(2, [(0.0, (1, 0)), (1.0, (1, 0))])

    def test_rejects_wrong_exponent_length(self):
        with pytest.raises(ValueError):
            Polynomial(2, [(1.0, (1, 0, 0))])

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            Polynomial(1, [(1.0, (-1,))])

    def test_rejects_degree_above_cap(self):
        with pytest.raises(ValueError, match="degree"):
            Polynomial(1, [(1.0, (7,))])

    @pytest.mark.parametrize("build, message", [
        (lambda: Polynomial(0, []), "positive integer"),
        (lambda: Polynomial(1, [(math.inf, (1,))]), "coefficients must be finite"),
        (lambda: Polynomial.variable(1, 0) ** -1, "non-negative integer powers"),
        (lambda: Polynomial.from_dict({"dim": 2.0, "terms": []}), '"dim" must be an integer'),
        (lambda: corpus("monkey_saddle").value([math.nan, 0.0]), "non-finite entries"),
        (lambda: corpus("monkey_saddle").bundle(np.zeros(2), 4), "order must be in 0..3"),
    ], ids=["dim", "coefficient", "power", "json_dim", "point", "order"])
    def test_rejects_malformed_input(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_drops_zero_coefficients(self):
        p = Polynomial(2, [(0.0, (1, 0)), (2.0, (0, 1))])
        assert p.terms == [(2.0, (0, 1))]

    def test_arithmetic_merges_terms(self):
        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        p = (x + y) * (x - y)
        assert p == x**2 - y**2


class TestDerivatives:
    def test_quadratic_example(self):
        p = Polynomial(2, [(1.0, (2, 0)), (1.0, (0, 2))])
        b = p.bundle(np.array([1.0, 2.0]), 3)
        assert b.value == pytest.approx(5.0)
        assert_allclose(b.grad, [2.0, 4.0])
        assert_allclose(b.hess, np.diag([2.0, 2.0]))
        assert_allclose(b.third.entries, 0.0)

    def test_monkey_saddle_origin_is_degenerate_critical(self):
        b = corpus("monkey_saddle").bundle(np.zeros(2), 3)
        assert_allclose(b.grad, 0.0)
        assert_allclose(b.hess, 0.0)
        # third derivative entries of -3x^2y + y^3
        assert b.third.entries[0, 0, 1] == pytest.approx(-6.0)
        assert b.third.entries[0, 1, 0] == pytest.approx(-6.0)
        assert b.third.entries[1, 0, 0] == pytest.approx(-6.0)
        assert b.third.entries[1, 1, 1] == pytest.approx(6.0)
        assert b.third.entries[0, 0, 0] == 0.0

    def test_order_limits_zero_higher_slots(self):
        p = corpus("monkey_saddle")
        b = p.bundle(np.array([0.5, 0.5]), 1)
        assert np.any(b.grad != 0.0)
        assert_allclose(b.hess, 0.0)
        assert_allclose(b.third.entries, 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            corpus("monkey_saddle").bundle(np.zeros(3), 3)

    def test_against_sympy_on_random_polynomials(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            dim = int(rng.integers(1, 4))
            n_terms = int(rng.integers(1, min(6, 4**dim)))
            terms = {}
            while len(terms) < n_terms:
                exps = tuple(int(e) for e in rng.integers(0, 4, size=dim))
                if sum(exps) <= 6 and exps not in terms:
                    terms[exps] = float(rng.standard_normal())
            p = Polynomial(dim, [(c, e) for e, c in terms.items()])
            x = rng.standard_normal(dim)
            b = p.bundle(x, 3)
            value, grad, hess, third = sympy_bundle(p, x)
            assert b.value == pytest.approx(value, rel=1e-12, abs=1e-12)
            assert_allclose(b.grad, grad, rtol=1e-12, atol=1e-12)
            assert_allclose(b.hess, hess, rtol=1e-12, atol=1e-12)
            assert_allclose(b.third.entries, third, rtol=1e-12, atol=1e-12)

    def test_third_tensor_is_exactly_symmetric(self):
        rng = np.random.default_rng(43)
        p = corpus("quartic_plus_sixth")
        for _ in range(5):
            t = p.bundle(rng.standard_normal(2), 3).third.entries
            for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
                assert np.array_equal(t, np.transpose(t, perm))
        for _ in range(20):
            dim = int(rng.integers(1, 7))
            q = random_sparse_polynomial(rng, dim)
            t = q.bundle(rng.standard_normal(dim), 3).third.entries
            for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
                assert np.array_equal(t, np.transpose(t, perm))

    def test_table_derivatives_are_exactly_symmetric_at_every_scale(self):
        # Polynomial.bundle skips DerivativeBundle's symmetry check: mirrored
        # positions add the same floats in the same order, inf and NaN included
        outcomes = []

        @settings(max_examples=200, deadline=None, derandomize=True)
        @given(symmetry_cases())
        def check(case):
            p, x = case
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    b = p.bundle(x, 3)
            except ValueError as exc:
                assert "overflows at" in str(exc)
                outcomes.append("power overflow")
                return
            assert np.array_equal(b.hess, b.hess.T, equal_nan=True)
            t = b.third.entries
            for perm in itertools.permutations(range(3)):
                assert np.array_equal(t, np.transpose(t, perm), equal_nan=True), perm
            finite = np.isfinite(b.hess).all() and np.isfinite(t).all()
            outcomes.append("finite" if finite else "non-finite")

        check()
        counts = {kind: outcomes.count(kind) for kind in ("finite", "non-finite", "power overflow")}
        assert counts["finite"] >= 100 and min(counts.values()) >= 5, counts

    def test_equals_term_loop_bit_for_bit(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            dim = int(rng.integers(1, 7))
            p = random_sparse_polynomial(rng, dim)
            x = rng.standard_normal(dim) * 10.0 ** rng.integers(-2, 2)
            b = p.bundle(x, 3)
            assert p.value(x) == b.value == term_loop_partial(p, x, ())
            for k, slot in ((1, b.grad), (2, b.hess), (3, b.third.entries)):
                for index in np.ndindex(slot.shape):
                    assert slot[index] == term_loop_partial(p, x, index), (k, index)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(fast_path_cases())
    @example((Polynomial.zero(3), np.array([0.5, -1.0, 0.25])))
    @example((Polynomial.constant(2, -1.5), np.array([-0.0, 0.7])))
    def test_fused_table_equals_per_order_evaluation_bit_for_bit(self, case):
        p, x = case
        for order in range(4):
            b = p.bundle(x, order)
            want = per_order_bundle(p, x, order)
            got = (np.float64(b.value), b.grad, b.hess, b.third.entries)
            for k, (g, w) in enumerate(zip(got, want)):
                assert g.shape == w.shape and g.tobytes() == w.tobytes(), (order, k)
        assert p.value(x) == per_order_bundle(p, x, 0)[0]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(polynomials_and_points())
    @example((Polynomial.zero(3), np.array([0.5, -1.0, 0.25])))
    @example((Polynomial.constant(2, -1.5), np.array([0.3, 0.7])))
    def test_every_order_matches_sympy(self, case):
        p, x = case
        value, grad, hess, third = sympy_bundle(p, x)
        assert p.value(x) == pytest.approx(value, rel=1e-12, abs=1e-12)
        for order in range(4):
            b = p.bundle(x, order)
            slots = zip((b.value, b.grad, b.hess, b.third.entries), (value, grad, hess, third))
            for k, (got, want) in enumerate(slots):
                if k <= order:
                    assert_allclose(got, want, rtol=1e-12, atol=1e-12)
                else:
                    assert not np.any(got), f"order-{k} slot of an order-{order} bundle"

    def test_values_on_a_grid_equal_value_bit_for_bit(self):
        p = corpus("inverted_wine_bottle")
        rng = np.random.default_rng(47)
        axes = (rng.standard_normal(40), np.linspace(-2.0, 2.0, 41))
        grid = grid_values(p, *axes)
        assert grid.shape == (40 * 41,)
        assert grid.tolist() == [p.value(pt) for pt in itertools.product(*axes)]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(grid_cases())
    @example((Polynomial.zero(3), [[0.0, -1.0], [2.0], [0.5, 0.5]]))
    @example((Polynomial.constant(2, -1.5), [[0.0, -0.3], [0.7, 0.7]]))
    def test_values_match_value_at_every_grid_point(self, case):
        p, axes = case
        assert grid_values(p, *axes).tolist() == [p.value(pt) for pt in itertools.product(*axes)]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(point_stacks())
    @example((Polynomial.zero(3), np.array([[0.0, -1.0, 2.0], [0.0, -1.0, 2.0]])))
    @example((Polynomial.constant(2, -1.5), np.array([[0.0, 0.7]])))
    def test_bundle_many_rows_equal_bundle_bit_for_bit(self, case):
        p, points = case
        n, count = p.dim, len(points)
        for order in range(4):
            stacked = p.bundle_many(points, order)
            shapes = [(count,) + (n,) * k for k in range(4)]
            assert [a.shape for a in stacked] == shapes
            assert all(a.flags.c_contiguous for a in stacked)
            for i, x in enumerate(points):
                b = p.bundle(x, order)
                single = (np.float64(b.value), b.grad, b.hess, b.third.entries)
                for got, want in zip(stacked, single):
                    assert got[i].tobytes() == want.tobytes(), (order, i)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(grid_cases())
    def test_bundle_many_on_a_grid_equals_bundle_bit_for_bit(self, case):
        # a grid repeats every coordinate value; -0.0 shares a column with 0.0
        p, axes = case
        axes = [[*axis, -0.0] for axis in axes]
        points = np.array(list(itertools.product(*axes)), dtype=float).reshape(-1, p.dim)
        stacked = p.bundle_many(points, 3)
        for i, x in enumerate(points):
            b = p.bundle(x, 3)
            single = (np.float64(b.value), b.grad, b.hess, b.third.entries)
            for got, want in zip(stacked, single):
                assert got[i].tobytes() == want.tobytes(), i

    def test_bundle_many_rejects_malformed_points(self):
        p = corpus("monkey_saddle")
        for bad in (np.zeros(2), np.zeros((3, 1)), np.zeros((1, 2, 2))):
            with pytest.raises(ValueError, match="rows of dimension 2"):
                p.bundle_many(bad, 3)
        with pytest.raises(ValueError, match="non-finite"):
            p.bundle_many(np.array([[0.0, np.nan]]), 3)
        with pytest.raises(ValueError, match="order"):
            p.bundle_many(np.zeros((1, 2)), 4)


def test_float_power_is_the_scalar_power_bit_for_bit():
    # A stack's powers come from np.float_power, a point's from Python's **;
    # both must be libm pow.  np.power's SIMD kernels differ in the last bit.
    rng = np.random.default_rng(29)
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 1.0, -1.0]
    base = np.concatenate([edges, rng.standard_normal(20000) * 10.0 ** rng.uniform(-320, 300, 20000)])
    signs = rng.choice([-1.0, 1.0], 2000)
    for e in range(MAX_DEGREE + 1):
        # values around the largest whose e-th power is finite, either sign
        top = 1.7976931348623157e308 ** (1.0 / max(e, 2))
        x = np.concatenate([base, top * rng.uniform(0.98, 1.02, 2000) * signs])
        got = np.empty_like(x)
        with np.errstate(over="ignore"):
            np.float_power(x, e, out=got)
        expected = []
        for v in x.tolist():
            try:
                expected.append((v**e).hex())
            except OverflowError:
                expected.append(math.copysign(math.inf, v if e % 2 else 1.0).hex())
        assert [v.hex() for v in got.tolist()] == expected, e
        if e >= 2:
            assert "inf" in expected and ("-inf" in expected) == (e % 2 == 1)


class TestOverflowingPowers:
    # monkey_saddle is -3 x0^2 x1 + x1^3: x1 ** 3 overflows above about 5.6e102
    @pytest.mark.parametrize("evaluate", [
        lambda p, x: p.value(x),
        lambda p, x: p.bundle(x, 3),
        lambda p, x: p.bundle_many(np.vstack([np.ones(2), x, -x / 2]), 3),
    ], ids=["value", "bundle", "bundle_many"])
    def test_names_the_variable_and_exponent(self, evaluate):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^power x1\*\*3 overflows at \|x1\| = 1e\+103$"):
                evaluate(corpus("monkey_saddle"), np.array([1.0, -1e103]))
            evaluate(corpus("monkey_saddle"), np.array([1.0, -5e102]))

    def test_first_overflowing_slot_is_named(self):
        with pytest.raises(ValueError, match=r"^power x0\*\*2 overflows at \|x0\| = 1e\+200$"):
            corpus("monkey_saddle").bundle(np.array([1e200, 1e200]), 2)

    @pytest.mark.parametrize("kind", [float, np.float64])
    def test_smoothness_bounds_name_the_radius(self, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^radius\*\*3 overflows at radius = 1e\+200$"):
                smoothness_bounds(corpus("monkey_saddle"), kind(1e200))
            assert smoothness_bounds(corpus("monkey_saddle"), kind(1e100)).hess_lipschitz > 0


class TestDerivativeTableOverflow:
    def test_overflowing_multiplier_names_its_term_and_order(self):
        # 360 * 1e306 overflows in the order-4 table only, which smoothness
        # bounds alone reads; orders 0-3 keep their finite multipliers
        poly = Polynomial(2, [(1e306, (0, 6)), (1.0, (1, 0))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert poly.bundle(np.ones(2), 3).value == 1e306 + 1.0
            with pytest.raises(ValueError, match=r"^order-4 derivative of the term 1e\+306\*x1\^6 "
                                                 "overflows: the coefficient times 360$"):
                smoothness_bounds(poly, 1.0)
            # the value reads order 0 alone, whose multipliers are the coefficients
            big = Polynomial(2, [(-1.5e308, (2, 1))])
            assert big.value(np.ones(2)) == -1.5e308
            for read in (lambda: big.bundle(np.zeros(2), 1),
                         lambda: big.bundle_many(np.zeros((2, 2)), 3),
                         lambda: smoothness_bounds(big, 1.0)):
                with pytest.raises(ValueError, match=r"^order-1 derivative of the term "
                                                     r"-1\.5e\+308\*x0\^2\*x1 overflows: "
                                                     "the coefficient times 2$"):
                    read()


class TestDerivativeBundleSymmetry:
    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_asymmetry_above_the_relative_tolerance_is_rejected(self, scale):
        # the tolerance is 1e-12 * max(1, max |hess_ij|)
        tol = 1e-12 * scale
        for offset, accepted in ((0.5 * tol, True), (2.0 * tol, False)):
            hess = np.full((2, 2), scale)
            hess[0, 1] += offset
            build = lambda: DerivativeBundle(0.0, np.zeros(2), hess, SymTensor3.zeros(2))
            if accepted:
                assert build().hess is hess
            else:
                with pytest.raises(ValueError, match="hessian is not symmetric"):
                    build()

    def test_nan_asymmetry_is_rejected(self):
        # a NaN facing a number has asymmetry NaN, which fails the tolerance
        hess = np.array([[1.0, math.nan], [2.0, 1.0]])
        with pytest.raises(ValueError,
                           match=r"^hessian is not symmetric or has non-finite entries \(asymmetry nan\)$"):
            DerivativeBundle(0.0, np.zeros(2), hess, SymTensor3.zeros(2))
        # a NaN facing a NaN is symmetric, and left to the finiteness checks
        hess[1, 0] = math.nan
        assert DerivativeBundle(0.0, np.zeros(2), hess, SymTensor3.zeros(2)).hess is hess

    def test_oracle_bundles_take_the_checked_constructor(self, monkeypatch):
        # The hess callback's own matrix is checked, and averaged only once it
        # passes; a check that always fails then reaches OracleObjective.bundle
        # and not Polynomial.bundle
        def oracle(hess):
            return OracleObjective(2, value=lambda x: 0.0, grad=lambda x: np.zeros(2),
                                   hess=lambda x: np.array(hess),
                                   third=lambda x: np.zeros((2, 2, 2)))

        with pytest.raises(ValueError, match="hessian is not symmetric"):
            oracle([[2.0, 1.0], [0.0, 2.0]]).bundle(np.zeros(2), 2)
        # an asymmetry of 1e-12 against the tolerance 1e-12 * max |hess_ij| = 2e-12
        within = np.array([[2.0, 1.0 + 1e-12], [1.0, 2.0]])
        hess = oracle(within).bundle(np.zeros(2), 2).hess
        assert np.array_equal(hess, (within + within.T) / 2.0)
        assert hess[0, 1] == hess[1, 0] != 1.0

        def reject(bundle):
            raise ValueError("hessian is not symmetric (forced)")

        monkeypatch.setattr(DerivativeBundle, "__post_init__", reject)
        with pytest.raises(ValueError, match="forced"):
            oracle([[2.0, 1.0], [1.0, 2.0]]).bundle(np.zeros(2), 2)
        for order in range(4):
            corpus("monkey_saddle").bundle(np.ones(2), order)


class TestFiniteDifferenceCheck:
    def test_quadratic_gradient_nearly_exact(self):
        p = Polynomial(2, [(1.0, (2, 0)), (1.0, (0, 2))])
        for x in ([1.0, 2.0], [-3.0, 0.5], [0.0, 0.0]):
            res = finite_difference_check(p, np.array(x), 1e-4)
            assert res.grad < 1e-8

    def test_monkey_saddle_point(self):
        res = finite_difference_check(corpus("monkey_saddle"), np.array([0.3, -0.2]), 1e-4)
        assert res.worst() < 1e-5

    def test_zero_polynomial(self):
        res = finite_difference_check(Polynomial.zero(2), np.array([0.7, -0.1]), 1e-4)
        assert res.grad == 0.0 and res.hess == 0.0 and res.third == 0.0

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            finite_difference_check(corpus("monkey_saddle"), np.zeros(2), 0.0)

    def test_full_corpus_random_points(self):
        # 100 seeded points in the unit ball per member, residuals < 1e-5.
        rng = np.random.default_rng(53)
        for name in CORPUS_NAMES:
            p = corpus(name)
            for _ in range(100):
                direction = rng.standard_normal(p.dim)
                direction /= np.linalg.norm(direction)
                x = direction * rng.random() ** (1.0 / p.dim)
                assert finite_difference_check(p, x, 1e-4).worst() < 1e-5, name


class TestSmoothnessBounds:
    def test_quartic_1d_third_constant_is_24(self):
        # fourth derivative of x^2 - 100x^3 + x^4 is the constant 24
        sc = smoothness_bounds(corpus("quartic_1d"), radius=5.0)
        assert sc.third_lipschitz == pytest.approx(24.0)

    def test_quadratic_hits_floor(self):
        p = Polynomial(2, [(1.0, (2, 0)), (1.0, (0, 2))])
        sc = smoothness_bounds(p, radius=1.0)
        assert sc.hess_lipschitz == pytest.approx(1e-6)
        assert sc.third_lipschitz == pytest.approx(1e-6)

    def test_monkey_saddle_constants(self):
        sc = smoothness_bounds(corpus("monkey_saddle"), radius=1.0)
        # constant third derivative: frobenius norm 12, and a floored
        # third-order constant since the fourth derivative vanishes
        assert sc.hess_lipschitz == pytest.approx(12.0)
        assert sc.third_lipschitz == pytest.approx(1e-6)

    def test_taylor_remainder_bound_holds(self):
        # |f(y) - order-3 expansion| <= (L/24) ||y-x||^4 (1 + 1e-6)
        rng = np.random.default_rng(59)
        for name in ("monkey_saddle", "monkey_saddle_confined", "xxy_plus_yy",
                     "quartic_1d", "wine_bottle"):
            p = corpus(name)
            lip3 = smoothness_bounds(p, radius=1.0).third_lipschitz
            count = 0
            while count < 100:
                x = rng.uniform(-1, 1, p.dim) / np.sqrt(p.dim)
                y = rng.uniform(-1, 1, p.dim) / np.sqrt(p.dim)
                d = y - x
                dist = np.linalg.norm(d)
                if dist < 0.05:
                    continue
                count += 1
                b = p.bundle(x, 3)
                expansion = (b.value + b.grad @ d + 0.5 * d @ b.hess @ d
                             + b.third.trilinear(d, d, d) / 6.0)
                remainder = abs(p.value(y) - expansion)
                assert remainder <= lip3 / 24.0 * dist**4 * (1 + 1e-6), name

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(sparse_polynomials(), st.floats(0.1, 10.0))
    @example(Polynomial.zero(2), 1.5)
    @example(Polynomial.constant(3, 2.0), 0.5)
    def test_match_termwise_oracle(self, p, radius):
        for order in (3, 4):
            got = _derivative_frobenius_bound(p, order, radius)
            want = sympy_frobenius_bound(p, order, radius)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), order

    @pytest.mark.parametrize("coeff, exps", [(9.4e-268, (3,)), (1e200, (4,))],
                             ids=["underflow", "overflow"])
    def test_extreme_entry_bounds_match_oracle(self, coeff, exps):
        # squaring these entry bounds would underflow to 0 or overflow to inf
        p = Polynomial(1, [(coeff, exps)])
        for order in (3, 4):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _derivative_frobenius_bound(p, order, 1.0)
            want = sympy_frobenius_bound(p, order, 1.0)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), order

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(sparse_polynomials(), st.floats(0.1, 10.0), st.integers(-250, 250))
    def test_match_termwise_oracle_at_extreme_scales(self, p, radius, exponent):
        scaled = Polynomial(p.dim, [(c * 10.0**exponent, e) for c, e in p.terms])
        for order in (3, 4):
            got = _derivative_frobenius_bound(scaled, order, radius)
            want = sympy_frobenius_bound(scaled, order, radius)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), order

    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            smoothness_bounds(corpus("monkey_saddle"), radius=0.0)

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_numpy_radius_gives_the_python_float_constants(self, name):
        # the radii of the bench suites, the demos and the benchmark, and the
        # CLI's max(1, 2 ||x0||) at one start; numpy's scalar power, which an
        # np.float64 radius used to take, is libm pow as Python's is
        for radius in (1.0, 2.0, 3.0, 5.0, 125.0, 2.0 * math.hypot(0.3, -1.7)):
            assert ([float(np.float64(radius) ** d) for d in range(MAX_DEGREE + 1)]
                    == [radius**d for d in range(MAX_DEGREE + 1)])
            want = smoothness_bounds(corpus(name), radius)
            got = smoothness_bounds(corpus(name), np.float64(radius))
            assert repr(got) == repr(want)
            assert type(got.valid_radius) is float

    @pytest.mark.parametrize("name", ["hess_lipschitz", "third_lipschitz", "valid_radius"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_constants_must_be_finite(self, name, bad):
        values = {"hess_lipschitz": 1.0, "third_lipschitz": 1.0, "valid_radius": 1.0, name: bad}
        with pytest.raises(ValueError, match=name):
            SmoothnessConstants(**values)


class TestCorpus:
    def test_xxy_plus_yy_terms(self):
        assert corpus("xxy_plus_yy").terms == [(1.0, (0, 2)), (1.0, (2, 1))]

    def test_quartic_1d_terms(self):
        assert corpus("quartic_1d").terms == [(1.0, (2,)), (-100.0, (3,)), (1.0, (4,))]

    def test_monkey_saddle_origin_value(self):
        assert corpus("monkey_saddle").value(np.zeros(2)) == 0.0

    def test_confined_variant_formula(self):
        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        expected = -3.0 * x**2 * y + y**3 + (x**2 + y**2) ** 2
        assert corpus("monkey_saddle_confined") == expected

    def test_wine_bottle_gutter(self):
        # the circle of radius 1 is a flat valley of each bottle
        wine = corpus("wine_bottle")
        inverted = corpus("inverted_wine_bottle")
        for theta in np.linspace(0, 2 * np.pi, 9):
            pt = np.array([np.cos(theta), np.sin(theta)])
            assert wine.value(pt) == pytest.approx(0.0, abs=1e-14)
            assert inverted.value(pt) == pytest.approx(0.0, abs=1e-14)
            assert_allclose(wine.bundle(pt, 1).grad, 0.0, atol=1e-13)

    def test_quartic_plus_sixth_requires_homogeneous_quartic(self):
        bad = Polynomial(2, [(1.0, (2, 0))])
        with pytest.raises(ValueError):
            quartic_plus_sixth(bad)
        good = Polynomial(2, [(1.0, (4, 0)), (1.0, (0, 4))])
        lifted = quartic_plus_sixth(good)
        assert lifted.degree == 6

    def test_quartic_plus_sixth_custom_quartic(self):
        custom = Polynomial(3, [(1.0, (4, 0, 0)), (-2.0, (2, 2, 0)), (1.0, (0, 0, 4))])
        lifted = quartic_plus_sixth(custom)
        assert lifted.dim == 3
        assert lifted.degree == 6
        # value at a point splits into the quartic plus the norm term
        x = np.array([0.5, -0.3, 0.2])
        assert lifted.value(x) == pytest.approx(
            custom.value(x) + float(x @ x) ** 3, rel=1e-12
        )

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            corpus("not_a_function")

    def test_members_are_built_once(self):
        for name in CORPUS_NAMES:
            assert corpus(name) is corpus(name)


class TestJson:
    def test_round_trip(self):
        p = corpus("monkey_saddle_confined")
        again = Polynomial.from_dict(json.loads(json.dumps(p.to_dict())))
        assert again == p

    def test_rejects_duplicate_in_json(self):
        data = {"dim": 2, "terms": [
            {"coeff": 1.0, "exponents": [1, 0]},
            {"coeff": 2.0, "exponents": [1, 0]},
        ]}
        with pytest.raises(ValueError, match="duplicate"):
            Polynomial.from_dict(data)

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            Polynomial.from_dict({"dim": 2})
        with pytest.raises(ValueError):
            Polynomial.from_dict({"dim": 2, "terms": [{"coeff": 1.0}]})


class TestOracleObjective:
    def test_wraps_callables(self):
        obj = OracleObjective(
            2,
            value=lambda x: float(x @ x),
            grad=lambda x: 2 * x,
            hess=lambda x: 2 * np.eye(2),
            third=lambda x: np.zeros((2, 2, 2)),
        )
        b = obj.bundle(np.array([1.0, 2.0]), 3)
        assert b.value == pytest.approx(5.0)
        assert_allclose(b.grad, [2.0, 4.0])
        res = finite_difference_check(obj, np.array([0.3, 0.4]), 1e-4)
        assert res.worst() < 1e-6

    @pytest.mark.parametrize("callback, output", [
        ("value", lambda x: math.nan),
        ("value", lambda x: np.ones(2)),
        ("grad", lambda x: np.full((1, 2), math.inf)),
        ("grad", lambda x: np.zeros(3)),
        ("hess", lambda x: np.zeros(4)),
        ("hess", lambda x: np.full((2, 2), math.nan)),
        ("third", lambda x: np.zeros(8)),
        ("third", lambda x: np.full((2, 2, 2), -math.inf)),
    ], ids=["value-nan", "value-shape", "grad-shape-inf", "grad-shape", "hess-shape",
            "hess-nan", "third-shape", "third-inf"])
    def test_rejects_malformed_output(self, callback, output):
        callbacks = dict(value=lambda x: float(x @ x), grad=lambda x: 2 * x,
                         hess=lambda x: 2 * np.eye(2), third=lambda x: np.zeros((2, 2, 2)))
        obj = OracleObjective(2, **(callbacks | {callback: output}))
        with pytest.raises(ValueError, match=f"^{callback} callback"):
            obj.bundle(np.zeros(2), 3)

    @pytest.mark.parametrize("order", [-1, 4])
    def test_rejects_order_outside_0_to_3(self, order):
        obj = OracleObjective(2, lambda x: 0.0, lambda x: np.zeros(2), lambda x: np.zeros((2, 2)),
                              lambda x: np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match="order"):
            obj.bundle(np.zeros(2), order)

    def test_hessian_past_8_9e307_is_averaged_without_overflow(self):
        # A diagonal entry past 8.9e307 overflows when added to itself; the
        # asymmetry is within the tolerance.  The mean keeps the diagonal and
        # gives the off-diagonal pair (a + b) / 2's bits.
        hess = np.array([[1e308, 1e300], [1e300 * (1 + 1e-12), 1.0]])
        oracle = OracleObjective(2, value=lambda x: 0.0, grad=lambda x: np.zeros(2),
                                 hess=lambda x: hess, third=lambda x: np.zeros((2, 2, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean = oracle.bundle(np.zeros(2), 2).hess
        assert mean[0, 0] == 1e308 and mean[1, 1] == 1.0
        assert mean[0, 1] == mean[1, 0] == (hess[0, 1] + hess[1, 0]) / 2.0

