"""The batched taylor suite and the screened grid minima against their definitions.

``run_taylor`` draws its pairs in chunks and expands every member's 1000
pairs as stacks.  Its CSV is pinned, but these tests state the two
reasons it stays byte-identical directly: the chunked draws are the
pair-by-pair draws, and the stacked expansion is the per-pair ``@``
expression, bit for bit.

``grid_minimum_1d`` and ``grid_minimum_2d`` evaluate exactly only the
points a cheap screen keeps; the least exact value must still be the
least ``value`` over the whole grid, bit for bit.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thirdopt import Polynomial, bench, corpus

TAYLOR_MEMBERS = ("monkey_saddle", "monkey_saddle_confined", "xxy_plus_yy",
                  "quartic_1d", "wine_bottle")


def pair_by_pair(rng, dim, count):
    """Pairs drawn with two ``unit_ball_points`` calls each, close ones redrawn."""
    xs, ys = [], []
    while len(xs) < count:
        x = bench.unit_ball_points(rng, dim, 1)[0]
        y = bench.unit_ball_points(rng, dim, 1)[0]
        if float(np.linalg.norm(y - x)) >= 0.05:
            xs.append(x)
            ys.append(y)
    return np.array(xs), np.array(ys)


@pytest.mark.parametrize("seed", [0, 6])
def test_chunked_pairs_are_the_pair_by_pair_draws(seed):
    chunked, single = np.random.default_rng(seed), np.random.default_rng(seed)
    for name in TAYLOR_MEMBERS:
        dim = corpus(name).dim
        x, y, d, dist = bench._taylor_pairs(chunked, dim, 1000)
        want_x, want_y = pair_by_pair(single, dim, 1000)
        assert x.tobytes() == want_x.tobytes()
        assert y.tobytes() == want_y.tobytes()
        assert d.tobytes() == (want_y - want_x).tobytes()
        assert dist.tolist() == [float(np.linalg.norm(v)) for v in want_y - want_x]
        # the stream stops where the pair-by-pair loop stops
        assert chunked.random() == single.random()


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_ball_radii_do_not_depend_on_the_simd_level(dim):
    # u at dim 1 and sqrt(u) at dim 2, as numpy's power gives them on any
    # machine; above, scalar pow, where numpy's vectorized power rounds
    # by the SIMD level
    uniforms = np.random.default_rng(dim).random(20000)
    axis = np.zeros((len(uniforms), dim))
    axis[:, 0] = 1.0
    radii = bench.ball_points(axis, uniforms)[:, 0]
    if dim == 1:
        want = uniforms.tolist()
    elif dim == 2:
        want = [math.sqrt(u) for u in uniforms.tolist()]
    else:
        want = [u ** (1.0 / dim) for u in uniforms.tolist()]
    assert radii.tolist() == want


@pytest.mark.parametrize("name", TAYLOR_MEMBERS)
def test_stacked_expansion_equals_per_pair_expression(name):
    poly = corpus(name)
    x, _, d, _ = bench._taylor_pairs(np.random.default_rng(4), poly.dim, 1000)
    expansion = bench.taylor_expansion(*poly.bundle_many(x, 3), d)
    for i in range(len(x)):
        b = poly.bundle(x[i], 3)
        want = (b.value + b.grad @ d[i] + 0.5 * d[i] @ b.hess @ d[i]
                + b.third.trilinear(d[i], d[i], d[i]) / 6.0)
        assert expansion[i].tobytes() == np.float64(want).tobytes(), i


GRID_MINIMA = {1: bench.grid_minimum_1d, 2: bench.grid_minimum_2d}


def pointwise_minimum(poly, lo, hi, points):
    axis = np.linspace(lo, hi, points)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.min([poly.value(pt) for pt in itertools.product(axis, repeat=poly.dim)]))


@st.composite
def grid_cases(draw):
    """A polynomial in 1 or 2 variables and a grid ``(lo, hi, points)``.

    Half the polynomials have up to 8 terms of degree <= 6, maybe offset
    by 1e8.  The other half are the square of a product of two factors
    ``x_i - r``, each ``r`` a grid value: their least grid values are
    rounding noise about 0, near-ties that the screen and the exact engine
    round differently.
    """
    n = draw(st.integers(1, 2))
    lo, hi, points = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)), draw(st.integers(1, 25))
    if draw(st.booleans()):
        monomial_axes = st.lists(st.integers(0, n - 1), max_size=6)
        exps = {tuple(a.count(i) for i in range(n))
                for a in draw(st.lists(monomial_axes, max_size=8))}
        poly = Polynomial(n, [(draw(st.floats(-1.0, 1.0)), e) for e in sorted(exps)])
        poly = poly + draw(st.sampled_from([0.0, 1e8]))
    else:
        grid_value = st.sampled_from(np.linspace(lo, hi, points).tolist())
        factors = [Polynomial.variable(n, draw(st.integers(0, n - 1))) - draw(grid_value)
                   for _ in range(2)]
        poly = (factors[0] * factors[1]) ** 2
    return poly, lo, hi, points


@settings(max_examples=60, deadline=None, derandomize=True)
@given(grid_cases())
@example((Polynomial.zero(2), -1.0, 1.0, 9))
@example((Polynomial.constant(1, -1.5), -2.0, 2.0, 25))
@example((corpus("wine_bottle"), -2.0, 2.0, 101))
@example((1e8 + Polynomial(2, [(1e-9, (1, 0)), (-1e-9, (1, 1)), (3e-9, (0, 2))]), -2.0, 2.0, 41))
@example((1e8 - Polynomial(1, [(1e-9, (3,)), (2e-9, (1,))]), -2.0, 2.0, 401))
@example((corpus("monkey_saddle_confined"), 0.3, 5.0, 1))
@example((corpus("quartic_1d"), -20.0, 110.0, 1))
def test_grid_minimum_equals_pointwise_minimum(case):
    poly, lo, hi, points = case
    got = GRID_MINIMA[poly.dim](poly, lo, hi, points)
    assert got.hex() == pointwise_minimum(poly, lo, hi, points).hex()


@pytest.mark.parametrize("poly, want", [
    (Polynomial(1, [(-1e300, (6,)), (1.0, (1,))]), -math.inf),
    (Polynomial(2, [(1e300, (6, 0)), (-1e300, (0, 6))]), math.nan),
], ids=["inf", "nan"])
def test_overflowing_grid_evaluates_every_point(poly, want):
    with np.errstate(over="ignore", invalid="ignore"):
        got = GRID_MINIMA[poly.dim](poly, -1e3, 1e3, 11)
    assert got.hex() == want.hex() == pointwise_minimum(poly, -1e3, 1e3, 11).hex()


@pytest.mark.parametrize("call, message", [
    (lambda: bench.grid_minimum_2d(corpus("quartic_1d"), -1.0, 1.0, 5),
     "expected a 2-D polynomial, got dimension 1"),
    (lambda: bench.grid_minimum_1d(corpus("quartic_1d"), math.nan, 1.0, 5), "lo must be finite"),
    (lambda: bench.grid_minimum_2d(corpus("wine_bottle"), -1.0, math.inf, 5), "hi must be finite"),
    (lambda: bench.grid_minimum_1d(corpus("quartic_1d"), -1.0, 1.0, 0),
     "points must be at least 1, got 0"),
], ids=["dim", "lo", "hi", "points"])
def test_grid_minimum_rejects_malformed_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()
