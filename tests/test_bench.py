"""The batched taylor suite, the suites' grid minima and the screened subproblem grid.

``run_taylor`` draws its pairs in chunks and expands every member's 1000
pairs as stacks.  Its CSV is pinned; these tests state the pairs'
contract and that the stacked expansion is the per-pair ``@`` expression,
bit for bit.  Every row of the sampler and taylor suites passes at seeds
0 to 10.

``bench.GRID_MINIMA``, the escape and rate suites' f*, are constants:
each must be its member's least value over every point of its grid, bit
for bit, and lie within the grid's gap of the closed-form minimum.  The
subproblem suite's grid minimum evaluates its model only on a slice of
radii, and must equal the model's least value over every grid point, bit
for bit.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thirdopt import bench, corpus, eig_sym, solve_cubic_model

from oracles import subproblem_grid_min

TAYLOR_MEMBERS = ("monkey_saddle", "monkey_saddle_confined", "xxy_plus_yy",
                  "quartic_1d", "wine_bottle")


@pytest.mark.parametrize("seed", [0, 6])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_taylor_pairs_contract(seed, dim):
    # in 1-D about a twentieth of the first chunk's pairs are too close, so
    # the missing pairs are drawn again
    x, y, d, dist = bench._taylor_pairs(np.random.default_rng(seed), dim, 1000)
    assert x.shape == y.shape == d.shape == (1000, dim) and dist.shape == (1000,)
    assert (np.linalg.norm(x, axis=1) <= 1.0).all() and (np.linalg.norm(y, axis=1) <= 1.0).all()
    assert (dist >= 0.05).all()
    assert d.tobytes() == (y - x).tobytes()
    assert dist.tolist() == [float(np.linalg.norm(v)) for v in d]
    again = bench._taylor_pairs(np.random.default_rng(seed), dim, 1000)
    assert [a.tobytes() for a in again] == [a.tobytes() for a in (x, y, d, dist)]


@pytest.mark.parametrize("seed", range(11))
def test_sampler_and_taylor_rows_pass(seed):
    for suite in ("sampler", "taylor"):
        failed = [r.case for r in bench.run_suite(suite, seed) if not r.passed]
        assert failed == [], (suite, failed)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_ball_radii_do_not_depend_on_the_simd_level(dim):
    # u at dim 1 and sqrt(u) at dim 2, as numpy's power gives them on any
    # machine; above, libm pow per element, as Python's ** gives it, where
    # numpy's vectorized power rounds by the SIMD level
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


def least_grid_value(poly, axis):
    """The least of ``poly.bundle_many(points, 0)`` over the grid of ``poly.dim``
    copies of ``axis``, every point evaluated, 2**16 points at a time."""
    shape = (len(axis),) * poly.dim
    size = math.prod(shape)
    least = math.inf
    for k in range(0, size, 2**16):
        index = np.unravel_index(np.arange(k, min(k + 2**16, size)), shape)
        points = np.column_stack([axis[i] for i in index])
        least = min(least, float(poly.bundle_many(points, 0)[0].min()))
    return least


# Each GRID_MINIMA entry's grid axis, its member's minimum as a (lower, upper)
# pair of Fractions, and how far above it the grid's least value may sit since
# no grid point is a minimizer.  f = r^4 - r^3 sin(3 theta) for the confined
# saddle; f = (r^2 - 1)^2 and r^2 (r^2 - 1)^2 for the wine bottles.  The
# quartic's minimizer t* = (300 + sqrt(89968)) / 8 is a root of 4 t^2 - 300 t
# + 2, so t*^2 = 75 t* - 1/2, which reduces f(t*) = t*^2 - 100 t*^3 + t*^4 to
# 937.25 - 140575 t*; SQRT_89968 brackets the root 1e-30 apart.
SQRT_89968 = tuple(Fraction(math.isqrt(89968 * 10**60) + k, 10**30) for k in (0, 1))
SQUARE_AXIS = np.linspace(-2.0, 2.0, 1001)
REFERENCE_MINIMA = {
    "monkey_saddle_confined": (SQUARE_AXIS, (Fraction(-27, 256),) * 2, 4.5e-6),
    "wine_bottle": (SQUARE_AXIS, (Fraction(0),) * 2, 0.0),
    "inverted_wine_bottle": (SQUARE_AXIS, (Fraction(0),) * 2, 0.0),
    "quartic_1d": (np.linspace(-20.0, 110.0, 130001),
                   tuple(Fraction(937.25) - 140575 * (300 + r) / 8 for r in reversed(SQRT_89968)),
                   1.25e-3),
}


@pytest.mark.parametrize("name", sorted(bench.GRID_MINIMA))
def test_grid_minimum_is_the_least_value_on_its_grid(name):
    axis = REFERENCE_MINIMA[name][0]
    assert least_grid_value(corpus(name), axis).hex() == bench.GRID_MINIMA[name].hex()


@pytest.mark.parametrize("name", sorted(bench.GRID_MINIMA))
def test_grid_minimum_is_near_the_closed_form_minimum(name):
    _, (lower, upper), gap = REFERENCE_MINIMA[name]
    value = Fraction(bench.GRID_MINIMA[name])
    assert value - lower <= gap
    # below the minimum by rounding alone, as wine_bottle's -2^-53 is
    assert upper - value <= 2.0**-50 * max(1, abs(upper))


BALL_GRID = bench._ball_grid()


@st.composite
def subproblem_cases(draw):
    """A model (g, h, reg) and a radius to centre the ring on.

    The gradient and the Hessian each get a scale of 0, 1e-3, 1 or 1e3;
    a third of the Hessians are shifted so that lambda_min is far below
    -reg, which puts the model's minimizer outside the ball.  ``reg`` runs
    from 1e-3 to 1e3.  The radius is the solver's in about half the cases,
    else a wrong one: 0, the ball's edge, far outside it, or NaN.
    """
    scale = st.sampled_from([0.0, 1e-3, 1.0, 1e3])
    unit = st.floats(-1.0, 1.0)
    g = np.array([draw(unit), draw(unit)]) * draw(scale)
    h01 = draw(unit)
    h = np.array([[draw(unit), h01], [h01, draw(unit)]]) * draw(scale)
    reg = 10.0 ** draw(st.floats(-3.0, 3.0))
    if draw(st.integers(0, 2)) == 0:
        h -= np.eye(2) * draw(st.floats(10.0, 1e3)) * reg
    radius = draw(st.sampled_from([None] * 4 + [0.0, 3.0, 50.0, math.nan]))
    if radius is None:
        radius = solve_cubic_model(g, eig_sym(h), reg).radius
    return g, h, reg, radius


@pytest.fixture
def slices(monkeypatch):
    """The number of points each ``_subproblem_grid_minimum`` call evaluates for its
    answer, as a list that fills while the test runs.

    Each call evaluates its ring, then the slice it returns the minimum of,
    or the whole grid when the ring bounds nothing.
    """
    evaluated, found = [], []
    model_values, grid_minimum = bench._model_values, bench._subproblem_grid_minimum

    def counted_values(grid, g, h, reg, lo, hi):
        evaluated.append(hi - lo)
        return model_values(grid, g, h, reg, lo, hi)

    def counted_minimum(*args):
        evaluated.clear()
        got = grid_minimum(*args)
        found.append(evaluated[-1])
        return got

    monkeypatch.setattr(bench, "_model_values", counted_values)
    monkeypatch.setattr(bench, "_subproblem_grid_minimum", counted_minimum)
    return found


def test_subproblem_grid_minimum_equals_full_grid(slices):
    solver_slices = []

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(subproblem_cases())
    @example((np.zeros(2), np.zeros((2, 2)), 1.0, 0.0))
    @example((np.zeros(2), np.zeros((2, 2)), 1e-3, 3.0))
    @example((np.array([0.3, -0.2]), np.diag([-500.0, -400.0]), 1e-3, 0.0))
    @example((np.array([2.0, 1.0]), np.array([[0.5, -1.0], [-1.0, 0.2]]), 1e3, 2.9))
    # The minimizer p = (0.3, 0) is a grid point, where the dual bound is
    # tight to rounding
    @example((np.array([-0.045, 0.0]), np.zeros((2, 2)), 1.0, 0.3))
    # The hard case: lambda_min + reg r / 2 = -1 + 1 is 0 at the solver's
    # radius 2, so the dual bound is left out
    @example((np.array([0.0, 1.0]), np.diag([-1.0, 2.0]), 1.0, 2.0))
    # Near it: lambda_min + reg r / 2 is about 1e-12 at the solver's radius
    @example((np.array([2e-12, 1.0]), np.diag([-1.0, 2.0]), 1.0, 2.000000000002028))
    def check(case):
        g, h, reg, radius = case
        decomp = eig_sym(h)
        got = bench._subproblem_grid_minimum(BALL_GRID, g, h, decomp, reg, radius)
        if radius == solve_cubic_model(g, decomp, reg).radius:
            solver_slices.append(slices[-1])
        assert got.hex() == subproblem_grid_min(g, h, reg).hex()

    check()
    # Around the solver's radius the screen must narrow the slice in most
    # cases, or this test would check the full grid only
    assert len(solver_slices) >= 50
    assert sum(n < len(BALL_GRID.cubed) // 2 for n in solver_slices) >= 0.8 * len(solver_slices)


@pytest.mark.parametrize("seed", range(4))
def test_subproblem_suite_evaluates_a_thin_slice(slices, seed):
    # The dual bound keeps about 1 % of the grid on the suite's own
    # instances; the ring bound alone kept about 30 %
    bench.run_subproblem(seed)
    assert len(slices) == 50
    assert sum(slices) / len(slices) < 0.05 * len(BALL_GRID.cubed)


def test_ball_grid_groups_differ_by_rounding_alone():
    grid = BALL_GRID
    assert len(grid.cubed) == len(grid.pts) == grid.starts[-1] == 125629
    radii = np.sqrt((grid.pts * grid.pts).sum(axis=1))
    first, last = grid.starts[:-1], grid.starts[1:]
    spans = [float(radii[i:j].max() - radii[i:j].min()) for i, j in zip(first, last)]
    assert max(spans) < 2.0**-40
    assert (grid.radii == radii[first]).all() and (np.diff(grid.radii) > 2.0**-20).all()
    assert grid.cubed.tobytes() == (radii * (radii * radii)).tobytes()


# tracemalloc's peak for a warm run_subproblem(0) that evaluates the model at
# every grid point of every instance, on Python 3.11.7 with numpy 2.4.6.
FULL_GRID_PEAK_BYTES = 11_797_140


@pytest.mark.parametrize("suite", ["subproblem", "sampler"])
def test_suite_peak_memory_stays_within_the_full_grid_peak(suite):
    run = getattr(bench, f"run_{suite}")
    run(0)  # one-time allocations, such as numpy's caches, do not count
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        run(0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= FULL_GRID_PEAK_BYTES
