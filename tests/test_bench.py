"""The batched taylor suite against its pair-by-pair definition.

``run_taylor`` draws its pairs in chunks and expands every member's 1000
pairs as stacks.  Its CSV is pinned, but these tests state the two
reasons it stays byte-identical directly: the chunked draws are the
pair-by-pair draws, and the stacked expansion is the per-pair ``@``
expression, bit for bit.
"""

import numpy as np
import pytest

from thirdopt import bench, corpus

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
