import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from thirdopt import OracleObjective, Polynomial, Subspace, SymTensor3, corpus

from oracles import triple_loop_transform, triple_loop_trilinear


def monkey_third():
    return corpus("monkey_saddle").bundle(np.zeros(2), 3).third


class TestTrilinear:
    def test_single_diagonal_entry(self):
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 0] = 1.0
        t = SymTensor3(arr)
        e1 = np.array([1.0, 0.0])
        assert t.trilinear(e1, e1, e1) == 1.0

    def test_monkey_saddle_along_e2(self):
        e2 = np.array([0.0, 1.0])
        assert monkey_third().trilinear(e2, e2, e2) == pytest.approx(6.0, abs=1e-14)

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(3)
        t = SymTensor3(rng.standard_normal((3, 3, 3)))
        u, v, w = rng.standard_normal((3, 3))
        expected = triple_loop_trilinear(t.entries, u, v, w)
        assert t.trilinear(u, v, w) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        t = SymTensor3.zeros(3)
        with pytest.raises(ValueError):
            t.trilinear(np.ones(2), np.ones(3), np.ones(3))


class TestContract:
    def test_zero_tensor(self):
        assert_allclose(SymTensor3.zeros(3).contract(np.ones(3)), np.zeros((3, 3)))

    def test_monkey_saddle(self):
        m = monkey_third().contract(np.array([0.0, 1.0]))
        assert_allclose(m, np.array([[-6.0, 0.0], [0.0, 6.0]]), atol=1e-14)

    def test_basis_vector_gives_slice(self):
        rng = np.random.default_rng(5)
        t = SymTensor3(rng.standard_normal((4, 4, 4)))
        for i in range(4):
            e = np.zeros(4)
            e[i] = 1.0
            assert_allclose(t.contract(e), t.entries[i], atol=1e-14)


class TestProject:
    def test_full_space_is_identity(self):
        t = monkey_third()
        assert_allclose(t.project(Subspace.full(2)).entries, t.entries, atol=1e-12)

    def test_empty_space_is_zero(self):
        t = monkey_third()
        assert_allclose(t.project(Subspace.empty(2)).entries, 0.0)

    def test_monkey_saddle_onto_e2(self):
        # Cross terms all carry an index-1 factor, so only T_222 survives.
        span_e2 = Subspace(2, np.array([[0.0], [1.0]]))
        proj = monkey_third().project(span_e2)
        expected = np.zeros((2, 2, 2))
        expected[1, 1, 1] = 6.0
        assert_allclose(proj.entries, expected, atol=1e-12)
        assert proj.frobenius_norm() == pytest.approx(6.0, abs=1e-12)

    def test_projection_contracts_norm_and_is_idempotent(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            t = SymTensor3(rng.standard_normal((4, 4, 4)))
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            k = int(rng.integers(0, 5))
            s = Subspace(4, q[:, :k])
            once = t.project(s)
            assert once.frobenius_norm() <= t.frobenius_norm() + 1e-12
            assert_allclose(once.project(s).entries, once.entries, atol=1e-12)

    def test_projected_contraction_identity(self):
        # T(P,P,P) applied to u equals T applied to Pu.
        rng = np.random.default_rng(13)
        t = SymTensor3(rng.standard_normal((3, 3, 3)))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        s = Subspace(3, q[:, :2])
        for _ in range(10):
            u = rng.standard_normal(3)
            pu = s.project_vector(u)
            lhs = t.project(s).trilinear(u, u, u)
            rhs = t.trilinear(pu, pu, pu)
            assert lhs == pytest.approx(rhs, abs=1e-10)


def _max_asymmetry(entries):
    return max(np.abs(entries - np.transpose(entries, p)).max()
               for p in itertools.permutations(range(3)))


def _mean_of_transposes(array):
    return sum(np.transpose(array, p) for p in itertools.permutations(range(3))) / 6.0


class TestTransform:
    @pytest.mark.parametrize("n", [1, 2, 4, 10])
    def test_matches_triple_loop(self, n):
        rng = np.random.default_rng(100 + n)
        t = SymTensor3(rng.standard_normal((n, n, n)))
        q_mat, _ = np.linalg.qr(rng.standard_normal((n, n)))
        basis, _ = np.linalg.qr(rng.standard_normal((n, max(1, n // 2))))
        for matrix in (q_mat, basis @ basis.T):
            out = t.transform(matrix).entries
            expected = triple_loop_transform(t.entries, matrix)
            assert np.linalg.norm(out - expected) <= 1e-13 * np.linalg.norm(expected)
            assert _max_asymmetry(out) <= 1e-14 * np.abs(out).max()


class TestTrustBoundary:
    def test_constructor_symmetrizes_asymmetric_input(self):
        rng = np.random.default_rng(29)
        arr = rng.standard_normal((4, 4, 4))
        t = SymTensor3(arr)
        assert_allclose(t.entries, _mean_of_transposes(arr), rtol=0, atol=1e-15)
        assert _max_asymmetry(t.entries) <= 1e-15

    def test_oracle_objective_symmetrizes_its_third_derivative(self):
        rng = np.random.default_rng(31)
        arr = rng.standard_normal((3, 3, 3))
        obj = OracleObjective(
            3,
            value=lambda x: 0.0,
            grad=lambda x: np.zeros(3),
            hess=lambda x: np.zeros((3, 3)),
            third=lambda x: arr,
        )
        third = obj.bundle(np.zeros(3), 3).third.entries
        assert_allclose(third, _mean_of_transposes(arr), rtol=0, atol=1e-15)
        assert _max_asymmetry(third) <= 1e-15


class TestFrobenius:
    def test_single_orbit_entry(self):
        arr = np.zeros((3, 3, 3))
        arr[0, 0, 0] = 2.0
        assert SymTensor3(arr).frobenius_norm() == pytest.approx(2.0)

    def test_monkey_saddle(self):
        # entries: three -6 and one 6, sqrt(3*36 + 36) = 12
        assert monkey_third().frobenius_norm() == pytest.approx(12.0, abs=1e-12)

    def test_zero(self):
        assert SymTensor3.zeros(5).frobenius_norm() == 0.0


class TestConstruction:
    def test_symmetrizes_input(self):
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 1] = 6.0  # single asymmetric entry, orbit size 3
        t = SymTensor3(arr)
        assert t.entries[0, 0, 1] == pytest.approx(2.0)
        assert t.entries[0, 1, 0] == pytest.approx(2.0)
        assert t.entries[1, 0, 0] == pytest.approx(2.0)

    def test_symmetry_is_exact_after_construction(self):
        rng = np.random.default_rng(7)
        t = SymTensor3(rng.standard_normal((4, 4, 4)))
        for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1)):
            assert np.abs(t.entries - np.transpose(t.entries, perm)).max() <= 1e-12

    def test_rejects_non_cubic_shape(self):
        with pytest.raises(ValueError):
            SymTensor3(np.zeros((2, 3, 2)))

    def test_rank_one(self):
        v = np.array([1.0, 2.0])
        t = SymTensor3.rank_one(v)
        assert t.trilinear(v, v, v) == pytest.approx(np.dot(v, v) ** 3)


def test_linearity_in_each_argument():
    rng = np.random.default_rng(17)
    t = SymTensor3(rng.standard_normal((3, 3, 3)))
    for _ in range(10):
        u, v, w, d = rng.standard_normal((4, 3))
        a, b = rng.standard_normal(2)
        left = t.trilinear(a * u + b * d, v, w)
        right = a * t.trilinear(u, v, w) + b * t.trilinear(d, v, w)
        assert left == pytest.approx(right, rel=1e-10, abs=1e-10)
        left = t.trilinear(u, a * v + b * d, w)
        right = a * t.trilinear(u, v, w) + b * t.trilinear(u, d, w)
        assert left == pytest.approx(right, rel=1e-10, abs=1e-10)


def test_fd_tensor_accepted():
    # Tensors from differencing carry roundoff asymmetry; construction
    # must accept and symmetrize them.
    p = Polynomial(2, [(1.0, (2, 1)), (0.5, (1, 2))])
    x = np.array([0.4, -0.3])
    h = 1e-5
    fd = np.zeros((2, 2, 2))
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        fd[:, :, k] = (p.bundle(x + e, 2).hess - p.bundle(x - e, 2).hess) / (2 * h)
    t = SymTensor3(fd)
    exact = p.bundle(x, 3).third.entries
    assert np.abs(t.entries - exact).max() < 1e-9
