import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from thirdopt import (
    Subspace,
    SymTensor3,
    classify_hessian,
    corpus,
    eig_sym,
    escape_subspace,
    null_space,
    solve_cubic_model,
    stationarity,
)
from thirdopt.spectral import (
    _SYM_TOL,
    EigenDecomp,
    _dot,
    _einsum,
    _finite_decomp,
    _matmul,
    _norm,
    _row_norms,
    _vecdot,
)

from oracles import eig_sym_by_value, symmetrized_eigh

# Dimensions the bit-identity tests of the fast paths cover.
FAST_PATH_DIMS = (1, 2, 3, 5, 6, 10, 20)


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-3, 4)
    return (a + a.T) / 2.0


def assert_same_decomposition(m):
    values, vectors = symmetrized_eigh(m)
    decomp = eig_sym(m)
    assert np.array_equal(decomp.eigenvalues, values, equal_nan=True)
    assert np.array_equal(decomp.eigenvectors, vectors, equal_nan=True)


class TestEigSym:
    def test_identity(self):
        decomp = eig_sym(np.eye(3))
        assert_allclose(decomp.eigenvalues, [1.0, 1.0, 1.0])

    def test_diagonal_sorted_descending(self):
        decomp = eig_sym(np.diag([3.0, 1.0, -2.0]))
        assert_allclose(decomp.eigenvalues, [3.0, 1.0, -2.0])
        # coordinate eigenvectors up to sign
        assert_allclose(np.abs(decomp.eigenvectors), np.eye(3), atol=1e-14)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            a = rng.standard_normal((6, 6))
            m = (a + a.T) / 2.0
            decomp = eig_sym(m)
            scale = max(1.0, np.linalg.norm(m))
            v = decomp.eigenvectors
            assert np.linalg.norm(m - (v * decomp.eigenvalues) @ v.T) <= 1e-10 * scale
            gram = decomp.eigenvectors.T @ decomp.eigenvectors
            assert np.abs(gram - np.eye(6)).max() <= 1e-10
            assert np.all(np.diff(decomp.eigenvalues) <= 1e-14)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            eig_sym(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            eig_sym(m)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.sampled_from(FAST_PATH_DIMS), st.integers(0, 2**32 - 1))
    def test_symmetric_input_decomposes_as_the_averaged_matrix(self, n, seed):
        # exactly symmetric input skips the averaging, which is the identity on it
        rng = np.random.default_rng(seed)
        m = random_symmetric(rng, n)
        assert np.array_equal(m, m.T)
        assert_same_decomposition(m)
        hess = corpus("inverted_wine_bottle").bundle(rng.standard_normal(2), 2).hess
        assert_same_decomposition(hess)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.sampled_from(FAST_PATH_DIMS[1:]), st.integers(0, 2**32 - 1))
    def test_slightly_asymmetric_input_is_averaged(self, n, seed):
        rng = np.random.default_rng(seed)
        m = random_symmetric(rng, n)
        i, j = rng.choice(n, size=2, replace=False)
        m[i, j] += 1e-12 * np.linalg.norm(m)
        assert not np.array_equal(m, m.T)
        assert_same_decomposition(m)

    def test_asymmetry_above_the_tolerance_raises(self):
        m = random_symmetric(np.random.default_rng(5), 4)
        m[0, 1] += 2.0 * _SYM_TOL * max(1.0, np.linalg.norm(m))
        with pytest.raises(ValueError, match="not symmetric"):
            eig_sym(m)

    @pytest.mark.parametrize("decompose", [eig_sym, eig_sym_by_value])
    @pytest.mark.parametrize("where", [(0, 1), (1, 0)])
    def test_nan_facing_a_number_raises(self, decompose, where):
        # asymmetry NaN fails the tolerance, so no NaN eigenvalue comes back
        m = np.array([[1.0, 2.0], [2.0, 1.0]])
        m[where] = np.nan
        with pytest.raises(ValueError, match="^matrix is not symmetric or has non-finite entries "
                                             r"\(asymmetry nan\)$"):
            decompose(m)

    @pytest.mark.parametrize("entry", [np.inf, -np.inf])
    @pytest.mark.parametrize("other", [2.0, np.inf])
    def test_infinite_diagonal_of_an_asymmetric_matrix_raises_without_warning(self, entry,
                                                                              other):
        # m - m.T puts inf - inf on the diagonal; its NaN fails the tolerance
        m = np.array([[entry, 1.0], [other, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^matrix is not symmetric or has non-finite "
                                                 r"entries \(asymmetry nan\)$"):
                eig_sym(m)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, 1e200])
    @pytest.mark.parametrize("where", ["eigenvalues", "eigenvectors"])
    def test_decomposition_readers_share_one_finiteness_test(self, entry, where):
        # a hand-built decomposition: the solver, stationarity and the
        # escape search refuse a NaN or an infinity by one test, which
        # neither warns nor refuses where finite entries overflow the
        # vectors' sum of squares
        fields = {"eigenvalues": np.array([1.0, -1.0]), "eigenvectors": np.eye(2)}
        fields[where] = np.full_like(fields[where], 1.0)
        fields[where].flat[-1] = entry
        decomp = EigenDecomp(**fields)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _finite_decomp(decomp) is math.isfinite(entry)
            if math.isfinite(entry):
                return
            for call in (lambda: solve_cubic_model(np.ones(2), decomp, 1.0),
                         lambda: stationarity(np.ones(2), decomp, 1.0),
                         lambda: escape_subspace(decomp, SymTensor3.zeros(2), 1.0, 1.0)):
                with pytest.raises(ValueError, match="non-finite entries$"):
                    call()

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_non_finite_input_gives_a_non_finite_spectrum(self, entry, where):
        m = np.eye(2)
        m[where] = m[where[::-1]] = entry
        assert_same_decomposition(m)
        # which every solver then rejects
        with pytest.raises(ValueError, match="non-finite"):
            solve_cubic_model(np.ones(2), eig_sym(m), 1.0)


NAN, INF = math.nan, math.inf

# Matrices on which a byte compare and a value compare of M and M' can part:
# signed zeros and NaNs; with infinities and entries past 8.9e307, whose sum
# with their facing entry overflows, on either side of the symmetry tolerance.
SYMMETRY_EDGES = {
    "zero-facing-minus-zero": [[1.0, 0.0], [-0.0, 1.0]],
    "minus-zeros-on-the-diagonal": [[-0.0, 0.0, 2.0], [-0.0, -0.0, 1.0], [2.0, 1.0, 3.0]],
    "inf-on-the-diagonal": [[INF, 1.0], [1.0, 1.0]],
    "minus-inf-off-the-diagonal": [[1.0, -INF], [-INF, 1.0]],
    "inf-facing-minus-inf": [[1.0, INF], [-INF, 1.0]],
    "past-8.9e307": [[1e308, 2.0], [2.0, -1.7e308]],
    "past-8.9e307-within-tol": [[1e308, 1e300], [1e300 * (1 + 1e-12), 1.0]],
    "past-8.9e307-over-tol": [[1e308, 1e300], [-1e300, 1.0]],
    "within-tol": [[1.0, 1.0], [1.0 + 1e-10, 1.0]],
    "within-tol-facing-zero": [[1.0, 1e-10, 0.0], [0.0, 2.0, 0.0], [-0.0, 0.0, 3.0]],
    "over-tol": [[1.0, 1.0], [1.1, 1.0]],
}
NAN_EDGES = {
    "nan-on-the-diagonal": [[NAN, 1.0], [1.0, 1.0]],
    "nan-facing-nan": [[1.0, NAN], [NAN, 1.0]],
    "nan-and-past-8.9e307": [[NAN, 1e308], [1e308, 1.0]],
}


def eig_outcome(decompose, m):
    """The spectrum's and eigenvectors' bytes, or the exception's type and message."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            decomp = decompose(np.array(m))
        except (ValueError, RuntimeWarning) as exc:
            return type(exc).__name__, str(exc)
    return decomp.eigenvalues.tobytes(), decomp.eigenvectors.tobytes()


@pytest.mark.parametrize("name", sorted(SYMMETRY_EDGES))
def test_symmetry_test_decides_as_the_value_comparison(name):
    m = SYMMETRY_EDGES[name]
    assert eig_outcome(eig_sym, m) == eig_outcome(eig_sym_by_value, m)


def test_entry_past_8_9e307_is_averaged_without_overflow():
    # the diagonal's 1e308 + 1e308 overflows; its mean is 1e308 all the same
    m = np.array(SYMMETRY_EDGES["past-8.9e307-within-tol"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        decomp = eig_sym(m)
    assert np.isfinite(decomp.eigenvalues).all() and np.isfinite(decomp.eigenvectors).all()
    assert decomp.eigenvalues[0] == pytest.approx(1e308, rel=1e-12)


@pytest.mark.parametrize("name", sorted(NAN_EDGES))
def test_nan_input_decomposes_as_the_value_comparison(name):
    # A NaN facing a NaN is symmetric to both compares, and is not averaged
    m = np.array(NAN_EDGES[name])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        decomp = eig_sym(m)
        expected = eig_sym_by_value(m)
    assert np.array_equal(decomp.eigenvalues, expected.eigenvalues, equal_nan=True)
    assert np.array_equal(decomp.eigenvectors, expected.eigenvectors, equal_nan=True)
    # eigh may keep the eigenvalues finite and put the NaNs in the vectors
    assert not (np.isfinite(decomp.eigenvalues).all() and np.isfinite(decomp.eigenvectors).all())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(FAST_PATH_DIMS), st.integers(0, 2**32 - 1), st.integers(-160, 160))
def test_norm_equals_numpy_norm(n, seed, exponent):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(2 * n) * 10.0**exponent
    # a suffix view, as the solver norms its bottom block, is normed as a copy
    for vector in (v, v[::2], v[::-1], v[:n], v[n:], v[2 * n - 1:]):
        # at the extreme exponents both square to inf or 0 alike
        with np.errstate(over="ignore", under="ignore"):
            assert _norm(vector) == float(np.linalg.norm(vector)) == _norm(vector.copy())


def same_bytes(got, want):
    return np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


class TestReductionHelpers:
    """Each helper gives the bytes of the numpy call it replaced.

    Operands are contiguous or the views the call sites pass: suffix
    slices such as ``g_hat[k:]``, column blocks such as
    ``eigenvectors[:, i:]``, and transposes such as ``v.T``.
    """

    @staticmethod
    def operands(n):
        rng = np.random.default_rng(n)
        v = rng.standard_normal((n, n))
        g = rng.standard_normal(n)
        t = rng.standard_normal((n, n, n))
        rows = rng.standard_normal((30, n))
        return v, g, t, rows, n // 2

    @pytest.mark.parametrize("n", range(1, 21))
    def test_matmul(self, n):
        v, g, t, rows, k = self.operands(n)
        hess = np.random.default_rng(-n % 7).standard_normal((30, n, n))
        assert same_bytes(_matmul(v.T, g), v.T @ g)
        assert same_bytes(_matmul(v, g), v @ g)
        assert same_bytes(_matmul(v * g, g), (v * g) @ g)
        assert same_bytes(_matmul(g, v[0]), g @ v[0])
        assert same_bytes(_matmul(v[:, k:], g[k:]), v[:, k:] @ g[k:])
        assert same_bytes(_matmul(v[:, k:].T, v[:, k:]), v[:, k:].T @ v[:, k:])
        assert same_bytes(_matmul(rows, g), rows @ g)
        assert same_bytes(_matmul(rows[:, None, :], hess), np.matmul(rows[:, None, :], hess))

    @pytest.mark.parametrize("n", range(1, 21))
    def test_dot(self, n):
        v, g, t, rows, k = self.operands(n)
        flat = t.ravel()
        assert same_bytes(_dot(flat, flat), flat.dot(flat))
        assert same_bytes(_dot(g[k:], g[k:]), np.dot(g[k:], g[k:]))
        unfolded = t.transpose(1, 2, 0).reshape(n * n, n)
        assert same_bytes(_dot(unfolded, v), np.dot(unfolded, v))
        assert same_bytes(_dot(unfolded, v[:, k:]), np.dot(unfolded, v[:, k:]))

    @pytest.mark.parametrize("n", range(1, 21))
    def test_vecdot(self, n):
        v, g, t, rows, k = self.operands(n)
        assert same_bytes(_vecdot(rows, rows), np.vecdot(rows, rows))
        assert same_bytes(_vecdot(rows[:, k:], rows[::-1, k:]), np.vecdot(rows[:, k:], rows[::-1, k:]))

    @pytest.mark.parametrize("n", range(1, 21))
    def test_einsum(self, n):
        v, g, t, rows, k = self.operands(n)
        assert same_bytes(_einsum("ijk,i,j,k->", t, g, v[0], v[:, 0]),
                          np.einsum("ijk,i,j,k->", t, g, v[0], v[:, 0]))
        stack = np.stack([t, t.transpose(2, 0, 1), -t])
        d = rows[:3]
        assert same_bytes(_einsum("pijk,pi,pj,pk->p", stack, d, d, d),
                          np.einsum("pijk,pi,pj,pk->p", stack, d, d, d))

    @pytest.mark.parametrize("n", range(1, 21))
    def test_norm(self, n):
        v, g, t, rows, k = self.operands(n)
        for x in (g, g[k:], g[::-1], v, v.T, v - v.T, v[:, k:], v[:, 0], t):
            assert same_bytes(_norm(x), np.linalg.norm(x))

    @pytest.mark.parametrize("n", range(1, 21))
    def test_row_norms(self, n):
        v, g, t, rows, k = self.operands(n)
        for x in (rows, rows[:, k:], rows[::2], v.T):
            assert same_bytes(_row_norms(x), np.linalg.norm(x, axis=1))


class TestNullSpace:
    def test_degenerate_corpus_hessian(self):
        hess = corpus("xxy_plus_yy").bundle(np.zeros(2), 2).hess
        assert_allclose(hess, np.array([[0.0, 0.0], [0.0, 2.0]]))
        kernel = null_space(eig_sym(hess), 1e-8)
        assert kernel.rank == 1
        assert_allclose(np.abs(kernel.basis[:, 0]), [1.0, 0.0], atol=1e-14)

    def test_definite_matrix_has_empty_kernel(self):
        assert null_space(eig_sym(np.diag([2.0, 1.0])), 1e-8).is_empty

    def test_zero_matrix_has_full_kernel(self):
        assert null_space(eig_sym(np.zeros((4, 4))), 1e-8).rank == 4

    def test_rejects_negative_tol(self):
        with pytest.raises(ValueError, match="tol"):
            null_space(eig_sym(np.diag([1.0, -1.0])), -1e-8)


class TestSubspace:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Subspace(2, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_basis_of_wrong_row_count(self):
        # a (3, 3) basis has rows for three coordinates, not two
        with pytest.raises(ValueError, match=r"basis of shape \(3, 3\) does not fit ambient dim 2"):
            Subspace(2, np.eye(3))

    def test_rejects_more_vectors_than_dimensions(self):
        # a (2, 3) basis fits the ambient dimension but has three columns
        with pytest.raises(ValueError, match="exceed ambient dim"):
            Subspace(2, np.ones((2, 3)))

    def test_rejects_nan_basis(self):
        # the Gram matrix is NaN, which a "deviation > tol" test would pass
        with pytest.raises(ValueError, match="not orthonormal"):
            Subspace(2, [[math.nan], [0.0]])

    def test_empty_and_full(self):
        assert Subspace.empty(3).is_empty
        assert Subspace.full(3).rank == 3


# Every consumer of a Hessian spectrum, called with a bare (valid, symmetric)
# matrix where its EigenDecomp belongs.
SPECTRUM_CONSUMERS = {
    "classify_hessian": classify_hessian,
    "escape_subspace": lambda m: escape_subspace(m, SymTensor3.zeros(2), 1.0, 1.0),
    "solve_cubic_model": lambda m: solve_cubic_model(np.ones(2), m, 1.0),
    "stationarity": lambda m: stationarity(np.ones(2), m, 1.0),
}


@pytest.mark.parametrize("consumer", sorted(SPECTRUM_CONSUMERS))
def test_bare_matrix_raises_at_the_call(consumer):
    # eig_sym is the only function that turns a matrix into a spectrum
    with pytest.raises(AttributeError, match="object has no attribute"):
        SPECTRUM_CONSUMERS[consumer](np.diag([1.0, -1.0]))
