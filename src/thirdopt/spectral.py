"""Symmetric eigendecompositions and orthonormal subspaces.

``eig_sym`` is the one function that turns a Hessian matrix into a
spectrum; every other consumer takes the resulting :class:`EigenDecomp`.

Eigenvalues are always reported in descending order; every consumer in
this package relies on that convention when it walks suffix subspaces
(the spans of trailing eigenvectors, which collect the low-curvature
directions).

Repeated eigenvalues make individual eigenvectors non-unique, so callers
must only rely on the spanned subspaces, such as through the Frobenius
norm of a tensor rotated into a span's eigenvector columns.

This module is also the one home of the package's float reductions.
``_matmul`` (``@``), ``_dot`` (``np.dot``, ``ndarray.dot``), ``_vecdot``
and ``_einsum`` are those numpy functions under a private name;
``_norm`` (``np.linalg.norm`` of a whole array) and ``_row_norms`` (its
``axis=1`` form) compute the floats ``np.linalg.norm`` computes.  So
every caller gets the floats of the inline call.  OpenBLAS runs
``_matmul``, ``_dot``, ``_vecdot`` and ``_norm``, and its kernel, chosen
by CPU or by ``OPENBLAS_CORETYPE``, decides their last bits: SkylakeX,
Haswell and Sandybridge differ even at n = 2.  On C-contiguous stacks,
``_matmul`` and ``_vecdot`` round each member as it rounds alone.
``_einsum`` and ``_row_norms`` add in numpy's own loops.  LAPACK
(``eigh`` here, ``eigvalsh`` and ``np.roots`` in ``bench``) varies with
the kernel too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_ORTHO_TOL = 1e-10
# Largest asymmetry eig_sym accepts, relative to the matrix's Frobenius norm.
_SYM_TOL = 1e-8


@dataclass(frozen=True)
class EigenDecomp:
    """Eigenvalues (descending) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def spectral_scale(self) -> float:
        """max(1, |largest eigenvalue|, |smallest eigenvalue|)."""
        return max(1.0, abs(float(self.eigenvalues[0])), abs(float(self.eigenvalues[-1])))


# The product reductions (module docstring)
_matmul = np.matmul
_dot = np.ndarray.dot
_vecdot = np.vecdot
_einsum = np.einsum


def _norm(v: np.ndarray) -> float:
    """Euclidean (Frobenius) norm of a float array, computed as ``np.linalg.norm`` does.

    That is the square root of ``x.dot(x)`` for the contiguous ravel x,
    the same floats without ``norm``'s argument dispatch.
    """
    x = v.ravel(order="K")
    return math.sqrt(float(x.dot(x)))


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(rows, axis=1)``: each row's squares summed by ``np.add.reduce``."""
    return np.linalg.norm(rows, axis=1)


def eig_sym(matrix) -> EigenDecomp:
    """Eigendecompose a symmetric matrix, eigenvalues sorted descending.

    Raises ValueError if the input deviates from symmetry by more than
    ``_SYM_TOL`` relative to its Frobenius norm.  Other input is
    symmetrized first; an exactly symmetric one, such as every Hessian a
    ``DerivativeBundle`` holds, is decomposed as it is.  Exact symmetry is
    tested on the bytes first, which costs a fraction of
    ``np.array_equal``, and on the values where the bytes differ: a 0.0
    facing a -0.0 is symmetric.  A NaN facing the same NaN passes the byte
    test, so such a matrix is not averaged; averaging would have kept its
    entries, except that it overflows those past 8.9e307 to inf.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.tobytes() != m.T.tobytes() and not np.array_equal(m, m.T):
        asym = _norm(m - m.T)
        if asym > _SYM_TOL * max(1.0, _norm(m)):
            raise ValueError(f"matrix is not symmetric (asymmetry {asym:.3e})")
        m = (m + m.T) / 2.0
    values, vectors = np.linalg.eigh(m)
    return EigenDecomp(values[::-1].copy(), vectors[:, ::-1].copy())


class Subspace:
    """A subspace of R^n held as orthonormal basis columns (possibly none)."""

    __slots__ = ("dim", "basis")

    def __init__(self, dim: int, basis) -> None:
        basis = np.asarray(basis, dtype=float)
        if basis.size == 0:
            basis = basis.reshape(dim, 0)
        if basis.ndim != 2 or basis.shape[0] != dim:
            raise ValueError(f"basis of shape {basis.shape} does not fit ambient dim {dim}")
        k = basis.shape[1]
        if k > dim:
            raise ValueError(f"{k} basis vectors exceed ambient dim {dim}")
        if k > 0:
            gram = _matmul(basis.T, basis)
            # written so that a NaN fails it
            if not np.abs(gram - np.eye(k)).max() <= _ORTHO_TOL:
                raise ValueError("basis columns are not orthonormal")
        self.dim = dim
        self.basis = basis

    @classmethod
    def _trusted(cls, dim: int, basis: np.ndarray) -> "Subspace":
        """Wrap (dim, k) float columns that are orthonormal by construction.

        For producers inside the package only: it skips the shape and Gram
        checks, which columns of ``eig_sym``'s eigenvectors do not need.
        """
        subspace = cls.__new__(cls)
        subspace.dim = dim
        subspace.basis = basis
        return subspace

    @classmethod
    def full(cls, dim: int) -> "Subspace":
        return cls(dim, np.eye(dim))

    @classmethod
    def empty(cls, dim: int) -> "Subspace":
        return cls(dim, np.zeros((dim, 0)))

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @property
    def is_empty(self) -> bool:
        return self.basis.shape[1] == 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"Subspace(dim={self.dim}, rank={self.rank})"


def _zero_band(decomp: EigenDecomp, tol: float) -> float:
    """Half-width of the band of eigenvalues that count as zero: tol * spectral scale."""
    return tol * decomp.spectral_scale()


def null_space(decomp: EigenDecomp, tol: float) -> Subspace:
    """Numerical kernel: eigenvectors with |eigenvalue| below a relative band.

    The band is ``tol * max(1, |extreme eigenvalues|)``; the exact
    condition "u'Mu = 0" has to be relaxed this way in floating point.
    ``tol`` must be finite and non-negative: an infinite band would call
    every eigenvector null, and a NaN band none.
    """
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be non-negative and finite, got {tol}")
    keep = np.abs(decomp.eigenvalues) <= _zero_band(decomp, tol)
    return Subspace(decomp.dim, decomp.eigenvectors[:, keep])
