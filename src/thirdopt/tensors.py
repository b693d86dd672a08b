"""Dense symmetric order-3 tensors with multilinear operations.

Third derivatives of scalar functions are order-3 tensors that are
symmetric under every permutation of their indices.  This module stores
them densely (target dimensions are small) and provides the handful of
multilinear operations the optimizer needs: contraction against vectors,
orthogonal-subspace projection, and the Frobenius norm.

Exact maximization of ``T(u, u, u)`` over unit vectors is intentionally
absent; it is intractable in general and the rest of the package only
ever needs randomized lower bounds for it.
"""

from __future__ import annotations

import numpy as np

_PERMUTATIONS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def _symmetrized(array: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(array)
    for perm in _PERMUTATIONS:
        acc += np.transpose(array, perm)
    return acc / 6.0


class SymTensor3:
    """Order-3 tensor symmetric under all six index permutations.

    Input entries are symmetrized by averaging over the permutations, so
    tensors assembled from finite differences (which carry roundoff
    asymmetry) are accepted rather than rejected.
    """

    __slots__ = ("entries",)

    def __init__(self, entries) -> None:
        array = np.asarray(entries, dtype=float)
        if array.ndim != 3 or len(set(array.shape)) != 1:
            raise ValueError(f"expected an n*n*n array, got shape {array.shape}")
        self.entries = _symmetrized(array)

    @classmethod
    def _trusted(cls, entries: np.ndarray) -> "SymTensor3":
        """Wrap an n*n*n float array that is symmetric by construction.

        For producers inside the package only: it skips the averaging
        over the six permutations, which such input does not need.
        """
        tensor = cls.__new__(cls)
        tensor.entries = entries
        return tensor

    @classmethod
    def zeros(cls, dim: int) -> "SymTensor3":
        return cls._trusted(np.zeros((dim, dim, dim)))

    @classmethod
    def rank_one(cls, v) -> "SymTensor3":
        """The symmetric outer cube ``v (x) v (x) v``."""
        v = np.asarray(v, dtype=float)
        return cls(np.einsum("i,j,k->ijk", v, v, v))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def _check_vector(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"vector of shape {v.shape} does not match tensor dim {self.dim}")
        return v

    def trilinear(self, u, v, w) -> float:
        """Full contraction: sum_ijk T_ijk u_i v_j w_k."""
        u = self._check_vector(u)
        v = self._check_vector(v)
        w = self._check_vector(w)
        return float(np.einsum("ijk,i,j,k->", self.entries, u, v, w))

    def contract(self, u) -> np.ndarray:
        """Contract the first index with ``u``; returns a symmetric matrix."""
        u = self._check_vector(u)
        m = np.einsum("ijk,i->jk", self.entries, u)
        return (m + m.T) / 2.0

    def transform(self, matrix) -> "SymTensor3":
        """Apply one matrix to every slot: entries_pqr = T(M e_p, M e_q, M e_r).

        With an orthonormal ``matrix`` this rewrites the tensor in a new
        basis; with an orthogonal projector it projects it.
        """
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != self.dim:
            raise ValueError(
                f"matrix of shape {matrix.shape} does not match tensor dim {self.dim}"
            )
        # Each tensordot contracts the leading slot and appends the new one
        # last, so three of them visit (i, j, k) -> (p, q, r) in order.
        out = self.entries
        for _ in range(3):
            out = np.tensordot(out, matrix, axes=(0, 0))
        return SymTensor3._trusted(out)

    def project(self, subspace) -> "SymTensor3":
        """Project onto a subspace: T(P, P, P) with P the orthogonal projector."""
        if subspace.dim != self.dim:
            raise ValueError(
                f"subspace ambient dim {subspace.dim} does not match tensor dim {self.dim}"
            )
        return self.transform(subspace.projector())

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.entries))

    def __repr__(self) -> str:  # pragma: no cover
        return f"SymTensor3(dim={self.dim}, frobenius={self.frobenius_norm():.6g})"
