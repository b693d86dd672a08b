"""Dense symmetric order-3 tensors with multilinear operations.

Third derivatives of scalar functions are order-3 tensors that are
symmetric under every permutation of their indices.  This module stores
them densely (target dimensions are small) and provides the handful of
multilinear operations the optimizer needs: contraction against vectors,
a change of basis applied to every slot, and the Frobenius norm.

Exact maximization of ``T(u, u, u)`` over unit vectors is intentionally
absent; it is intractable in general and the rest of the package only
ever needs randomized lower bounds for it.
"""

from __future__ import annotations

import numpy as np

# The six orders of the last three axes, counted from the end
_PERMUTATIONS = ((-3, -2, -1), (-3, -1, -2), (-2, -3, -1), (-2, -1, -3), (-1, -3, -2),
                 (-1, -2, -3))


def _symmetrized(array: np.ndarray) -> np.ndarray:
    """The average over the six permutations of the last three axes.

    Leading axes index a stack; each tensor in it gets the floats it gets
    alone, as the permutations are added element by element in one order.
    """
    lead = tuple(range(array.ndim - 3))
    acc = np.zeros_like(array)
    for perm in _PERMUTATIONS:
        acc += np.transpose(array, lead + perm)
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

    def transform(self, matrix) -> "SymTensor3":
        """Apply one matrix to every slot: entries_pqr = T(M e_p, M e_q, M e_r).

        With orthonormal columns V it restricts the tensor to their span, in
        V's coordinates, with the Frobenius norm of T(VV', VV', VV').
        """
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != self.dim:
            raise ValueError(
                f"matrix of shape {matrix.shape} does not match tensor dim {self.dim}"
            )
        # Each product contracts the leading slot and appends the new one
        # last, so three of them visit (i, j, k) -> (p, q, r) in order.  The
        # operands are the ones np.tensordot(out, matrix, axes=(0, 0)) builds,
        # so the floats are the same, without its per-call bookkeeping.  The
        # shapes are spelled out: with no columns, -1 could not be inferred.
        out = self.entries
        cols = matrix.shape[1]
        for _ in range(3):
            a, b, c = out.shape
            out = np.dot(out.transpose(1, 2, 0).reshape(b * c, a), matrix).reshape(b, c, cols)
        return SymTensor3._trusted(out)

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.entries))

    def __repr__(self) -> str:  # pragma: no cover
        return f"SymTensor3(dim={self.dim}, frobenius={self.frobenius_norm():.6g})"
