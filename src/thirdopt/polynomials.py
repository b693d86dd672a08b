"""Exact polynomial objectives with analytic derivatives up to order 3.

Polynomials are the canonical objective for this package because their
first three derivatives are exact, which lets every optimizer guarantee
be tested without differentiation error.  A small corpus of test
functions with degenerate critical points is bundled; user-supplied
callables can participate through :class:`OracleObjective` as long as
they provide the same derivative contract.

Derivative conventions: ``grad[i] = df/dx_i``, ``hess[i, j] =
d2f/dx_i dx_j``, ``third[i, j, k] = d3f/dx_i dx_j dx_k``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable, Optional, Protocol, runtime_checkable

import numpy as np

from .tensors import SymTensor3

DEFAULT_MAX_DEGREE = 6


def as_point(x, dim: int) -> np.ndarray:
    """Validate a point: a finite real vector of the expected dimension."""
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise ValueError(f"point of shape {x.shape} does not match dimension {dim}")
    if not np.isfinite(x).all():
        raise ValueError("point has non-finite entries")
    return x


@dataclass(frozen=True)
class DerivativeBundle:
    """Value and derivatives of a scalar function at one point.

    Orders above the one requested from the producer are zero-filled, so
    the four fields are always populated.
    """

    value: float
    grad: np.ndarray
    hess: np.ndarray
    third: SymTensor3

    def __post_init__(self):
        asym = np.abs(self.hess - self.hess.T).max(initial=0.0)
        if asym > 1e-12 * max(1.0, np.abs(self.hess).max(initial=0.0)):
            raise ValueError(f"hessian is not symmetric (asymmetry {asym:.3e})")

    @property
    def dim(self) -> int:
        return self.grad.shape[0]


@runtime_checkable
class Objective(Protocol):
    """Anything that can report its value and derivatives at a point."""

    @property
    def dim(self) -> int: ...

    def value(self, x) -> float: ...

    def bundle(self, x, order: int = 3) -> DerivativeBundle: ...


def _falling(e: int, k: int) -> int:
    # e * (e-1) * ... * (e-k+1); zero when k > e
    return math.perm(e, k) if k <= e else 0


class Polynomial:
    """Multivariate polynomial in canonical sparse form.

    Terms are (coefficient, exponent multi-index) pairs.  Construction
    canonicalizes: zero coefficients are dropped and duplicate
    multi-indices are rejected.  The total degree of every term must stay
    at or below ``max_degree`` (default 6, which admits the ||x||^6
    family used for hard quartic instances).
    """

    __slots__ = ("_dim", "_terms", "max_degree")

    def __init__(self, dim: int, terms, max_degree: int = DEFAULT_MAX_DEGREE) -> None:
        if not isinstance(dim, int) or dim < 1:
            raise ValueError(f"dimension must be a positive integer, got {dim!r}")
        canon: dict[tuple[int, ...], float] = {}
        for coeff, exponents in terms:
            exps = tuple(exponents)
            if len(exps) != dim:
                raise ValueError(f"exponent list {exps} does not have length {dim}")
            if any((not isinstance(e, (int, np.integer))) or e < 0 for e in exps):
                raise ValueError(f"exponents must be non-negative integers, got {exps}")
            exps = tuple(int(e) for e in exps)
            if sum(exps) > max_degree:
                raise ValueError(
                    f"term of degree {sum(exps)} exceeds the maximum degree {max_degree}"
                )
            coeff = float(coeff)
            if not math.isfinite(coeff):
                raise ValueError("coefficients must be finite")
            if exps in canon:
                raise ValueError(f"duplicate multi-index {exps}")
            if coeff != 0.0:
                canon[exps] = coeff
        self._dim = dim
        self._terms = tuple(sorted(canon.items()))
        self.max_degree = max_degree

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Polynomial":
        return cls(dim, [])

    @classmethod
    def constant(cls, dim: int, c: float) -> "Polynomial":
        return cls(dim, [(c, (0,) * dim)])

    @classmethod
    def variable(cls, dim: int, index: int) -> "Polynomial":
        exps = [0] * dim
        exps[index] = 1
        return cls(dim, [(1.0, tuple(exps))])

    @classmethod
    def _from_dict(cls, dim: int, canon: dict, max_degree: int) -> "Polynomial":
        return cls(dim, [(c, e) for e, c in canon.items()], max_degree)

    # -- basic queries ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def terms(self) -> list[tuple[float, tuple[int, ...]]]:
        return [(c, e) for e, c in self._terms]

    @property
    def degree(self) -> int:
        return max((sum(e) for e, _ in self._terms), default=0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self._dim == other._dim
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self._dim, self._terms))

    def __repr__(self) -> str:
        if not self._terms:
            return "Polynomial(0)"
        bits = []
        for exps, coeff in self._terms:
            mono = "*".join(
                f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps) if e > 0
            )
            bits.append(f"{coeff:g}" + (f"*{mono}" if mono else ""))
        return "Polynomial(" + " + ".join(bits) + ")"

    # -- arithmetic ------------------------------------------------------------

    def _binary(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other._dim != self._dim:
                raise ValueError("polynomial dimensions differ")
            return other
        return Polynomial.constant(self._dim, float(other))

    def __add__(self, other) -> "Polynomial":
        other = self._binary(other)
        canon = dict(self._terms)
        for exps, coeff in other._terms:
            canon[exps] = canon.get(exps, 0.0) + coeff
        cap = max(self.max_degree, other.max_degree)
        return Polynomial._from_dict(self._dim, canon, cap)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_dict(
            self._dim, {e: -c for e, c in self._terms}, self.max_degree
        )

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._binary(other))

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        other = self._binary(other)
        canon: dict[tuple[int, ...], float] = {}
        for e1, c1 in self._terms:
            for e2, c2 in other._terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                canon[e] = canon.get(e, 0.0) + c1 * c2
        cap = max(self.max_degree, other.max_degree)
        return Polynomial._from_dict(self._dim, canon, cap)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers are supported")
        out = Polynomial.constant(self._dim, 1.0)
        for _ in range(k):
            out = out * self
        return out

    # -- evaluation and derivatives ---------------------------------------

    def value(self, x) -> float:
        x = as_point(x, self._dim)
        total = 0.0
        for exps, coeff in self._terms:
            total += coeff * math.prod(x[i] ** e for i, e in enumerate(exps) if e)
        return float(total)

    def values(self, points) -> np.ndarray:
        """Vectorized evaluation on an (m, dim) array of points."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self._dim:
            raise ValueError(f"expected an (m, {self._dim}) array, got shape {pts.shape}")
        total = np.zeros(pts.shape[0])
        for exps, coeff in self._terms:
            mono = np.full(pts.shape[0], coeff)
            for i, e in enumerate(exps):
                if e:
                    mono *= pts[:, i] ** e
            total += mono
        return total

    def _partial(self, x: np.ndarray, axes: tuple[int, ...]) -> float:
        """Value at x of the partial derivative along the given axis multiset."""
        counts = Counter(axes)
        total = 0.0
        for exps, coeff in self._terms:
            factor = 1.0
            for axis, k in counts.items():
                if exps[axis] < k:
                    factor = 0.0
                    break
                factor *= _falling(exps[axis], k)
            if factor == 0.0:
                continue
            mono = 1.0
            for i, e in enumerate(exps):
                e -= counts.get(i, 0)
                if e:
                    mono *= x[i] ** e
            total += coeff * factor * mono
        return total

    def bundle(self, x, order: int = 3) -> DerivativeBundle:
        """Exact value and derivatives at ``x`` up to ``order`` (0..3).

        Derivative slots above the requested order are zero arrays.
        """
        if order not in (0, 1, 2, 3):
            raise ValueError(f"order must be in 0..3, got {order}")
        x = as_point(x, self._dim)
        n = self._dim
        grad = np.zeros(n)
        hess = np.zeros((n, n))
        third = np.zeros((n, n, n))
        if order >= 1:
            for i in range(n):
                grad[i] = self._partial(x, (i,))
        if order >= 2:
            for i in range(n):
                for j in range(i, n):
                    hess[i, j] = hess[j, i] = self._partial(x, (i, j))
        if order >= 3:
            for i in range(n):
                for j in range(i, n):
                    for k in range(j, n):
                        t = self._partial(x, (i, j, k))
                        for p in ((i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)):
                            third[p] = t
        return DerivativeBundle(self.value(x), grad, hess, SymTensor3._trusted(third))

    # -- JSON form -------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "dim": self._dim,
            "terms": [{"coeff": c, "exponents": list(e)} for e, c in self._terms],
        }

    @classmethod
    def from_dict(cls, data: dict, max_degree: int = DEFAULT_MAX_DEGREE) -> "Polynomial":
        if not isinstance(data, dict) or "dim" not in data or "terms" not in data:
            raise ValueError('polynomial JSON must have "dim" and "terms" keys')
        dim = data["dim"]
        if not isinstance(dim, int):
            raise ValueError('"dim" must be an integer')
        seen = set()
        terms = []
        for entry in data["terms"]:
            if not isinstance(entry, dict) or "coeff" not in entry or "exponents" not in entry:
                raise ValueError('each term must have "coeff" and "exponents"')
            exps = tuple(entry["exponents"])
            if exps in seen:
                raise ValueError(f"duplicate multi-index {exps}")
            seen.add(exps)
            terms.append((entry["coeff"], exps))
        return cls(dim, terms, max_degree)


class OracleObjective:
    """Objective built from user callables with the polynomial contract.

    Derivative callbacks are optional; requesting an order whose callback
    is missing raises, so silent zero derivatives cannot slip in.
    """

    def __init__(
        self,
        dim: int,
        value: Callable[[np.ndarray], float],
        grad: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        hess: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        third: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> None:
        self._dim = dim
        self._value = value
        self._grad = grad
        self._hess = hess
        self._third = third

    @property
    def dim(self) -> int:
        return self._dim

    def value(self, x) -> float:
        return float(self._value(as_point(x, self._dim)))

    def bundle(self, x, order: int = 3) -> DerivativeBundle:
        x = as_point(x, self._dim)
        n = self._dim
        grad = np.zeros(n)
        hess = np.zeros((n, n))
        third = SymTensor3.zeros(n)
        callbacks = [(1, self._grad), (2, self._hess), (3, self._third)]
        for k, cb in callbacks:
            if order >= k and cb is None:
                raise ValueError(f"order-{k} derivative callback not provided")
        if order >= 1:
            grad = np.asarray(self._grad(x), dtype=float).reshape(n)
        if order >= 2:
            hess = np.asarray(self._hess(x), dtype=float).reshape(n, n)
            hess = (hess + hess.T) / 2.0
        if order >= 3:
            third = SymTensor3(np.asarray(self._third(x), dtype=float).reshape(n, n, n))
        return DerivativeBundle(self.value(x), grad, hess, third)


# -- finite-difference verification --------------------------------------


@dataclass(frozen=True)
class FdResiduals:
    """Max relative mismatch between analytic derivatives and differences."""

    grad: float
    hess: float
    third: float

    def worst(self) -> float:
        return max(self.grad, self.hess, self.third)


def _rel_residual(fd: np.ndarray, exact: np.ndarray) -> float:
    scale = max(1.0, np.abs(exact).max(initial=0.0))
    return float(np.abs(fd - exact).max(initial=0.0) / scale)


def finite_difference_check(objective: Objective, x, h: float) -> FdResiduals:
    """Central-difference check of all three derivative orders at ``x``.

    The gradient is differenced from function values; each higher order
    is differenced from the analytic order below it, which keeps the
    truncation error of every check at O(h^2) instead of compounding
    value-only stencils.
    """
    if h <= 0:
        raise ValueError("step size h must be positive")
    n = objective.dim
    x = as_point(x, n)
    exact = objective.bundle(x, 3)

    fd_grad = np.zeros(n)
    fd_hess = np.zeros((n, n))
    fd_third = np.zeros((n, n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        fd_grad[i] = (objective.value(x + e) - objective.value(x - e)) / (2 * h)
        bp = objective.bundle(x + e, 2)
        bm = objective.bundle(x - e, 2)
        fd_hess[:, i] = (bp.grad - bm.grad) / (2 * h)
        fd_third[:, :, i] = (bp.hess - bm.hess) / (2 * h)

    return FdResiduals(
        grad=_rel_residual(fd_grad, exact.grad),
        hess=_rel_residual((fd_hess + fd_hess.T) / 2.0, exact.hess),
        third=_rel_residual(SymTensor3(fd_third).entries, exact.third.entries),
    )


# -- smoothness constants --------------------------------------------------


@dataclass(frozen=True)
class SmoothnessConstants:
    """Lipschitz bounds for the Hessian and the third derivative.

    ``hess_lipschitz`` bounds the operator-norm change of the Hessian and
    ``third_lipschitz`` the Frobenius-norm change of the third derivative,
    per unit step, on the ball of radius ``valid_radius`` around the
    origin.  Both are floored at a small positive constant because the
    optimizer divides by them.
    """

    hess_lipschitz: float
    third_lipschitz: float
    valid_radius: float

    def __post_init__(self):
        if self.hess_lipschitz <= 0 or self.third_lipschitz <= 0 or self.valid_radius <= 0:
            raise ValueError("smoothness constants and radius must be positive")


def _derivative_frobenius_bound(poly: Polynomial, order: int, radius: float) -> float:
    """Upper bound of sup ||D^order f(x)||_F over the ball of given radius.

    Each tensor entry is bounded term by term: |monomial(x)| <= radius^deg
    on the ball, so the entry bound is the sum of absolute differentiated
    coefficients times radius^(residual degree).
    """
    entry_bounds: dict[tuple[int, ...], float] = {}
    for coeff, exps in poly.terms:
        support = [i for i, e in enumerate(exps) if e > 0]
        residual = sum(exps) - order
        if residual < 0:
            continue
        for combo in combinations_with_replacement(support, order):
            counts = Counter(combo)
            factor = 1.0
            for axis, k in counts.items():
                if exps[axis] < k:
                    factor = 0.0
                    break
                factor *= _falling(exps[axis], k)
            if factor == 0.0:
                continue
            entry_bounds[combo] = entry_bounds.get(combo, 0.0) + abs(coeff * factor) * radius**residual
    total = 0.0
    for combo, bound in entry_bounds.items():
        counts = Counter(combo)
        multiplicity = math.factorial(order)
        for k in counts.values():
            multiplicity //= math.factorial(k)
        total += multiplicity * bound * bound
    return math.sqrt(total)


def smoothness_bounds(
    poly: Polynomial, radius: float, min_constant: float = 1e-6
) -> SmoothnessConstants:
    """Valid (conservative) Lipschitz bounds on the ball of given radius.

    The Hessian Lipschitz constant is bounded by the sup of the third
    derivative's Frobenius norm, and the third-derivative constant by the
    sup of the fourth derivative's Frobenius norm, both term-wise.  For
    degree <= 4 polynomials the latter is a global constant.  Bounds that
    come out at zero (for example a quadratic's third-order constant) are
    reported as ``min_constant``.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    hess_lip = max(_derivative_frobenius_bound(poly, 3, radius), min_constant)
    third_lip = max(_derivative_frobenius_bound(poly, 4, radius), min_constant)
    return SmoothnessConstants(hess_lip, third_lip, radius)


# -- test-function corpus --------------------------------------------------

CORPUS_NAMES = (
    "monkey_saddle",
    "monkey_saddle_confined",
    "xxy_plus_yy",
    "quartic_1d",
    "wine_bottle",
    "inverted_wine_bottle",
    "quartic_plus_sixth",
)


def _radius_sq(dim: int) -> Polynomial:
    out = Polynomial.zero(dim)
    for i in range(dim):
        out = out + Polynomial.variable(dim, i) ** 2
    return out


def quartic_plus_sixth(quartic: Polynomial) -> Polynomial:
    """Lift a homogeneous quartic into a coercive objective: q(x) + ||x||^6.

    Instances of this family make fourth-order structure invisible to any
    third-order test at the origin, which is what makes them hard.
    """
    if any(sum(e) != 4 for _, e in quartic.terms):
        raise ValueError("the quartic part must be homogeneous of degree 4")
    return quartic + _radius_sq(quartic.dim) ** 3


def corpus(name: str, quartic: Optional[Polynomial] = None) -> Polynomial:
    """Named test functions with degenerate critical structure.

    ``monkey_saddle_confined`` adds the coercive term (x^2+y^2)^2 to the
    monkey saddle so runs terminate at a finite minimum; the raw saddle is
    unbounded below.  ``quartic_plus_sixth`` accepts an optional
    homogeneous quartic (default (x^2-y^2)^2).
    """
    x, y = None, None
    if name != "quartic_1d":
        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
    if name == "monkey_saddle":
        return -3.0 * x**2 * y + y**3
    if name == "monkey_saddle_confined":
        return -3.0 * x**2 * y + y**3 + (x**2 + y**2) ** 2
    if name == "xxy_plus_yy":
        return x**2 * y + y**2
    if name == "quartic_1d":
        t = Polynomial.variable(1, 0)
        return t**2 - 100.0 * t**3 + t**4
    if name == "wine_bottle":
        return (x**2 + y**2 - 1.0) ** 2
    if name == "inverted_wine_bottle":
        return (x**2 + y**2) * (x**2 + y**2 - 1.0) ** 2
    if name == "quartic_plus_sixth":
        if quartic is None:
            quartic = (x**2 - y**2) ** 2
        return quartic_plus_sixth(quartic)
    raise KeyError(f"unknown corpus function {name!r}; known: {', '.join(CORPUS_NAMES)}")
