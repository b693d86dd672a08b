"""Exact polynomial objectives with analytic derivatives up to order 3.

Polynomials are the canonical objective for this package because their
first three derivatives are exact, which lets every optimizer guarantee
be tested without differentiation error.  A small corpus of test
functions with degenerate critical points is bundled; user-supplied
callables can participate through :class:`OracleObjective` as long as
they provide the same derivative contract.

Derivative conventions: ``grad[i] = df/dx_i``, ``hess[i, j] =
d2f/dx_i dx_j``, ``third[i, j, k] = d3f/dx_i dx_j dx_k``.

A :class:`Polynomial` computes each derivative order k, and its
term-wise Lipschitz bound, from table rows built on first use: a row per
term and ordered k-tuple of axes the term survives differentiation
along, holding the tuple's flat position in the n**k tensor, the
residual monomial as indices into a table of powers ``x[i] ** e``, and
``coeff`` times the falling factorial.  ``np.bincount`` adds each
position's rows in term order.  The powers are libm ``pow``, through
Python's ``**`` at one point and ``np.float_power`` on a stack; numpy's
``power`` uses SIMD kernels that can differ in the last bit.  So all
permutations of an index sum the same floats in the same order, and the
Hessian and third derivative are exactly symmetric;
:meth:`Polynomial.bundle` skips :class:`DerivativeBundle`'s check.

One pass builds the rows of orders 0..4, each order's rows the last
order's differentiated once more.  Orders 0..3 share one fused table:
order k's rows follow order k-1's, with positions offset by
1 + n + ... + n**(k-1), so the rows through order k are a prefix of the
table and fill a prefix of the flat vector (f, grad, hess, third).
Order 4 serves only :func:`smoothness_bounds` and is kept apart.  One
evaluator reads that prefix, with one gather, one product and one
``bincount``, at one point for :meth:`Polynomial.value` and
:meth:`Polynomial.bundle`, and at every row of an ``(N, n)`` stack for
:meth:`Polynomial.bundle_many`, point p's bins offset by p times the
prefix's length.  Each position adds the same rows in the same order on
both paths, so row i of a stack equals the bundle at that row bit for
bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from .spectral import _norm, _symmetrize
from .tensors import SymTensor3

# Highest total degree of a term; admits the ||x||^6 family used for hard
# quartic instances.
MAX_DEGREE = 6
# Floor of the bounds smoothness_bounds reports, which the optimizer divides by.
MIN_CONSTANT = 1e-6


def as_point(x, dim: int) -> np.ndarray:
    """Validate a point: a finite real vector of the expected dimension."""
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise ValueError(f"point of shape {x.shape} does not match dimension {dim}")
    if not _all_finite(x):
        raise ValueError("point has non-finite entries")
    return x


def _all_finite(v: np.ndarray) -> bool:
    """``np.isfinite(v).all()`` for a 1-D float array, tested as Python floats.

    At small n that is a few times cheaper than the ufunc and its reduction.
    """
    return all(map(math.isfinite, v.tolist()))


def _monomial(exps) -> str:
    """``x0^2*x1`` for the exponents (2, 1); empty for all zeros."""
    return "*".join(f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps) if e)


def _readable(rows: tuple) -> list:
    """Derivative rows without their trailing overflow message, which raises ValueError."""
    *rows, overflow = rows
    if overflow:
        raise ValueError(overflow)
    return rows


def check_order(order: int) -> None:
    """Reject a derivative order outside 0..3."""
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order must be in 0..3, got {order}")


def check_positive(name: str, value: float) -> None:
    """Reject a constant outside (0, inf); NaN fails the comparison too."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_count(name: str, value, minimum: int) -> None:
    """Reject a value that is not an integer (numpy's included, bool not) of at least ``minimum``, 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        kind = "positive" if minimum else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")


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
        # An exactly symmetric Hessian has asymmetry 0, a NaN facing a NaN
        # included, as in eig_sym; other input takes the full check, which
        # a NaN asymmetry fails
        if np.array_equal(self.hess, self.hess.T, equal_nan=True):
            return
        asym = np.abs(self.hess - self.hess.T).max(initial=0.0)
        if not asym <= 1e-12 * max(1.0, np.abs(self.hess).max(initial=0.0)):
            raise ValueError(f"hessian is not symmetric or has non-finite entries "
                             f"(asymmetry {asym:.3e})")

    @classmethod
    def _trusted(cls, value: float, grad: np.ndarray, hess: np.ndarray,
                 third: SymTensor3) -> "DerivativeBundle":
        """A bundle whose Hessian is exactly symmetric by construction.

        For producers inside the package only: it skips the symmetry check,
        which a :class:`Polynomial` table's Hessian passes by construction
        (module docstring).  ``eig_sym`` still tests exact symmetry.
        """
        bundle = cls.__new__(cls)
        for name, field in zip(("value", "grad", "hess", "third"), (value, grad, hess, third)):
            object.__setattr__(bundle, name, field)
        return bundle


@runtime_checkable
class Objective(Protocol):
    """Anything that can report its value and derivatives at a point."""

    @property
    def dim(self) -> int: ...

    def value(self, x) -> float: ...

    def bundle(self, x, order: int) -> DerivativeBundle: ...


class Polynomial:
    """Multivariate polynomial in canonical sparse form.

    Terms are (coefficient, exponent multi-index) pairs.  Construction
    canonicalizes: zero coefficients are dropped and duplicate
    multi-indices are rejected.  The total degree of every term must stay
    at or below ``MAX_DEGREE``.
    """

    __slots__ = ("_dim", "_terms", "_slots", "_fused", "_order4")

    def __init__(self, dim: int, terms) -> None:
        _check_count("dimension", dim, 1)
        dim = int(dim)
        canon: dict[tuple[int, ...], float] = {}
        for coeff, exponents in terms:
            exps = tuple(exponents)
            if len(exps) != dim:
                raise ValueError(f"exponent list {exps} does not have length {dim}")
            if any(isinstance(e, bool) or not isinstance(e, (int, np.integer)) or e < 0
                   for e in exps):
                raise ValueError(f"exponents must be non-negative integers, got {exps}")
            exps = tuple(int(e) for e in exps)
            if sum(exps) > MAX_DEGREE:
                raise ValueError(
                    f"term of degree {sum(exps)} exceeds the maximum degree {MAX_DEGREE}"
                )
            coeff = float(coeff)
            if not math.isfinite(coeff):
                raise ValueError("coefficients must be finite")
            if exps in canon:
                raise ValueError(f"duplicate multi-index {exps}")
            canon[exps] = coeff
        self._dim = dim
        self._terms = tuple(sorted((e, c) for e, c in canon.items() if c != 0.0))
        # (variable, exponent) of each power-table entry, up to the variable's
        # highest exponent
        caps = [max((e[i] for e, _ in self._terms), default=0) for i in range(dim)]
        self._slots = tuple((i, e) for i, cap in enumerate(caps) for e in range(cap + 1))
        self._fused = None
        self._order4 = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Polynomial":
        return cls(dim, [])

    @classmethod
    def constant(cls, dim: int, c: float) -> "Polynomial":
        return cls(dim, [(c, (0,) * dim)])

    @classmethod
    def variable(cls, dim: int, index: int) -> "Polynomial":
        _check_count("dimension", dim, 1)
        _check_count("index", index, 0)
        if index >= dim:
            raise ValueError(f"index must be below the dimension {dim}, got {index!r}")
        exps = [0] * dim
        exps[index] = 1
        return cls(dim, [(1.0, tuple(exps))])

    @classmethod
    def _from_dict(cls, dim: int, canon: dict) -> "Polynomial":
        return cls(dim, [(c, e) for e, c in canon.items()])

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
            mono = _monomial(exps)
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
        return Polynomial._from_dict(self._dim, canon)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_dict(self._dim, {e: -c for e, c in self._terms})

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
        return Polynomial._from_dict(self._dim, canon)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        _check_count("power", k, 0)
        out = Polynomial.constant(self._dim, 1.0)
        for _ in range(k):
            out = out * self
        return out

    # -- evaluation and derivatives ---------------------------------------

    def value(self, x) -> float:
        x = as_point(x, self._dim)
        return float(self._evaluate(self._powers(x), 0)[0])

    def _prefixes(self) -> tuple:
        """The fused order 0..3 table, as its prefix through each order.

        Entry k is (positions, residual, multipliers, size, overflow): the
        rows of orders 0..k, positions offset into the flat (f, grad,
        hess, third) vector, that vector's length through order k, and
        the first of those orders' overflow messages, or None.  One pass
        builds orders 0..4, each the last differentiated once more, and
        keeps order 4's (positions, residual, multipliers, overflow) in
        ``_order4``.

        ``residual`` has one power-table index per support axis, in axis
        order, padded with index 0 (``x[0] ** 0 = 1``).  A multiplier
        that overflows, a coefficient times its falling factorial, is
        inf; the overflow message names the first such term and order.
        """
        if self._fused is None:
            n = self._dim
            # each term's (axis, exponent) over its support, padded with (0, 0)
            support = [[(i, e) for i, e in enumerate(exps) if e] for exps, _ in self._terms]
            width = max(map(len, support), default=0)
            padded = np.array([s + [(0, 0)] * (width - len(s)) for s in support], dtype=np.intp)
            axes, left = padded.reshape(len(support), width, 2).transpose(2, 0, 1)
            offsets = np.array([k for k, (_, e) in enumerate(self._slots) if e == 0])
            coeffs = np.array([c for _, c in self._terms])
            term = np.arange(len(support))
            pos, factor = np.zeros_like(term), np.ones_like(term)
            parts = []
            for order in range(5):
                if order:
                    # differentiate every row along every support axis it still has
                    row, j = np.nonzero(left)
                    term, factor, left = term[row], factor[row] * left[row, j], left[row]
                    pos = pos[row] * n + axes[term, j]
                    left[np.arange(len(row)), j] -= 1
                with np.errstate(over="ignore"):
                    mult = coeffs[term] * factor
                overflow = None
                if not _all_finite(mult):
                    r = next(r for r, m in enumerate(mult.tolist()) if not math.isfinite(m))
                    exps, coeff = self._terms[term[r]]
                    overflow = (f"order-{order} derivative of the term {coeff!r}*{_monomial(exps)} "
                                f"overflows: the coefficient times {int(factor[r])}")
                residual = (offsets[axes[term]] + left).T.astype(np.intp, order="C")
                parts.append((pos, residual, mult, overflow))
            *parts, self._order4 = parts
            sizes = np.cumsum([n**k for k in range(4)]).tolist()
            pos = np.concatenate([p[0] + start for p, start in zip(parts, [0] + sizes)])
            residual = np.concatenate([p[1] for p in parts], axis=1)
            mult = np.concatenate([p[2] for p in parts])
            ends = np.cumsum([len(p[2]) for p in parts]).tolist()
            overflows = [next(filter(None, [p[3] for p in parts[:k + 1]]), None) for k in range(4)]
            self._fused = tuple((pos[:e], residual[:, :e], mult[:e], size, overflow)
                                for e, size, overflow in zip(ends, sizes, overflows))
        return self._fused

    def _table(self, order: int) -> tuple:
        """Rows of one order: position in the n**order tensor, residual, multiplier.

        Orders 0..3 are slices of the fused table; order 4, which serves
        only :func:`smoothness_bounds`, is kept apart.  An order with an
        overflowing multiplier, or above one, raises ValueError.
        """
        prefixes = self._prefixes()
        if order == 4:
            return tuple(_readable(self._order4))
        pos, residual, mult, size = _readable(prefixes[order])
        start = len(prefixes[order - 1][2]) if order else 0
        return pos[start:] - (size - self._dim**order), residual[:, start:], mult[start:]

    def _powers(self, x: np.ndarray) -> np.ndarray:
        """Scalar ``x[..., i] ** e`` for each power-table slot, point-major.

        ``x`` is one point ``(n,)`` or a stack ``(N, n)``; the result is
        ``(slots,)`` or ``(N, slots)``, C-contiguous.  A stack's column is
        one ``np.float_power``, whose float64 loop calls libm ``pow`` on
        each element as Python's ``**`` does.  A power that overflows
        raises ValueError, naming it.
        """
        try:
            if x.ndim == 1:
                row = x.tolist()
                return np.array([row[i] ** e for i, e in self._slots], dtype=float)
            powers = np.empty((len(x), len(self._slots)))
            with np.errstate(over="raise"):
                for k, (i, e) in enumerate(self._slots):
                    np.float_power(x[:, i], e, out=powers[:, k])
            return powers
        except (OverflowError, FloatingPointError):
            # name the first slot whose power overflows, at its variable's largest magnitude
            big = np.abs(x).reshape(-1, self._dim).max(axis=0)
            with np.errstate(over="ignore"):
                i, e = next((i, e) for i, e in self._slots if big[i] ** e == math.inf)
            raise ValueError(f"power x{i}**{e} overflows at |x{i}| = {float(big[i])!r}") from None

    def _evaluate(self, powers: np.ndarray, order: int) -> np.ndarray:
        """Orders 0..``order``, flat (f, grad, hess, third in turn), from ``_powers``.

        ``powers`` is one point's ``(slots,)`` or a stack's ``(N, slots)``;
        the result is ``(size,)`` or ``(N, size)``.  Each row's residual
        powers are multiplied in table order, then by the row's
        multiplier.  Point p's rows go to bins offset by ``p * size``, so
        every position of every point adds its rows in table order, as at
        one point.  Raises ValueError if one of those orders has an
        overflowing multiplier.
        """
        pos, residual, mult, size = _readable(self._prefixes()[order])
        if not len(mult):
            # a polynomial without terms; bincount would count in int64
            return np.zeros(powers.shape[:-1] + (size,))
        if powers.ndim == 1:
            terms = mult * np.multiply.reduce(powers[residual], axis=0)
            return np.bincount(pos, terms, minlength=size)
        count = len(powers)
        terms = mult * np.multiply.reduce(powers[:, residual], axis=1)
        bins = (pos + size * np.arange(count)[:, None]).ravel()
        return np.bincount(bins, terms.ravel(), minlength=count * size).reshape(count, size)

    def bundle(self, x, order: int) -> DerivativeBundle:
        """Exact value and derivatives at ``x`` up to ``order`` (0..3).

        Derivative slots above the requested order are zero arrays.
        """
        check_order(order)
        n = self._dim
        flat = self._evaluate(self._powers(as_point(x, n)), order)
        grad = flat[1:1 + n] if order >= 1 else np.zeros(n)
        hess = flat[1 + n:1 + n + n * n] if order >= 2 else np.zeros(n * n)
        third = flat[1 + n + n * n:] if order == 3 else np.zeros(n**3)
        return DerivativeBundle._trusted(
            float(flat[0]), grad, hess.reshape(n, n), SymTensor3._trusted(third.reshape(n, n, n))
        )

    def bundle_many(self, points, order: int) -> tuple:
        """Values and derivatives up to ``order`` (0..3) at each row of ``points``.

        ``points`` is an ``(N, n)`` array of finite entries.  Returns the
        C-contiguous arrays ``(N,)``, ``(N, n)``, ``(N, n, n)`` and
        ``(N, n, n, n)``, zero above ``order``; row i equals
        :meth:`bundle` at ``points[i]`` bit for bit.
        """
        check_order(order)
        n = self._dim
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != n:
            raise ValueError(f"points of shape {points.shape} are not rows of dimension {n}")
        if not np.isfinite(points).all():
            raise ValueError("points have non-finite entries")
        count = len(points)
        flat = self._evaluate(self._powers(points), order)
        ends = np.cumsum([n**k for k in range(4)]).tolist()
        value, grad, hess, third = [
            flat[:, end - n**k:end].astype(float) if k <= order else np.zeros((count, n**k))
            for k, end in enumerate(ends)
        ]
        return (value.reshape(count), grad, hess.reshape(count, n, n),
                third.reshape(count, n, n, n))

    # -- JSON form -------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "dim": self._dim,
            "terms": [{"coeff": c, "exponents": list(e)} for e, c in self._terms],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Polynomial":
        if not isinstance(data, dict) or "dim" not in data or "terms" not in data:
            raise ValueError('polynomial JSON must have "dim" and "terms" keys')
        dim = data["dim"]
        if not isinstance(dim, int):
            raise ValueError('"dim" must be an integer')
        if not isinstance(data["terms"], list):
            raise ValueError('"terms" must be a list')
        terms = []
        for entry in data["terms"]:
            if not isinstance(entry, dict) or "coeff" not in entry or "exponents" not in entry:
                raise ValueError('each term must have "coeff" and "exponents"')
            coeff, exponents = entry["coeff"], entry["exponents"]
            if isinstance(coeff, bool) or not isinstance(coeff, (int, float)):
                raise ValueError(f'"coeff" must be a number, got {coeff!r}')
            if not isinstance(exponents, list):
                raise ValueError(f'"exponents" must be a list, got {exponents!r}')
            terms.append((coeff, exponents))
        return cls(dim, terms)


class OracleObjective:
    """Objective built from user callables with the polynomial contract.

    Every callback output is checked: ``value`` must return a finite
    scalar and ``grad``, ``hess`` and ``third`` finite arrays of the exact
    shapes ``(n,)``, ``(n, n)`` and ``(n, n, n)``, so malformed oracle
    output fails at the bundle rather than deep inside a solver.  A
    Hessian must pass :class:`DerivativeBundle`'s symmetry check as the
    callback returned it; the bundle holds its exactly symmetric average.
    """

    def __init__(
        self,
        dim: int,
        value: Callable[[np.ndarray], float],
        grad: Callable[[np.ndarray], np.ndarray],
        hess: Callable[[np.ndarray], np.ndarray],
        third: Callable[[np.ndarray], np.ndarray],
    ) -> None:
        _check_count("dimension", dim, 1)
        self._dim = int(dim)
        self._callbacks = {"value": value, "grad": grad, "hess": hess, "third": third}

    @property
    def dim(self) -> int:
        return self._dim

    def _call(self, name: str, x: np.ndarray, order: int) -> np.ndarray:
        out = np.asarray(self._callbacks[name](x), dtype=float)
        shape = (self._dim,) * order
        if out.shape != shape:
            raise ValueError(f"{name} callback returned shape {out.shape}, expected {shape}")
        if not np.isfinite(out).all():
            raise ValueError(f"{name} callback returned non-finite entries")
        return out

    def value(self, x) -> float:
        return float(self._call("value", as_point(x, self._dim), 0))

    def bundle(self, x, order: int) -> DerivativeBundle:
        check_order(order)
        x = as_point(x, self._dim)
        n = self._dim
        grad = self._call("grad", x, 1) if order >= 1 else np.zeros(n)
        hess = self._call("hess", x, 2) if order >= 2 else np.zeros((n, n))
        third = SymTensor3(self._call("third", x, 3)) if order >= 3 else SymTensor3.zeros(n)
        # The callback's own matrix takes the asymmetry check; only a Hessian
        # that passes it is averaged
        checked = DerivativeBundle(self.value(x), grad, hess, third)
        return replace(checked, hess=_symmetrize(hess))


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
        bp = objective.bundle(x + e, 2)
        bm = objective.bundle(x - e, 2)
        fd_grad[i] = (bp.value - bm.value) / (2 * h)
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
        for name in ("hess_lipschitz", "third_lipschitz", "valid_radius"):
            check_positive(name, getattr(self, name))


def _derivative_frobenius_bound(poly: Polynomial, order: int, radius: float) -> float:
    """Upper bound of sup ||D^order f(x)||_F over the ball of given radius.

    Each tensor entry is bounded term by term: |monomial(x)| <= radius^deg
    on the ball, so the entry bound is the sum of absolute differentiated
    coefficients times radius^(residual degree).
    """
    pos, residual, mult = poly._table(order)
    degrees = np.array([e for _, e in poly._slots])[residual].sum(axis=0)
    try:
        radius_powers = np.array([radius**d for d in range(poly.degree + 1)], dtype=float)
    except OverflowError:
        raise ValueError(f"radius**{poly.degree} overflows at radius = {radius!r}") from None
    _, entry = np.unique(pos, return_inverse=True)
    entry_bounds = np.bincount(entry, np.abs(mult) * radius_powers[degrees])
    top = float(entry_bounds.max(initial=0.0))
    if top == 0.0 or not math.isfinite(top) or 1e-150 <= top <= 1e150:
        return _norm(entry_bounds)
    # Squared entries this small or large would under- or overflow.
    return top * _norm(entry_bounds / top)


def smoothness_bounds(poly: Polynomial, radius: float) -> SmoothnessConstants:
    """Valid (conservative) Lipschitz bounds on the ball of given radius.

    The Hessian Lipschitz constant is bounded by the sup of the third
    derivative's Frobenius norm, and the third-derivative constant by the
    sup of the fourth derivative's Frobenius norm, both term-wise.  For
    degree <= 4 polynomials the latter is a global constant.  Bounds that
    come out at zero (for example a quadratic's third-order constant) are
    reported as ``MIN_CONSTANT``.
    """
    check_positive("radius", radius)
    # A Python float raises OverflowError where numpy's scalar power warns
    radius = float(radius)
    hess_lip = max(_derivative_frobenius_bound(poly, 3, radius), MIN_CONSTANT)
    third_lip = max(_derivative_frobenius_bound(poly, 4, radius), MIN_CONSTANT)
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


@functools.cache
def corpus(name: str) -> Polynomial:
    """Named test functions with degenerate critical structure.

    ``monkey_saddle_confined`` adds the coercive term (x^2+y^2)^2 to the
    monkey saddle so runs terminate at a finite minimum; the raw saddle is
    unbounded below.  ``quartic_plus_sixth`` lifts the quartic
    (x^2-y^2)^2; :func:`quartic_plus_sixth` lifts any other.  Each member
    is built once per process and shared, with the derivative tables it
    caches: a :class:`Polynomial` is immutable.
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
        return quartic_plus_sixth((x**2 - y**2) ** 2)
    raise KeyError(f"unknown corpus function {name!r}; known: {', '.join(CORPUS_NAMES)}")
