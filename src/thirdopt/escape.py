"""Third-order escape steps and the main optimizer loop.

The optimizer alternates a cubic-regularized second-order step with a
randomized third-order step.  After each cubic step it looks for the
largest trailing eigensubspace of the Hessian on which the projected
third derivative dominates the curvature: walking suffixes
span{v_i, ..., v_n} of the descending eigenbasis, the first index with

    lambda_i <= c^2 / (12 * third_lipschitz * approx_factor^2),

where c is the Frobenius norm of the third derivative projected on that
suffix, wins.  If that norm also clears the trigger threshold
``approx_factor * (24 * ||grad|| * third_lipschitz)^(1/3)``, a direction
u in the subspace with a guaranteed fraction of the projected norm is
found by Gaussian rejection sampling and the iterate moves by
``- (c / (third_lipschitz * approx_factor)) * u``.

With valid Lipschitz constants each accepted step decreases f by an
explicit amount (cubic: reg * ||s||^3 / 12, escape:
c^4 / (24 * third_lipschitz^3 * approx_factor^4)); the loop asserts both
inequalities per step and records violations in the trace flags rather
than aborting, since a violation means the supplied constants are not
valid bounds on the traversed segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cubic import solve_cubic_model, stationarity
from .polynomials import Objective, as_point
from .spectral import EigenDecomp, Subspace, eig_sym
from .tensors import SymTensor3

# Additive slack for the per-step decrease assertions recorded in flags.
DECREASE_TOL = 1e-9


@dataclass(frozen=True)
class OptimizerConfig:
    """Run parameters for :func:`minimize`.

    ``hess_lipschitz`` and ``third_lipschitz`` must be valid Lipschitz
    bounds for the Hessian and third derivative on the region the run
    traverses; the per-step decrease guarantees are only meaningful then.
    ``sampler_constant`` scales the acceptance threshold of the direction
    sampler; the resulting approximation factor is
    ``sampler_constant * dim**1.5``.
    """

    hess_lipschitz: float
    third_lipschitz: float
    sampler_constant: float = 8.0
    max_iters: int = 100
    seed: int = 0
    tol_mu: float = 1e-6
    proj_norm_floor: float = 1e-10
    max_sampler_draws: int = 200
    quiet_window: int = 3

    def __post_init__(self):
        positives = (
            ("hess_lipschitz", self.hess_lipschitz),
            ("third_lipschitz", self.third_lipschitz),
            ("sampler_constant", self.sampler_constant),
            ("max_iters", self.max_iters),
            ("tol_mu", self.tol_mu),
            ("proj_norm_floor", self.proj_norm_floor),
            ("max_sampler_draws", self.max_sampler_draws),
            ("quiet_window", self.quiet_window),
        )
        for name, value in positives:
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")

    def approx_factor(self, dim: int) -> float:
        return self.sampler_constant * dim**1.5


@dataclass(frozen=True)
class EscapeSubspace:
    """Trailing eigensubspace chosen for a third-order step.

    ``proj_norm`` is the Frobenius norm of the third derivative projected
    onto the subspace and ``curvature_bound`` the eigenvalue threshold
    proj_norm^2 / (12 * third_lipschitz * approx_factor^2) it had to
    clear.  An empty subspace carries zeros and no suffix index.
    """

    subspace: Subspace
    proj_norm: float
    curvature_bound: float
    suffix_index: Optional[int]

    @property
    def is_empty(self) -> bool:
        return self.subspace.is_empty


def escape_subspace(
    hess,
    third: SymTensor3,
    third_lipschitz: float,
    approx_factor: float,
    proj_norm_floor: float = 1e-10,
) -> EscapeSubspace:
    """Largest trailing eigensubspace where the third derivative dominates.

    ``hess`` is the Hessian matrix, or its :class:`EigenDecomp` when the
    caller already holds one.  Rotating the tensor into the eigenbasis
    makes the projected Frobenius norm of every suffix a plain
    trailing-block norm, so all n candidates cost one rotation plus
    slicing.  A subspace whose qualifying projected norm is at or below
    ``proj_norm_floor`` is reported empty: the step length would be
    proportional to that norm, so such subspaces cannot produce progress.
    """
    decomp = hess if isinstance(hess, EigenDecomp) else eig_sym(hess)
    n = decomp.dim
    if third.dim != n:
        raise ValueError(f"tensor dim {third.dim} does not match matrix dim {n}")
    if third_lipschitz <= 0 or approx_factor <= 0:
        raise ValueError("third_lipschitz and approx_factor must be positive")
    rotated_sq = third.transform(decomp.eigenvectors).entries ** 2
    denom = 12.0 * third_lipschitz * approx_factor**2
    for i in range(n):
        proj_sq = float(rotated_sq[i:, i:, i:].sum())
        bound = proj_sq / denom
        if decomp.eigenvalues[i] <= bound:
            proj_norm = math.sqrt(proj_sq)
            if proj_norm <= proj_norm_floor:
                break
            return EscapeSubspace(
                subspace=Subspace(n, decomp.eigenvectors[:, i:]),
                proj_norm=proj_norm,
                curvature_bound=bound,
                suffix_index=i,
            )
    return EscapeSubspace(Subspace.empty(n), 0.0, 0.0, None)


class SamplerBudgetError(RuntimeError):
    """Raised when no sampled direction clears the acceptance threshold.

    Signals that the sampler constant is too small for this tensor; never
    swallowed, because returning a below-threshold direction would void
    the escape step's decrease guarantee.
    """

    def __init__(self, draws: int, threshold: float):
        super().__init__(
            f"no direction reached the contraction threshold {threshold:.3e} in {draws} draws"
        )
        self.draws = draws
        self.threshold = threshold


@dataclass(frozen=True)
class DirectionSample:
    direction: np.ndarray
    draws: int


def sample_direction(
    third: SymTensor3,
    subspace: Subspace,
    sampler_constant: float,
    rng: np.random.Generator,
    max_draws: int = 200,
) -> DirectionSample:
    """Draw a unit direction u in the subspace with a large cubic form.

    Gaussian directions are rejected until
    |T(u, u, u)| >= proj_norm / (sampler_constant * n^1.5) with n the
    ambient dimension; the sign is flipped so the contraction comes back
    positive.  The acceptance probability is dimension-independent up to
    a constant, so a handful of draws suffices in practice.
    """
    if subspace.is_empty:
        raise ValueError("cannot sample a direction from an empty subspace")
    proj_norm = third.project(subspace).frobenius_norm()
    if proj_norm <= 0.0:
        raise ValueError("projected tensor is zero; no direction can make progress")
    n = third.dim
    threshold = proj_norm / (sampler_constant * n**1.5)
    for draw in range(1, max_draws + 1):
        coeffs = rng.standard_normal(subspace.rank)
        u = subspace.basis @ coeffs
        norm = np.linalg.norm(u)
        if norm == 0.0:
            continue
        u /= norm
        t = third.trilinear(u, u, u)
        if abs(t) >= threshold:
            return DirectionSample(direction=u if t > 0 else -u, draws=draw)
    raise SamplerBudgetError(max_draws, threshold)


def escape_step(
    z,
    esc: EscapeSubspace,
    direction,
    third_lipschitz: float,
    approx_factor: float,
) -> np.ndarray:
    """Move against the sampled direction by proj_norm / (L_3 * factor)."""
    if esc.is_empty:
        raise ValueError("escape step requires a non-empty subspace")
    z = np.asarray(z, dtype=float)
    step_len = esc.proj_norm / (third_lipschitz * approx_factor)
    return z - step_len * np.asarray(direction, dtype=float)


@dataclass(frozen=True)
class IterationRecord:
    """One trace row; phase is 'cubic', 'third', or 'terminal'.

    ``grad_norm`` and ``stationarity`` always refer to the post-cubic
    point of the iteration, including on 'third' rows, where ``value`` is
    the objective after the escape step.  Flags hold the per-step
    decrease assertions (None where not applicable).
    """

    iteration: int
    phase: str
    value: float
    grad_norm: float
    stationarity: float
    proj_norm: float
    subspace_dim: int
    step_norm: float
    flags: dict


@dataclass
class Trace:
    """Full record of one optimizer run."""

    dim: int
    config: OptimizerConfig
    approx_factor: float
    initial_point: np.ndarray
    initial_value: float
    records: list = field(default_factory=list)
    final_point: Optional[np.ndarray] = None
    final_value: float = math.nan
    reason: str = "budget"

    @property
    def iterations(self) -> int:
        return sum(1 for r in self.records if r.phase == "cubic")

    def cubic_records(self) -> list:
        return [r for r in self.records if r.phase == "cubic"]

    def third_records(self) -> list:
        return [r for r in self.records if r.phase == "third"]

    def values(self) -> np.ndarray:
        return np.array([self.initial_value] + [r.value for r in self.records])

    def all_flags_ok(self) -> bool:
        """True when no per-step decrease assertion failed (trigger is status, not an assertion)."""
        keys = ("cubic_decrease", "step_vs_mu", "third_decrease")
        return all(r.flags.get(k) is not False for r in self.records for k in keys)


def _flags(cubic_ok=None, mu_ok=None, trigger=None, third_ok=None) -> dict:
    return {
        "cubic_decrease": cubic_ok,
        "step_vs_mu": mu_ok,
        "trigger": trigger,
        "third_decrease": third_ok,
    }


def minimize(objective: Objective, x0, config: OptimizerConfig) -> Trace:
    """Run the alternating cubic / third-order loop from ``x0``.

    Each iteration takes a cubic step to z, measures the gradient there,
    and fires an escape step when the chosen subspace's projected norm
    reaches ``approx_factor * (24 * ||grad(z)|| * L_3)^(1/3)``; otherwise
    the iterate stays at z.  The run stops early once the stationarity
    measure is at most ``tol_mu`` and no trigger has fired for
    ``quiet_window`` consecutive iterations; a 'terminal' row closes the
    trace.  Identical config and seed reproduce the trace bit for bit.
    """
    n = objective.dim
    x = as_point(x0, n)
    rng = np.random.default_rng(config.seed)
    q = config.approx_factor(n)
    reg = config.hess_lipschitz
    lip3 = config.third_lipschitz

    trace = Trace(
        dim=n,
        config=config,
        approx_factor=q,
        initial_point=x.copy(),
        initial_value=objective.value(x),
    )
    f_x = trace.initial_value
    quiet = 0

    # Derivatives and Hessian decomposition at x, carried over from the
    # previous iteration's post-cubic point unless an escape step moved x.
    carried = None

    for it in range(config.max_iters):
        if carried is None:
            b_x = objective.bundle(x, 2)
            carried = (b_x, eig_sym(b_x.hess))
        b_x, decomp_x = carried
        sol = solve_cubic_model(b_x.grad, decomp_x, reg)
        z = x + sol.step
        b_z = objective.bundle(z, 3)
        decomp = eig_sym(b_z.hess)
        grad_norm = float(np.linalg.norm(b_z.grad))
        stat = stationarity(objective, z, reg, (b_z, decomp))
        esc = escape_subspace(decomp, b_z.third, lip3, q, config.proj_norm_floor)

        cubic_ok = bool(b_z.value <= f_x - reg * sol.radius**3 / 12.0 + DECREASE_TOL)
        mu_ok = bool(sol.radius >= stat.value - DECREASE_TOL)
        trigger = bool(
            (not esc.is_empty)
            and esc.proj_norm >= q * (24.0 * grad_norm * lip3) ** (1.0 / 3.0)
        )

        trace.records.append(
            IterationRecord(
                iteration=it,
                phase="cubic",
                value=b_z.value,
                grad_norm=grad_norm,
                stationarity=stat.value,
                proj_norm=esc.proj_norm,
                subspace_dim=esc.subspace.rank,
                step_norm=sol.radius,
                flags=_flags(cubic_ok=cubic_ok, mu_ok=mu_ok, trigger=trigger),
            )
        )

        if trigger:
            sample = sample_direction(
                b_z.third, esc.subspace, config.sampler_constant, rng, config.max_sampler_draws
            )
            x_next = escape_step(z, esc, sample.direction, lip3, q)
            f_next = objective.value(x_next)
            promised = esc.proj_norm**4 / (24.0 * lip3**3 * q**4)
            third_ok = bool(f_next <= b_z.value - promised + DECREASE_TOL)
            trace.records.append(
                IterationRecord(
                    iteration=it,
                    phase="third",
                    value=f_next,
                    grad_norm=grad_norm,
                    stationarity=stat.value,
                    proj_norm=esc.proj_norm,
                    subspace_dim=esc.subspace.rank,
                    step_norm=float(np.linalg.norm(x_next - z)),
                    flags=_flags(trigger=True, third_ok=third_ok),
                )
            )
            quiet = 0
            carried = None
        else:
            x_next, f_next = z, b_z.value
            quiet += 1
            carried = (b_z, decomp)

        x, f_x = x_next, f_next

        if stat.value <= config.tol_mu and quiet >= config.quiet_window:
            trace.records.append(
                IterationRecord(
                    iteration=it,
                    phase="terminal",
                    value=f_x,
                    grad_norm=grad_norm,
                    stationarity=stat.value,
                    proj_norm=esc.proj_norm,
                    subspace_dim=esc.subspace.rank,
                    step_norm=0.0,
                    flags=_flags(),
                )
            )
            trace.reason = "terminal"
            break

    trace.final_point = x
    trace.final_value = f_x
    return trace


@dataclass(frozen=True)
class RateReport:
    """Which iterations meet the finite-budget quality envelope.

    After t iterations started at value f0 with a valid lower bound f*,
    some post-cubic iterate must satisfy both

        stationarity <= (12 (f0 - f*) / (reg t))^(1/3)
        proj_norm    <= max(factor * (24 ||grad|| L3)^(1/3),
                            factor * (24 L3^3 (f0 - f*) / t)^(1/4)),

    the first branch of the second bound being iterate-dependent.
    """

    mu_bound: float
    static_proj_bound: float
    qualifying: tuple
    satisfied: bool


def rate_report(trace: Trace, lower_bound: float) -> RateReport:
    """Check the quality envelope on a finished trace.

    ``lower_bound`` must be a valid lower bound of the objective (a
    fine-grid minimum is adequate for the bounded corpus members).
    """
    t = trace.iterations
    if t == 0:
        raise ValueError("trace has no iterations")
    gap = max(trace.initial_value - lower_bound, 0.0)
    reg = trace.config.hess_lipschitz
    lip3 = trace.config.third_lipschitz
    q = trace.approx_factor
    mu_bound = (12.0 * gap / (reg * t)) ** (1.0 / 3.0)
    static_proj = q * (24.0 * lip3**3 * gap / t) ** 0.25
    qualifying = []
    for rec in trace.cubic_records():
        proj_bound = max(q * (24.0 * rec.grad_norm * lip3) ** (1.0 / 3.0), static_proj)
        if rec.stationarity <= mu_bound and rec.proj_norm <= proj_bound:
            qualifying.append(rec.iteration)
    return RateReport(
        mu_bound=mu_bound,
        static_proj_bound=static_proj,
        qualifying=tuple(qualifying),
        satisfied=bool(qualifying),
    )
