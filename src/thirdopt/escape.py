"""Third-order escape steps and the main optimizer loop.

The optimizer alternates a cubic-regularized second-order step with a
randomized third-order step.  After each cubic step it looks for the
largest trailing eigensubspace of the Hessian on which the projected
third derivative dominates the curvature: walking suffixes
span{v_i, ..., v_n} of the descending eigenbasis, the first index with

    lambda_i <= c^2 / (12 * third_lipschitz * approx_factor^2),

where c is the Frobenius norm of the third derivative projected on that
suffix, wins.  If that norm also clears the trigger threshold
``approx_factor * (24 * ||grad|| * third_lipschitz)^(1/3)``, Gaussian
rejection sampling finds a unit u in the subspace with
|T(u, u, u)| >= c / approx_factor and the iterate moves by
``- (c / (third_lipschitz * approx_factor)) * u``: one c sets the
sampler's threshold, the step length and the promised decrease.

The walk starts at a spectral bound.  The eigenvectors are orthonormal,
so no suffix's projected squared norm exceeds ||T||_F^2, up to
rounding.  So a suffix i with

    lambda_i * 12 * third_lipschitz * approx_factor^2 > 2 ||T||_F^2

cannot qualify, and the walk starts at the first index that fails this
test; a NaN fails it, so it walks.  The eigenvalues descend, so when
lambda_min passes the test every index does, and the search returns the
empty subspace after one dot product and one comparison, without
rotating T.  The factor 2 is far above the rounding of either sum at the
dimensions this package handles, so the search returns what the walk
from index 0 would, bit for bit.

With valid Lipschitz constants each accepted step decreases f by an
explicit amount (cubic: reg * ||s||^3 / 12, escape:
c^4 / (24 * third_lipschitz^3 * approx_factor^4)); the loop asserts both
inequalities per step and records violations in the trace flags rather
than aborting, since a violation means the supplied constants are not
valid bounds on the traversed segment.

This module also owns the trace format: ``IterationRecord`` rows, their
``FLAG_KEYS`` and the JSONL reader and writer.  A trace file holds one
JSON object per row with a fixed key order, so equal seeds produce
byte-identical files and parsing then re-serializing is the identity.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cubic import _LocalModel, _model_inputs, _solve_step, _stationarity
from .polynomials import Objective, _check_count, as_point, check_positive
from .spectral import EigenDecomp, Subspace, _finite_decomp, _matmul, _norm, _vdot, eig_sym
from .tensors import SymTensor3

# Additive slack for the per-step decrease assertions recorded in flags.
DECREASE_TOL = 1e-9
# A qualifying subspace whose projected norm is at or below this is
# reported empty: the escape step length is proportional to that norm.
PROJ_NORM_FLOOR = 1e-10
# Consecutive trigger-free iterations needed before a terminal stop.
QUIET_WINDOW = 3
# Default of OptimizerConfig.sampler_constant (B in Q = B * n^1.5).
SAMPLER_CONSTANT = 8.0
# Gaussian draws sample_direction makes before it raises SamplerBudgetError.
MAX_SAMPLER_DRAWS = 200
# Keys of a trace row's flags, in row and file order.  'trigger' is
# status; the other three are the per-step decrease assertions.
FLAG_KEYS = ("cubic_decrease", "step_vs_mu", "trigger", "third_decrease")


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
    sampler_constant: float = SAMPLER_CONSTANT
    max_iters: int = 100
    seed: int = 0
    tol_mu: float = 1e-6

    def __post_init__(self):
        for name in ("hess_lipschitz", "third_lipschitz", "sampler_constant", "tol_mu"):
            check_positive(name, getattr(self, name))
        _check_count("max_iters", self.max_iters, 1)
        _check_count("seed", self.seed, 0)

    def approx_factor(self, dim: int) -> float:
        return _approx_factor(self.sampler_constant, dim)


def _approx_factor(sampler_constant: float, dim: int) -> float:
    """Q = B * n^1.5: the sampler's and escape step's approximation factor."""
    return sampler_constant * dim**1.5


def _trigger_threshold(q: float, grad_norm: float, third_lipschitz: float) -> float:
    """Projected norm at which an escape step fires: q * (24 ||grad|| L3)^(1/3)."""
    return q * (24.0 * grad_norm * third_lipschitz) ** (1.0 / 3.0)


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


def escape_subspace(decomp: EigenDecomp, third: SymTensor3, third_lipschitz: float,
                    approx_factor: float) -> EscapeSubspace:
    """Largest trailing eigensubspace where the third derivative dominates.

    ``decomp`` is the Hessian's :class:`EigenDecomp`.  Rotating the tensor
    into its eigenbasis makes the projected Frobenius norm of every suffix
    a plain trailing-block norm, so all n candidates cost one rotation plus
    slicing.  A subspace whose qualifying projected norm is at or below
    ``PROJ_NORM_FLOOR`` is reported empty: the step length would be
    proportional to that norm, so such subspaces cannot produce progress.

    Suffixes whose eigenvalue exceeds 2 ||T||_F^2 / (12 * third_lipschitz
    * approx_factor^2) cannot qualify: each suffix's projected squared
    norm is at most ||T||_F^2.  The walk starts after them, and when
    lambda_min exceeds that bound the empty subspace is returned without
    the rotation.  Either way the result is the full walk's.  The
    returned suffix's columns are checked for orthonormality, as a
    hand-built ``decomp`` need not have it.  Raises ValueError on a
    non-finite eigenvalue, eigenvector or tensor entry, which the walk
    would read as a suffix that does not qualify, and on a tensor whose
    squared norm overflows.
    """
    check_positive("third_lipschitz", third_lipschitz)
    check_positive("approx_factor", approx_factor)
    if not _finite_decomp(decomp):
        raise ValueError("hessian spectrum has non-finite entries")
    esc = _escape_search(decomp, third, _curvature_denom(third_lipschitz, approx_factor))
    return EscapeSubspace(Subspace(decomp.dim, esc.subspace.basis), esc.proj_norm,
                          esc.curvature_bound, esc.suffix_index)


def _curvature_denom(third_lipschitz: float, approx_factor: float) -> float:
    """12 * third_lipschitz * approx_factor^2: a suffix qualifies when lambda_i <= c^2 / this."""
    return 12.0 * third_lipschitz * approx_factor**2


@functools.lru_cache(maxsize=None)
def _no_subspace(n: int) -> EscapeSubspace:
    """The empty escape subspace in R^n, one object per n."""
    return EscapeSubspace(Subspace.empty(n), 0.0, 0.0, None)


def _escape_search(decomp: EigenDecomp, third: SymTensor3, denom: float) -> EscapeSubspace:
    """:func:`escape_subspace` with its constants checked and folded into ``denom``.

    The suffix it returns wraps ``eig_sym``'s columns unchecked, and an
    empty result is ``_no_subspace(n)``, shared by every search.  A
    tensor with a NaN or an infinity, or whose squared norm overflows,
    raises ValueError here, with no numpy warning first, so ``minimize``
    refuses it as ``escape_subspace`` does.
    """
    n = decomp.dim
    if third.dim != n:
        raise ValueError(f"tensor dim {third.dim} does not match matrix dim {n}")
    # The spectral bound (module docstring), in Python floats so that it
    # cannot warn where the walk would not; lambda_min first, as it
    # settles most searches at small n.
    cap = 2.0 * float(_vdot(third.entries, third.entries))
    # A NaN would fail every suffix's test and read as no subspace
    if not math.isfinite(cap):
        raise ValueError("third derivative has non-finite entries or its squared norm overflows")
    scale = float(denom)
    if not n or float(decomp.eigenvalues[-1]) * scale > cap:
        return _no_subspace(n)
    eigenvalues = decomp.eigenvalues.tolist()
    start = 0
    while eigenvalues[start] * scale > cap:
        start += 1
    rotated_sq = third.transform(decomp.eigenvectors).entries ** 2
    for i in range(start, n):
        proj_sq = float(rotated_sq[i:, i:, i:].sum())
        bound = proj_sq / denom
        if eigenvalues[i] <= bound:
            proj_norm = math.sqrt(proj_sq)
            if proj_norm <= PROJ_NORM_FLOOR:
                break
            return EscapeSubspace(
                subspace=Subspace._trusted(n, decomp.eigenvectors[:, i:]),
                proj_norm=proj_norm,
                curvature_bound=bound,
                suffix_index=i,
            )
    return _no_subspace(n)


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
    threshold: float,
    rng: np.random.Generator,
) -> DirectionSample:
    """Draw a unit direction u in the subspace with |T(u, u, u)| >= threshold.

    Gaussian directions are rejected until the cubic form reaches the
    threshold; the sign is flipped so the contraction comes back
    positive.  An escape step passes c / (sampler_constant * n^1.5), c
    being the projected norm that also sets its step length; there the
    acceptance probability is dimension-independent up to a constant.
    After ``MAX_SAMPLER_DRAWS`` rejections, certain when the tensor
    vanishes on the subspace, it raises :class:`SamplerBudgetError`.  A
    cubic form that is NaN or infinite raises ValueError at once.
    """
    check_positive("threshold", threshold)
    if subspace.is_empty:
        raise ValueError("cannot sample a direction from an empty subspace")
    for draw in range(1, MAX_SAMPLER_DRAWS + 1):
        coeffs = rng.standard_normal(subspace.rank)
        u = _matmul(subspace.basis, coeffs)
        norm = _norm(u)
        if norm == 0.0:
            continue
        u /= norm
        t = third.trilinear(u, u, u)
        # written so that a NaN, which would fail every draw, stops here too
        if not abs(t) < threshold:
            if not math.isfinite(t):
                raise ValueError(f"cubic form is {t} at a sampled direction: the tensor "
                                 "has non-finite entries or overflows")
            return DirectionSample(direction=u if t > 0 else -u, draws=draw)
    raise SamplerBudgetError(MAX_SAMPLER_DRAWS, threshold)


class _ReadOnlyFlags(dict):
    """A dict that refuses every mutator, so a trace's verdict cannot be edited.

    It keeps dict's ``repr``, JSON and ``==``; copies, deep copies and
    pickles rebuild it from a plain dict.
    """

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("trace flags are read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


@dataclass(frozen=True)
class IterationRecord:
    """One trace row; phase is 'cubic', 'third', or 'terminal'.

    ``grad_norm`` and ``stationarity`` always refer to the post-cubic
    point of the iteration, including on 'third' rows, where ``value`` is
    the objective after the escape step.  ``flags`` maps each of
    ``FLAG_KEYS`` to its outcome on this row (None where not applicable);
    it is a read-only copy of the mapping the row was built from, or that
    mapping itself where it is read-only already.
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

    def __post_init__(self):
        if not isinstance(self.flags, _ReadOnlyFlags):
            object.__setattr__(self, "flags", _ReadOnlyFlags(self.flags))


@dataclass(frozen=True)
class Trace:
    """Full record of one optimizer run.

    ``reason`` is 'terminal' when the quiet-window stop fired and
    'budget' when ``max_iters`` ran out.  Both points are read-only copies.
    """

    dim: int
    config: OptimizerConfig
    approx_factor: float
    initial_point: np.ndarray
    initial_value: float
    records: tuple
    final_point: np.ndarray
    final_value: float
    reason: str

    def __post_init__(self):
        for name in ("initial_point", "final_point"):
            point = np.array(getattr(self, name), dtype=float)
            point.flags.writeable = False
            object.__setattr__(self, name, point)

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
        return all(r.flags.get(k) is not False
                   for r in self.records for k in FLAG_KEYS if k != "trigger")


# Trace-file key of each IterationRecord field, in field (and file) order.
_JSON_KEYS = dict(iteration="iter", phase="phase", value="f", grad_norm="grad_norm",
                  stationarity="mu", proj_norm="c_q", subspace_dim="subspace_dim",
                  step_norm="step_norm", flags="flags")


def dump_records(records) -> str:
    """JSONL text of trace rows, one compact object per line."""
    lines = []
    for rec in records:
        obj = {key: getattr(rec, name) for name, key in _JSON_KEYS.items()}
        obj["flags"] = {k: rec.flags.get(k) for k in FLAG_KEYS}
        lines.append(json.dumps(obj, separators=(",", ":")) + "\n")
    return "".join(lines)


def write_trace(trace: Trace, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(dump_records(trace.records))


def read_records(path) -> tuple:
    """Parse a JSONL trace file back into rows; inverse of :func:`dump_records`."""
    with open(path) as fh:
        objs = [json.loads(line) for line in fh if line.strip()]
    return tuple(IterationRecord(**{name: obj[key] for name, key in _JSON_KEYS.items()})
                 for obj in objs)


# A row's flags before its outcomes are set
_NO_FLAGS = dict.fromkeys(FLAG_KEYS)


def _row(shared: dict, phase: str, value: float, step_norm: float, **flags) -> IterationRecord:
    """A row of :func:`minimize`; ``shared`` holds the iteration's post-cubic fields."""
    return IterationRecord(phase=phase, value=value, step_norm=step_norm,
                           flags=_ReadOnlyFlags(_NO_FLAGS, **flags), **shared)


def _point_model(objective: Objective, x: np.ndarray, order: int, reg: float) -> _LocalModel:
    """The checked local model at x: one bundle, one eig_sym, one input check and norm."""
    b = objective.bundle(x, order)
    return _model_inputs(b.grad, eig_sym(b.hess), reg, b)


def minimize(objective: Objective, x0, config: OptimizerConfig) -> Trace:
    """Run the alternating cubic / third-order loop from ``x0``.

    Each iteration takes a cubic step to z, measures the gradient there,
    and fires an escape step when the chosen subspace's projected norm
    reaches ``approx_factor * (24 * ||grad(z)|| * L_3)^(1/3)``; otherwise
    the iterate stays at z.  The run stops early once the stationarity
    measure is at most ``tol_mu`` and no trigger has fired for
    ``QUIET_WINDOW`` consecutive iterations; a 'terminal' row closes the
    trace.  Identical config and seed reproduce the trace bit for bit.

    Each distinct point (x0, every post-cubic z, every post-escape x)
    gets one local model from ``_point_model``: its bundle, one
    ``eig_sym``, and the checks of ``cubic._model_inputs`` with one
    gradient norm.  The step from the point, its stationarity, its
    escape subspace and its trace row all read that model, so a
    non-finite gradient, spectrum or third derivative fails at the point
    where it appears.  The step is ``cubic._solve_step``'s: its radius
    and certificate, without the model value, which no row records.
    The escape constants are checked once per run.  The sampler's
    generator, ``np.random.default_rng(config.seed)``, is seeded when
    the first escape step fires, so a run without one seeds none; nothing
    draws from it before then, so its stream is the one a generator
    seeded at the start would give.
    """
    n = objective.dim
    x0 = x = as_point(x0, n)
    rng = None
    q = config.approx_factor(n)
    reg = config.hess_lipschitz
    lip3 = config.third_lipschitz

    # The model at x: an order-2 bundle at x0 and after each escape step,
    # else the post-cubic point's model, carried.
    m_x = _point_model(objective, x, 2, reg)
    check_positive("third_lipschitz", lip3)
    check_positive("approx_factor", q)
    denom = _curvature_denom(lip3, q)
    initial_value = m_x.bundle.value
    records = []
    reason = "budget"
    quiet = 0

    for it in range(config.max_iters):
        step, radius, _, _ = _solve_step(m_x)
        z = x + step
        m_z = _point_model(objective, z, 3, reg)
        b_z = m_z.bundle
        grad_norm = m_z.grad_norm
        mu = _stationarity(m_z)
        esc = _escape_search(m_z.decomp, b_z.third, denom)

        cubic_ok = bool(b_z.value <= m_x.bundle.value - reg * radius**3 / 12.0 + DECREASE_TOL)
        mu_ok = bool(radius >= mu - DECREASE_TOL)
        trigger = bool((not esc.is_empty)
                       and esc.proj_norm >= _trigger_threshold(q, grad_norm, lip3))

        shared = dict(iteration=it, grad_norm=grad_norm, stationarity=mu,
                      proj_norm=esc.proj_norm, subspace_dim=esc.subspace.rank)
        records.append(_row(shared, "cubic", b_z.value, radius,
                            cubic_decrease=cubic_ok, step_vs_mu=mu_ok, trigger=trigger))

        if trigger:
            if rng is None:
                rng = np.random.default_rng(config.seed)
            sample = sample_direction(b_z.third, esc.subspace, esc.proj_norm / q, rng)
            x = z - esc.proj_norm / (lip3 * q) * sample.direction
            m_x = _point_model(objective, x, 2, reg)
            promised = esc.proj_norm**4 / (24.0 * lip3**3 * q**4)
            third_ok = bool(m_x.bundle.value <= b_z.value - promised + DECREASE_TOL)
            records.append(_row(shared, "third", m_x.bundle.value, _norm(x - z),
                                trigger=True, third_decrease=third_ok))
            quiet = 0
        else:
            x, m_x = z, m_z
            quiet += 1

        if mu <= config.tol_mu and quiet >= QUIET_WINDOW:
            records.append(_row(shared, "terminal", m_x.bundle.value, 0.0))
            reason = "terminal"
            break

    return Trace(dim=n, config=config, approx_factor=q, initial_point=x0,
                 initial_value=initial_value, records=tuple(records), final_point=x,
                 final_value=m_x.bundle.value, reason=reason)


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
    if not math.isfinite(lower_bound):
        raise ValueError(f"lower_bound must be finite, got {lower_bound}")
    gap = max(trace.initial_value - lower_bound, 0.0)
    reg = trace.config.hess_lipschitz
    lip3 = trace.config.third_lipschitz
    q = trace.approx_factor
    mu_bound = (12.0 * gap / (reg * t)) ** (1.0 / 3.0)
    static_proj = q * (24.0 * lip3**3 * gap / t) ** 0.25
    qualifying = []
    for rec in trace.cubic_records():
        proj_bound = max(_trigger_threshold(q, rec.grad_norm, lip3), static_proj)
        if rec.stationarity <= mu_bound and rec.proj_norm <= proj_bound:
            qualifying.append(rec.iteration)
    return RateReport(
        mu_bound=mu_bound,
        static_proj_bound=static_proj,
        qualifying=tuple(qualifying),
        satisfied=bool(qualifying),
    )
