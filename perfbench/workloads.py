"""The benchmark's workloads: seeded inputs, the ops that run on them, and each op's output check.

Every op calls only names from ``thirdopt.__all__`` plus ``thirdopt.bench.run_suite``
and ``thirdopt.bench.ALL_SUITES``, so the benchmark measures the library from outside.
A workload's inputs depend only on its seed.  An op's ``run`` returns its raw
outputs and is what the benchmark times; its ``check`` turns them into the canonical
text hashed into the run's ``output_digest``, the reason the output check failed
(``None`` when it passed) and the per-step decrease flags its traces set to ``False``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

import thirdopt as to
from thirdopt import bench

DECREASE_FLAGS = ("cubic_decrease", "step_vs_mu", "third_decrease")


@dataclass(frozen=True)
class OpResult:
    record: str
    failure: Optional[str]
    flag_violations: tuple = ()


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], OpResult]


def _trace_text(trace) -> str:
    rows = [repr(tuple(getattr(r, f.name) for f in fields(r))) for r in trace.records]
    return "\n".join(
        rows + [f"reason={trace.reason} final_f={trace.final_value!r} "
                f"final_x={[float(v) for v in trace.final_point]!r}"]
    )


def _flag_violations(trace) -> tuple:
    return tuple(sorted({k for r in trace.records for k in DECREASE_FLAGS
                         if r.flags.get(k) is False}))


def _report_text(report) -> str:
    return repr((report.grad_norm, report.min_eig, report.null_dim,
                 report.third_residual, report.verdict.value))


def matched_tolerances(config, dim: int) -> "to.ConditionTolerances":
    """Checker tolerances implied by the optimizer's own stopping rule.

    A terminal point has stationarity <= tol_mu, so ||g|| <= reg tol_mu^2 and
    lambda_min >= -1.5 reg tol_mu; no escape fired for the last iterations, so the
    projected third derivative stayed below the trigger q (24 ||g|| L3)^(1/3).
    """
    reg, lip3, mu = config.hess_lipschitz, config.third_lipschitz, config.tol_mu
    grad_tol = reg * mu * mu
    return to.ConditionTolerances(
        grad=grad_tol,
        eig=1.5 * reg * mu,
        third=config.approx_factor(dim) * (24.0 * grad_tol * lip3) ** (1.0 / 3.0),
    )


# -- corpus_2d -----------------------------------------------------------------

CORPUS_2D_MEMBERS = ("monkey_saddle_confined", "wine_bottle", "inverted_wine_bottle",
                     "quartic_plus_sixth", "quartic_1d")
# Starts lie in the unit ball.  The 2-D members' sublevel sets of every such
# start lie inside radius 1.6, so radius 2 contains their runs; quartic_1d
# descends to x ~ 75 with steps shorter than 25 (the suites' own radius).
BOUND_RADIUS = {"quartic_1d": 125.0}
DEFAULT_BOUND_RADIUS = 2.0
RANDOM_STARTS = 39
CORPUS_MAX_ITERS = 100


def _unit_ball(rng: np.random.Generator, dim: int) -> np.ndarray:
    d = rng.standard_normal(dim)
    return d / np.linalg.norm(d) * rng.random() ** (1.0 / dim)


def corpus_2d_ops(seed: int) -> list:
    rng = np.random.default_rng(seed)
    members = []
    for name in CORPUS_2D_MEMBERS:
        poly = to.corpus(name)
        radius = BOUND_RADIUS.get(name, DEFAULT_BOUND_RADIUS)
        b = to.smoothness_bounds(poly, radius)
        cfg = to.OptimizerConfig(b.hess_lipschitz, b.third_lipschitz,
                                 max_iters=CORPUS_MAX_ITERS, seed=seed)
        members.append((name, poly, radius, cfg, matched_tolerances(cfg, poly.dim)))
    ops = []
    for k in range(RANDOM_STARTS + 1):
        for name, poly, radius, cfg, tols in members:
            x0 = np.zeros(poly.dim) if k == 0 else _unit_ball(rng, poly.dim)
            ops.append(Op(f"{name}/start{k}", *_corpus_op(poly, x0, radius, cfg, tols)))
    return ops


def _corpus_op(poly, x0, radius, cfg, tols):
    def run():
        trace = to.minimize(poly, x0, cfg)
        return trace, to.check_third_order(poly, trace.final_point, tols)

    def check(outputs) -> OpResult:
        trace, report = outputs
        f = trace.final_value
        failure = None
        if not math.isfinite(f) or f > trace.initial_value:
            failure = f"final f {f!r} is not finite or exceeds initial f {trace.initial_value!r}"
        elif np.linalg.norm(trace.final_point) > radius:
            failure = f"final point left the radius-{radius} ball the bounds hold on"
        elif trace.reason == "terminal" and not report.holds:
            failure = f"terminal point fails the matched check: {report.verdict.value}"
        return OpResult(_trace_text(trace) + "\n" + _report_text(report), failure,
                        _flag_violations(trace))
    return run, check


# -- degenerate_nd -------------------------------------------------------------

# Polynomials per dimension.  More at n = 10 puts the median op among the
# n = 10 ones instead of on the boundary between the two sizes.
DEGENERATE_POLYS = {6: 15, 10: 25}
DEGENERATE_MAX_ITERS = 10


def sparse_cubic_plus_quartic(rng: np.random.Generator, n: int) -> "to.Polynomial":
    """A homogeneous cubic with 2n distinct seeded terms, plus ||x||^4.

    The origin then has zero gradient, zero Hessian and a nonzero third derivative.
    """
    exps = set()
    while len(exps) < 2 * n:
        e = [0] * n
        for i in rng.integers(0, n, size=3):
            e[i] += 1
        exps.add(tuple(e))
    cubic = to.Polynomial(n, [(float(rng.standard_normal()), e) for e in sorted(exps)])
    r2 = to.Polynomial(n, [(1.0, tuple(2 * (j == i) for j in range(n))) for i in range(n)])
    return cubic + r2 * r2


def degenerate_nd_ops(seed: int) -> list:
    rng = np.random.default_rng(seed)
    ops = []
    for n, count in DEGENERATE_POLYS.items():
        for k in range(count):
            poly = sparse_cubic_plus_quartic(rng, n)
            # f <= 0 only where ||x|| <= max |c(u)| over unit u <= ||D^3 f(0)||_F / 6,
            # and every iterate after the first escape has f < 0; radius twice
            # that contains the run.
            zero = np.zeros(n)
            radius = max(1.0, poly.bundle(zero, 3).third.frobenius_norm() / 3.0)
            b = to.smoothness_bounds(poly, radius)
            cfg = to.OptimizerConfig(b.hess_lipschitz, b.third_lipschitz,
                                     max_iters=DEGENERATE_MAX_ITERS, seed=seed)
            ops.append(Op(f"n{n}/poly{k}", *_degenerate_op(poly, radius, cfg, seed)))
    return ops


def _degenerate_op(poly, radius, cfg, seed):
    n = poly.dim
    zero = np.zeros(n)
    tols = matched_tolerances(cfg, n)

    def run():
        at_zero = to.check_third_order(poly, zero)
        witness = to.descent_witness(poly, zero, at_zero, cfg.third_lipschitz, seed=seed)
        trace = to.minimize(poly, zero, cfg)
        return at_zero, witness, trace, to.check_third_order(poly, trace.final_point, tols)

    def check(outputs) -> OpResult:
        at_zero, w, trace, final = outputs
        record = "\n".join([
            _report_text(at_zero),
            "no witness" if w is None else
            repr((w.order, w.step, w.predicted_decrease, [float(v) for v in w.direction])),
            _trace_text(trace),
            _report_text(final),
        ])
        failure = None
        if at_zero.verdict is not to.Verdict.THIRD_ORDER_FAIL or w is None:
            failure = f"origin not refuted: {at_zero.verdict.value}"
        elif not (w.order == 3 and poly.value(zero) - poly.value(zero + w.step * w.direction)
                  >= 0.99 * w.predicted_decrease):
            failure = f"order-{w.order} witness did not reach its predicted decrease"
        elif not trace.final_value < 0.0:
            failure = f"final f {trace.final_value!r} is not below f(0) = 0"
        elif np.linalg.norm(trace.final_point) > radius:
            failure = f"final point left the radius-{radius} ball the bounds hold on"
        return OpResult(record, failure, _flag_violations(trace))
    return run, check


# -- suites --------------------------------------------------------------------


def suites_ops(seed: int) -> list:
    return [Op(name, _suite_run(name, seed), _check_rows) for name in bench.ALL_SUITES]


def _suite_run(name, seed):
    def run():
        return bench.run_suite(name, seed)
    return run


def _check_rows(rows) -> OpResult:
    record = "\n".join(f"{r.suite},{r.case},{int(r.passed)},{r.quantities_str()}" for r in rows)
    failed = [r.case for r in rows if not r.passed]
    return OpResult(record, f"rows failed: {failed[:5]}" if failed else None)


WORKLOADS = {
    "corpus_2d": corpus_2d_ops,
    "degenerate_nd": degenerate_nd_ops,
    "suites": suites_ops,
}
