"""Certifying or refuting third-order optimality of given points.

The checker tests, within tolerances: zero gradient, positive
semidefinite Hessian, and a vanishing third derivative on the Hessian's
null space.  Failed points come with an executable descent witness.
"""

import numpy as np

from thirdopt import (
    CORPUS_NAMES,
    check_third_order,
    classify_hessian,
    corpus,
    descent_witness,
    eig_sym,
    smoothness_bounds,
)

print("Hessian classification at the corpus origins:")
for name in CORPUS_NAMES:
    poly = corpus(name)
    decomp = eig_sym(poly.bundle(np.zeros(poly.dim), 2).hess)
    print(f"  {name:24s} {classify_hessian(decomp).value}")

print()
print("Third-order condition reports at the origins:")
for name in CORPUS_NAMES:
    poly = corpus(name)
    r = check_third_order(poly, np.zeros(poly.dim))
    print(f"  {name:24s} grad {r.grad_norm:8.2e}  min_eig {r.min_eig:+9.2e}  "
          f"null_dim {r.null_dim}  third_res {r.third_residual:8.2e}  -> {r.verdict.value}")

print()
print("Two degenerate origins, opposite verdicts:")
print("  monkey saddle: null space is the whole plane and the third")
print("  derivative lives exactly there -> refuted.")
print("  x^2y + y^2: null direction e1, but the third derivative has no")
print("  mass on span{e1} -> certified (a third-order local minimum).")

print()
print("Descent witnesses for the refuted points:")
for name, point in (("monkey_saddle", np.zeros(2)),
                    ("wine_bottle", np.zeros(2)),
                    ("monkey_saddle", np.array([1.0, 1.0]))):
    poly = corpus(name)
    report = check_third_order(poly, point)
    lip3 = max(smoothness_bounds(poly, radius=2.0).third_lipschitz, 1.0)
    w = descent_witness(poly, point, report, third_lipschitz=lip3, seed=0)
    achieved = poly.value(point) - poly.value(point + w.step * w.direction)
    print(f"  {name:14s} at {point}: {report.verdict.value:16s} "
          f"order-{w.order} witness, step {w.step:.4f}, "
          f"predicted {w.predicted_decrease:.3e}, achieved {achieved:.3e}")
print("  every witness achieves at least its predicted decrease.")
