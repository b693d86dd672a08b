"""Escaping a degenerate saddle that defeats second-order methods.

At the origin of the confined monkey saddle the gradient and Hessian
vanish, so cubic regularization alone never moves.  The full loop finds
the low-curvature subspace where the third derivative is large, samples
a descent direction in it, and reaches the global minimum.
"""

import numpy as np

from thirdopt import corpus, eig_sym, minimize, solve_cubic_model
from thirdopt.bench import confined_monkey_config, quartic_1d_config


def regularized_step(objective, x, reg):
    """x plus the global minimizer of the cubic-regularized model at x."""
    b = objective.bundle(x, 2)
    return x + solve_cubic_model(b.grad, eig_sym(b.hess), reg).step


confined = corpus("monkey_saddle_confined")
cfg = confined_monkey_config(max_iters=50)
print("objective:", confined)
print("constants: hessian lipschitz %.2f, third lipschitz %.2f"
      % (cfg.hess_lipschitz, cfg.third_lipschitz))

print()
print("Cubic-only baseline from (0,0): 20 steps")
x = np.zeros(2)
for _ in range(20):
    x = regularized_step(confined, x, cfg.hess_lipschitz)
print("  still at", x, " -> a second-order method is stuck forever")

print()
print("Full loop from (0,0):")
trace = minimize(confined, np.zeros(2), cfg)
print(f"  {'it':>3s} {'phase':8s} {'f':>13s} {'grad':>9s} {'mu':>9s} "
      f"{'proj_norm':>9s} {'dim':>3s} {'step':>9s}")
for rec in trace.records[:8] + trace.records[-3:]:
    print(f"  {rec.iteration:3d} {rec.phase:8s} {rec.value:13.6e} {rec.grad_norm:9.2e} "
          f"{rec.stationarity:9.2e} {rec.proj_norm:9.2e} {rec.subspace_dim:3d} "
          f"{rec.step_norm:9.2e}")
print("  ...")
print("  reason:", trace.reason, " iterations:", trace.iterations,
      " third-order steps:", len(trace.third_records()))
print("  final point:", trace.final_point, " final f:", trace.final_value)
print("  (the escape step at iteration 0 is what a second-order method lacks)")

print()
print("A local minimum the loop escapes anyway: x^2 - 100x^3 + x^4 at 0")
quartic = corpus("quartic_1d")
print("  at x=0 the hessian is +2, a genuine local minimum,")
print("  but the third derivative -600 dwarfs it.")
qtrace = minimize(quartic, np.zeros(1), quartic_1d_config())
first_third = qtrace.third_records()[0]
print("  escape step length:", first_third.step_norm, "->  f", first_third.value)
print("  final x:", qtrace.final_point[0], " final f:", qtrace.final_value)
print("  (local minima with huge third derivatives are not fixed points)")
