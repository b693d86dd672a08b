"""Anatomy of the cubic-regularized second-order step.

Solves the regularized model globally (including the hard case), shows
the per-step decrease guarantee, and demonstrates the stall at a
degenerate critical point that motivates third-order steps.
"""

import numpy as np

from thirdopt import corpus, eig_sym, solve_cubic_model, stationarity


def regularized_step(objective, x, reg):
    """x plus the global minimizer of the cubic-regularized model at x."""
    b = objective.bundle(x, 2)
    return x + solve_cubic_model(b.grad, eig_sym(b.hess), reg).step


print("Global minimizer of <g,s> + 1/2 s'Hs + (reg/6)||s||^3")
g = np.array([1.0, 0.5])
hess = np.array([[1.0, 0.2], [0.2, -2.0]])
reg = 1.5
sol = solve_cubic_model(g, eig_sym(hess), reg)
print("  g =", g, " eigenvalues of H =", np.linalg.eigvalsh(hess))
print("  step:", sol.step, " radius:", sol.radius, " model value:", sol.model_value)
residual = np.linalg.norm(g + hess @ sol.step + 0.5 * reg * sol.radius * sol.step)
print("  stationarity residual:", residual)
print("  psd margin lambda_min + reg*r/2:",
      np.linalg.eigvalsh(hess)[0] + 0.5 * reg * sol.radius)

print()
print("Hard case: gradient orthogonal to the most negative eigenvector")
sol = solve_cubic_model(np.array([1.0, 0.0]), eig_sym(np.diag([1.0, -2.0])), 1.0)
print("  step:", sol.step)
print("  the second component rides the bottom eigenvector out to the")
print("  floor radius 2|lambda_min|/reg =", sol.radius)

print()
print("Descent on the wine bottle ((x^2+y^2)-1)^2 with the guarantee checked:")
wine = corpus("wine_bottle")
reg = 40.0
x = np.array([1.6, 0.9])
for it in range(8):
    z = regularized_step(wine, x, reg)
    step = np.linalg.norm(z - x)
    promised = reg * step**3 / 12.0
    b_z = wine.bundle(z, 2)
    mu = stationarity(b_z.grad, eig_sym(b_z.hess), reg)
    print(f"  it {it}: f {wine.value(x):+.6f} -> {wine.value(z):+.6f}"
          f"  promised decrease {promised:.2e}  mu(z) {mu:.2e}")
    x = z
print("  radius converges to the gutter circle:", np.linalg.norm(x))

print()
print("The stall: confined monkey saddle at the origin")
confined = corpus("monkey_saddle_confined")
z = regularized_step(confined, np.zeros(2), reg)
print("  gradient and hessian vanish, so the model is minimized by s = 0")
print("  cubic step from (0,0):", z, " (does not move, forever)")
print("  -> escaping needs the third derivative; see demo 03.")
