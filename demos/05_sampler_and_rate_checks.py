"""Randomized direction sampling and the finite-budget rate envelope.

The escape direction comes from Gaussian rejection sampling with a
certified fraction of the projected tensor norm; this script measures
the draw counts and then checks the quality envelope on a full run.
"""

import numpy as np

from thirdopt import Subspace, SymTensor3, corpus, minimize, rate_report, sample_direction
from thirdopt.bench import GRID_MINIMA, confined_monkey_config

print("Sampler on 300 random symmetric 5-tensors (full space, constant 8):")
rng = np.random.default_rng(0)
n = 5
draws = []
worst_ratio = np.inf
for _ in range(300):
    tensor = SymTensor3(rng.standard_normal((n, n, n)))
    bound = tensor.frobenius_norm() / (8.0 * n**1.5)
    sample = sample_direction(tensor, Subspace.full(n), bound, rng)
    t = tensor.trilinear(sample.direction, sample.direction, sample.direction)
    draws.append(sample.draws)
    worst_ratio = min(worst_ratio, t / bound)
print(f"  mean draws {np.mean(draws):.3f}  max draws {max(draws)}")
print(f"  every accepted contraction >= bound (worst ratio {worst_ratio:.2f})")

print()
print("Guaranteed fraction on the monkey-saddle tensor (ambient dim 2):")
tensor = corpus("monkey_saddle").bundle(np.zeros(2), 3).third
bound = tensor.frobenius_norm() / (8.0 * 2**1.5)
sample = sample_direction(tensor, Subspace.full(2), bound, np.random.default_rng(7))
t = tensor.trilinear(sample.direction, sample.direction, sample.direction)
print(f"  bound {bound:.4f}, sampled contraction {t:.4f}, draws {sample.draws}")

print()
print("Rate envelope on a 100-iteration confined monkey saddle run:")
confined = corpus("monkey_saddle_confined")
trace = minimize(confined, np.zeros(2), confined_monkey_config(max_iters=100))
f_star = GRID_MINIMA["monkey_saddle_confined"]
report = rate_report(trace, f_star)
print(f"  lower bound from a 1001x1001 grid: {f_star:.8f}")
print(f"  stationarity bound (12 gap / (reg t))^(1/3): {report.mu_bound:.4f}")
print(f"  static projected-norm bound: {report.static_proj_bound:.4f}")
print(f"  satisfied: {report.satisfied}; qualifying iterations: "
      f"{report.qualifying[:6]}{'...' if len(report.qualifying) > 6 else ''}")
