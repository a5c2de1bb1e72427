"""Simulate pinned bridges with random length and check grid exactness.

The sampler evaluates the exact conditional Gaussian steps in closed form,
so the marginal at any grid time matches the closed-form bridge marginal.
Run:  python demos/01_paths_and_exactness.py
"""

import math

import numpy as np

from infobridge import (
    ExponentialLaw,
    ModelSpec,
    PinningLaw,
    UniformLaw,
    ks_test,
    quadratic_variation,
    save_path_csv,
    simulate_bridge_ensemble,
    simulate_ensemble,
)
from scipy.special import ndtr

model = ModelSpec(UniformLaw(0.5, 2.0), PinningLaw([-1.0, 1.0], [0.5, 0.5]))

print("== a few sample paths (t, value at absorption, pin) ==")
ens = simulate_ensemble(model, dt=1e-3, horizon=2.0, n_paths=2000, seed=1)
for i in range(5):
    p = ens.path(i)
    print(f"  path {i}: length={p.tau:.4f}  pin={p.z:+.0f}  "
          f"value at end={p.values[-1]:+.4f}")
save_path_csv(ens.path(0), "demo_path0.csv")
print("  first path written to demo_path0.csv")

print("\n== exactness: bridge marginal at mid-time vs closed form ==")
r, z, t = 1.0, 0.5, 0.5
bridge = simulate_bridge_ensemble(r, z, dt=1e-2, horizon=1.0, n_paths=10_000, seed=2)
col = bridge.values[:, 50]
mean, sd = t * z / r, math.sqrt(t * (r - t) / r)
d, p = ks_test(col, lambda v: ndtr((v - mean) / sd))
print(f"  KS against Normal({mean:.3f}, {sd ** 2:.3f}): D={d:.4f}, p={p:.3f}")

print("\n== quadratic variation tracks the stopped clock ==")
for t in (0.5, 1.0, 2.0):
    qv = np.mean([quadratic_variation(p, t) for p in ens])
    clock = np.mean(np.minimum(ens.taus, t))
    print(f"  t={t:4.1f}:  mean QV={qv:.4f}   mean clock={clock:.4f}")
