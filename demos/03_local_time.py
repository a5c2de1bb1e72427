"""Estimate pathwise local time and test the occupation identity.

The occupation estimator, the library's one estimator of local time, is
the exact conditional expectation of the local time given the grid
values: between two grid points the path is a Brownian bridge, whose
expected local time at a level has a closed form, so there is no bandwidth
to choose.  The discrete Tanaka estimator telescopes the semimartingale
identity and serves as an independent cross-check.  Both target the same
curve and agree as the grid refines.
Run:  python demos/03_local_time.py
"""

import math

import numpy as np

from infobridge import (
    ModelSpec,
    PinningLaw,
    UniformLaw,
    occupation_local_time,
    simulate_brownian_motion,
    simulate_ensemble,
    tanaka_local_time,
)
from infobridge.localtime import occupation_formula_check

model = ModelSpec(UniformLaw(0.5, 2.0), PinningLaw([-1.0, 1.0], [0.5, 0.5]))
path = simulate_ensemble(model, dt=1e-4, horizon=2.0, n_paths=1, seed=21).path(0)
print(f"path: length={path.tau:.4f}, pin={path.z:+.0f}")

print("\n== local time at the realized pin level ==")
occ = occupation_local_time(path, path.z)
tan = tanaka_local_time(path, path.z)
for t in (0.5, 1.0, 1.5, 2.0):
    k = int(round(t / path.dt))
    print(f"  t={t:4.1f}: occupation={occ.values[k]:.4f}  tanaka={tan.values[k]:.4f}")
print("  (constant after absorption even though the path sits on the pin)")

print("\n== Brownian sanity: mean local time at 0 and time 1 ==")
vals = [occupation_local_time(simulate_brownian_motion(1e-3, 1.0, rng=1000 + i),
                              0.0).values[-1] for i in range(400)]
print(f"  ensemble mean = {np.mean(vals):.4f}, "
      f"closed form sqrt(2/pi) = {math.sqrt(2 / math.pi):.4f}")

print("\n== occupation identity: time average equals space average ==")
for g, label in [(lambda x: np.ones_like(x), "g(x) = 1"),
                 (lambda x: x ** 2, "g(x) = x^2")]:
    t_side, x_side = occupation_formula_check(path, g, 2.0)
    print(f"  {label}:  time side={t_side:.4f}   space side={x_side:.4f}")
