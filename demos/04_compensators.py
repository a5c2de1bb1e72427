"""The compensator identities, demonstrated by simulation.

The absorption indicator minus its compensator is a martingale, so the
mean compensator tracks the length CDF; the terminal compensator is
standard exponential; the resolvent approximation converges as its window
shrinks.  This is a condensed view of what the verification suite tests
with full statistics (infobridge verify).
Run:  python demos/04_compensators.py
"""

import math

import numpy as np

from infobridge import (
    ExponentialLaw,
    IntensityKernel,
    ModelSpec,
    PinningLaw,
    ks_test_exponential,
)
from infobridge.verify import compensator_products

model = ModelSpec(ExponentialLaw(1.0), PinningLaw([0.0], [1.0]))
dt, horizon, n = 1e-3, 9.211, 2000

print("== intensity kernel at the pin (single pin at the origin) ==")
kern = IntensityKernel(model, dt, horizon)
for s in (0.1, 0.5, 1.0, 3.0, 8.0):
    print(f"  s={s:4.1f}:  lambda(s)={float(kern(s)[0]):.4f}")
print("  (grows from 0 like sqrt(s), saturates near sqrt(2))")

print("\n== simulating", n, "paths and integrating the kernel against local time ==")
prod = compensator_products(model, dt, horizon, n, seed=4,
                            probe_times=(0.5, 1.0, 2.0))
for j, t in enumerate((0.5, 1.0, 2.0)):
    col = prod["K_probe"][:, j]
    se = col.std(ddof=1) / math.sqrt(n)
    print(f"  t={t:4.1f}:  mean K={col.mean():.4f} +- {se:.4f}   "
          f"length CDF={float(model.length.cdf(t)):.4f}")

k_inf = prod["K_term"]
print(f"\n== terminal compensator ==")
print(f"  mean={k_inf.mean():.4f} (exact: 1), variance={k_inf.var(ddof=1):.4f} (exact: 1)")
d, p = ks_test_exponential(k_inf[k_inf > 0])
print(f"  KS against the unit exponential: D={d:.4f}, p={p:.3f}")
for lam in (0.5, 1.0, 2.0):
    print(f"  E[exp(-{lam} K_inf)]={np.exp(-lam * k_inf).mean():.4f}   "
          f"1/(1+{lam})={1 / (1 + lam):.4f}")
