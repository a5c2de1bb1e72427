"""Filter the hidden (length, pin) pair from a partially observed path.

Watching one trajectory, print how the conditional pin weights and the
conditional survival curve sharpen as the observation time grows.
Run:  python demos/02_filtering.py
"""

import numpy as np

from infobridge import (
    ModelSpec,
    PinningLaw,
    UniformLaw,
    posterior,
    simulate_ensemble,
    survival_probability,
)

model = ModelSpec(UniformLaw(0.5, 2.0), PinningLaw([-1.0, 1.0], [0.4, 0.6]))
path = simulate_ensemble(model, dt=1e-3, horizon=2.0, n_paths=1, seed=11).path(0)
print(f"hidden truth: length={path.tau:.4f}, pin={path.z:+.0f}\n")

print("t      x       P(pin=-1)  P(pin=+1)  P(len>1.0)  P(len>1.5)")
for t in (0.05, 0.25, 0.5, 0.75, 1.0):
    k = int(round(t / path.dt))
    if k >= path.absorbed_index:
        print(f"{t:4.2f}  absorbed at pin {path.z:+.0f} (length {path.tau:.4f})")
        continue
    x = float(path.values[k])
    state = posterior(model, t, x)
    s10 = survival_probability(model, t, x, 1.0) if t <= 1.0 else float("nan")
    s15 = survival_probability(model, t, x, 1.5)
    print(f"{t:4.2f}  {x:+.3f}   {state.pin_probs[0]:.4f}     "
          f"{state.pin_probs[1]:.4f}     {s10:.4f}      {s15:.4f}")

print("\nconditional mean length via a user functional:")
state = posterior(model, 0.5, float(path.values[500]))
mean_len = state.expectation(lambda r, z: r)
print(f"  E[length | path up to 0.5] = {mean_len:.4f}")

print("\nsurvival curve at (t=0.5, x as observed) written to demo_survival.csv")
u = np.linspace(0.5, 2.0, 151)
surv = survival_probability(model, 0.5, float(path.values[500]), u)
np.savetxt("demo_survival.csv", np.column_stack([u, surv]),
           delimiter=",", header="u,probability", comments="")
