"""Pathwise local-time estimation at fixed space levels.

Two estimators are provided.  The occupation estimator counts the time the
linear interpolant of the path spends in a band of half-width ``eps``
around the level, against the clock that stops at absorption: step weights
are the full grid step strictly before the absorption time, the fractional
remainder on the straddling step, and zero afterwards (so the absorbed tail
never accrues occupancy, even at the pin level itself).  Counting the
interpolant rather than a grid endpoint catches fast within-step crossings,
which keeps the bias small at a narrow band of ``0.25 * sqrt(dt)``.  The
discrete Tanaka estimator telescopes the driving semimartingale identity
with the left-continuous sign convention ``sgn(0) = -1`` and is clipped to
its running maximum, since local time is an increasing process while the
discrete sum is noisy and can dip; it is the independent cross-check of
the occupation estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LocalTimeCurve",
    "occupation_local_time",
    "tanaka_local_time",
    "occupation_increments",
    "occupation_formula_check",
    "default_bandwidth",
    "save_curve_csv",
]

#: Bandwidth constant: eps = c * sqrt(dt).  The interpolant counts
#: within-step crossings exactly, so the band can be narrow, which keeps the
#: order-eps end effect at absorption small.
BANDWIDTH_CONSTANT = 0.25


def default_bandwidth(dt):
    return BANDWIDTH_CONSTANT * math.sqrt(dt)


@dataclass(eq=False)
class LocalTimeCurve:
    """Estimated local time at one level: nondecreasing, zero at the
    origin, constant after absorption."""

    level: float
    times: np.ndarray
    values: np.ndarray
    estimator_kind: str
    bandwidth: float | None = None


def _step_weights(taus, dt, n_steps):
    """Per-step clock weights: dt strictly before the length, the fractional
    remainder on the straddling step, zero after.  Vectorized over paths."""
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    w = taus[:, None] - dt * np.arange(n_steps)[None, :]
    return np.clip(w, 0.0, dt, out=w)


def occupation_increments(values, taus, dt, level, eps):
    """Band-occupancy increments per step, scaled to local-time units;
    ``values`` has one row per path.

    A step counts the fraction of its linear interpolant inside the band,
    ``|d clip(x, level - eps, level + eps)| / |dx|`` (a flat step counts
    whether it sits in the band), times its clock weight, over ``2 eps``.
    The work is done in place on two blocks: the increments, and the
    clipped path, whose buffer then holds the step lengths.
    """
    values = np.atleast_2d(values)
    x0 = values[:, :-1]
    clipped = np.clip(values, level - eps, level + eps)
    inc = clipped[:, 1:] - clipped[:, :-1]
    np.abs(inc, out=inc)
    span = np.subtract(values[:, 1:], x0, out=clipped[:, 1:])  # clipped is spent
    np.abs(span, out=span)
    flat = span == 0.0
    np.divide(inc, span, out=inc, where=~flat)
    del clipped, span
    w = _step_weights(taus, dt, values.shape[1] - 1)
    flat &= w > 0.0  # the absorbed tail is flat and weighs nothing either way
    inc[flat] = np.abs(x0[flat] - level) <= eps
    inc *= w
    inc /= 2.0 * eps
    return inc


def occupation_local_time(path, level, eps=None):
    """Occupation-density estimate of the local time at ``level``."""
    if eps is None:
        eps = default_bandwidth(path.dt)
    if eps <= 0.0:
        raise ValueError("bandwidth must be positive")
    inc = occupation_increments(path.values[None, :], [path.tau], path.dt, level, eps)[0]
    values = np.concatenate(([0.0], np.cumsum(inc)))
    return LocalTimeCurve(level=float(level), times=path.times, values=values,
                          estimator_kind="occupation", bandwidth=float(eps))


def tanaka_increments(values, taus, dt, level):
    """Discrete Tanaka increments (before monotone clipping), one row per
    path: d|X - a| minus the sign-weighted increments, with sgn(0) = -1."""
    values = np.atleast_2d(values)
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    sgn = np.where(values[:, :-1] > level, 1.0, -1.0)
    dx = np.diff(values, axis=1)
    # Post-absorption increments vanish, so the time restriction is
    # automatic except for numerically frozen lanes; mask them anyway.
    n_steps = values.shape[1] - 1
    t_left = dt * np.arange(n_steps)[None, :]
    alive = t_left < taus[:, None]
    d_abs = np.diff(np.abs(values - level), axis=1)
    return d_abs - np.where(alive, sgn * dx, 0.0)


def tanaka_local_time(path, level):
    """Discrete Tanaka estimate at ``level``, clipped to its running
    maximum to restore monotonicity."""
    inc = tanaka_increments(path.values[None, :], [path.tau], path.dt, level)[0]
    raw = np.concatenate(([0.0], np.cumsum(inc)))
    values = np.maximum.accumulate(raw)
    return LocalTimeCurve(level=float(level), times=path.times, values=values,
                          estimator_kind="tanaka")


def save_curve_csv(curve, fp):
    """Write ``t, L`` rows for one local-time curve."""
    data = np.column_stack([curve.times, curve.values])
    np.savetxt(fp, data, delimiter=",", header="t,L", comments="", fmt="%.12g")


def occupation_formula_check(path, g, t, eps=None, n_levels=201):
    """Both sides of the occupation identity up to ``t``: the stopped time
    integral of ``g`` along the path versus the space integral of ``g``
    against the estimated local-time profile.

    Returns the pair (time side, space side); they agree within estimator
    tolerance for continuous ``g``.
    """
    if eps is None:
        eps = default_bandwidth(path.dt)
    n_steps = len(path.values) - 1
    k = min(int(math.floor(t / path.dt + 1e-12)), n_steps)
    w = _step_weights([min(path.tau, t)], path.dt, n_steps)[0]
    time_side = float(np.sum(w[:k] * g(path.values[:k])))

    lo = float(np.min(path.values)) - 3 * eps
    hi = float(np.max(path.values)) + 3 * eps
    levels = np.linspace(lo, hi, n_levels)
    profile = np.array([occupation_increments(path.values[None, :k + 1], [min(path.tau, t)],
                                              path.dt, z, eps).sum() for z in levels])
    space_side = float(np.trapezoid(g(levels) * profile, levels))
    return time_side, space_side
