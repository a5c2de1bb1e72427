"""Pathwise local-time estimation at fixed space levels.

Two estimators are provided.  The occupation estimator is the exact
conditional expectation of the local time given the grid values: between
two grid points the path is a Brownian bridge, and its expected local time
at a level has a closed form, so the estimator has no bandwidth.  It runs
against the clock that stops at absorption: step weights are the full grid
step strictly before the absorption time, the remainder on the straddling
step (a bridge from the last grid value to the pin over that remainder),
and zero afterwards, so the absorbed tail never accrues local time, even at
the pin level itself.  The discrete Tanaka estimator telescopes the driving
semimartingale identity with the left-continuous sign convention
``sgn(0) = -1`` and is clipped to its running maximum, since local time is
an increasing process while the discrete sum is noisy and can dip; it is
the independent cross-check of the occupation estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx

from .paths import _live_groups, _live_steps, _rows_within

__all__ = [
    "LocalTimeCurve",
    "occupation_local_time",
    "tanaka_local_time",
    "occupation_increments",
    "occupation_formula_check",
]

#: A step whose endpoints both lie more than this many sqrt(dt) from the
#: level, on one side, adds less than exp(-2 * 6**2) = exp(-72) times
#: sqrt(dt) and is skipped.
_SKIP_SIGMAS = 6.0
#: Steps per pass, or ladder values per A^h row group, so that temporaries
#: stay small while the next block of paths is drawn on a worker thread
#: (:func:`~infobridge.paths.iter_ensemble_chunks`).
_CELLS = 2 ** 16


@dataclass(eq=False)
class LocalTimeCurve:
    """Estimated local time at one level: nondecreasing, zero at the
    origin, constant after absorption."""

    level: float
    times: np.ndarray
    values: np.ndarray
    estimator_kind: str


def _checked_rows(values, taus, dt, level):
    """``values`` as rows and ``taus`` as a 1-d float array, checked as
    :func:`occupation_increments` says."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive: {dt}")
    if not math.isfinite(level):
        raise ValueError(f"the level must be finite: {level}")
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    if np.isnan(taus).any():
        raise ValueError("a path length is NaN")
    return np.atleast_2d(values), taus


def occupation_increments(values, taus, dt, level):
    """Expected local time at ``level`` of each step given its grid values;
    ``values`` has one row per path.

    A step of clock weight ``w`` from ``a`` to ``b`` (both measured from the
    level) is a Brownian bridge, whose expected local time is

        int_0^w p(s, a) p(w - s, b) ds / p(w, b - a)
            = erfcx(u) exp(-(ab + |ab|) / w) sqrt(pi w / 2),

    with ``u = (|a| + |b|) / sqrt(2 w)`` (Borodin and Salminen, *Handbook
    of Brownian Motion*).  The exponent is ``(d - u)(d + u)`` with
    ``d = (b - a) / sqrt(2 w)``, written without cancellation.  Only live
    steps are evaluated, and of these only the ones that come within
    ``6 sqrt(dt)`` of the level or cross it: they alone are gathered, by flat
    index, and weighted, with ``w = min(tau - dt k, dt)`` on the step from
    ``dt k``.  Rows go in groups over their live columns only, to one past the
    absorption index as a margin against rounding.  Raises ``ValueError``
    for a ``dt`` that is not finite and positive (NaN included), a ``level``
    that is not finite, or a NaN length; +inf, a path that never absorbs, is
    a valid length.
    """
    values, taus = _checked_rows(values, taus, dt, level)
    inc = np.zeros((len(values), values.shape[1] - 1))
    n_live = _live_steps(taus, dt, inc.shape[1])
    far = _SKIP_SIGMAS * math.sqrt(dt)
    for group, m in _live_groups(n_live, _rows_within(_CELLS, inc.shape[1] + 1)):
        x = values[group, :m + 1] - level
        side = (x > far).view(np.int8) - (x < -far).view(np.int8)  # -1, 0, +1
        skip = side[:, :-1] * side[:, 1:] == 1  # both ends far out on one side
        skip |= dt * np.arange(m) >= taus[group, None]
        kept = np.flatnonzero(~skip)
        row, k = np.divmod(kept, m)
        a = x.ravel()[kept + row]  # x has one column more than skip
        b = x.ravel()[kept + row + 1]
        wl = np.minimum(taus[group[row]] - dt * k, dt)
        u = (np.abs(a) + np.abs(b)) / np.sqrt(2.0 * wl)
        ab = a * b
        ab += np.abs(ab)
        with np.errstate(over="ignore"):  # a subnormal weight: exp(-inf) = 0
            inc.ravel()[group[row] * inc.shape[1] + k] = (
                erfcx(u) * np.exp(-ab / wl) * np.sqrt(0.5 * math.pi * wl))
    return inc


def occupation_local_time(path, level):
    """Occupation estimate of the local time at ``level``: the cumulative
    expected local time of the path given its grid values; ``ValueError``
    as :func:`occupation_increments` raises it."""
    inc = occupation_increments(path.values[None, :], [path.tau], path.dt, level)[0]
    values = np.concatenate(([0.0], np.cumsum(inc)))
    return LocalTimeCurve(level=float(level), times=path.times, values=values,
                          estimator_kind="occupation")


def tanaka_increments(values, taus, dt, level):
    """Discrete Tanaka increments (before monotone clipping), one row per
    path: d|X - a| minus the sign-weighted increments, with sgn(0) = -1;
    ``ValueError`` as :func:`occupation_increments` raises it."""
    values, taus = _checked_rows(values, taus, dt, level)
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
    maximum to restore monotonicity; ``ValueError`` as
    :func:`tanaka_increments` raises it."""
    inc = tanaka_increments(path.values[None, :], [path.tau], path.dt, level)[0]
    raw = np.concatenate(([0.0], np.cumsum(inc)))
    values = np.maximum.accumulate(raw)
    return LocalTimeCurve(level=float(level), times=path.times, values=values,
                          estimator_kind="tanaka")


def occupation_formula_check(path, g, t):
    """Both sides of the occupation identity up to ``t``: the stopped time
    integral of ``g`` along the path versus the trapezoid space integral of
    ``g`` against the estimated local-time profile at 201 levels.

    Returns the pair (time side, space side); they agree within estimator
    tolerance for continuous ``g``.
    """
    n_steps = len(path.values) - 1
    k = min(int(math.floor(t / path.dt + 1e-12)), n_steps)
    w = np.clip(min(path.tau, t) - path.dt * np.arange(n_steps), 0.0, path.dt)
    time_side = float(np.sum(w[:k] * g(path.values[:k])))

    reach = _SKIP_SIGMAS * math.sqrt(path.dt)  # the profile vanishes beyond
    lo = float(np.min(path.values)) - reach
    hi = float(np.max(path.values)) + reach
    levels = np.linspace(lo, hi, 201)
    profile = np.array([occupation_increments(path.values[None, :k + 1], [min(path.tau, t)],
                                              path.dt, z).sum() for z in levels])
    space_side = float(np.trapezoid(g(levels) * profile, levels))
    return time_side, space_side
