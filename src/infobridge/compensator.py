"""Compensators of absorption built from local time at the pin levels.

The indicator of absorption, compensated, is a martingale; the compensator
is a Stieltjes integral of a per-pin intensity kernel against the local
time of the path at that pin level, stopped at absorption.  The kernel at
time ``s`` for pin ``k`` is

    lambda_k(s) = p_k * (f(s) / p(s, z_k))
                  / sum_i p_i int_s^inf (f(r) / p(r, z_i)) p(r - s, z_i - z_k) dr,

with ``f`` the length density and ``p(t, x)`` the centered Gaussian density
of variance ``t``.  Numerator and denominator separately overflow for small
``s``; the ratio is evaluated with the common exponential factor removed
analytically (see :mod:`.kernels`), so the computation is stable wherever
the value itself is representable.

The pin-value-weighted variant (compensating the pin value times the
absorption indicator) carries the path value inside the integrand.  Local
time at a level grows only where the path sits at that level, and so does
its expectation given the grid values, so the integrand of pin ``k``
carries the pin level ``z_k`` itself.

Every compensator is one reduction, :func:`compensator_rows`, over a block
of paths on one grid: the kernel is read once per grid at the step
midpoints (:func:`midpoint_kernel`) and summed against the per-pin
local-time increments of the block.  A single path is an ensemble of one:
:func:`compensator_K` and :func:`compensator_frak` return row 0 of a
one-row block, the pipeline's row of that path bit for bit.  Since local
time stops at absorption, a row is constant from one step past its
absorption index on, so the ensemble pipeline
(:func:`infobridge.verify.compensator_products`) holds one simulated block
at a time and reduces it in groups of rows, each over its live window only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from . import kernels, localtime

__all__ = [
    "CompensatorCurve",
    "IntensityKernel",
    "midpoint_kernel",
    "compensator_rows",
    "compensator_K",
    "compensator_frak",
    "meyer_approx_Ah",
    "band_integrand",
    "exp_martingale",
    "martingale_N",
    "martingale_M",
    "save_curve_csv",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(eq=False)
class CompensatorCurve:
    """Compensator evaluated on the path grid; nondecreasing for the plain
    kind, constant after absorption."""

    times: np.ndarray
    values: np.ndarray
    kind: str  # "plain" | "weighted"


def intensity_row(model, s):
    """Kernel values for all pins at one time, by direct quadrature."""
    law = model.length
    if not (0.0 < s < law.support_sup):
        raise ValueError("s must lie strictly inside the support of the length law")
    f = float(law.pdf(s))
    pts = model.pinning.points
    if f == 0.0:
        return np.zeros(len(pts))
    q, den = kernels._conditional(model, s, pts)
    expo = pts * pts / (2.0 * s) - q.scale  # >= 0 and O(grid spacing): stable
    return model.pinning.probs * f * _SQRT_2PI * math.sqrt(s) * np.exp(expo) / den


def _check_step(model, dt):
    """``ValueError`` unless the first step midpoint ``dt / 2``, where the
    kernel grid starts, lies below the support supremum of the length law."""
    if not dt / 2 < model.support_sup:
        raise ValueError(f"dt={dt} is too large: the first step midpoint dt/2 must lie "
                         f"below the support supremum {model.support_sup} of the length law")


class IntensityKernel:
    """Per-pin kernel tabulated in time with monotone cubic interpolation.

    The grid has 320 geometric nodes from ``dt / 2``, the first step
    midpoint, which must lie below the support supremum (``ValueError``
    naming ``dt`` otherwise).  With bounded support they run to
    ``sup - dt / 4`` and 80 more approach the support edge, where the kernel
    blows up like ``(sup - s)^(-1/2)``, and the tabulated quantity is the
    kernel times ``sqrt(sup - s)``, which stays bounded.  Every node lies in
    ``[dt / 2, sup)``: where ``sup <= 3 dt / 4``, so that ``dt / 2`` is the
    only step midpoint inside the support, the grid is ``dt / 2`` and the
    approach nodes above it.  Each node is one :func:`intensity_row`, by the
    checked tail rule.  Queries clamp to the tabulated range.
    """

    def __init__(self, model, dt, horizon):
        for name, value in (("dt", dt), ("horizon", horizon)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and strictly positive, got {value}")
        _check_step(model, dt)
        self.model = model
        sup = model.length.support_sup
        s_min = dt / 2
        self._edge = None
        if math.isfinite(sup):
            s_hi = sup - 0.25 * dt
            base = np.geomspace(s_min, s_hi, 320)
            approach = sup - np.geomspace(0.25 * dt, (sup - s_min) * 0.5, 80)
            grid = np.union1d(base, approach)
            grid = grid[grid >= s_min]  # both ladders run below it when sup <= 3 dt / 4
            self._edge = sup
        else:
            s_hi = max(horizon, 2 * s_min)
            grid = np.geomspace(s_min, s_hi, 320)
        for b in model.length.breakpoints:
            if s_min < b < s_hi:
                near = b * (1.0 + np.concatenate((-np.geomspace(1e-9, 0.2, 10),
                                                  np.geomspace(1e-9, 0.2, 10))))
                grid = np.union1d(grid, near[(near > s_min) & (near < s_hi)])
        self.s_grid = grid
        rows = np.stack([intensity_row(model, float(s)) for s in grid], axis=1)
        if self._edge is not None:
            rows = rows * np.sqrt(self._edge - grid)[None, :]
        self._spline = PchipInterpolator(grid, rows, axis=1, extrapolate=False)

    def __call__(self, s):
        """Kernel at times ``s`` (clamped to the grid), one row per pin;
        a NaN time raises ``ValueError``."""
        s = np.asarray(s, dtype=float)
        if np.isnan(s).any():
            raise ValueError("kernel read at a NaN time")
        sc = np.clip(s, self.s_grid[0], self.s_grid[-1])
        out = self._spline(sc)
        if self._edge is not None:
            out = out / np.sqrt(self._edge - sc)
        return np.maximum(out, 0.0)

    def max_rel_error(self, n_probe):
        """Tabulation error against direct quadrature at random interior
        times (the last 2 % before a divergent support edge are excluded,
        unless the grid starts there)."""
        rng = np.random.default_rng(0)
        hi = self.s_grid[-1] if self._edge is None else max(self._edge * 0.98, self.s_grid[0])
        s = np.exp(rng.uniform(math.log(self.s_grid[0]), math.log(hi), n_probe))
        direct = np.stack([intensity_row(self.model, float(si)) for si in s], axis=-1)
        return float(np.max(np.abs(self(s) - direct) / np.maximum(np.abs(direct), 1e-12)))


def midpoint_kernel(kernel, dt, n_steps):
    """Kernel at the step midpoints ``dt * (j + 1/2)`` of a grid of
    ``n_steps`` steps, one row per pin: read once per grid and shared by
    every path on it."""
    return np.atleast_2d(kernel(dt * (np.arange(n_steps) + 0.5)))


def compensator_rows(kernel_mid, d_locals, weights=None):
    """The Stieltjes reduction: cumulative sums of kernel times local-time
    increments over a block of paths, one row per path, zero at the origin.

    ``kernel_mid[k]`` is the kernel of pin ``k`` at the step midpoints (see
    :func:`midpoint_kernel`) and ``d_locals[k]`` the local-time increments
    at that pin, one row per path and one column per step.  Without
    ``weights`` the rows are the plain compensator; the weighted kind
    passes the pin levels, and ``weights[k]`` multiplies the integrand of
    pin ``k``.  Rows do not interact, so a path's row is the same, bit for
    bit, in any block that contains it.
    """
    n_paths, n_steps = d_locals[0].shape
    out = np.zeros((n_paths, n_steps + 1))
    inc = out[:, 1:]
    for k, d in enumerate(d_locals):
        row = kernel_mid[k] if weights is None else kernel_mid[k] * weights[k]
        if k == 0:
            np.multiply(d, row, out=inc)  # no block-sized temporary
        else:
            inc += d * row
    np.cumsum(inc, axis=1, out=inc)
    return out


def _one_path_row(model, path, kernel, weights=None):
    """A single path as an ensemble of one: row 0 of its one-row block."""
    d_locals = [localtime.occupation_increments(path.values[None, :], [path.tau], path.dt, z)
                for z in model.pinning.points]
    kernel_mid = midpoint_kernel(kernel, path.dt, path.n_steps)
    return compensator_rows(kernel_mid, d_locals, weights)[0]


def compensator_K(model, path, kernel):
    """Compensator of the absorption indicator along one path: the kernel at
    the step midpoints summed against the occupation increments of local
    time at the pins, flat after absorption.  It is the path's row of
    :func:`~infobridge.verify.compensator_products`, bit for bit."""
    values = _one_path_row(model, path, kernel)
    return CompensatorCurve(times=path.times, values=values, kind="plain")


def compensator_frak(model, path, kernel):
    """Compensator of (pin value times the absorption indicator) along one
    path, the pipeline's row bit for bit: the integrand of each pin carries
    its level, where local time grows."""
    values = _one_path_row(model, path, kernel, model.pinning.points)
    return CompensatorCurve(times=path.times, values=values, kind="weighted")


def meyer_approx_Ah(model, path, h, band_fn):
    """Resolvent-style approximation of the compensator at scale ``h``:
    the running time average of the conditional probability that absorption
    falls within ``(s, s + h)``, divided by ``h``.

    ``band_fn(s, x)`` supplies the conditional band probability, usually a
    :class:`~infobridge.filtering.BandProbabilityCache` of width ``h``; it
    is queried only at steps before absorption, and the integrand is
    assembled by :func:`band_integrand`.  Raises ``ValueError`` for an
    ``h`` that is not finite and positive (NaN included).
    """
    h = kernels._widths(h)
    t = path.dt * np.arange(path.n_steps)
    cond = np.zeros(path.n_steps - 1)
    live = np.nonzero(t[1:] < path.tau)[0]
    if live.size:
        cond[live] = band_fn(t[1:][live], path.values[1:][live])
    band = band_integrand(model, h, t, np.array([path.tau]), cond[None, :])[0]
    out = np.zeros(path.n_steps + 1)
    np.cumsum(band * path.dt / h, out=out[1:])
    return CompensatorCurve(times=path.times, values=out, kind="plain")


def band_integrand(model, h, t, taus, cond):
    """Integrand of the resolvent approximation on the grid times ``t``,
    one row per path: the unconditional band mass ``F(h)`` at the first
    step, the conditional band probabilities ``cond`` (one column per later
    step) after it, and zero on every step that starts at or past the
    path's length ``taus``."""
    band = np.zeros((len(taus), t.size))
    band[:, 0] = float(model.length.cdf(h))
    band[:, 1:] = cond
    band *= t[None, :] < taus[:, None]
    return band


def save_curve_csv(curve, fp):
    """Write ``t, K`` rows for one compensator curve."""
    data = np.column_stack([curve.times, curve.values])
    np.savetxt(fp, data, delimiter=",", header="t,K", comments="", fmt="%.12g")


def exp_martingale(lam, compensator, absorbed, values=1.0):
    """``(1 + lam * values * absorbed) * exp(-lam * compensator)``,
    elementwise: the exponential martingale of the plain compensator
    (``values`` 1) and the exponential local martingale of the weighted one
    (``values`` the path, which equals the pin once absorbed)."""
    return (1.0 + lam * values * absorbed) * np.exp(-lam * compensator)


def martingale_N(path, K_curve, lam):
    """Exponential martingale of the plain compensator along one path;
    bounded by ``1 + lam``."""
    if lam < 0.0:
        raise ValueError("lam must be nonnegative")
    absorbed = np.arange(len(path.values)) >= path.absorbed_index
    return exp_martingale(lam, K_curve.values, absorbed)


def martingale_M(path, frak_curve, lam):
    """Exponential local martingale of the weighted compensator along one
    path."""
    absorbed = np.arange(len(path.values)) >= path.absorbed_index
    return exp_martingale(lam, frak_curve.values, absorbed, path.values)
