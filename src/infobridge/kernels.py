"""Gaussian kernels and the tail quadrature shared by the filtering and
compensator layers.

The central object is the family of integrals

    S_i(s, x; a, b) = int_a^b  sqrt(r/(r-s)) * exp(E_i(r)) * f(r) dr,
    E_i(r)          = z_i^2/(2r) - (z_i - x)^2 / (2(r-s)),

one per pinning level z_i, where f is the density of the random bridge
length.  Every conditional quantity of the model (posterior weights,
survival probabilities, band probabilities, transition atoms, drift,
intensity of absorption) is a ratio of such integrals, or of one of them
and its moment: the same integral with a weight ``w(r - s, z_i)`` in the
integrand.  The Gaussian prefactor p(s, x) common to numerator and
denominator is factored out analytically, so the integrals stay within
floating-point range and ratios are exact.

:func:`tail_integrals` is the one engine for all of them: one pass gives
``S_i(s, x; s, inf)``, for band edges ``u_k`` the bands
``S_i(s, x; s, u_k)`` and tails ``S_i(s, x; u_k, inf)`` as sums over whole
panels, so a small band keeps its relative accuracy, and, given
``weight``, the moment from the same nodes as the mass.

Numerical policy, fixed for the whole library: the integrand carries an
integrable (r-s)^(-1/2) singularity at the left endpoint; substituting
v = sqrt(r - s) removes it exactly (the Jacobian 2v cancels the 1/v).  The
infinite endpoint is truncated where the remaining mass of the length law
drops below 1e-10.  Panels are graded geometrically in v and integrated
with Gauss-Legendre rules, by one of two rules:

* the adaptive rule, for direct queries: 30 panels of 10 points, doubled
  up to six times until two successive passes agree on every per-pin
  mass, band, tail and moment returned (to 1e-9 relative or 1e-13
  absolute), and on the pin sums of bands and tails to 1e-9 relative
  alone (a moment's pin sum may cancel to zero, so it has no such check);
* the table pass (``table=True``), for filling interpolation tables: one
  pass of 90 panels of 12 points, where one vectorized evaluation per time
  node beats adaptive re-evaluation and the interpolation error dominates
  anyway; tables are checked against the adaptive rule afterwards.

Exponents are rescaled by their maximum before exponentiation, so
intermediate values never overflow.

All functions here are pure; they can be called from any number of workers
with no shared mutable state.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "QuadratureError",
    "gaussian_density",
    "log_gaussian_density",
    "bridge_marginal_density",
    "TailIntegrals",
    "tail_integrals",
    "mix_weight",
    "log_mix_weight",
]

_LOG_2PI = math.log(2.0 * math.pi)


# The adaptive rule.
_REL_TOL = 1e-9
_ABS_TOL = 1e-13
_BASE_PANELS = 30
_GAUSS_POINTS = 10
_MAX_SUBDIVISIONS = 6
# The table pass.
_TABLE_PANELS = 90
_TABLE_GAUSS_POINTS = 12
#: Mass of the length law allowed beyond the truncation point when the
#: support is unbounded; both rules share it.
_TRUNCATION_MASS = 1e-10


class QuadratureError(RuntimeError):
    """Adaptive refinement failed to reach its tolerance."""


# ---------------------------------------------------------------------------
# Closed-form densities
# ---------------------------------------------------------------------------


def gaussian_density(t, x, y=0.0):
    """Gaussian density with variance ``t`` and mean ``y``, evaluated at ``x``.

    Raises ``ValueError`` for nonpositive variance.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("variance must be strictly positive")
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    out = np.exp(-0.5 * d * d / t) / np.sqrt(2.0 * np.pi * t)
    return out if out.ndim else float(out)


def log_gaussian_density(t, x, y=0.0):
    """Logarithm of :func:`gaussian_density`; safe for extreme arguments."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("variance must be strictly positive")
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    out = -0.5 * (d * d / t + np.log(t) + _LOG_2PI)
    return out if out.ndim else float(out)


def bridge_marginal_density(t, r, z, x):
    """Marginal density at ``x`` of a bridge of length ``r`` pinned at ``z``,
    observed at time ``t``.

    The value is the Gaussian density with mean ``t z / r`` and variance
    ``t (r - t) / r``; it also equals ``p(r-t, z-x) p(t, x) / p(r, z)``
    (tested, not computed twice here).
    """
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(t <= 0.0) or np.any(t >= r):
        raise ValueError("need 0 < t < r")
    var = t * (r - t) / r
    out = gaussian_density(var, np.asarray(x, dtype=float), t * np.asarray(z, dtype=float) / r)
    return out if np.ndim(out) else float(out)


# ---------------------------------------------------------------------------
# Tail quadrature
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _leggauss(n):
    return np.polynomial.legendre.leggauss(n)


def _panel_rule(edges, n_gauss):
    """Gauss-Legendre nodes/weights on the panels delimited by ``edges``."""
    base_x, base_w = _leggauss(n_gauss)
    lo = edges[:-1, None]
    hi = edges[1:, None]
    half = 0.5 * (hi - lo)
    nodes = lo + half * (base_x[None, :] + 1.0)
    weights = half * base_w[None, :]
    return nodes.ravel(), weights.ravel()


def _tail_edges(law, s, upper, uppers, n_panels, n_approach):
    """Geometrically graded panel edges in v = sqrt(r - s) up to the
    truncation point ``upper``; the density kinks of the length law and the
    band edges ``uppers`` are among them, and ``n_approach`` edges per band
    edge grade toward it from below, where a small band concentrates.  An
    empty range (``s`` at or past ``upper``) has a single edge, no panels.
    """
    if s >= upper:
        return np.zeros(1)
    v_hi = math.sqrt(upper - s)
    # Graded ladder resolves boundary layers at any scale >= ~1e-9 * v_hi.
    edges = np.concatenate(([0.0], np.geomspace(v_hi * 1e-9, v_hi, n_panels)))
    kinks = [math.sqrt(b - s) for b in law.breakpoints if s < b < upper]
    cuts = np.sqrt(uppers[(uppers > s) & (uppers < upper)] - s)
    approach = np.outer(cuts, 1.0 - np.geomspace(1e-5, 0.5, n_approach))
    return np.union1d(edges, np.concatenate((kinks, cuts, approach.ravel())))


class TailIntegrals(NamedTuple):
    """Per-pin tail integrals at one time; the value of an entry at ``x[j]``
    is the stored one times ``exp(scale[j])``."""

    mass: np.ndarray  #: (n_pins, n_x): over (s, inf)
    moment: np.ndarray | None  #: (n_pins, n_x): weighted, given a weight
    scale: np.ndarray  #: (n_x,)
    band: np.ndarray  #: (n_uppers, n_pins, n_x): over (s, u_k)
    tail: np.ndarray  #: (n_uppers, n_pins, n_x): over (u_k, inf)


def _evaluate(law, s, x, v, w, points, weight, cuts):
    """Scaled integrals on a fixed node set, ascending in ``v``; ``cuts[k]``
    is the number of nodes below the band edge ``u_k``."""
    r = s + v * v
    f = law.pdf(r)
    base = 2.0 * np.sqrt(r) * f * w  # Jacobian 2v cancels the 1/v
    n_pins = len(points)
    x_col = x[:, None]
    expo = np.empty((n_pins, x.size, v.size))
    v2 = v * v
    # Nodes outside the support must not set the exponent scale: the
    # integrand vanishes there however large the exponent.
    dead = f == 0.0
    for i, z in enumerate(points):
        c = z - x_col
        np.divide(c * c, 2.0 * v2, out=expo[i])
        np.subtract(z * z / (2.0 * r), expo[i], out=expo[i])
        expo[i][:, dead] = -np.inf
    scale = expo.max(axis=(0, 2), initial=-np.inf)
    scale = np.where(np.isfinite(scale), scale, 0.0)
    order = np.argsort(cuts, kind="stable")
    bounds = np.concatenate(([0], cuts[order], [v.size]))
    # Node sums over the segments between consecutive band edges.
    seg = np.empty((bounds.size - 1, n_pins, x.size))
    moment = None if weight is None else np.empty((n_pins, x.size))
    with np.errstate(under="ignore"):
        for i, z in enumerate(points):
            g = np.subtract(expo[i], scale[:, None], out=expo[i])
            np.exp(g, out=g)
            g *= base
            for k in range(seg.shape[0]):
                seg[k, i] = g[:, bounds[k]:bounds[k + 1]].sum(axis=1)
            if weight is not None:
                moment[i] = (g * weight(v2, z)).sum(axis=1)
    # Bands and tails are sums of whole segments, never differences, so a
    # small band keeps its relative accuracy.
    above = np.cumsum(seg[::-1], axis=0)[::-1]  # above[k]: segments k and up
    band = np.empty((cuts.size, n_pins, x.size))
    tail = np.empty_like(band)
    band[order] = np.cumsum(seg[:-1], axis=0)
    tail[order] = above[1:]
    return TailIntegrals(above[0], moment, scale, band, tail)


def _agree(new, old, abs_tol):
    return bool(np.all(np.abs(new - old) <= _REL_TOL * np.abs(new) + abs_tol))


def tail_integrals(model, s, x, *, uppers=(), weight=None, table=False):
    """Per-pin tail integrals ``S_i`` for a bridge observed at ``(s, x)``,
    split at band edges, and optionally their moment.

    Parameters
    ----------
    model : ModelSpec
        Length law and pinning law.
    s : float
        Observation time, ``0 < s <`` the support supremum of the length law.
    x : float or 1-d array
        Observed value(s); the integrals are evaluated for every entry.
    uppers : sequence of float
        Band edges ``u_k``: per-pin masses over ``(s, u_k)`` and
        ``(u_k, inf)`` are returned too.  Edges at or below ``s`` give empty
        bands; edges past the truncation point give empty tails.
    weight : callable, optional
        Integrand factor ``weight(lag, z_i)`` of the moment, with
        ``lag = r - s`` an array over the nodes; it returns values that
        broadcast against ``(n_x, n_nodes)``.
    table : bool
        Use the table pass instead of the adaptive rule (see the module
        docstring).

    Returns
    -------
    TailIntegrals
        ``mass[i, j] * exp(scale[j])`` is the value of ``S_i`` at ``x[j]``,
        and ``moment`` the weighted integral on the same scale (``None``
        without a weight).  Empty ranges return zero mass with zero scale.
    """
    law = model.length
    points, probs = model.pinning.points, model.pinning.probs
    if s <= 0.0:
        raise ValueError("observation time must be strictly positive")
    if s >= law.support_sup:
        raise ValueError("model exhausted: observation time at or past the "
                         "support supremum of the length law")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    uppers = np.atleast_1d(np.asarray(uppers, dtype=float))
    upper = law.truncation_point(_TRUNCATION_MASS)
    v_up = np.sqrt(np.clip(uppers - s, 0.0, None))

    # The first pass is the plain ladder; refinements double it and grade
    # toward the band edges.
    n_panels, n_approach = (_TABLE_PANELS if table else _BASE_PANELS), 0
    n_gauss = _TABLE_GAUSS_POINTS if table else _GAUSS_POINTS
    prev = None
    for _ in range(_MAX_SUBDIVISIONS + 1):
        edges = _tail_edges(law, s, upper, uppers, n_panels, n_approach)
        v, w = _panel_rule(edges, n_gauss)
        out = _evaluate(law, s, x, v, w, points, weight, np.searchsorted(v, v_up))
        if table:
            return out
        masses = np.concatenate((out.mass[None], out.band, out.tail)
                                + (() if weight is None else (out.moment[None],)))
        if prev is not None:
            p_masses, p_scale = prev
            with np.errstate(under="ignore"):
                rescaled = p_masses * np.exp(p_scale - out.scale)
            # Pin sums of bands and tails are numerators of probabilities
            # that may be tiny: they agree relative to themselves.
            bands = slice(1, 1 + 2 * uppers.size)
            if (_agree(masses, rescaled, _ABS_TOL)
                    and _agree(probs @ masses[bands], probs @ rescaled[bands],
                               np.finfo(float).tiny)):
                return out
        prev = (masses, out.scale)
        n_panels *= 2
        n_approach = n_panels // 4
    raise QuadratureError(
        f"tail quadrature did not converge (s={s}, uppers={uppers.tolist()}, "
        f"x in [{x.min():.3g}, {x.max():.3g}], panels={n_panels})")


# ---------------------------------------------------------------------------
# Mixture weight
# ---------------------------------------------------------------------------


def log_mix_weight(s, x, model):
    """Log of :func:`mix_weight`; preferred inside ratios."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    q = tail_integrals(model, s, x_arr)
    total = model.pinning.probs @ q.mass
    if np.any(total <= 0.0):
        raise QuadratureError(f"mixture weight underflowed at s={s}")
    out = np.log(total) + q.scale + log_gaussian_density(s, x_arr)
    return out if np.ndim(x) else out.item()


def mix_weight(s, x, model):
    """Mixture tail weight: the density-weighted mass of bridge lengths
    beyond ``s`` compatible with the observation ``x``.

    This is the common normalizer of every conditional formula of the
    model; it is strictly positive for ``0 < s <`` the support supremum.
    """
    return np.exp(log_mix_weight(s, x, model))
