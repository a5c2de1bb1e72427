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
``S_i(s, x; s, u_k)`` and tails ``S_i(s, x; u_k, inf)`` as sums of whole
panels, so a small band keeps its relative accuracy, and, given
``weight``, the moment from the same nodes as the mass.

Numerical policy, fixed for the whole library: v = sqrt(r - s) removes the
integrable (r-s)^(-1/2) singularity at the left endpoint (the Jacobian 2v
cancels the 1/v); an infinite endpoint is truncated where less than 1e-10
of the length law lies beyond.  The panels start where the length density
does, 30 graded geometrically in v from 1e-9 of the range; each gives a
Kronrod and an embedded 10-point Gauss sum from the 21 nodes of the
QUADPACK qk21 pair (Piessens et al., 1983).  Each observed value settles on
its own once the two agree on every per-pin mass, band, tail and moment
(1e-9 relative or 1e-13 absolute) and on the pin sums of bands and tails
(1e-9 relative); the others are evaluated again with every panel bisected
whose own error breaks its 1/n_panels share of a failing tolerance, up to
1,920 panels.  Tables (``table=True``) take the first pass unchecked, as
their interpolation error dominates.  Exponents are rescaled by their
maximum before exponentiation, and the observed values go in blocks of at
most 2**20 exponent cells, so nothing overflows and temporaries stay small.

All functions here are pure; they can be called from any number of workers
with no shared mutable state.
"""

from __future__ import annotations

import math
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

# The tail rule.
_REL_TOL = 1e-9
_ABS_TOL = 1e-13
_BASE_PANELS = 30
_MAX_PANELS = 1920
#: Mass of the length law allowed beyond the truncation point when the
#: support is unbounded.
_TRUNCATION_MASS = 1e-10
_CELLS = 2 ** 20  # exponent cells per block of x, so that the temporaries stay small

# QUADPACK qk21: the Kronrod abscissae in [0, 1), descending to the centre,
# every second one an abscissa of the 10-point Gauss rule; their Kronrod
# weights; and the weights of the embedded Gauss rule at its own abscissae.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208801389960, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.zeros(11)
_WG[1::2] = [0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
             0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
             0.295524224714752870173892994651146]
#: The 21 nodes on [-1, 1], ascending, and one row of weights per rule:
#: Kronrod, then Gauss.
_UNIT_NODES = np.concatenate((-_XGK, _XGK[-2::-1]))
_UNIT_WEIGHTS = np.stack([np.concatenate((w, w[-2::-1])) for w in (_WGK, _WG)])


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


def _panel_rule(edges):
    """Kronrod nodes on the panels delimited by ``edges``, ascending, and
    their weights: one row per rule, Kronrod then the embedded Gauss."""
    lo = edges[:-1, None]
    half = 0.5 * (edges[1:, None] - lo)
    nodes = lo + half * (_UNIT_NODES + 1.0)
    weights = half * _UNIT_WEIGHTS[:, None, :]
    return nodes.ravel(), weights.reshape(len(_UNIT_WEIGHTS), -1)


def _tail_edges(law, s, upper, uppers):
    """Panel edges in v = sqrt(r - s), from where the length density starts
    to ``upper``: 30 graded geometrically from 1e-9 of the range, split at
    density kinks and band edges ``uppers``; no panels if ``s >= upper``."""
    if s >= upper:
        return np.zeros(1)
    v_lo, v_hi = math.sqrt(max(law.support_inf - s, 0.0)), math.sqrt(upper - s)
    cuts = [math.sqrt(b - s) for b in (*law.breakpoints, *uppers) if s < b < upper]
    edges = np.union1d(np.geomspace(1e-9 * v_hi, v_hi, _BASE_PANELS), [0.0, v_lo, *cuts])
    return edges[edges >= v_lo]


class TailIntegrals(NamedTuple):
    """Per-pin tail integrals at one time; the value of an entry at ``x[j]``
    is the stored one times ``exp(scale[j])``."""

    mass: np.ndarray  #: (n_pins, n_x): over (s, inf)
    moment: np.ndarray | None  #: (n_pins, n_x): weighted, given a weight
    scale: np.ndarray  #: (n_x,)
    band: np.ndarray  #: (n_uppers, n_pins, n_x): over (s, u_k)
    tail: np.ndarray  #: (n_uppers, n_pins, n_x): over (u_k, inf)


def _evaluate(law, s, x, edges, points, weight):
    """Exponent scale ``(n_x,)`` and the scaled sums ``(n_rules, 1 [+ 1],
    n_pins, n_panels, n_x)`` over the 21 nodes of every panel between
    ``edges``: per rule each panel's mass and, given a weight, moment."""
    v, w = _panel_rule(edges)
    n_pins, n_panels, n_nodes = len(points), edges.size - 1, _UNIT_NODES.size
    r = s + v * v
    f = law.pdf(r)
    # One (n_rules, 21) block of weights per panel, so that one batched
    # matmul sums every panel; the Jacobian 2v cancels the 1/v.
    base = (2.0 * np.sqrt(r) * f * w).reshape(len(w), n_panels, n_nodes)
    base = np.ascontiguousarray(base.transpose(1, 0, 2))
    lag, r = (v * v).reshape(n_panels, n_nodes, 1), r.reshape(n_panels, n_nodes, 1)
    # Nodes outside the support must not set the exponent scale: the
    # integrand vanishes there however large the exponent.
    dead = (f == 0.0).reshape(lag.shape)
    sums = np.empty((len(w), 1 + (weight is not None), n_pins, n_panels, x.size))
    scale = np.empty(x.size)
    rows = max(1, _CELLS // (n_pins * v.size + 1))
    for lo in range(0, x.size, rows):
        block = slice(lo, lo + rows)
        expo = np.empty((n_pins, n_panels, n_nodes, x[block].size))
        for i, z in enumerate(points):
            np.divide((z - x[block]) ** 2, 2.0 * lag, out=expo[i])
            np.subtract(np.where(dead, -np.inf, z * z / (2.0 * r)), expo[i], out=expo[i])
        top = expo.max(axis=(0, 1, 2), initial=-np.inf)
        scale[block] = top = np.where(np.isfinite(top), top, 0.0)
        with np.errstate(under="ignore"):
            for i, z in enumerate(points):
                g = np.subtract(expo[i], top, out=expo[i])
                np.exp(g, out=g)
                for part, h in enumerate([g] if weight is None else [g, g * weight(lag, z, x[block])]):
                    sums[:, part, i, :, block] = np.moveaxis(base @ h, 1, 0)
    return scale, sums


def _quantities(panels, below):
    """Per rule the mass, bands, tails and moment ``(n_rules, 1 + 2 n_uppers
    [+ 1], n_pins, n_x)`` of ``panels``, ``below[k]`` of them under ``u_k``."""
    if below.size == 0:
        return panels.sum(axis=3)
    zero = np.zeros(panels.shape[:3] + (1, panels.shape[4]))
    # [p]: panels p and up (so no tail exceeds its total), and those below p.
    down = np.concatenate((np.cumsum(panels[..., ::-1, :], axis=3)[..., ::-1, :], zero), axis=3)
    up = np.concatenate((zero[:, 0], np.cumsum(panels[:, 0], axis=2)), axis=2)
    return np.concatenate((down[:, :1, :, 0], np.moveaxis(up[:, :, below], 2, 1),
                           np.moveaxis(down[:, 0, :, below], 0, 1), down[:, 1:, :, 0]), axis=1)


def _panel_excess(diff, probs, share, below):
    """Per panel, the largest ratio of its Kronrod - Gauss difference ``diff``
    (per part, pin, panel, x; the pin sum is added) to its ``share`` of the
    tolerance (per quantity, pin, x; inf where settled) of a quantity it enters."""
    diff = np.concatenate((diff, np.tensordot(probs, diff, (0, 1))[:, None]), axis=1)
    n_up, p = below.size, np.arange(diff.shape[2])
    inside = np.ones((share.shape[0], p.size), dtype=bool)
    inside[1:1 + n_up] = p < below[:, None]
    inside[1 + n_up:1 + 2 * n_up] = p >= below[:, None]
    part = (np.arange(share.shape[0]) > 2 * n_up).astype(int)  # the moment is part 1
    ratio = (np.abs(diff)[part] / share[:, :, None]).max(axis=(1, 3))
    return np.where(inside, ratio, 0.0).max(axis=0)


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
        Integrand factor ``weight(lag, z_i, x)`` of the moment: ``lag = r - s``
        over the nodes, ``(n_panels, 21, 1)``, and ``x`` (a block of) the
        observed values broadcast to ``(n_panels, 21, len(x))``.
    table : bool
        Return the first pass unchecked, for interpolation tables.

    Returns
    -------
    TailIntegrals
        ``mass[i, j] * exp(scale[j])`` is the value of ``S_i`` at ``x[j]``,
        and ``moment`` the weighted integral on the same scale (``None``
        without a weight).  Empty ranges return zero mass with zero scale.
    """
    law, points, probs = model.length, model.pinning.points, model.pinning.probs
    if s <= 0.0:
        raise ValueError("observation time must be strictly positive")
    if s >= law.support_sup:
        raise ValueError("model exhausted: observation time at or past the "
                         "support supremum of the length law")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    uppers = np.atleast_1d(np.asarray(uppers, dtype=float))
    upper = law.truncation_point(_TRUNCATION_MASS)
    v_up = np.sqrt(np.clip(uppers - s, 0.0, None))
    bands = slice(1, 1 + 2 * uppers.size)
    n_q = bands.stop + (weight is not None)
    # Pin sums, carried as one more pin, settle relative alone, and only those
    # of bands and tails: numerators of probabilities that may be tiny.
    abs_tol = np.full((n_q, len(points) + 1, 1), _ABS_TOL)
    abs_tol[:, -1] = np.inf
    abs_tol[bands, -1] = np.finfo(float).tiny
    edges = _tail_edges(law, s, upper, uppers)
    out, scale = np.empty((n_q, len(points), x.size)), np.empty(x.size)
    todo = np.arange(x.size)  # the x not yet settled, each on its own
    while True:
        top, panels = _evaluate(law, s, x[todo], edges, points, weight)
        below = np.searchsorted(edges[1:], v_up, side="right")  # panels under each band edge
        if table:
            out, scale = _quantities(panels[:1], below)[0], top
            break
        kronrod, gauss = (np.concatenate((q, (probs @ q)[:, None]), axis=1)
                          for q in _quantities(panels, below))
        tol = _REL_TOL * np.abs(kronrod) + abs_tol
        bad = ~(np.abs(kronrod - gauss) <= tol)
        fails = bad.any(axis=(0, 1))
        out[..., todo[~fails]] = kronrod[:, :-1, ~fails]
        scale[todo[~fails]] = top[~fails]
        if not fails.any():
            break
        # Bisect every panel whose own error breaks its 1/n_panels share of the
        # tolerance of a quantity that failed, and the worst one anyway.
        excess = _panel_excess((panels[0] - panels[1])[..., fails], probs,
                               np.where(bad, tol, np.inf)[..., fails] / (edges.size - 1), below)
        split = excess >= min(excess.max(), 1.0)
        refined = np.union1d(edges, 0.5 * (edges[:-1] + edges[1:])[split])
        todo = todo[fails]
        if refined.size - 1 > _MAX_PANELS or refined.size == edges.size:
            raise QuadratureError(
                f"tail quadrature did not converge (s={s}, uppers={uppers.tolist()}, "
                f"x in [{x[todo].min():.3g}, {x[todo].max():.3g}], panels={edges.size - 1})")
        edges = refined
    return TailIntegrals(out[0], None if weight is None else out[-1], scale,
                         out[1:1 + uppers.size], out[1 + uppers.size:bands.stop])


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
