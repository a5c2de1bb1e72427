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
drops below 1e-10.  There is one rule: 30 panels graded geometrically in v
from 1e-9 of the truncated range, each with the 21 Kronrod nodes of the
Gauss-Kronrod pair (QUADPACK qk21, Piessens et al., 1983).  One pass gives
two sums of every quantity from the same nodes, one with the Kronrod
weights and one with the embedded 10-point Gauss weights.  A direct query
accepts the first pass whose two sums agree on every per-pin mass, band,
tail and moment returned (to 1e-9 relative or 1e-13 absolute), and on the
pin sums of bands and tails to 1e-9 relative alone (a moment's pin sum may
cancel to zero, so it has no such check).  Otherwise the ladder doubles,
up to six times, with its bottom edge moved lower and edges graded toward
each band edge.  Tables (``table=True``) take the first pass unchecked:
one vectorized evaluation per time node, whose error the interpolation
error dominates; tables are checked against direct queries afterwards.
The observed values are evaluated in blocks of at most 2**20 exponent
cells, so the temporaries of a long row stay small.

Exponents are rescaled by their maximum before exponentiation, so
intermediate values never overflow.

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
_MAX_SUBDIVISIONS = 6
#: Mass of the length law allowed beyond the truncation point when the
#: support is unbounded.
_TRUNCATION_MASS = 1e-10
_CELLS = 2 ** 20  # exponent cells per block of x, so that the temporaries stay small

# QUADPACK qk21: the Kronrod abscissae in [0, 1), descending to the centre,
# every second one an abscissa of the 10-point Gauss rule; their Kronrod
# weights; and the weights of the embedded 10-point Gauss rule at the same
# abscissae, zero off its own.
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
_WG = np.array([
    0.0, 0.066671344308688137593568809893332,
    0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163,
    0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651146,
    0.0])
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


def _tail_edges(law, s, upper, uppers, n_panels, n_approach):
    """Geometrically graded panel edges in v = sqrt(r - s) up to the
    truncation point ``upper``; the density kinks of the length law and the
    band edges ``uppers`` are among them, and ``n_approach`` edges per band
    edge grade toward it from below, where a small band concentrates.  The
    bottom edge starts at 1e-9 of the range and moves lower as the ladder
    doubles, so a spike nearer the origin, the pull within 1e-9 of a pin,
    gets panels of its own.  An empty range (``s`` at or past ``upper``)
    has a single edge, no panels.
    """
    if s >= upper:
        return np.zeros(1)
    v_hi = math.sqrt(upper - s)
    bottom = v_hi * 1e-9 ** math.sqrt(n_panels / _BASE_PANELS)
    edges = np.concatenate(([0.0], np.geomspace(bottom, v_hi, n_panels)))
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
    """Scaled node sums on a fixed node set, ascending in ``v``, with one
    row of weights ``w`` per rule; ``cuts[k]`` is the number of nodes below
    the band edge ``u_k``.  Returns the exponent scale ``(n_x,)`` and the
    sums ``(n_rules, 1 + 2 n_uppers [+ 1], n_pins, n_x)``: per rule the
    mass, the bands, the tails and, given a weight, the moment."""
    v2 = v * v
    r = s + v2
    f = law.pdf(r)
    base = (2.0 * np.sqrt(r) * f * w).T  # Jacobian 2v cancels the 1/v
    # Nodes outside the support must not set the exponent scale: the
    # integrand vanishes there however large the exponent.
    dead = f == 0.0
    n_pins = len(points)
    order = np.argsort(cuts, kind="stable")
    bounds = np.concatenate(([0], cuts[order], [v.size]))
    n_seg = bounds.size - 1
    # Node sums over the segments between consecutive band edges, then the
    # moment.
    seg = np.empty((len(w), n_seg + (weight is not None), n_pins, x.size))
    scale = np.empty(x.size)
    rows = max(1, _CELLS // (n_pins * v.size + 1))
    for lo in range(0, x.size, rows):
        block = slice(lo, lo + rows)
        x_col = x[block, None]
        expo = np.empty((n_pins, x_col.shape[0], v.size))
        for i, z in enumerate(points):
            c = z - x_col
            np.divide(c * c, 2.0 * v2, out=expo[i])
            np.subtract(z * z / (2.0 * r), expo[i], out=expo[i])
            expo[i][:, dead] = -np.inf
        top = expo.max(axis=(0, 2), initial=-np.inf)
        top = np.where(np.isfinite(top), top, 0.0)
        scale[block] = top
        with np.errstate(under="ignore"):
            for i, z in enumerate(points):
                g = np.subtract(expo[i], top[:, None], out=expo[i])
                np.exp(g, out=g)
                for k in range(n_seg):
                    nodes = slice(bounds[k], bounds[k + 1])
                    seg[:, k, i, block] = (g[:, nodes] @ base[nodes]).T
                if weight is not None:
                    seg[:, n_seg, i, block] = ((g * weight(v2, z, x_col)) @ base).T
    # Bands and tails are sums of whole segments, never differences, so a
    # small band keeps its relative accuracy.
    above = np.cumsum(seg[:, n_seg - 1::-1], axis=1)[:, ::-1]  # [k]: segments k and up
    band = np.empty((len(w), cuts.size, n_pins, x.size))
    tail = np.empty_like(band)
    band[:, order] = np.cumsum(seg[:, :n_seg - 1], axis=1)
    tail[:, order] = above[:, 1:]
    return scale, np.concatenate((above[:, :1], band, tail, seg[:, n_seg:]), axis=1)


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
        Integrand factor ``weight(lag, z_i, x)`` of the moment, with
        ``lag = r - s`` an array over the nodes and ``x`` a column of the
        observed values (one block of them); it returns values that
        broadcast against ``(len(x), n_nodes)``.
    table : bool
        Return the rule's first pass unchecked, for filling interpolation
        tables (see the module docstring).

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

    bands = slice(1, 1 + 2 * uppers.size)
    # The first pass is the plain ladder; refinements double it, lower its
    # bottom edge and grade toward the band edges.
    n_panels, n_approach = _BASE_PANELS, 0
    for _ in range(_MAX_SUBDIVISIONS + 1):
        edges = _tail_edges(law, s, upper, uppers, n_panels, n_approach)
        v, w = _panel_rule(edges)
        scale, (kronrod, gauss) = _evaluate(law, s, x, v, w, points, weight,
                                            np.searchsorted(v, v_up))
        # Pin sums of bands and tails are numerators of probabilities that
        # may be tiny: they agree relative to themselves.
        if table or (_agree(kronrod, gauss, _ABS_TOL)
                     and _agree(probs @ kronrod[bands], probs @ gauss[bands],
                                np.finfo(float).tiny)):
            return TailIntegrals(kronrod[0], None if weight is None else kronrod[-1], scale,
                                 kronrod[1:1 + uppers.size], kronrod[1 + uppers.size:bands.stop])
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
