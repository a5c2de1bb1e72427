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
cancels the 1/v); an infinite endpoint is cut at the length law's
``tail_point(s, 1e-10)``, beyond which 1e-10 of its tail past s remains
(``QuadratureError`` if not finite).  The panels start where the length density
does, 30 graded geometrically in v from 1e-9 of the range; each gives a
Kronrod and an embedded 10-point Gauss sum from the 21 nodes of the
QUADPACK qk21 pair (Piessens et al., 1983).  Each observed value settles on
its own once the two agree on every per-pin mass, band, tail and moment
(1e-9 relative or 1e-13 absolute) and on the pin sums of bands and tails
(1e-9 relative); the others are evaluated again with every panel bisected
whose own error breaks its 1/n_panels share of a failing tolerance, up to
1,920 panels.  ``table=True`` returns the first pass unchecked, for the
drift and band tables only.  Exponents are rescaled by their maximum
before exponentiation; cells below -746, where ``exp`` is exactly 0.0, are
set to 0.0 without it.  A pass of more than 8 values (``_GROUPS``) goes in
blocks of at most 2**20 exponent cells and evaluates each value only on
its window: the panels where z^2/(2 r_lo) - (z - x)^2/(2 lag_hi), a bound
of their exponents from the panel's edges, comes within 746 of its largest
exponent at a panel's centre node.  Only cells that would be 0.0 are
skipped, so the scale stays and a sum moves only in its last bit.  A pass
of at most 8 values is one block over every panel, its cells laid out
(value, pin, panel, node) so that every panel sum is the matrix-vector
product of one value alone.  A moment's weight is ``w(lag, z) c(z, x)``:
``w`` joins the panel weights and ``c`` multiplies the panel sums before
the check, so a moment on a pin level settles although the integral of
``w`` may diverge.

Every conditional ratio reads :func:`_conditional`: one pass and its
mixture weight ``probs @ mass``, checked positive.  The measurements behind
these rules are in CHANGES.md and the BENCH_*.json files.

All functions here are pure; they can be called from any number of workers
with no shared mutable state.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .paths import _rows_within

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
#: Share of the length law's tail past the observation time allowed beyond
#: the truncation point when the support is unbounded.
_TRUNCATION_MASS = 1e-10
_CELLS = 2 ** 20  # exponent cells per block of x, so that the temporaries stay small
_UNDERFLOW = -746.0  # exp(e) is exactly 0.0 for every e below -745.14
_GROUPS = 8  # groups of observed values by window start, each on its own panel range

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
_UNIT_OFFSETS = 0.5 * (_UNIT_NODES + 1.0)  # the nodes from each panel's lower edge, in widths
_UNIT_WEIGHTS = np.stack([np.concatenate((w, w[-2::-1])) for w in (_WGK, _WG)])


class QuadratureError(RuntimeError):
    """Adaptive refinement failed to reach its tolerance."""


# ---------------------------------------------------------------------------
# Closed-form densities
# ---------------------------------------------------------------------------


def _gaussian_args(t, x, y):
    """The variance ``t`` and the offset ``x - y`` as arrays; ``ValueError``
    unless ``t`` is finite and positive and ``x`` and ``y`` are finite (NaN
    fails both)."""
    t, x, y = (np.asarray(a, dtype=float) for a in (t, x, y))
    if not np.all((t > 0.0) & (t < math.inf)):
        raise ValueError("variance must be finite and strictly positive")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("the point and the mean must be finite")
    return t, x - y


def gaussian_density(t, x, y=0.0):
    """Gaussian density with variance ``t`` and mean ``y``, evaluated at ``x``.

    Raises ``ValueError`` for a variance that is not finite and positive, or
    an ``x`` or ``y`` that is not finite (NaN included).
    """
    t, d = _gaussian_args(t, x, y)
    out = np.exp(-0.5 * d * d / t) / np.sqrt(2.0 * np.pi * t)
    return out if out.ndim else float(out)


def log_gaussian_density(t, x, y=0.0):
    """Logarithm of :func:`gaussian_density`; safe for extreme arguments,
    and raises ``ValueError`` as it does."""
    t, d = _gaussian_args(t, x, y)
    out = -0.5 * (d * d / t + np.log(t) + _LOG_2PI)
    return out if out.ndim else float(out)


def bridge_marginal_density(t, r, z, x):
    """Marginal density at ``x`` of a bridge of length ``r`` pinned at ``z``,
    observed at time ``t``.

    The value is the Gaussian density with mean ``t z / r`` and variance
    ``t (r - t) / r``; it also equals ``p(r-t, z-x) p(t, x) / p(r, z)``
    (tested, not computed twice here).  Past ``r / 2`` the offset from the mean is
    ``x - z + (r - t) z / r``: ``x - t z / r`` loses digits as the mean nears ``z``.
    Raises ``ValueError`` unless ``0 < t < r < inf`` and ``z`` and ``x`` are
    finite (NaN included).
    """
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    if not np.all((0.0 < t) & (t < r) & (r < math.inf)):
        raise ValueError("need 0 < t < r < inf")
    if not (np.isfinite(z).all() and np.isfinite(x).all()):
        raise ValueError("the pin and the point must be finite")
    d = np.where(t <= 0.5 * r, x - t * z / r, np.subtract(x, z) + (r - t) * z / r)
    out = gaussian_density(t * (r - t) / r, d)
    return out if np.ndim(out) else float(out)


# ---------------------------------------------------------------------------
# Tail quadrature
# ---------------------------------------------------------------------------


def _panel_rule(edges):
    """Kronrod nodes on the panels delimited by ``edges``, ascending, and
    their weights ``(n_panels, n_rules, 21)`` for twice the integral (the 2
    of the Jacobian 2v of r = s + v^2): Kronrod, then the embedded Gauss."""
    lo = edges[:-1, None]
    width = edges[1:, None] - lo
    return (lo + width * _UNIT_OFFSETS).ravel(), width[:, None] * _UNIT_WEIGHTS


def _ladder(v_hi):
    """``np.geomspace(1e-9 * v_hi, v_hi, 30)`` bit for bit, without the
    argument handling that costs a one-value query most of its set-up."""
    lo = 1e-9 * v_hi
    a, b = np.log10(lo), np.log10(v_hi)
    out = np.power(10.0, np.arange(_BASE_PANELS, dtype=float) * ((b - a) / (_BASE_PANELS - 1)) + a)
    out[0], out[-1] = lo, v_hi
    return out


def _tail_edges(law, s, upper, uppers):
    """Panel edges in v = sqrt(r - s), from where the length density starts
    to ``upper > s``: 30 graded geometrically from 1e-9 of the range, split
    at density kinks and band edges ``uppers``."""
    v_lo, v_hi = math.sqrt(max(law.support_inf - s, 0.0)), math.sqrt(upper - s)
    ladder = _ladder(v_hi)
    if v_lo >= ladder[0]:
        ladder = ladder[ladder > v_lo]
    cuts = [c for c in {math.sqrt(b - s) for b in (*law.breakpoints, *uppers) if s < b < upper}
            if c > v_lo]
    return _merged(np.concatenate(((v_lo,), ladder)), cuts)


def _merged(edges, more):
    """The sorted union of ascending unique ``edges`` and ``more``: what
    ``np.union1d`` returns, without its overhead."""
    if not len(more):
        return edges
    out = np.concatenate((edges, more))
    out.sort()
    new = out[1:] != out[:-1]
    return out if new.all() else out[np.concatenate(([True], new))]


class TailIntegrals(NamedTuple):
    """Per-pin tail integrals at one time; the value of an entry at ``x[j]``
    is the stored one times ``exp(scale[j])``."""

    mass: np.ndarray  #: (n_pins, n_x): over (s, inf)
    moment: np.ndarray | None  #: (n_pins, n_x): weighted, given a weight
    scale: np.ndarray  #: (n_x,)
    band: np.ndarray  #: (n_uppers, n_pins, n_x): over (s, u_k)
    tail: np.ndarray  #: (n_uppers, n_pins, n_x): over (u_k, inf)


def _window(s, x, edges, points, lag, pull):
    """Per observed value, the first and one past the last panel that can
    hold an exponent within 746 of its top, from ``lag`` and ``pull`` at the
    nodes as :func:`_evaluate` forms them (see the module's docstring)."""
    z, centre, n_panels = points[:, None, None], _UNIT_NODES.size // 2, edges.size - 1
    bound_pull, panel = z * z / (2.0 * (s + edges[:-1, None] ** 2)), np.arange(n_panels)[:, None]
    first, last = np.empty(x.size, dtype=int), np.empty(x.size, dtype=int)
    rows = _rows_within(_CELLS, pull.size + 1)
    for lo in range(0, x.size, rows):
        block = slice(lo, lo + rows)
        d2 = (z - x[block]) ** 2
        bound = (bound_pull - d2 / (2.0 * edges[1:, None] ** 2)).max(axis=0, initial=-np.inf)
        top = (pull[:, :, centre] - d2 / (2.0 * lag[:, centre])).max(axis=(0, 1), initial=-np.inf)
        keep = ~(bound - top < _UNDERFLOW)
        first[block] = np.where(keep, panel, n_panels).min(axis=0, initial=n_panels)
        last[block] = np.where(keep, panel + 1, 0).max(axis=0, initial=0)
    return first, last


def _scaled_exp(pull, lag, d, out, axes):
    """Per value the largest exponent cell ``pull - d^2 / (2 lag)`` (0 where
    none is finite), taken over ``axes``, and in ``out`` the cells'
    exponentials after that shift.  Cells below -746 are set to 0.0 without
    ``exp``, which is slow where it rounds to 0.0."""
    np.divide(d ** 2, 2.0 * lag, out=out)
    np.subtract(pull, out, out=out)
    top = out.max(axis=axes, keepdims=True, initial=-np.inf)
    top[~np.isfinite(top)] = 0.0
    g = np.subtract(out, top, out=out)
    live = g >= _UNDERFLOW
    with np.errstate(under="ignore"):
        np.exp(g, out=g, where=live)
    np.copyto(g, 0.0, where=~live)
    return top.ravel(), g


def _evaluate(law, s, x, edges, points, weight):
    """Exponent scale ``(n_x,)`` and the scaled sums ``(n_rules, 1 [+ 1],
    n_pins, n_panels, n_x)`` over the 21 nodes of every panel between
    ``edges``: per rule each panel's mass and, given a weight, moment.  At
    most ``_GROUPS`` values go as one block over every panel; more go in
    groups by :func:`_window` start, each on the panels its windows span."""
    v, w = _panel_rule(edges)
    n_panels, n_nodes, n_pins = edges.size - 1, _UNIT_NODES.size, points.size
    lag = v * v
    r = s + lag
    f = law.pdf(r)
    # One (n_rules, 21) block of weights per panel, so that one batched
    # matmul sums every panel; the Jacobian 2v cancels the 1/v.
    base = (np.sqrt(r) * f).reshape(n_panels, 1, n_nodes) * w
    lag, r = lag.reshape(n_panels, n_nodes, 1), r.reshape(n_panels, n_nodes, 1)
    # The moment's w(lag, z) joins the panel weights, once per pin and pass,
    # and c(z, x) multiplies the panel sums.
    moment = c = None
    if weight is not None:
        w_moment, c_moment = weight
        moment, c = np.empty((n_pins,) + base.shape), np.empty((n_pins, x.size))
        for i, zi in enumerate(points):
            np.multiply(base, w_moment(lag.transpose(0, 2, 1), zi), out=moment[i])
            c[i] = c_moment(zi, x)
    # Nodes outside the support must not set the exponent scale: the
    # integrand vanishes there however large the exponent.
    z = points[:, None, None, None]
    pull = np.where(f.reshape(lag.shape) == 0.0, -np.inf, z * z / (2.0 * r))
    sums = np.zeros((len(_UNIT_WEIGHTS), 1 + (weight is not None), n_pins, n_panels, x.size))
    if x.size <= _GROUPS:
        # Each value would be a group of its own, and every cell its window
        # leaves out is 0.0 here too.  The cells go (value, pin, panel, node),
        # so that every panel sum is the same matrix-vector product for one
        # value as for several.
        cells = np.empty((x.size, n_pins, n_panels, n_nodes, 1))
        scale, g = _scaled_exp(pull, lag, z - x[:, None, None, None, None], cells, (1, 2, 3, 4))
        sums[:, 0] = (base @ g)[..., 0].transpose(3, 1, 2, 0)
        if moment is not None:
            sums[:, 1] = ((moment @ g)[..., 0] * c.T[:, :, None, None]).transpose(3, 1, 2, 0)
        return scale, sums
    first, last = _window(s, x, edges, points, lag, pull)
    scale = np.empty(x.size)
    # one exponent buffer per call: blocks of varying size would spread the heap
    buf = np.empty(max(min(x.size * pull.size, _CELLS), pull.size))
    order = np.argsort(first, kind="stable")
    for k in range(_GROUPS):
        group = order[k * x.size // _GROUPS:(k + 1) * x.size // _GROUPS]
        p = slice(first[group].min(), last[group].max())
        rows = _rows_within(_CELLS, pull[:, p].size + 1)
        for lo in range(0, group.size, rows):
            block = group[lo:lo + rows]
            expo = buf[:pull[:, p].size * block.size].reshape(n_pins, -1, n_nodes, block.size)
            scale[block], g = _scaled_exp(pull[:, p], lag[p], z - x[block], expo, (0, 1, 2))
            sums[:, 0, :, p][..., block] = (base[p] @ g).transpose(2, 0, 1, 3)
            if moment is not None:
                weighted = (moment[:, p] @ g) * c[:, None, None, block]
                sums[:, 1, :, p][..., block] = weighted.transpose(2, 0, 1, 3)
    return scale, sums


def _quantities(panels, below):
    """Per rule the mass, bands, tails and moment ``(n_rules, 1 + 2 n_uppers
    [+ 1], n_pins, n_x)`` of ``panels``, ``below[k]`` of them under ``u_k``."""
    if below.size == 0:
        return np.add.reduce(panels, axis=3)
    n_rules, parts, n_pins, n_panels, n_x = panels.shape
    # [p]: panels p and up (so no tail exceeds its total), and those below p.
    down = np.zeros(panels.shape[:3] + (n_panels + 1, n_x))
    np.add.accumulate(panels[..., ::-1, :], axis=3, out=down[..., :n_panels, :][..., ::-1, :])
    up = np.zeros((n_rules, n_pins, n_panels + 1, n_x))
    np.add.accumulate(panels[:, 0], axis=2, out=up[:, :, 1:])
    n_up = below.size
    out = np.empty((n_rules, 2 * n_up + parts, n_pins, n_x))
    out[:, 0] = down[:, 0, :, 0]
    for k, b in enumerate(below):
        out[:, 1 + k], out[:, 1 + n_up + k] = up[:, :, b], down[:, 0, :, b]
    out[:, 1 + 2 * n_up:] = down[:, 1:, :, 0]
    return out


def _panel_excess(diff, probs, share, below):
    """Per panel, the largest ratio of its Kronrod - Gauss difference ``diff``
    (per part, pin, panel, x; with band edges the pin sum is added) to its
    ``share`` of the tolerance (per quantity, pin, x; inf where settled) of a
    quantity it enters."""
    if below.size:
        diff = np.concatenate((diff, np.tensordot(probs, diff, (0, 1))[:, None]), axis=1)
    n_up, p = below.size, np.arange(diff.shape[2])
    inside = np.ones((share.shape[0], p.size), dtype=bool)
    inside[1:1 + n_up] = p < below[:, None]
    inside[1 + n_up:1 + 2 * n_up] = p >= below[:, None]
    part = (np.arange(share.shape[0]) > 2 * n_up).astype(int)  # the moment is part 1
    ratio = (np.abs(diff)[part] / share[:, :, None]).max(axis=(1, 3))
    return np.where(inside, ratio, 0.0).max(axis=0)


_NO_BANDS = np.zeros(0, dtype=int)


@functools.lru_cache
def _abs_tol(n_q, n_pins, n_up):
    """The absolute tolerance per quantity and pin.  With band edges the pin
    sums follow as one more pin; they settle relative alone, and only those
    of bands and tails, the numerators of probabilities that may be tiny."""
    abs_tol = np.full((n_q, n_pins + (n_up > 0), 1), _ABS_TOL)
    if n_up:
        abs_tol[:, -1] = np.inf
        abs_tol[1:1 + 2 * n_up, -1] = np.finfo(float).tiny
    abs_tol.flags.writeable = False
    return abs_tol


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
    uppers : float or 1-d sequence of float
        Band edges ``u_k``: per-pin masses over ``(s, u_k)`` and
        ``(u_k, inf)`` are returned too.  Edges at or below ``s`` give empty
        bands; edges past the truncation point give empty tails.
    weight : pair of callables ``(w, c)``, optional
        The moment's integrand factor ``w(lag, z_i) * c(z_i, x)``.  ``w`` is
        called once per pass with ``lag = r - s`` over the nodes, shaped
        ``(n_panels, 1, 21)``, and joins the panel weights; a scalar result
        broadcasts.  ``c`` is called once per pin and pass with the observed
        values and multiplies every panel's sums before they are checked, so
        a moment settles on a pin level even where the integral of ``w``
        diverges.
    table : bool
        Return the first pass unchecked, for interpolation tables.

    Returns
    -------
    TailIntegrals
        ``mass[i, j] * exp(scale[j])`` is the value of ``S_i`` at ``x[j]``,
        and ``moment`` the weighted integral on the same scale (``None``
        without a weight).  Empty ranges return zero mass with zero scale.

    Raises
    ------
    ValueError
        For an ``s`` that is not finite or not inside the support of the
        length law, an ``x`` that is not finite, a NaN band edge, or values
        or edges of more than one dimension; an edge at ``+inf`` is allowed
        and gives empty tails.
    QuadratureError
        When some value has not settled at 1,920 panels, or the length law's
        tail past ``s`` underflowed.
    """
    law, points, probs = model.length, model.pinning.points, model.pinning.probs
    x, uppers = np.asarray(x, dtype=float), np.asarray(uppers, dtype=float)
    if x.ndim > 1 or uppers.ndim > 1:
        raise ValueError("observed values and band edges must be floats or 1-d arrays")
    x, uppers = x.reshape(-1), uppers.reshape(-1).tolist()
    n_up = len(uppers)
    if not (math.isfinite(s) and np.isfinite(x).all()) or any(map(math.isnan, uppers)):
        raise ValueError("observation time and values must be finite, band edges not NaN")
    if s <= 0.0:
        raise ValueError("observation time must be strictly positive")
    if s >= law.support_sup:
        raise ValueError("model exhausted: observation time at or past the "
                         "support supremum of the length law")
    upper = law.tail_point(s, _TRUNCATION_MASS)
    if not math.isfinite(upper):
        raise QuadratureError(f"the length law's tail past s={s} underflowed")
    edges = _tail_edges(law, s, upper, uppers)
    v_up = [math.sqrt(max(u - s, 0.0)) for u in uppers]
    n_q = 1 + 2 * n_up + (weight is not None)
    abs_tol = _abs_tol(n_q, points.size, n_up)
    out = scale = todo = None  # todo: once a value fails, those not yet settled
    while True:
        top, panels = _evaluate(law, s, x if todo is None else x[todo], edges, points, weight)
        # panels under each band edge
        below = np.searchsorted(edges[1:], v_up, side="right") if n_up else _NO_BANDS
        if table:
            out, scale = _quantities(panels[:1], below)[0], top
            break
        q = _quantities(panels, below)
        if n_up:  # the pin sums, as one more pin
            q = np.concatenate((q, (probs @ q)[:, :, None]), axis=2)
        kronrod, gauss = q
        tol = _REL_TOL * np.abs(kronrod) + abs_tol
        settled = np.abs(kronrod - gauss) <= tol
        if out is None:
            if settled.all():  # every value on the first pass
                out, scale = kronrod[:, :points.size].copy(), top
                break
            out, scale = np.empty((n_q, points.size, x.size)), np.empty(x.size)
            todo = np.arange(x.size)
        bad = ~settled
        fails = bad.any(axis=(0, 1))
        out[..., todo[~fails]] = kronrod[:, :points.size, ~fails]
        scale[todo[~fails]] = top[~fails]
        if not fails.any():
            break
        # Bisect every panel whose own error breaks its 1/n_panels share of the
        # tolerance of a quantity that failed, and the worst one anyway.
        excess = _panel_excess((panels[0] - panels[1])[..., fails], probs,
                               np.where(bad, tol, np.inf)[..., fails] / (edges.size - 1), below)
        split = excess >= min(excess.max(), 1.0)
        refined = _merged(edges, 0.5 * (edges[:-1] + edges[1:])[split])
        todo = todo[fails]
        if refined.size - 1 > _MAX_PANELS or refined.size == edges.size:
            raise QuadratureError(
                f"tail quadrature did not converge (s={s}, uppers={uppers}, "
                f"x in [{x[todo].min():.3g}, {x[todo].max():.3g}], panels={edges.size - 1})")
        edges = refined
    return TailIntegrals(out[0], None if weight is None else out[-1], scale,
                         out[1:1 + n_up], out[1 + n_up:1 + 2 * n_up])


# ---------------------------------------------------------------------------
# Mixture weight
# ---------------------------------------------------------------------------


def _conditional(model, s, x, **options):
    """The one read behind every conditional ratio at ``(s, x)``: the
    :func:`tail_integrals` pass with ``options``, and the mixture weight
    ``probs @ mass`` (up to ``exp(scale)``) that divides the ratio.  Raises
    ``QuadratureError`` where that weight is not positive (zero or NaN)."""
    q = tail_integrals(model, s, x, **options)
    mass = model.pinning.probs @ q.mass
    if not np.all(mass > 0.0):
        raise QuadratureError(f"mixture weight underflowed at s={s}")
    return q, mass


def _unwrap(x, out):
    """``out``, whose last axis runs over the observed values, shaped as
    ``x`` was passed: for a float ``x`` its entry 0 on that axis, a Python
    float where no axis is left."""
    out = out if np.ndim(x) else out[..., 0]
    return out if out.ndim else float(out)


def _widths(h):
    """Band widths ``h``, a float or a 1-d sequence, as a float or a tuple of
    floats; ``ValueError`` unless every width is finite and positive (NaN
    included) and a sequence is not empty."""
    widths = np.asarray(h, dtype=float)
    if widths.ndim > 1 or not widths.size or not np.all((widths > 0.0) & (widths < math.inf)):
        raise ValueError(f"band widths must be finite and positive, and a ladder not empty: {h}")
    return tuple(widths.tolist()) if widths.ndim else float(widths)


def log_mix_weight(s, x, model):
    """Log of :func:`mix_weight`; preferred inside ratios."""
    q, mass = _conditional(model, s, x)
    return _unwrap(x, np.log(mass) + q.scale + log_gaussian_density(s, x))


def mix_weight(s, x, model):
    """Mixture tail weight: the density-weighted mass of bridge lengths
    beyond ``s`` compatible with the observation ``x``.

    This is the common normalizer of every conditional formula of the
    model; it is strictly positive for ``0 < s <`` the support supremum.
    """
    return np.exp(log_mix_weight(s, x, model))
