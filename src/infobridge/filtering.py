"""Conditional laws of the pinned bridge given its own past.

Before absorption the pair (length, pin) has, given the observation ``x``
at time ``t``, a density-weighted mixture law: the weight of lengths in
``dr`` at pin ``z_i`` is proportional to the prior pin weight times the
bridge marginal at ``x`` times the length density at ``r``.  Everything in
this module is a ratio of the tail integrals from :mod:`.kernels`:
posterior pin weights, conditional survival, the one-step transition law
(atoms on the pin levels plus a continuous part), and the conditional mean
displacement rate (drift) whose cumulative removal turns the observed path
into a stopped Brownian motion.

Each ratio makes one read, ``kernels._conditional``: one tail pass and the
mixture weight that divides the ratio, ``QuadratureError`` where it is not
positive.  Only :meth:`TransitionLaw.continuous_density`, where the mass is
a numerator that may be 0, reads the engine itself.  A float ``x`` gives a
float (pin weights: one array over the pins) and a 1-d array one entry per
value.  Every public function takes the checked pass of the tail rule.  The
rows of :class:`DriftCache` and :class:`BandProbabilityCache` come from one
row rule, which takes its first pass: one read per row with the drift's
weight and the band edges, holding the drift and then every band.  When the
pin law is symmetric, X and -X have one law: the drift is odd in x and
every band even, so a table fills its rows on x >= 0 and reflects them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels

__all__ = [
    "PosteriorState",
    "TransitionLaw",
    "posterior",
    "pin_posterior",
    "survival_probability",
    "band_probability",
    "transition_law",
    "drift",
    "DriftCache",
    "BandProbabilityCache",
    "innovation_path",
]


def _pin_index(model, x):
    """Index of the pin equal to ``x``, or -1.  Absorbed states sit exactly
    on a pin by construction of the sampler."""
    hits = np.nonzero(model.pinning.points == x)[0]
    return int(hits[0]) if hits.size else -1


# ---------------------------------------------------------------------------
# Posterior of (length, pin)
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class PosteriorState:
    """Conditional law of (length, pin) given the path up to ``t``.

    Not absorbed: ``pin_probs[i]`` carries the conditional weight of pin i,
    ``survival(u)`` the conditional probability that the length exceeds
    ``u >= t``, and ``expectation(g)`` integrates a user function ``g(r, z)``
    against the mixture by quadrature.  Absorbed: the law is the point mass
    ``point_mass``.  Either way ``survival(u)`` takes a scalar or an array
    and raises ``ValueError`` unless ``u >= t``.
    """

    t: float
    observed_x: float
    absorbed: bool
    pin_probs: np.ndarray
    point_mass: tuple | None
    _model: object = field(repr=False)

    def survival(self, u):
        if self.absorbed:
            if not np.all(np.asarray(u) >= self.t):
                raise ValueError("need u >= t")
            return np.zeros(np.shape(u)) if np.ndim(u) else 0.0
        return survival_probability(self._model, self.t, self.observed_x, u)

    def expectation(self, g):
        """Conditional mean of ``g(length, pin)``; ``g`` must broadcast over
        an array of lengths for a scalar pin, or return a scalar; it joins
        the quadrature weights once per pass.  Raises ``ValueError`` where
        ``g`` returns NaN or +-inf."""
        def finite(r, z):
            out = g(r, z)
            if not np.isfinite(out).all():
                raise ValueError("g returned a value that is not finite")
            return out
        if self.absorbed:
            tau, z = self.point_mass
            return float(np.asarray(finite(np.asarray([tau]), z)).ravel()[0])
        t, x = self.t, self.observed_x
        q, mass = kernels._conditional(self._model, t, x,
                                       weight=(lambda lag, z: finite(t + lag, z), lambda z, x: 1.0))
        return kernels._unwrap(x, (self._model.pinning.probs @ q.moment) / mass)


def posterior(model, t, x, absorbed=False, tau=None):
    """Posterior of (length, pin) at time ``t`` given observation ``x``.

    When ``absorbed`` the observation must sit on a pin level and ``tau``
    (default ``t``) records the absorption time; the posterior is then the
    point mass at (tau, x).

    Raises ``ValueError`` for a ``t`` that is not finite and positive (NaN
    included), and for a ``tau`` outside ``(0, t]``; not absorbed, raises
    ``QuadratureError`` as :func:`pin_posterior` does.
    """
    if not 0.0 < t < math.inf:
        raise ValueError("t must be finite and strictly positive")
    if absorbed:
        tau = t if tau is None else float(tau)
        if not 0.0 < tau <= t:
            raise ValueError("the absorption time tau must lie in (0, t]")
        k = _pin_index(model, x)
        if k < 0:
            raise ValueError(f"absorbed state x={x} is not a pin level")
        probs = np.zeros(len(model.pinning))
        probs[k] = 1.0
        return PosteriorState(t=t, observed_x=float(x), absorbed=True,
                              pin_probs=probs, point_mass=(tau, float(x)), _model=model)
    probs = pin_posterior(model, t, x)
    return PosteriorState(t=t, observed_x=float(x), absorbed=False,
                          pin_probs=np.atleast_1d(probs), point_mass=None,
                          _model=model)


def pin_posterior(model, t, x):
    """Conditional pin weights at ``(t, x)``; vectorized over ``x`` (rows of
    the returned array are pins).  Raises ``QuadratureError`` where the
    mixture weight or the length law's tail past ``t`` underflows."""
    q, _ = kernels._conditional(model, t, x)
    weighted = model.pinning.probs[:, None] * q.mass
    return kernels._unwrap(x, weighted / weighted.sum(axis=0, keepdims=True))


def survival_probability(model, t, x, u):
    """P(length > u | path up to t, not yet absorbed); vectorized over ``x``,
    and a sequence of times ``u`` adds a leading axis.  All times come from
    one quadrature pass.  Raises ``QuadratureError`` where the mixture
    weight or the length law's tail past ``t`` underflows."""
    if np.any(np.asarray(u) < t):
        raise ValueError("need u >= t")
    q, mass = kernels._conditional(model, t, x, uppers=u)
    out = np.clip((model.pinning.probs @ q.tail) / mass, 0.0, 1.0)
    return kernels._unwrap(x, out if np.ndim(u) else out[0])


def band_probability(model, t, x, h):
    """P(length in (t, t + h] | path up to t, not yet absorbed), vectorized
    over ``x``; a sequence of widths ``h`` adds a leading axis.  All widths
    come from one quadrature pass, and each band is summed over its own
    panels rather than formed as one minus a survival probability.  Raises
    ``ValueError`` unless every width is finite and positive and a sequence
    is not empty, and ``QuadratureError`` where the mixture weight or the
    length law's tail past ``t`` underflows."""
    h = kernels._widths(h)
    q, mass = kernels._conditional(model, t, x, uppers=t + np.atleast_1d(h))
    out = np.clip((model.pinning.probs @ q.band) / mass, 0.0, 1.0)
    return kernels._unwrap(x, out if np.ndim(h) else out[0])


# ---------------------------------------------------------------------------
# Transition law
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class TransitionLaw:
    """One-step transition law from ``(t, x)`` to time ``u``.

    The law lives against the reference measure mixing unit atoms at the
    pin levels with Lebesgue measure: ``atoms[i]`` is the probability of
    sitting on pin i at ``u`` (absorption occurred), ``continuous_density``
    the density of the not-yet-absorbed part (zero on the pin levels by
    convention).
    """

    t: float
    u: float
    x: float
    atoms: np.ndarray
    _model: object = field(repr=False)
    _log_den: float = field(repr=False)

    def continuous_density(self, y):
        """Density of the not-yet-absorbed part at ``y``, a float or 1-d
        array; ``ValueError`` for a ``y`` that is not finite or has more
        dimensions, absorbed or not."""
        y_arr, model = np.asarray(y, dtype=float), self._model
        if y_arr.ndim > 1 or not np.isfinite(y_arr).all():
            raise ValueError("density arguments must be finite floats or 1-d arrays")
        y_arr = y_arr.reshape(-1)
        surv = np.zeros(y_arr.size)
        # the mass is a numerator here, and may be 0: no kernels._conditional
        if math.isfinite(self._log_den) and self.u < model.support_sup:
            q = kernels.tail_integrals(model, self.u, y_arr)
            log_gauss = kernels.log_gaussian_density(self.u - self.t, y_arr, self.x)
            with np.errstate(under="ignore"):
                surv = (model.pinning.probs @ q.mass) * np.exp(q.scale + log_gauss - self._log_den)
        return kernels._unwrap(y, np.where(np.isin(y_arr, model.pinning.points), 0.0, surv))

    def total_mass(self):
        """Numerical normalization check: atom masses plus the trapezoid
        integral of the continuous part on 4,001 points over 6 sqrt(u)
        beyond the pins and the start.  The grid is offset so that no node
        lands exactly on a pin level, where the density is zero by
        convention."""
        pts = self._model.pinning.points
        spread = 6.0 * math.sqrt(self.u) + float(np.max(np.abs(pts))) + abs(self.x)
        y = np.linspace(-spread, spread, 4001) + spread * 1.9e-7
        dens = self.continuous_density(y)
        return float(self.atoms.sum() + np.trapezoid(dens, y))


def transition_law(model, t, x, u):
    """Transition law of the observed process between times ``0 < t < u < inf``.
    Raises ``QuadratureError`` where the mixture weight or the law's tail past ``t`` underflows."""
    if not (0.0 < t < u < math.inf):
        raise ValueError("need 0 < t < u < inf")
    k = _pin_index(model, x)
    atoms = np.zeros(len(model.pinning))
    if k >= 0:
        # Absorbed states are traps.
        atoms[k] = 1.0
        return TransitionLaw(t=t, u=u, x=float(x), atoms=atoms,
                             _model=model, _log_den=-math.inf)
    q, mass = kernels._conditional(model, t, x, uppers=(u,))
    den = float(mass[0])
    log_den = math.log(den) + float(q.scale[0])
    atoms = model.pinning.probs * q.band[0, :, 0] / den
    return TransitionLaw(t=t, u=u, x=float(x), atoms=atoms,
                         _model=model, _log_den=log_den)


# ---------------------------------------------------------------------------
# Drift and innovation
# ---------------------------------------------------------------------------


def drift(model, s, x):
    """Conditional mean displacement rate at ``(s, x)``: the mixture average
    of the bridge pull ``(z_i - x)/(r - s)``.  Vectorized over ``x``.  The
    pull's ``1/(r - s)`` joins the quadrature weights and ``z_i - x``
    multiplies each pin's panel sums, so the drift is 0 on a single pin.
    Raises ``ValueError`` for an ``s`` outside the support of the length
    law, and ``QuadratureError`` where the mixture weight or the length
    law's tail past ``s`` underflows."""
    q, mass = kernels._conditional(model, s, x, weight=_PULL)
    return kernels._unwrap(x, (model.pinning.probs @ q.moment) / mass)


_PULL = (lambda lag, z: 1.0 / lag, lambda z, x: z - x)  # the drift's weight pair
_ROWS_PER_DECADE = 60
_LADDER_RATIO = 1.045


def _space_grid(model, s_min, s_max):
    """Space nodes of a table over ``[s_min, s_max]``: a linear base of 361
    points, geometric refinement around each pin (conditional quantities
    kink or jump across a pin level) and the origin, and a ladder in |x|
    from sqrt(s_min) / 4 by a fixed ratio.  On a symmetric pin law the
    nodes x >= 0, the origin first, are mirrored, so the grid is exactly
    its own negative (the linear base alone is not)."""
    pts = model.pinning.points
    spread = 3.5 * math.sqrt(s_max) + float(np.max(np.abs(pts))) + 1.0
    grid = np.linspace(-spread, spread, 361)
    grid[180] = 0.0  # linspace may round the middle node to a few ulp off the origin
    offsets = np.geomspace(1e-9, 0.6, 28)
    around = np.concatenate([np.concatenate((c - offsets, [c], c + offsets))
                             for c in [*pts, 0.0]])
    lo = 0.25 * math.sqrt(s_min)
    fine = lo * _LADDER_RATIO ** np.arange(math.ceil(math.log(spread / lo, _LADDER_RATIO)) + 1)
    grid = np.union1d(grid, np.concatenate((around, fine, -fine)))
    grid = grid[(grid >= -spread) & (grid <= spread)]
    if model.pinning.symmetric:
        half = grid[grid >= 0.0]
        grid = np.concatenate((-half[:0:-1], half))
    return grid


class _Table:
    """The drift and the band probabilities of the band ``widths`` (an array,
    maybe empty) over ``[s_min, s_max]``, ``s_max`` clamped just inside the
    support: ``rows`` is ``(1 + n_widths, n_s, n_x)``.

    Time rows are geometric, 60 per decade, on the nodes of
    :func:`_space_grid`.  By Brownian scaling the small-time structure is a
    function of x / sqrt(s), which the geometric |x| ladder resolves at
    every time, so one grid serves small and late times alike.  Every row
    comes from the one row rule :meth:`_row`.  On a symmetric pin law
    (``PinningLaw.symmetric``) the conditional law of (length, pin) given
    -x mirrors that given x, so the rule fills the nodes x >= 0 only, and
    the nodes x < 0 take the reflection in place: the drift negated, each
    band copied.  Reads are bilinear in (log s, x), and queries outside the
    table, at +-inf too, read its clamped edge; a NaN time or value raises
    ``ValueError``.  The drift has a pole ``1/(sup - s)`` at a bounded
    support edge: there the table holds ``sup - s`` times it, and
    :meth:`drift` divides on read.
    """

    def __init__(self, model, widths, s_min, s_max):
        sup = model.support_sup
        hi = min(s_max, sup * (1.0 - 1e-9))
        if not (0.0 < s_min < hi and s_max <= sup and s_max < math.inf):  # the clamp may empty it
            raise ValueError("need 0 < s_min < s_max < inf within the length support")
        self.model, self._widths = model, widths
        self.s_min, self.s_max = s_min, hi
        n_s = math.ceil(_ROWS_PER_DECADE * math.log10(hi / s_min)) + 1
        self.s_nodes = np.geomspace(s_min, hi, n_s)
        self._ls = np.log(self.s_nodes)
        self.x_nodes = _space_grid(model, s_min, s_max)
        n_x = self.x_nodes.size
        mid = n_x // 2 if model.pinning.symmetric else 0  # the origin on a mirrored grid
        self.rows = np.empty((1 + len(widths), n_s, n_x))
        for k, s in enumerate(self.s_nodes):
            self.rows[:, k, mid:] = self._row(model, widths, s, self.x_nodes[mid:], True)
        if mid:
            self.rows[:, :, :mid] = self.rows[:, :, :mid:-1]
            np.negative(self.rows[0, :, :mid], out=self.rows[0, :, :mid])
        self._edge = sup if math.isfinite(sup) else None
        if self._edge is not None:
            self.rows[0] *= (sup - self.s_nodes)[:, None]
        self._flat = self.rows.reshape(self.rows.shape[0], -1)  # one row per quantity

    @staticmethod
    def _row(model, widths, s, x, table):
        """The drift at ``(s, x)``, then the band probability of each width,
        from one pass of the tail rule: the first when ``table``."""
        probs = model.pinning.probs
        q, mass = kernels._conditional(model, s, x, uppers=s + widths, table=table, weight=_PULL)
        return np.concatenate((((probs @ q.moment) / mass)[None],
                               np.clip((probs @ q.band) / mass, 0.0, 1.0)))

    def _bilinear(self, flat, s, x):
        """The rows ``flat`` (of ``_flat``) read at ``(s, x)``, and the clamped time."""
        sc = np.clip(s, self.s_nodes[0], self.s_nodes[-1])
        ls = np.log(sc)
        xc = np.clip(x, self.x_nodes[0], self.x_nodes[-1])
        if np.isnan(ls + xc).any():  # both are finite once clamped, unless NaN
            raise ValueError("table read at a NaN time or value")
        n = self.x_nodes.size
        i = np.clip(np.searchsorted(self._ls, ls) - 1, 0, self._ls.size - 2)
        j = np.clip(np.searchsorted(self.x_nodes, xc) - 1, 0, n - 2)
        ws = (ls - self._ls[i]) / (self._ls[i + 1] - self._ls[i])
        wx = (xc - self.x_nodes[j]) / (self.x_nodes[j + 1] - self.x_nodes[j])
        # corners (i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1) of the flat
        # rows, summed in place: a read of many paths holds few arrays its size
        corner = i * n + j
        del i, j, ls, xc
        vs, vx = 1 - ws, 1 - wx
        out = np.take(flat, corner, axis=-1)
        out *= vs * vx
        for step, a, b in ((n, ws, vx), (1, vs, wx), (n + 1, ws, wx)):
            term = np.take(flat, corner + step, axis=-1)
            term *= a * b
            out += term
        return out, sc

    def drift(self, s, x):
        """The drift read at ``(s, x)``."""
        out, sc = self._bilinear(self._flat[0], s, x)
        return out if self._edge is None else out / (self._edge - sc)

    def max_rel_error(self, n_probe):
        """Interpolation error against the checked pass of the row rule at
        ``n_probe`` random states, one value per quantity (a float for the
        drift alone), relative to the direct value floored at the median
        drift magnitude (the drift crosses zero) and at 1e-3 for a band.
        The states lie where paths live: the diffusive sqrt(time) envelope
        early, the pin neighborhoods later."""
        rng = np.random.default_rng(0)
        s = np.exp(rng.uniform(math.log(self.s_min), math.log(self.s_max), n_probe))
        pts = self.model.pinning.points
        lo, hi = min(-1.0, pts.min() - 1.0), max(1.0, pts.max() + 1.0)
        envelope = 6.0 * np.sqrt(s)
        diffusive = np.sqrt(s) * rng.uniform(-4.0, 4.0, n_probe)
        settled = np.clip(rng.uniform(lo, hi, n_probe), -envelope, envelope)
        x = np.where(rng.uniform(size=n_probe) < 0.6, diffusive, settled)
        direct = np.concatenate([self._row(self.model, self._widths, si, xi, False)
                                 for si, xi in zip(s, x)], axis=-1)
        read = np.vstack((self.drift(s, x), self._bilinear(self._flat[1:], s, x)[0]))
        floor = np.where(np.arange(len(direct)) == 0, np.quantile(np.abs(direct[0]), 0.5), 1e-3)
        err = np.max(np.abs(read - direct) / np.maximum(np.abs(direct), floor[:, None]), axis=-1)
        return err if err.size > 1 else float(err[0])


class DriftCache(_Table):
    """Drift tabulated on a (time, space) grid for fast pathwise use: the
    table of no band widths.

    Per-step quadrature would dominate the runtime of innovation and
    compensator sweeps by two orders of magnitude; the table is filled once
    (one vectorized quadrature row per time node, on x >= 0 only when the
    pin law is symmetric, the rest by reflection) and interpolated
    bilinearly in (log time, space).
    """

    def __init__(self, model, s_min, s_max):
        super().__init__(model, np.zeros(0), s_min, s_max)

    __call__ = _Table.drift


class BandProbabilityCache(_Table):
    """Tabulated conditional probability that absorption happens within
    ``(s, s + h]`` given the observation at ``s``, for one width ``h`` or a
    ladder of widths, with a leading axis over a ladder and clipped to
    [0, 1]; :meth:`drift` reads the drift beside it.  ``ValueError`` for a
    width that is not finite and positive (NaN included), or no width.
    """

    def __init__(self, model, h, s_min, s_max):
        self.h = kernels._widths(h)
        super().__init__(model, np.atleast_1d(self.h), s_min, s_max)

    def __call__(self, s, x):
        out = self._bilinear(self._flat[1:] if np.ndim(self.h) else self._flat[1], s, x)[0]
        return np.clip(out, 0.0, 1.0, out=out if np.ndim(out) else None)


def innovation_path(model, path, drift_fn):
    """Remove the cumulative drift from a path: the result is a Brownian
    motion stopped at the absorption time.  ``drift_fn(s, x)`` supplies the
    drift, usually a :class:`DriftCache` built once for many paths.

    Left-point Riemann sum; drift terms stop one step before the grid
    absorption index (the landing step is pinned exactly, not diffused), so
    the output is constant after absorption.
    """
    values = path.values
    n_steps = len(values) - 1
    last = min(path.absorbed_index - 1, n_steps)  # steps carrying drift
    t = path.dt * np.arange(n_steps)
    mu = np.zeros(n_steps)
    if last > 0:
        s_eval = np.maximum(t[:last], path.dt)  # clamp the s=0 start
        mu[:last] = drift_fn(s_eval, values[:last])
    cum = np.concatenate(([0.0], np.cumsum(mu * path.dt)))
    return values - cum
