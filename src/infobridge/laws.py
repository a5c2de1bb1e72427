"""Model parameterization: the continuous law of the random bridge length,
the discrete law of the pinning point, and their samplers.

Length laws expose ``pdf``, ``cdf``, ``quantile``, inverse-CDF sampling,
``support_sup`` (possibly ``inf``) and ``tail_point``, from the survival pair
``sf`` and ``isf``: the one cut of downstream integrals.  Independence of the
length, the pin and the driving noise is structural: simulation derives one
RNG stream per source from a master seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

__all__ = [
    "LengthLaw",
    "ExponentialLaw",
    "UniformLaw",
    "GammaLaw",
    "TruncatedExponentialLaw",
    "CustomLengthLaw",
    "PinningLaw",
    "ModelSpec",
    "length_law_from_dict",
    "validate_length_law",
]


class LengthLaw:
    """Base interface for the law of the random bridge length.

    Subclasses provide vectorized ``pdf`` and ``cdf``, a scalar
    ``quantile``, the support bounds, and ``breakpoints`` (interior density
    kinks the quadrature must not smooth over).  :meth:`tail_point` reads the
    survival pair ``sf`` and ``isf``: closed forms on each unbounded family,
    else ``1 - cdf`` and ``quantile(1 - q)``, which :class:`CustomLengthLaw` inherits.
    """

    family = "abstract"
    support_inf = 0.0
    support_sup = math.inf
    breakpoints: tuple = ()

    def pdf(self, r):
        raise NotImplementedError

    def cdf(self, t):
        raise NotImplementedError

    def quantile(self, q):
        raise NotImplementedError

    def sample(self, rng, size=None):
        """Inverse-CDF draw; deterministic given the generator state."""
        return self.quantile(rng.uniform(size=size))

    def sf(self, t):
        return 1.0 - self.cdf(t)

    def isf(self, q):
        """Inverse of :meth:`sf` at a scalar ``q``; ``inf`` where ``1 - q`` rounds to 1."""
        return self.quantile(1.0 - q) if 1.0 - q < 1.0 else math.inf

    def tail_point(self, s, mass):
        """Point beyond which ``mass`` of the tail past ``s`` remains: ``support_sup``
        if bounded, else ``isf(mass * sf(s))``, ``inf`` where that underflows."""
        if math.isfinite(self.support_sup):
            return self.support_sup
        q = mass * float(self.sf(s))
        return float(self.isf(q)) if q > 0.0 else math.inf

    def params(self):
        raise NotImplementedError

    def to_dict(self):
        return {"family": self.family, **self.params()}

    def __repr__(self):
        args = ", ".join(f"{k}={v:g}" for k, v in self.params().items())
        return f"{type(self).__name__}({args})"


class ExponentialLaw(LengthLaw):
    family = "exponential"

    def __init__(self, rate=1.0):
        if not 0.0 < rate < math.inf:
            raise ValueError("rate must be positive and finite")
        self.rate = float(rate)

    def pdf(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r > 0.0, self.rate * np.exp(-self.rate * np.maximum(r, 0.0)), 0.0)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t > 0.0, -np.expm1(-self.rate * np.maximum(t, 0.0)), 0.0)

    def quantile(self, q):
        return -np.log1p(-np.asarray(q, dtype=float)) / self.rate

    def sf(self, t):
        return np.exp(-self.rate * np.maximum(t, 0.0))

    def isf(self, q):
        return -np.log(q) / self.rate

    def params(self):
        return {"rate": self.rate}


class UniformLaw(LengthLaw):
    family = "uniform"

    def __init__(self, a, b):
        if not 0.0 <= a < b < math.inf:
            raise ValueError("need 0 <= a < b < inf")
        self.a = float(a)
        self.b = float(b)
        self.support_inf = self.a
        self.support_sup = self.b
        self.breakpoints = (self.a,)

    def pdf(self, r):
        r = np.asarray(r, dtype=float)
        return np.where((r >= self.a) & (r <= self.b), 1.0 / (self.b - self.a), 0.0)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        return np.clip((t - self.a) / (self.b - self.a), 0.0, 1.0)

    def quantile(self, q):
        return self.a + (self.b - self.a) * np.asarray(q, dtype=float)

    def params(self):
        return {"a": self.a, "b": self.b}


class GammaLaw(LengthLaw):
    family = "gamma"

    def __init__(self, shape, scale=1.0):
        if not (0.0 < shape < math.inf and 0.0 < scale < math.inf):
            raise ValueError("shape and scale must be positive and finite")
        self.shape = float(shape)
        self.scale = float(scale)

    def pdf(self, r):
        r = np.asarray(r, dtype=float)
        rp = np.maximum(r, np.finfo(float).tiny)
        log_pdf = ((self.shape - 1.0) * np.log(rp / self.scale)
                   - rp / self.scale - special.gammaln(self.shape) - np.log(self.scale))
        return np.where(r > 0.0, np.exp(log_pdf), 0.0)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t > 0.0, special.gammainc(self.shape, np.maximum(t, 0.0) / self.scale), 0.0)

    def quantile(self, q):
        return self.scale * special.gammaincinv(self.shape, np.asarray(q, dtype=float))

    def sf(self, t):
        return special.gammaincc(self.shape, np.maximum(t, 0.0) / self.scale)

    def isf(self, q):
        return self.scale * special.gammainccinv(self.shape, q)

    def params(self):
        return {"shape": self.shape, "scale": self.scale}


class TruncatedExponentialLaw(LengthLaw):
    """Exponential law conditioned on lying below ``b``."""

    family = "truncated-exponential"

    def __init__(self, rate, b):
        if not (0.0 < rate < math.inf and 0.0 < b < math.inf):
            raise ValueError("rate and b must be positive and finite")
        self.rate = float(rate)
        self.b = float(b)
        self.support_sup = self.b
        self._norm = -math.expm1(-self.rate * self.b)

    def pdf(self, r):
        r = np.asarray(r, dtype=float)
        inside = (r > 0.0) & (r <= self.b)
        return np.where(inside, self.rate * np.exp(-self.rate * np.maximum(r, 0.0)) / self._norm, 0.0)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        raw = -np.expm1(-self.rate * np.clip(t, 0.0, self.b)) / self._norm
        return np.where(t > 0.0, np.minimum(raw, 1.0), 0.0)

    def quantile(self, q):
        return -np.log1p(-np.asarray(q, dtype=float) * self._norm) / self.rate

    def params(self):
        return {"rate": self.rate, "b": self.b}


class CustomLengthLaw(LengthLaw):
    """Plug-in law built from user callables; validated numerically."""

    family = "custom"

    def __init__(self, pdf, cdf, quantile, support_sup=math.inf,
                 breakpoints=()):
        self._pdf = pdf
        self._cdf = cdf
        self._quantile = quantile
        self.support_sup = float(support_sup)
        self.breakpoints = tuple(breakpoints)
        validate_length_law(self)

    def pdf(self, r):
        return np.asarray(self._pdf(np.asarray(r, dtype=float)), dtype=float)

    def cdf(self, t):
        return np.asarray(self._cdf(np.asarray(t, dtype=float)), dtype=float)

    def quantile(self, q):
        return self._quantile(np.asarray(q, dtype=float))

    def params(self):
        return {"support_sup": self.support_sup}


_FAMILIES = {
    "exponential": lambda d: ExponentialLaw(rate=d["rate"]),
    "uniform": lambda d: UniformLaw(a=d["a"], b=d["b"]),
    "gamma": lambda d: GammaLaw(shape=d["shape"], scale=d.get("scale", 1.0)),
    "truncated-exponential": lambda d: TruncatedExponentialLaw(rate=d["rate"], b=d["b"]),
}


def _reject_bools(*values):
    if any(isinstance(v, (bool, np.bool_)) for a in values for v in np.array(a, object).flat):
        raise ValueError("law parameters, pin levels and weights must be numbers, not booleans")


def length_law_from_dict(d):
    try:
        builder = _FAMILIES[d["family"]]
    except KeyError:
        raise ValueError(f"unknown length-law family {d.get('family')!r}") from None
    _reject_bools(*(v for k, v in d.items() if k != "family"))
    return builder(d)


def validate_length_law(law):
    """Check that ``pdf`` integrates to one within 1e-10 and matches ``cdf``
    within 1e-8 at 100 quantiles from 0.005 to 0.995.

    Quadrature runs between the law's quantiles so unbounded supports are
    covered; interior breakpoints are integration limits.  Raises
    ``ValueError`` on failure.
    """
    from scipy import integrate

    upper = law.tail_point(0.0, 1e-14)
    pts = sorted(b for b in law.breakpoints if 0.0 < b < upper)
    total, _ = integrate.quad(lambda r: float(law.pdf(r)), 0.0, upper,
                              points=pts or None, limit=200)
    if abs(total - 1.0) > 1e-10 + 1e-13:
        raise ValueError(f"density integrates to {total}, not 1")
    grid = law.quantile(np.linspace(0.005, 0.995, 100))
    for t in np.atleast_1d(grid):
        seg = [b for b in pts if b < t]
        num, _ = integrate.quad(lambda r: float(law.pdf(r)), 0.0, float(t),
                                points=seg or None, limit=200)
        if abs(num - float(law.cdf(t))) > 1e-8:
            raise ValueError(f"cdf mismatch at t={t}: quadrature {num}, analytic {law.cdf(t)}")
    return True


# ---------------------------------------------------------------------------
# Pinning law and the full model
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PinningLaw:
    """Discrete law of the pinning point: strictly increasing finite levels
    with strictly positive finite weights summing to one."""

    points: np.ndarray
    probs: np.ndarray

    def __init__(self, points, probs):
        _reject_bools(points, probs)
        points = np.asarray(points, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if points.ndim != 1 or points.size < 1 or points.shape != probs.shape:
            raise ValueError("points and probs must be matching 1-d sequences")
        if not (np.all(np.isfinite(points)) and np.all(np.isfinite(probs))):
            raise ValueError("pin levels and weights must be finite")
        if np.any(np.diff(points) <= 0.0):
            raise ValueError("pin levels must be strictly increasing")
        if np.any(probs <= 0.0) or abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to one")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "probs", probs)

    def __len__(self):
        return self.points.size

    @property
    def symmetric(self):
        """Whether the law is its own mirror under z -> -z: the levels are
        their negatives reversed and the weights their reverse, exactly.  A
        law that is symmetric only up to rounding is not."""
        return bool(np.array_equal(self.points, -self.points[::-1])
                    and np.array_equal(self.probs, self.probs[::-1]))

    def quantile(self, q):
        """Pin level at uniform ``q``: the first whose cumulative weight exceeds it."""
        idx = np.searchsorted(np.cumsum(self.probs), q, side="right")
        return self.points[np.minimum(idx, len(self) - 1)]

    def sample(self, rng, size=None):
        return self.quantile(rng.uniform(size=size))

    def mean(self):
        return float(self.probs @ self.points)

    def to_dict(self):
        return {"points": self.points.tolist(), "probs": self.probs.tolist()}


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """The full model: length law plus pinning law (independent by
    construction; simulation uses separate RNG streams)."""

    length: LengthLaw
    pinning: PinningLaw

    @property
    def support_sup(self):
        return self.length.support_sup

    @classmethod
    def from_dict(cls, d):
        return cls(length=length_law_from_dict(d["tau"]),
                   pinning=PinningLaw(d["pinning"]["points"], d["pinning"]["probs"]))

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self):
        return {"tau": self.length.to_dict(), "pinning": self.pinning.to_dict()}
