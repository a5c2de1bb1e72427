"""Brute-force quadrature oracles used to pin expected values in tests.

Everything here but :func:`gamma_intensity`, a closed form, is a plain
midpoint Riemann sum, written independently of the package's adaptive
quadrature: the only shared knowledge is the integrand's closed form.  The
left-endpoint square-root singularity of the tail integrands is handled by
summing in the variable v = sqrt(r - s), which is ordinary calculus, not an
algorithm shared with the library.
"""

import numpy as np
from scipy import special


def gaussian(v, x, mean=0.0):
    return np.exp(-(x - mean) ** 2 / (2.0 * v)) / np.sqrt(2.0 * np.pi * v)


def bridge_density(t, r, z, x):
    return gaussian(t * (r - t) / r, x, t * z / r)


def mixture_tail(s, x, pins, probs, pdf, r_max, lower=None, n=10 ** 6,
                 weight=None):
    """Midpoint Riemann sum of  sum_i p_i int phi_i(r) f(r) [w(r, z_i)] dr
    over (max(lower, s), r_max), summed in v = sqrt(r - s)."""
    lo = s if lower is None else max(lower, s)
    v_lo = np.sqrt(lo - s)
    v_hi = np.sqrt(r_max - s)
    dv = (v_hi - v_lo) / n
    v = v_lo + (np.arange(n) + 0.5) * dv
    r = s + v * v
    total = 0.0
    for z, p in zip(pins, probs):
        g = bridge_density(s, r, z, x) * pdf(r) * 2.0 * v
        if weight is not None:
            g = g * weight(r, z)
        total += p * np.sum(g) * dv
    return total


def mix_weight(s, x, pins, probs, pdf, r_max, n=10 ** 6):
    return mixture_tail(s, x, pins, probs, pdf, r_max, n=n)


def survival(s, x, u, pins, probs, pdf, r_max, n=10 ** 6):
    num = mixture_tail(s, x, pins, probs, pdf, r_max, lower=u, n=n)
    den = mixture_tail(s, x, pins, probs, pdf, r_max, n=n)
    return num / den


def drift(s, x, pins, probs, pdf, r_max, n=10 ** 6, lower=None):
    """``lower`` may pin the sum to the support edge of the length law so
    that no Riemann panel straddles the density jump."""
    num = mixture_tail(s, x, pins, probs, pdf, r_max, n=n, lower=lower,
                       weight=lambda r, z: (z - x) / (r - s))
    den = mixture_tail(s, x, pins, probs, pdf, r_max, n=n, lower=lower)
    return num / den


def intensity(s, k, pins, probs, pdf, f_at_s, r_max, n=10 ** 6):
    """Kernel oracle: weight at pin k over the density-ratio tail integral."""
    zk = pins[k]
    v_hi = np.sqrt(r_max - s)
    dv = v_hi / n
    v = (np.arange(n) + 0.5) * dv
    r = s + v * v
    den = 0.0
    for z, p in zip(pins, probs):
        ratio = pdf(r) * np.sqrt(2.0 * np.pi * r) * np.exp(z * z / (2.0 * r))
        kernel = np.exp(-(z - zk) ** 2 / (2.0 * (r - s))) / np.sqrt(2.0 * np.pi * (r - s))
        den += p * np.sum(ratio * kernel * 2.0 * v) * dv
    num = probs[k] * f_at_s * np.sqrt(2.0 * np.pi * s) * np.exp(zk * zk / (2.0 * s))
    return num / den


def gamma_intensity(s, shape, scale=1.0):
    """Kernel with one pin at 0 on a Gamma(shape, scale) length, in closed
    form: sqrt(2) / (sqrt(s) U(1/2, shape + 1, s / scale)), with Tricomi's U
    (Abramowitz and Stegun 13.2.5, after r = s (1 + t)).  Exp(1) is
    Gamma(1, 1)."""
    return np.sqrt(2.0) / (np.sqrt(s) * special.hyperu(0.5, shape + 1.0, s / scale))


def exp_pdf(rate=1.0):
    return lambda r: rate * np.exp(-rate * r)


def uniform_pdf(a, b):
    return lambda r: np.where((r >= a) & (r <= b), 1.0 / (b - a), 0.0)
