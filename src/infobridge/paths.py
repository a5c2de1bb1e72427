"""Exact-in-law simulation of the pinned bridge on a uniform grid.

The exact conditional Gaussian step of the bridge is linear, so its closed
form is evaluated, one cumulative sum per path; grid marginals carry no
discretization bias.  The realized length is kept as an exact real in the
path record; only the stored trajectory snaps the absorption to the grid
(first index at or past the length), after which the path is at the pin.

Simulation is reproducible: a master seed spawns one child stream per path
and, within a path, separate streams for the length, the pin, and the
Gaussian increments.  Ensembles generated in chunks are bitwise identical
to unchunked runs.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SamplePath",
    "PathEnsemble",
    "simulate_deterministic_bridge",
    "simulate_information_path",
    "simulate_ensemble",
    "simulate_bridge_ensemble",
    "iter_ensemble_chunks",
    "simulate_brownian_motion",
    "quadratic_variation",
    "save_path_csv",
    "save_ensemble",
    "load_ensemble",
]


@dataclass(eq=False)
class SamplePath:
    """One discretized trajectory with its realized length and pin.

    ``absorbed_index`` is the first grid index at or past the length; it
    equals ``len(values)`` when the path never absorbs within the horizon
    (the path is then flagged unabsorbed, never discarded).
    """

    dt: float
    values: np.ndarray
    tau: float
    z: float
    seed: int
    absorbed_index: int

    @property
    def n_steps(self):
        return len(self.values) - 1

    @property
    def horizon(self):
        return self.n_steps * self.dt

    @property
    def times(self):
        return self.dt * np.arange(len(self.values))

    @property
    def absorbed(self):
        return self.absorbed_index < len(self.values)


@dataclass(eq=False)
class PathEnsemble:
    """Row-per-path collection sharing one grid."""

    dt: float
    values: np.ndarray          # (n_paths, n_steps + 1)
    taus: np.ndarray
    zs: np.ndarray
    seed: int
    absorbed_indices: np.ndarray

    def __len__(self):
        return self.values.shape[0]

    @property
    def n_steps(self):
        return self.values.shape[1] - 1

    @property
    def times(self):
        return self.dt * np.arange(self.values.shape[1])

    def path(self, i):
        return SamplePath(dt=self.dt, values=self.values[i], tau=float(self.taus[i]),
                          z=float(self.zs[i]), seed=self.seed,
                          absorbed_index=int(self.absorbed_indices[i]))

    def __iter__(self):
        return (self.path(i) for i in range(len(self)))


def _n_steps(dt, horizon):
    n = int(round(horizon / dt))
    if n < 1 or abs(n * dt - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError("horizon must be a positive multiple of dt")
    return n


def _absorption_index(taus, dt, n_points):
    """First grid index at or past each length; ``n_points`` if beyond."""
    taus = np.asarray(taus, dtype=float)
    raw = np.ceil(np.where(np.isfinite(taus), taus, np.inf) / dt - 1e-12)
    idx = np.where(np.isfinite(raw) & (raw < n_points), raw, n_points).astype(np.int64)
    return np.maximum(idx, 1)


def _bridge_rows(rs, zs, dt, values):
    """Turn the standard normals in ``values[:, 1:]`` into bridge rows, in place.

    With rho_k = r - t_k, the exact step x_{k+1} = x_k + dt (z - x_k)/rho_k
    + sqrt(dt rho_{k+1}/rho_k) n_k solves to x_k = z t_k/r + rho_k sum_{j<k}
    sqrt(dt/(rho_j rho_{j+1})) n_j: X_t = z t/r + (r - t) int_0^t dW_s/(r - s)
    on the grid.  Rows are 0 at column 0 and the pin from absorption on.
    """
    n_points = values.shape[1]
    absorb = _absorption_index(rs, dt, n_points)
    t = dt * np.arange(n_points)
    values[:, 0] = 0.0
    # rho <= 0 past absorption gives NaN or inf, carried only forward; the pin overwrites it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo in range(0, rs.size, 32):  # row blocks whose two temporaries stay in cache
            rows = slice(lo, lo + 32)
            r, z, x = rs[rows, None], zs[rows, None], values[rows, 1:]
            coef = r - t[:-1]
            # rho_{j+1} as the sequential step rounds it, floored clear of slow subnormals
            rho_next = np.maximum(coef - dt, 1e-300)
            coef *= rho_next
            np.sqrt(np.divide(dt, coef, out=coef), out=coef)
            x *= coef
            np.cumsum(x, axis=1, out=x)
            x *= rho_next
            x += np.multiply(z / r, t[1:], out=coef)
            np.copyto(values[rows], z, where=np.arange(n_points) >= absorb[rows, None])
    return absorb


def _spawn_path_generators(seed, n_paths):
    """One (length, pin, noise) stream triple per path, all from one seed."""
    children = np.random.SeedSequence(seed).spawn(n_paths)
    for child in children:
        tau_ss, pin_ss, noise_ss = child.spawn(3)
        yield (np.random.default_rng(tau_ss),
               np.random.default_rng(pin_ss),
               np.random.default_rng(noise_ss))


def simulate_deterministic_bridge(r, z, dt, horizon, rng):
    """Bridge with deterministic length ``r`` and pin ``z``; exact in law on
    the grid.  ``rng`` may be a Generator or an integer seed."""
    if not (0.0 < dt < r):
        raise ValueError("need 0 < dt < r")
    if isinstance(rng, (int, np.integer)):
        seed, rng = int(rng), np.random.default_rng(rng)
    else:
        seed = -1
    values = np.empty((1, _n_steps(dt, horizon) + 1))
    rng.standard_normal(out=values[0, 1:])
    absorb = _bridge_rows(np.full(1, float(r)), np.full(1, float(z)), dt, values)
    return SamplePath(dt=dt, values=values[0], tau=float(r), z=float(z),
                      seed=seed, absorbed_index=int(absorb[0]))


def simulate_information_path(model, dt, horizon, seed):
    """Draw (length, pin) from independent streams and run the bridge."""
    ens = simulate_ensemble(model, dt, horizon, n_paths=1, seed=seed)
    return ens.path(0)


def iter_ensemble_chunks(model, dt, horizon, n_paths, seed, chunk=1024):
    """Yield the ensemble in path chunks; chunking does not change draws."""
    n_steps = _n_steps(dt, horizon)
    gens = _spawn_path_generators(seed, n_paths)
    done = 0
    while done < n_paths:
        m = min(chunk, n_paths - done)
        uniforms = np.empty((2, m))  # what ``sample`` draws, mapped for the whole chunk
        values = np.empty((m, n_steps + 1))
        for j in range(m):
            tau_rng, pin_rng, noise_rng = next(gens)
            uniforms[:, j] = tau_rng.uniform(), pin_rng.uniform()
            noise_rng.standard_normal(out=values[j, 1:])
        taus = np.asarray(model.length.quantile(uniforms[0]), dtype=float)
        zs = model.pinning.quantile(uniforms[1])
        absorb = _bridge_rows(taus, zs, dt, values)
        yield PathEnsemble(dt=dt, values=values, taus=taus, zs=zs, seed=seed,
                           absorbed_indices=absorb)
        done += m


def simulate_ensemble(model, dt, horizon, n_paths, seed, chunk=None):
    """Full ensemble in memory; see :func:`iter_ensemble_chunks` to stream."""
    chunks = list(iter_ensemble_chunks(model, dt, horizon, n_paths, seed,
                                       chunk=chunk or n_paths))
    if len(chunks) == 1:
        return chunks[0]
    return PathEnsemble(
        dt=dt,
        values=np.concatenate([c.values for c in chunks]),
        taus=np.concatenate([c.taus for c in chunks]),
        zs=np.concatenate([c.zs for c in chunks]),
        seed=seed,
        absorbed_indices=np.concatenate([c.absorbed_indices for c in chunks]),
    )


def simulate_bridge_ensemble(r, z, dt, horizon, n_paths, seed):
    """Ensemble of bridges with one deterministic length and pin."""
    if not (0.0 < dt < r):
        raise ValueError("need 0 < dt < r")
    values = np.empty((n_paths, _n_steps(dt, horizon) + 1))
    for j, (_, _, noise_rng) in enumerate(_spawn_path_generators(seed, n_paths)):
        noise_rng.standard_normal(out=values[j, 1:])
    rs = np.full(n_paths, float(r))
    zs = np.full(n_paths, float(z))
    absorb = _bridge_rows(rs, zs, dt, values)
    return PathEnsemble(dt=dt, values=values, taus=rs, zs=zs, seed=seed,
                        absorbed_indices=absorb)


def simulate_brownian_motion(dt, horizon, rng):
    """Standard Brownian motion as a never-absorbed path record (helper for
    local-time baselines)."""
    if isinstance(rng, (int, np.integer)):
        seed, rng = int(rng), np.random.default_rng(rng)
    else:
        seed = -1
    n_steps = _n_steps(dt, horizon)
    values = np.concatenate(([0.0], math.sqrt(dt) * np.cumsum(rng.standard_normal(n_steps))))
    return SamplePath(dt=dt, values=values, tau=math.inf, z=math.nan,
                      seed=seed, absorbed_index=n_steps + 1)


def quadratic_variation(path, t):
    """Sum of squared grid increments up to time ``t``; consistent estimator
    of ``t`` capped at the realized length."""
    if t > path.horizon + 1e-12:
        raise ValueError("t beyond the simulated horizon")
    k = int(math.floor(t / path.dt + 1e-12))
    d = np.diff(path.values[: k + 1])
    return float(d @ d)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<dqqq")
_MAGIC = b"IBEN1\x00\x00\x00"


def save_path_csv(path, fp):
    """Write ``t, xi`` rows for one path."""
    data = np.column_stack([path.times, path.values])
    np.savetxt(fp, data, delimiter=",", header="t,xi", comments="", fmt="%.17g")


def save_ensemble(ens, fp):
    """Binary dump: magic, header (dt, n_steps, n_paths, seed), row-major
    values, then per-path (length, pin) pairs."""
    own = isinstance(fp, (str, bytes))
    fh = open(fp, "wb") if own else fp
    try:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(ens.dt, ens.n_steps, len(ens), ens.seed))
        fh.write(np.ascontiguousarray(ens.values, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(np.column_stack([ens.taus, ens.zs]), dtype="<f8").tobytes())
    finally:
        if own:
            fh.close()


def _read_exactly(fh, n):
    data = fh.read(n)
    if len(data) != n:
        raise ValueError("truncated ensemble file")
    return data


def load_ensemble(fp):
    own = isinstance(fp, (str, bytes))
    fh = open(fp, "rb") if own else fp
    try:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise ValueError("not an ensemble file")
        dt, n_steps, n_paths, seed = _HEADER.unpack(_read_exactly(fh, _HEADER.size))
        values = np.frombuffer(_read_exactly(fh, 8 * n_paths * (n_steps + 1)), dtype="<f8")
        values = values.reshape(n_paths, n_steps + 1).copy()
        tz = np.frombuffer(_read_exactly(fh, 8 * 2 * n_paths), dtype="<f8")
        tz = tz.reshape(n_paths, 2).copy()
    finally:
        if own:
            fh.close()
    return PathEnsemble(dt=dt, values=values, taus=tz[:, 0], zs=tz[:, 1], seed=seed,
                        absorbed_indices=_absorption_index(tz[:, 0], dt, n_steps + 1))
