"""Exact-in-law simulation of the pinned bridge on a uniform grid.

The exact conditional Gaussian step of the bridge is linear, so its closed
form is evaluated, one cumulative sum per path; grid marginals carry no
discretization bias.  The realized length is kept as an exact real in the
path record; only the stored trajectory snaps the absorption to the grid
(first index at or past the length), after which the path is at the pin.

Simulation is reproducible.  Path i of an ensemble of n draws its length,
pin and Gaussian increments from three PCG64 streams, seeded by
``SeedSequence(seed).spawn(n)[i].spawn(3)``.  Their seed words come from a
vectorized copy of the SeedSequence hash, one block of paths at a time.  The
length and pin are each the first PCG64 output of their stream, computed
directly across the block in uint64 arithmetic; the normals come from one
generator reset to each noise stream in turn.  The draws are numpy's own for
that layout, without a SeedSequence or Generator object per path.  Rows never
interact, so the blocks of at most ``_CELLS`` grid values that
:func:`iter_ensemble_chunks` streams are, bit for bit, rows of the one block
:func:`simulate_ensemble` draws.  While it streams, two blocks are alive: the
caller's, and the next one, drawn meanwhile on one worker thread.  A row
draws and computes only its steps before absorption, with the full row's
values: its stream is its own.  There is one bridge route and one stream
layout: a single path, of the model (:func:`simulate_information_path`) or
of a fixed length and pin (:func:`simulate_deterministic_bridge`), is path 0
of a one-path ensemble.
"""

from __future__ import annotations

import math
import struct
from concurrent.futures import ThreadPoolExecutor
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

#: Grid values per streamed block of paths.  Two blocks are alive while
#: streaming: the caller's, and the next one, drawn on one worker thread.
_CELLS = 2 ** 19


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


def _on_grid(n, dt, t):
    """Whether ``n`` steps of ``dt`` make the time ``t``, to 1e-9 relative."""
    return abs(n * dt - t) <= 1e-9 * max(1.0, t)


def _n_steps(dt, horizon):
    n = int(round(horizon / dt))
    if n < 1 or not _on_grid(n, dt, horizon):
        raise ValueError("horizon must be a positive multiple of dt")
    return n


def _absorption_index(taus, dt, n_points):
    """First grid index at or past each length; ``n_points`` if beyond."""
    taus = np.asarray(taus, dtype=float)
    raw = np.ceil(np.where(np.isfinite(taus), taus, np.inf) / dt - 1e-12)
    idx = np.where(np.isfinite(raw) & (raw < n_points), raw, n_points).astype(np.int64)
    return np.maximum(idx, 1)


def _live_steps(taus, dt, n_steps):
    """Steps of each path that can hold local time: to one past its absorption
    index, as a margin against rounding, and at most ``n_steps``."""
    return np.minimum(_absorption_index(taus, dt, n_steps) + 1, n_steps)


def _rows_within(cells, width):
    """Rows of ``width`` values that fit in a budget of ``cells`` values, one
    row at least: the row-group rule of every cell budget in the package."""
    return max(1, cells // width)


def _path_count(n_paths):
    """``n_paths`` as an int; ``ValueError`` unless it is an integer >= 0
    (a bool is refused)."""
    if isinstance(n_paths, bool) or not isinstance(n_paths, (int, np.integer)) or n_paths < 0:
        raise ValueError(f"n_paths must be an integer >= 0: {n_paths!r}")
    return int(n_paths)


def _live_groups(live, rows):
    """Row indices ascending in ``live``, ``rows`` at a time, each group with its maximum."""
    order = np.argsort(live)
    for lo in range(0, order.size, rows):
        group = order[lo:lo + rows]
        yield group, int(live[group[-1]])


def _bridge_rows(rs, zs, dt, values):
    """Turn the standard normals in ``values[:, 1:]`` into bridge rows, in place.

    With rho_k = r - t_k, the exact step x_{k+1} = x_k + dt (z - x_k)/rho_k
    + sqrt(dt rho_{k+1}/rho_k) n_k solves to x_k = z t_k/r + rho_k sum_{j<k}
    sqrt(dt/(rho_j rho_{j+1})) n_j: X_t = z t/r + (r - t) int_0^t dW_s/(r - s)
    on the grid.  Rows are 0 at column 0 and the pin from absorption on.
    Blocks of 32 rows in absorption order stop at their last absorption: x_k reads no n_j past k.
    """
    n_points = values.shape[1]
    absorb = _absorption_index(rs, dt, n_points)
    t = dt * np.arange(n_points)
    values[:, 0] = 0.0
    # rho <= 0 past absorption gives NaN or inf, carried only forward; the pin overwrites it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for rows, m in _live_groups(absorb, 32):  # blocks whose temporaries stay in cache
            r, z, x = rs[rows, None], zs[rows, None], values[rows, 1:m]
            coef = r - t[:m - 1]
            # rho_{j+1} as the sequential step rounds it, floored clear of slow subnormals
            rho_next = np.maximum(coef - dt, 1e-300)
            coef *= rho_next
            np.sqrt(np.divide(dt, coef, out=coef), out=coef)
            x *= coef
            np.cumsum(x, axis=1, out=x)
            x *= rho_next
            x += np.multiply(z / r, t[1:m], out=coef)
            values[rows, 1:m] = x
    np.copyto(values, zs[:, None], where=np.arange(n_points) >= absorb[:, None])
    return absorb


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), fixed across versions
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT_HI, _PCG64_MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)


def _stream_words(seed, first, n, leaf):
    """``SeedSequence(seed).spawn(N)[i].spawn(3)[leaf].generate_state(4, np.uint64)``
    for i in ``[first, first + n)``, as an (n, 4) uint64 array; with leaf None,
    the words of ``spawn(N)[i]`` itself.

    Each row hashes the zero-padded run entropy of ``seed`` followed by the
    spawn key ``(i, leaf)``, in uint32 arithmetic across the block.  A path
    index of 2**32 or more would take two key words, so it is refused.
    """
    seed = int(seed)
    if seed < 0 or first < 0 or first + n > 2**32:
        raise ValueError("need seed >= 0 and path indices in [0, 2**32)")
    n_words = max(1, (seed.bit_length() + 31) // 32)
    run = [(seed >> 32 * k) & 0xFFFFFFFF for k in range(n_words)]
    run += [0] * (_POOL_SIZE - len(run))
    entropy = [np.full(n, w, dtype=np.uint32) for w in run]
    entropy.append(np.arange(first, first + n, dtype=np.uint32))
    if leaf is not None:
        entropy.append(np.full(n, leaf, dtype=np.uint32))

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & 0xFFFFFFFF
        value *= np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        out = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return out ^ (out >> 16)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = np.empty((n, 8), dtype=np.uint32)
    for k in range(8):
        value = pool[k % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & 0xFFFFFFFF
        value *= np.uint32(hash_const)
        state[:, k] = value ^ (value >> 16)
    # little-endian pairs of 32-bit words, as generate_state views them
    return state[:, 0::2].astype(np.uint64) | state[:, 1::2].astype(np.uint64) << np.uint64(32)


def _add128(hi, lo, b_hi, b_lo):
    """``(hi:lo) + (b_hi:b_lo)`` mod 2**128, as (hi, lo) uint64 words."""
    total = lo + b_lo
    return hi + b_hi + (total < lo), total


def _pcg64_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, ``state * M + inc`` mod 2**128, on (hi, lo) uint64
    words; the carry of ``lo * M_lo`` is built from 32-bit halves."""
    mask = np.uint64(0xFFFFFFFF)
    l0, l1, m0, m1 = lo & mask, lo >> 32, _PCG64_MULT_LO & mask, _PCG64_MULT_LO >> 32
    cross_a, cross_b = l1 * m0, l0 * m1
    mid = (l0 * m0 >> 32) + (cross_a & mask) + (cross_b & mask)
    carry = l1 * m1 + (cross_a >> 32) + (cross_b >> 32) + (mid >> 32)
    return _add128(carry + lo * _PCG64_MULT_HI + hi * _PCG64_MULT_LO, lo * _PCG64_MULT_LO,
                   inc_hi, inc_lo)


def _pcg64_seeded(seed, first, n, leaf):
    """The state and increment ``PCG64(seed_sequence)`` starts in (pcg64
    ``srandom``) on each path's stream of :func:`_stream_words`, as (hi, lo)
    pairs of uint64 arrays: with words (w0, w1, w2, w3), ``inc = (w2:w3) << 1
    | 1`` and ``state = (inc + (w0:w1)) * M + inc``."""
    w0, w1, w2, w3 = _stream_words(seed, first, n, leaf).T
    inc = (w2 << 1 | w3 >> 63, w3 << 1 | 1)
    return _pcg64_step(*_add128(w0, w1, *inc), *inc), inc


def _first_uniforms(seed, first, n, leaf):
    """``Generator(PCG64(...)).random()`` on each path's stream ``leaf``: one
    step from the seeded state, its XSL RR output ``rotr64(hi ^ lo, hi >>
    58)``, and that output's top 53 bits as a double in [0, 1)."""
    state, inc = _pcg64_seeded(seed, first, n, leaf)
    hi, lo = _pcg64_step(*state, *inc)
    x, rot = hi ^ lo, hi >> 58
    return ((x >> rot | x << ((64 - rot) & 63)) >> 11) * 2.0 ** -53


def _streams(gen, seed, first, n, leaf):
    """Reset ``gen``, a Generator over PCG64, to each path's stream of
    :func:`_stream_words` in turn and yield it: draw from it before the next."""
    bit_generator = gen.bit_generator
    (s_hi, s_lo), (i_hi, i_lo) = _pcg64_seeded(seed, first, n, leaf)
    for sh, sl, ih, il in zip(s_hi.tolist(), s_lo.tolist(), i_hi.tolist(), i_lo.tolist()):
        bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": sh << 64 | sl, "inc": ih << 64 | il},
                               "has_uint32": 0, "uinteger": 0}
        yield gen


def simulate_deterministic_bridge(r, z, dt, horizon, seed):
    """Bridge with deterministic length ``r`` and pin ``z``, exact in law on
    the grid: path 0 of :func:`simulate_bridge_ensemble` at ``seed``, so its
    normals come from that path's noise stream.  Raises ``ValueError``
    unless ``0 < dt < r < inf`` and ``z`` is finite."""
    return simulate_bridge_ensemble(r, z, dt, horizon, 1, seed).path(0)


def simulate_information_path(model, dt, horizon, seed):
    """Draw (length, pin) from independent streams and run the bridge."""
    ens = simulate_ensemble(model, dt, horizon, n_paths=1, seed=seed)
    return ens.path(0)


def _bridge_block(rs, zs, dt, n_steps, seed, first):
    """Paths ``first, first + 1, ...`` of lengths ``rs`` and pins ``zs``: each
    row's standard normals from its noise stream, turned into its bridge."""
    values = np.empty((rs.size, n_steps + 1))
    for row, k, g in zip(values, _absorption_index(rs, dt, n_steps + 1).tolist(),
                         _streams(np.random.default_rng(0), seed, first, rs.size, 2)):
        g.standard_normal(out=row[1:k])  # the first k - 1 normals of the full row
    absorb = _bridge_rows(rs, zs, dt, values)
    return PathEnsemble(dt=dt, values=values, taus=rs, zs=zs, seed=seed,
                        absorbed_indices=absorb)


def _model_block(model, dt, n_steps, seed, first, n):
    """Paths ``[first, first + n)`` of the model's ensemble."""
    # what ``sample`` draws from the length and pin streams: ``uniform()``
    # returns the bits of ``random()``, the first output of each stream
    taus = np.asarray(model.length.quantile(_first_uniforms(seed, first, n, 0)), dtype=float)
    zs = model.pinning.quantile(_first_uniforms(seed, first, n, 1))
    return _bridge_block(taus, zs, dt, n_steps, seed, first)


def iter_ensemble_chunks(model, dt, horizon, n_paths, seed):
    """An iterator over the ensemble in blocks of at most ``_CELLS`` grid
    values (one path at least); the blocks are the rows of
    :func:`simulate_ensemble`, and ``n_paths`` is checked as there.

    The first block is drawn inline.  Each later one is drawn by
    :func:`_model_block` on one worker thread while the caller holds the
    block before it; numpy's normal fill, its ufuncs and ``cumsum`` release
    the GIL, so on two cores drawing overlaps the caller's work.  A caller
    that drops each block before asking for the next holds at most two.  An
    error raised while drawing a block surfaces at the ``next()`` that asks
    for it; closing the iterator waits for the block being drawn and ends the
    thread.  On one core the overlap gains nothing: there ``infobridge
    compensator --paths 40000`` took about 7 % longer than drawing and
    reducing in turn.
    """
    n_steps, n_paths = _n_steps(dt, horizon), _path_count(n_paths)
    rows = _rows_within(_CELLS, n_steps + 1)
    firsts = range(0, n_paths, rows)

    def draw(first):
        return _model_block(model, dt, n_steps, seed, first, min(rows, n_paths - first))

    def blocks():
        if not firsts:
            return
        block = draw(0)
        with ThreadPoolExecutor(1) as worker:
            for first in firsts[1:]:
                ahead = worker.submit(draw, first)
                yield block
                block = ahead.result()
        yield block
    return blocks()


def simulate_ensemble(model, dt, horizon, n_paths, seed):
    """Full ensemble in memory; see :func:`iter_ensemble_chunks` to stream.
    Raises ``ValueError`` unless ``n_paths`` is an integer >= 0 (a bool is
    refused)."""
    return _model_block(model, dt, _n_steps(dt, horizon), seed, 0, _path_count(n_paths))


def simulate_bridge_ensemble(r, z, dt, horizon, n_paths, seed):
    """Ensemble of bridges with one deterministic length ``r`` and pin ``z``,
    in the stream layout of :func:`simulate_ensemble`; raises ``ValueError``
    unless ``0 < dt < r < inf``, ``z`` is finite and ``n_paths`` is checked
    as there."""
    if not (0.0 < dt < r < math.inf and math.isfinite(z)):
        raise ValueError("need 0 < dt < r < inf and a finite pin z")
    n_paths = _path_count(n_paths)
    return _bridge_block(np.full(n_paths, float(r)), np.full(n_paths, float(z)), dt,
                         _n_steps(dt, horizon), seed, 0)


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
    of ``t`` capped at the realized length.  Raises ``ValueError`` for a
    ``t`` outside ``[0, horizon]``."""
    if not 0.0 <= t <= path.horizon + 1e-12:
        raise ValueError(f"t={t} outside the simulated range [0, {path.horizon}]")
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
    """``n`` bytes of ``fh``, read in pieces of at most 16 MiB: a header that
    claims more than the file holds fails without allocating the claim."""
    parts = []
    while n > 0:
        part = fh.read(min(n, 1 << 24))
        if not part:
            raise ValueError("truncated ensemble file")
        parts.append(part)
        n -= len(part)
    return b"".join(parts)


def load_ensemble(fp):
    """Read a :func:`save_ensemble` file; ``ValueError`` if it is not one, is
    truncated or corrupt, or holds a NaN or non-positive length or a non-finite pin."""
    own = isinstance(fp, (str, bytes))
    fh = open(fp, "rb") if own else fp
    try:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise ValueError("not an ensemble file")
        dt, n_steps, n_paths, seed = _HEADER.unpack(_read_exactly(fh, _HEADER.size))
        if not 0.0 < dt < math.inf or n_steps < 1 or n_paths < 0:
            raise ValueError("corrupt ensemble header: need dt > 0 finite, "
                             "n_steps >= 1 and n_paths >= 0")
        values = np.frombuffer(_read_exactly(fh, 8 * n_paths * (n_steps + 1)), dtype="<f8")
        values = values.reshape(n_paths, n_steps + 1).copy()
        tz = np.frombuffer(_read_exactly(fh, 8 * 2 * n_paths), dtype="<f8")
        tz = tz.reshape(n_paths, 2).copy()
    finally:
        if own:
            fh.close()
    if not (np.all(tz[:, 0] > 0.0) and np.all(np.isfinite(tz[:, 1]))):
        raise ValueError("corrupt ensemble file: need lengths > 0 (not NaN) and finite pins")
    return PathEnsemble(dt=dt, values=values, taus=tz[:, 0], zs=tz[:, 1], seed=seed,
                        absorbed_indices=_absorption_index(tz[:, 0], dt, n_steps + 1))
