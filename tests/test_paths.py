"""Exactness, reproducibility and serialization of the path simulator."""

import io
import math
import struct
import sys
import threading
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import ndtr

from infobridge import paths
from infobridge import (
    ExponentialLaw,
    ModelSpec,
    PinningLaw,
    UniformLaw,
    ks_test,
    load_ensemble,
    quadratic_variation,
    save_ensemble,
    save_path_csv,
    simulate_bridge_ensemble,
    simulate_brownian_motion,
    simulate_deterministic_bridge,
    simulate_ensemble,
    simulate_information_path,
)


def sequential_bridge(rs, zs, dt, n_steps, normals):
    """Reference: the per-step conditional sampler, one grid step at a time.

    Given x at time t with t + dt inside the bridge, the next value is
    Normal(x + dt (z - x)/(r - t), dt (r - t - dt)/(r - t)); the step that
    reaches the length lands on the pin.  Returns (values, absorption indices).
    """
    rs = np.asarray(rs, dtype=float)
    zs = np.asarray(zs, dtype=float)
    absorb = np.array([min(max(math.ceil(r / dt - 1e-12), 1), n_steps + 1) for r in rs])
    values = np.zeros((rs.size, n_steps + 1))
    x = values[:, 0]
    for k in range(n_steps):
        t = k * dt
        inside = (k + 1) < absorb
        rem = np.where(inside, rs - t, 1.0)
        mean = x + dt * (zs - x) / rem
        var = dt * (rem - dt) / rem
        x = np.where(inside, mean + np.sqrt(np.maximum(var, 0.0)) * normals[:, k], zs)
        values[:, k + 1] = x
    return values, absorb


@st.composite
def bridge_rows(draw):
    """(lengths, pins, dt, n_steps): lengths below dt, inside the horizon,
    within 1e-12 dt (and up to 1e-9 dt) of a grid point, and past it."""
    dt = draw(st.floats(1e-3, 0.1))
    n_steps = draw(st.integers(1, 200))
    near = st.one_of(st.sampled_from([-1e-12, -5e-13, 0.0, 5e-13, 1e-12]),
                     st.floats(-1e-9, 1e-9))
    length = st.one_of(
        st.floats(1e-6, 1.0, exclude_max=True).map(lambda u: u * dt),
        st.floats(1.0, n_steps + 1.0).map(lambda u: u * dt),
        st.tuples(st.integers(1, n_steps + 1), near).map(lambda mo: (mo[0] + mo[1]) * dt),
        st.floats(1.0, 100.0).map(lambda u: u * n_steps * dt),
    )
    rs = draw(st.lists(length, min_size=1, max_size=40))
    zs = draw(st.lists(st.floats(-5.0, 5.0), min_size=len(rs), max_size=len(rs)))
    return np.array(rs), np.array(zs), dt, n_steps


class TestClosedForm:
    @given(bridge_rows(), st.integers(0, 2**32 - 1))
    def test_matches_sequential_steps(self, case, seed):
        rs, zs, dt, n_steps = case
        normals = np.random.default_rng(seed).standard_normal((rs.size, n_steps))
        ref, ref_absorb = sequential_bridge(rs, zs, dt, n_steps, normals)
        values = np.empty((rs.size, n_steps + 1))
        values[:, 1:] = normals
        absorb = paths._bridge_rows(rs, zs, dt, values)
        np.testing.assert_array_equal(absorb, ref_absorb)
        assert np.all(np.isfinite(values))
        assert np.all(values[:, 0] == 0.0)
        for row, k, z in zip(values, absorb, zs):
            assert np.all(row[k:] == z)
        assert np.max(np.abs(values - ref)) <= 1e-12 * math.sqrt(dt)

    @pytest.mark.parametrize("seed", [3, 20260810])
    @pytest.mark.parametrize("model_name", ["single_pin_exp", "two_pin_symmetric"])
    def test_draws_follow_the_stream_layout(self, model_name, seed, request):
        # per path i: SeedSequence(seed).spawn(n)[i].spawn(3) gives the
        # length, pin and noise streams, each read by its own default_rng
        model = request.getfixturevalue(model_name)
        dt, n_steps, n = 0.01, 200, 70
        ens = simulate_ensemble(model, dt, n_steps * dt, n, seed)
        taus, zs, normals = [], [], []
        for child in np.random.SeedSequence(seed).spawn(n):
            tau_ss, pin_ss, noise_ss = child.spawn(3)
            taus.append(model.length.sample(np.random.default_rng(tau_ss)))
            zs.append(model.pinning.sample(np.random.default_rng(pin_ss)))
            normals.append(np.random.default_rng(noise_ss).standard_normal(n_steps))
        ref, absorb = sequential_bridge(taus, zs, dt, n_steps, np.array(normals))
        np.testing.assert_array_equal(ens.taus, np.array(taus, dtype=float))
        np.testing.assert_array_equal(ens.zs, np.array(zs, dtype=float))
        np.testing.assert_array_equal(ens.absorbed_indices, absorb)
        assert np.max(np.abs(ens.values - ref)) <= 1e-12


# seeds at the run-entropy word boundaries, up to 2**64, and past 2**128,
# where the run entropy takes more than the 4 words of the pool
seeds = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128, 20260810]),
    st.integers(0, 2**64),
    st.integers(2**128, 2**200),
)
leaves = st.sampled_from([None, 0, 1, 2])


def seed_sequence_words(seed, i, leaf):
    """numpy's words for path i: ``spawn(N)[i]`` is ``spawn_key=(i,)``."""
    child = np.random.SeedSequence(seed, spawn_key=(i,))
    if leaf is not None:
        child = child.spawn(3)[leaf]
    return child.generate_state(4, np.uint64)


class TestStreamWords:
    @given(seeds, st.integers(0, 2**32 - 16), st.integers(0, 16), leaves)
    def test_matches_seed_sequence(self, seed, first, n, leaf):
        words = paths._stream_words(seed, first, n, leaf)
        assert words.shape == (n, 4) and words.dtype == np.uint64
        for j, row in enumerate(words):
            np.testing.assert_array_equal(row, seed_sequence_words(seed, first + j, leaf))

    @given(seeds, leaves)
    def test_matches_spawned_children(self, seed, leaf):
        words = paths._stream_words(seed, 0, 12, leaf)
        for row, child in zip(words, np.random.SeedSequence(seed).spawn(12)):
            if leaf is not None:
                child = child.spawn(3)[leaf]
            np.testing.assert_array_equal(row, child.generate_state(4, np.uint64))

    @given(seeds, leaves)
    def test_last_index_below_2_32(self, seed, leaf):
        np.testing.assert_array_equal(paths._stream_words(seed, 2**32 - 1, 1, leaf)[0],
                                      seed_sequence_words(seed, 2**32 - 1, leaf))
        for first, n in ((2**32 - 1, 2), (2**32, 1), (2**40, 3)):
            with pytest.raises(ValueError):
                paths._stream_words(seed, first, n, leaf)

    @given(seeds, st.integers(0, 2**32 - 16), st.integers(1, 16), leaves)
    def test_first_uniform_is_generator_random(self, seed, first, n, leaf):
        # the PCG64 seeding, one step and the XSL RR output in uint64
        # arithmetic give numpy's own first random() of each stream
        got = paths._first_uniforms(seed, first, n, leaf)
        assert got.shape == (n,) and got.dtype == np.float64
        for j, u in enumerate(got):
            child = np.random.SeedSequence(seed, spawn_key=(first + j,))
            if leaf is not None:
                child = child.spawn(3)[leaf]
            assert u == np.random.Generator(np.random.PCG64(child)).random()

    @given(seeds, st.integers(1, 12), st.sampled_from([0, 1, 2]))
    def test_first_uniform_of_spawned_children(self, seed, n, leaf):
        got = paths._first_uniforms(seed, 0, n, leaf)
        want = [np.random.Generator(np.random.PCG64(child.spawn(3)[leaf])).random()
                for child in np.random.SeedSequence(seed).spawn(n)]
        np.testing.assert_array_equal(got, want)

    @given(seeds, st.integers(1, 12), st.integers(1, 30))
    def test_bridge_ensemble_follows_noise_leaf(self, seed, n, n_steps):
        dt, r, z = 0.01, 0.15, -0.4
        ens = simulate_bridge_ensemble(r, z, dt, n_steps * dt, n, seed)
        values = np.empty((n, n_steps + 1))
        for row, child in zip(values, np.random.SeedSequence(seed).spawn(n)):
            row[1:] = np.random.default_rng(child.spawn(3)[2]).standard_normal(n_steps)
        absorb = paths._bridge_rows(np.full(n, r), np.full(n, z), dt, values)
        np.testing.assert_array_equal(ens.values, values)
        np.testing.assert_array_equal(ens.absorbed_indices, absorb)


class TestLiveSteps:
    """Each row draws and computes only up to its absorption."""

    @given(bridge_rows(), st.integers(0, 2**64), st.integers(0, 2**20))
    def test_block_matches_full_draws(self, case, seed, first):
        # lengths below one step (no normals read), within 1e-12 dt of a grid
        # point and past the horizon, mixed in one block of up to 40 rows
        rs, zs, dt, n_steps = case
        ens = paths._bridge_block(rs, zs, dt, n_steps, seed, first)
        full = np.empty((rs.size, n_steps + 1))
        for i, row in enumerate(full):
            noise = np.random.SeedSequence(seed, spawn_key=(first + i,)).spawn(3)[2]
            row[1:] = np.random.default_rng(noise).standard_normal(n_steps)
        ref, ref_absorb = sequential_bridge(rs, zs, dt, n_steps, full[:, 1:])
        paths._bridge_rows(rs, zs, dt, full)
        np.testing.assert_array_equal(ens.values, full)
        np.testing.assert_array_equal(ens.absorbed_indices, ref_absorb)
        assert np.max(np.abs(ens.values - ref)) <= 1e-12 * math.sqrt(dt)

    @given(bridge_rows(), st.integers(0, 2**32 - 1))
    def test_blocks_match_single_rows(self, case, seed):
        # rows grouped by absorption give each row's value bit for bit
        rs, zs, dt, n_steps = case
        normals = np.random.default_rng(seed).standard_normal((rs.size, n_steps + 1))
        block = normals.copy()
        paths._bridge_rows(rs, zs, dt, block)
        for i, row in enumerate(normals):
            one = row[None, :].copy()
            paths._bridge_rows(rs[i:i + 1], zs[i:i + 1], dt, one)
            np.testing.assert_array_equal(block[i], one[0])


class TestBridgeExactness:
    def test_marginal_ks(self):
        # exact conditional sampling: the grid marginal is the exact bridge law
        r, z = 1.0, 0.5
        for attempt in range(3):
            ens = simulate_bridge_ensemble(r, z, dt=0.01, horizon=1.0,
                                           n_paths=10_000, seed=100 + attempt)
            col = ens.values[:, 50]  # t = 0.5
            mean = 0.5 * z / r
            sd = math.sqrt(0.5 * (r - 0.5) / r)
            _, p = ks_test(col, lambda v: ndtr((v - mean) / sd))
            if p > 0.01:
                return
        pytest.fail("bridge marginal KS failed three times")

    @staticmethod
    def _midpoints(z, seed, n=100_000):
        # 4-step rows of length 1 from one generator's normals; the stream
        # layout is covered by test_draws_follow_the_stream_layout
        values = np.empty((n, 5))
        values[:, 1:] = np.random.default_rng(seed).standard_normal((n, 4))
        paths._bridge_rows(np.ones(n), np.full(n, z), 0.25, values)
        return values[:, 2]  # t = 0.5

    def test_midpoint_variance(self):
        mid = self._midpoints(0.0, seed=7)  # Var = t(r-t)/r = 0.25
        var = mid.var(ddof=1)
        sigma = 0.25 * math.sqrt(2.0 / (mid.size - 1))  # sd of a chi^2 variance estimate
        assert abs(var - 0.25) <= 3.0 * sigma

    def test_midpoint_mean_with_pin(self):
        mid = self._midpoints(5.0, seed=8)
        stderr = mid.std(ddof=1) / math.sqrt(mid.size)
        assert abs(mid.mean() - 2.5) <= 3.0 * stderr

    def test_absorption_pins_exactly(self):
        path = simulate_deterministic_bridge(0.77, -1.3, dt=0.01, horizon=2.0, seed=3)
        k = path.absorbed_index
        assert k == math.ceil(0.77 / 0.01)
        assert np.max(np.abs(path.values[k:] - (-1.3))) == 0.0

    @given(st.floats(1e-3, 0.1), st.integers(1, 200), st.floats(1.001, 300.0),
           st.floats(-5.0, 5.0), st.integers(0, 2**32 - 1))
    def test_deterministic_bridge_is_path_zero(self, dt, n_steps, u, z, seed):
        # one bridge route and one stream layout: the single bridge is path 0
        # of the one-path ensemble, however early it absorbs
        one = simulate_deterministic_bridge(u * dt, z, dt, n_steps * dt, seed)
        ref = simulate_bridge_ensemble(u * dt, z, dt, n_steps * dt, 1, seed).path(0)
        assert one.values.tobytes() == ref.values.tobytes()
        assert (one.tau, one.z, one.absorbed_index, one.seed) == \
               (ref.tau, ref.z, ref.absorbed_index, ref.seed)

    def test_dt_larger_than_length_rejected(self):
        with pytest.raises(ValueError):
            simulate_deterministic_bridge(0.005, 0.0, dt=0.01, horizon=1.0, seed=0)

    @given(st.sampled_from([(math.inf, 0.0), (math.nan, 0.0), (1.0, math.nan), (1.0, math.inf),
                            (1.0, -math.inf), (math.inf, math.nan)]),
           st.booleans())
    def test_length_and_pin_must_be_finite(self, case, ensemble):
        # a length or pin that is not finite would simulate rows of NaN
        r, z = case
        with pytest.raises(ValueError, match="need 0 < dt < r < inf and a finite pin"):
            if ensemble:
                simulate_bridge_ensemble(r, z, 0.1, 0.5, 2, 0)
            else:
                simulate_deterministic_bridge(r, z, 0.1, 0.5, 0)


class TestInformationPath:
    def test_reduces_to_centered_bridge_for_origin_pin(self, single_pin_exp):
        path = simulate_information_path(single_pin_exp, dt=0.01, horizon=3.0, seed=42)
        if path.absorbed:
            assert np.all(path.values[path.absorbed_index:] == 0.0)
        assert path.values[0] == 0.0

    def test_conditional_law_matches_fixed_bridge(self):
        # a nearly degenerate length law concentrates on r=1: the path law
        # must match the fixed-length bridge (two-sample KS at mid-time)
        model = ModelSpec(UniformLaw(1.0 - 1e-3, 1.0 + 1e-3),
                          PinningLaw([0.7], [1.0]))
        for attempt in range(3):
            ens = simulate_ensemble(model, dt=0.01, horizon=1.2, n_paths=4000,
                                    seed=50 + attempt)
            ref = simulate_bridge_ensemble(1.0, 0.7, dt=0.01, horizon=1.2,
                                           n_paths=4000, seed=950 + attempt)
            stat = stats.ks_2samp(ens.values[:, 50], ref.values[:, 50])
            if stat.pvalue > 0.01:
                return
        pytest.fail("conditioned ensemble does not match the fixed bridge")

    def test_exact_length_is_stored(self, two_pin_symmetric):
        path = simulate_information_path(two_pin_symmetric, dt=0.01, horizon=2.0, seed=5)
        # the stored length is the exact draw, not a grid point
        assert path.tau != round(path.tau / path.dt) * path.dt or path.tau == path.horizon
        assert path.absorbed_index == math.ceil(path.tau / path.dt - 1e-12)

    def test_unabsorbed_paths_flagged_not_dropped(self):
        model = ModelSpec(UniformLaw(5.0, 6.0), PinningLaw([0.0], [1.0]))
        ens = simulate_ensemble(model, dt=0.01, horizon=1.0, n_paths=20, seed=1)
        assert len(ens) == 20
        for p in ens:
            assert not p.absorbed
            assert p.absorbed_index == len(p.values)

    def test_pin_frequencies(self, two_pin_asymmetric):
        ens = simulate_ensemble(two_pin_asymmetric, dt=0.05, horizon=0.5,
                                n_paths=20_000, seed=77)
        freq = np.mean(ens.zs == 2.0)
        assert abs(freq - 0.4) <= 3.0 * math.sqrt(0.4 * 0.6 / len(ens))


class TestReproducibility:
    def test_bitwise_identical_repeats(self, two_pin_symmetric):
        a = simulate_ensemble(two_pin_symmetric, dt=0.01, horizon=1.0, n_paths=50, seed=11)
        b = simulate_ensemble(two_pin_symmetric, dt=0.01, horizon=1.0, n_paths=50, seed=11)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.taus, b.taus)

    @given(n_steps=st.integers(10, 100), n_paths=st.integers(1, 120),
           rows=st.integers(0, 40), spare=st.integers(0, 100))
    def test_chunking_does_not_change_draws(self, two_pin_symmetric, n_steps, n_paths,
                                            rows, spare):
        # A budget of rows * (n_steps + 1) + spare grid values gives blocks of
        # 1 to 40 rows, the floor of one path at rows = 0; the streamed blocks
        # are, bit for bit, the ensemble drawn as one block.
        dt = 0.01
        cells = rows * (n_steps + 1) + min(spare, n_steps)
        whole = simulate_ensemble(two_pin_symmetric, dt, n_steps * dt, n_paths, seed=12)
        with mock.patch.object(paths, "_CELLS", cells):
            blocks = list(paths.iter_ensemble_chunks(two_pin_symmetric, dt, n_steps * dt,
                                                     n_paths, seed=12))
        assert all(len(b) * (n_steps + 1) <= max(cells, n_steps + 1) for b in blocks)
        assert len(blocks) == -(-n_paths // max(rows, 1))
        for field in ("values", "taus", "zs", "absorbed_indices"):
            np.testing.assert_array_equal(
                np.concatenate([getattr(b, field) for b in blocks]), getattr(whole, field))


class TestPrefetch:
    """The stream draws each block after the first on one worker thread while
    the caller holds the block before it."""

    @given(n_steps=st.integers(5, 60), n_paths=st.integers(1, 60), rows=st.integers(1, 12))
    @settings(max_examples=40)
    def test_dropped_blocks_match_and_two_are_alive(self, two_pin_symmetric, n_steps,
                                                    n_paths, rows):
        # each block, dropped before the next is asked for, is its rows of the
        # one-block ensemble bit for bit; counted by finalizers, at most two
        # blocks are alive at once, and two as soon as there are two blocks
        dt = 0.01
        whole = simulate_ensemble(two_pin_symmetric, dt, n_steps * dt, n_paths, seed=14)
        lock, alive, most = threading.Lock(), [0], [0]
        real = paths._model_block

        def release():
            with lock:
                alive[0] -= 1

        def counted(*args):
            block = real(*args)
            with lock:
                alive[0] += 1
                most[0] = max(most[0], alive[0])
            weakref.finalize(block, release)
            return block

        first = 0
        with mock.patch.object(paths, "_CELLS", rows * (n_steps + 1)), \
                mock.patch.object(paths, "_model_block", counted):
            for ens in paths.iter_ensemble_chunks(two_pin_symmetric, dt, n_steps * dt,
                                                  n_paths, seed=14):
                rows_of_whole = slice(first, first + len(ens))
                for field in ("values", "taus", "zs", "absorbed_indices"):
                    assert (getattr(ens, field).tobytes()
                            == getattr(whole, field)[rows_of_whole].tobytes())
                first += len(ens)
                del ens
        assert first == n_paths
        assert most[0] == min(2, -(-n_paths // rows))
        assert alive[0] == 0

    def test_error_in_a_prefetched_block_surfaces_at_its_next(self, two_pin_symmetric):
        # blocks of 3 paths; drawing the third block fails on the worker while
        # the caller holds the second, which was yielded whole
        class DrawFailed(Exception):
            pass

        real, drawn_on = paths._model_block, []

        def failing(model, dt, n_steps, seed, first, n):
            drawn_on.append(threading.get_ident())
            if first == 6:
                raise DrawFailed
            return real(model, dt, n_steps, seed, first, n)

        start = threading.active_count()
        whole = simulate_ensemble(two_pin_symmetric, 0.01, 0.1, 10, seed=15)
        with mock.patch.object(paths, "_CELLS", 3 * 11), \
                mock.patch.object(paths, "_model_block", failing):
            blocks = paths.iter_ensemble_chunks(two_pin_symmetric, 0.01, 0.1, 10, seed=15)
            next(blocks)
            second = next(blocks)
            np.testing.assert_array_equal(second.values, whole.values[3:6])
            with pytest.raises(DrawFailed):
                next(blocks)
            assert next(blocks, None) is None
        assert threading.active_count() == start
        assert drawn_on[0] == threading.get_ident()  # the first block is drawn inline
        assert all(ident != threading.get_ident() for ident in drawn_on[1:])

    @pytest.mark.parametrize("stop", ["break", "close"])
    def test_early_stop_ends_the_worker(self, two_pin_symmetric, stop):
        start = threading.active_count()
        with mock.patch.object(paths, "_CELLS", 3 * 11):
            blocks = paths.iter_ensemble_chunks(two_pin_symmetric, 0.01, 0.1, 30, seed=16)
            if stop == "close":
                next(blocks)
                assert threading.active_count() == start + 1  # the second block's worker
                blocks.close()
            else:
                for _ in blocks:
                    break
                del blocks
        assert threading.active_count() == start

    def test_concurrent_streams_under_fast_switching(self, two_pin_symmetric):
        # four consumers, each with its own worker, switching every 10 us:
        # every stream is still its ensemble bit for bit
        dt, n_steps, n_paths, seeds = 0.01, 40, 50, (17, 18, 19, 20)
        got = {}

        def consume(seed):
            got[seed] = [b.values for b in paths.iter_ensemble_chunks(
                two_pin_symmetric, dt, n_steps * dt, n_paths, seed)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with mock.patch.object(paths, "_CELLS", 3 * (n_steps + 1)):
                consumers = [threading.Thread(target=consume, args=(s,)) for s in seeds]
                for t in consumers:
                    t.start()
                for t in consumers:
                    t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in consumers)
        for seed in seeds:
            whole = simulate_ensemble(two_pin_symmetric, dt, n_steps * dt, n_paths, seed)
            assert np.concatenate(got[seed]).tobytes() == whole.values.tobytes()

    def test_one_block_starts_no_thread(self, two_pin_symmetric):
        start = threading.active_count()
        for _ in paths.iter_ensemble_chunks(two_pin_symmetric, 0.01, 0.1, 30, seed=16):
            assert threading.active_count() == start


class TestPathCount:
    @pytest.mark.parametrize("n_paths", [-3, -1, True, False, np.bool_(True), 2.0, "3", None])
    def test_rejected_by_every_ensemble(self, two_pin_symmetric, n_paths):
        with pytest.raises(ValueError, match="n_paths must be an integer >= 0"):
            paths.iter_ensemble_chunks(two_pin_symmetric, 0.01, 0.1, n_paths, seed=1)
        with pytest.raises(ValueError, match="n_paths must be an integer >= 0"):
            simulate_ensemble(two_pin_symmetric, 0.01, 0.1, n_paths, seed=1)
        with pytest.raises(ValueError, match="n_paths must be an integer >= 0"):
            simulate_bridge_ensemble(1.0, 0.5, 0.01, 0.1, n_paths, seed=1)

    @given(n_paths=st.integers(0, 7), numpy_int=st.booleans())
    def test_integers_accepted(self, two_pin_symmetric, n_paths, numpy_int):
        n = np.int64(n_paths) if numpy_int else n_paths
        assert len(simulate_ensemble(two_pin_symmetric, 0.01, 0.1, n, seed=1)) == n_paths
        assert len(simulate_bridge_ensemble(1.0, 0.5, 0.01, 0.1, n, seed=1)) == n_paths
        blocks = list(paths.iter_ensemble_chunks(two_pin_symmetric, 0.01, 0.1, n, seed=1))
        assert sum(len(b) for b in blocks) == n_paths


class TestQuadraticVariation:
    def test_zero_at_origin(self, single_pin_exp):
        path = simulate_information_path(single_pin_exp, dt=0.01, horizon=1.0, seed=2)
        assert quadratic_variation(path, 0.0) == 0.0

    def test_tracks_clock_before_absorption(self):
        # lengths in (1, 2): at t=0.5 the clock reads exactly 0.5
        model = ModelSpec(UniformLaw(1.0, 2.0), PinningLaw([0.0], [1.0]))
        total, n = 0.0, 300
        ens = simulate_ensemble(model, dt=1e-4, horizon=0.5, n_paths=n, seed=21)
        for p in ens:
            total += quadratic_variation(p, 0.5)
        assert abs(total / n - 0.5) / 0.5 < 0.02

    def test_flat_after_absorption(self, two_pin_symmetric):
        ens = simulate_ensemble(two_pin_symmetric, dt=1e-3, horizon=2.0,
                                n_paths=200, seed=22)
        for p in list(ens)[:50]:
            qv_end = quadratic_variation(p, p.horizon)
            assert abs(qv_end - p.tau) / p.tau < 0.25  # single-path noise
        means = np.mean([quadratic_variation(p, p.horizon) / p.tau for p in ens])
        assert abs(means - 1.0) < 0.02

    @pytest.mark.parametrize("t", [-1.0, -1e-9, 1.5, math.nan])
    def test_time_outside_the_path_rejected(self, single_pin_exp, t):
        # t = -1 at dt 0.01 summed values[:-99]
        path = simulate_information_path(single_pin_exp, dt=0.01, horizon=1.0, seed=0)
        with pytest.raises(ValueError, match="outside"):
            quadratic_variation(path, t)

    def test_brownian_motion_helper(self):
        path = simulate_brownian_motion(dt=1e-4, horizon=1.0, rng=5)
        assert not path.absorbed
        assert abs(quadratic_variation(path, 1.0) - 1.0) < 0.05


class TestHorizon:
    @given(model_i=st.integers(0, 1), n_short=st.integers(1, 60), extra=st.integers(0, 150),
           n_paths=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_shorter_horizon_gives_leading_columns(self, model_i, n_short, extra, n_paths,
                                                   seed):
        # at one seed, a shorter horizon draws the same lengths and pins, and
        # its rows are the leading columns of the longer ensemble's rows
        model = (ModelSpec(ExponentialLaw(1.0), PinningLaw([0.0], [1.0])),
                 ModelSpec(UniformLaw(0.05, 2.0), PinningLaw([-1.0, 1.0], [0.5, 0.5])))[model_i]
        dt = 0.01
        short = simulate_ensemble(model, dt, n_short * dt, n_paths, seed)
        long = simulate_ensemble(model, dt, (n_short + extra) * dt, n_paths, seed)
        np.testing.assert_array_equal(short.values, long.values[:, :n_short + 1])
        np.testing.assert_array_equal(short.taus, long.taus)
        np.testing.assert_array_equal(short.zs, long.zs)
        np.testing.assert_array_equal(short.absorbed_indices,
                                      np.minimum(long.absorbed_indices, n_short + 1))


class TestSerialization:
    def test_ensemble_round_trip(self, two_pin_symmetric, tmp_path):
        ens = simulate_ensemble(two_pin_symmetric, dt=0.02, horizon=1.0,
                                n_paths=17, seed=31)
        fp = tmp_path / "ens.bin"
        save_ensemble(ens, str(fp))
        back = load_ensemble(str(fp))
        assert back.dt == ens.dt and back.seed == ens.seed
        np.testing.assert_array_equal(back.values, ens.values)
        np.testing.assert_array_equal(back.taus, ens.taus)
        np.testing.assert_array_equal(back.zs, ens.zs)
        np.testing.assert_array_equal(back.absorbed_indices, ens.absorbed_indices)

    def test_rejects_truncated_file(self, two_pin_symmetric, tmp_path):
        ens = simulate_ensemble(two_pin_symmetric, dt=0.02, horizon=1.0,
                                n_paths=5, seed=31)
        fp = tmp_path / "ensemble.bin"
        save_ensemble(ens, str(fp))
        data = fp.read_bytes()
        # cut inside the header, the path values and the (length, pin) pairs
        for cut in (12, len(data) // 2, len(data) - 8):
            fp.write_bytes(data[:cut])
            with pytest.raises(ValueError, match="truncated ensemble file"):
                load_ensemble(str(fp))

    @pytest.mark.parametrize("dt, n_steps, n_paths, match", [
        (-1.0, 50, 5, "corrupt"), (0.0, 50, 5, "corrupt"), (math.nan, 50, 5, "corrupt"),
        (math.inf, 50, 5, "corrupt"), (0.02, 0, 5, "corrupt"), (0.02, -1, 5, "corrupt"),
        (0.02, 50, -1, "corrupt"),
        # more paths than the file holds fail as a short file, without
        # allocating the claimed 2**40 rows
        (0.02, 50, 6, "truncated"), (0.02, 50, 2 ** 40, "truncated")])
    def test_rejects_bad_header(self, two_pin_symmetric, tmp_path, dt, n_steps, n_paths,
                                match):
        ens = simulate_ensemble(two_pin_symmetric, dt=0.02, horizon=1.0,
                                n_paths=5, seed=31)
        fp = tmp_path / "ensemble.bin"
        save_ensemble(ens, str(fp))
        data = fp.read_bytes()
        fp.write_bytes(data[:8] + struct.pack("<dqqq", dt, n_steps, n_paths, 31) + data[40:])
        with pytest.raises(ValueError, match=match):
            load_ensemble(str(fp))

    @pytest.mark.parametrize("column, value", [
        (0, math.nan), (0, 0.0), (0, -0.5), (0, -math.inf),
        (1, math.nan), (1, math.inf), (1, -math.inf)])
    def test_rejects_bad_length_or_pin(self, single_pin_exp, tmp_path, column, value):
        # a NaN or non-positive length, or a non-finite pin, in the file's
        # (length, pin) pairs would load into NaN local time
        ens = simulate_ensemble(single_pin_exp, dt=0.01, horizon=1.0, n_paths=3, seed=31)
        (ens.taus, ens.zs)[column][1] = value
        fp = tmp_path / "ensemble.bin"
        save_ensemble(ens, str(fp))
        with pytest.raises(ValueError, match="corrupt ensemble file"):
            load_ensemble(str(fp))

    def test_infinite_length_loads_unabsorbed(self, single_pin_exp, tmp_path):
        ens = simulate_ensemble(single_pin_exp, dt=0.01, horizon=1.0, n_paths=3, seed=31)
        ens.taus[1] = math.inf
        fp = tmp_path / "ensemble.bin"
        save_ensemble(ens, str(fp))
        back = load_ensemble(str(fp))
        np.testing.assert_array_equal(back.taus, ens.taus)
        assert back.absorbed_indices[1] == ens.n_steps + 1

    def test_rejects_foreign_file(self, tmp_path):
        fp = tmp_path / "junk.bin"
        fp.write_bytes(b"not an ensemble")
        with pytest.raises(ValueError):
            load_ensemble(str(fp))

    def test_csv_export(self, single_pin_exp):
        path = simulate_information_path(single_pin_exp, dt=0.1, horizon=1.0, seed=4)
        buf = io.StringIO()
        save_path_csv(path, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,xi"
        assert len(lines) == len(path.values) + 1
        t0, x0 = map(float, lines[1].split(","))
        assert t0 == 0.0 and x0 == 0.0
