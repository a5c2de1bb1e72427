"""Occupation and Tanaka local-time estimators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infobridge import (
    SamplePath,
    occupation_local_time,
    simulate_brownian_motion,
    simulate_ensemble,
    tanaka_local_time,
)
from infobridge.localtime import (default_bandwidth, occupation_formula_check,
                                  occupation_increments)

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _ramp_path(n=100, dt=0.01, slope=1.0):
    values = slope * dt * np.arange(n + 1)
    return SamplePath(dt=dt, values=values, tau=math.inf, z=math.nan,
                      seed=-1, absorbed_index=n + 1)


class TestOccupation:
    def test_zero_when_never_in_band(self):
        path = _ramp_path()
        curve = occupation_local_time(path, level=5.0, eps=0.1)
        assert np.all(curve.values == 0.0)

    def test_flat_after_absorption_even_at_pin_level(self, two_pin_symmetric):
        ens = simulate_ensemble(two_pin_symmetric, 1e-3, 2.0, 20, seed=4)
        for p in ens:
            if not p.absorbed:
                continue
            curve = occupation_local_time(p, level=p.z)
            k = p.absorbed_index
            # the path sits exactly on the level after absorption, yet the
            # stopped clock freezes the curve
            assert np.max(curve.values[k:]) == curve.values[k]
            assert np.all(np.diff(curve.values[k:]) == 0.0)

    def test_monotone_and_zero_at_origin(self, single_pin_exp):
        path = simulate_ensemble(single_pin_exp, 1e-3, 2.0, 1, seed=9).path(0)
        curve = occupation_local_time(path, level=0.0)
        assert curve.values[0] == 0.0
        assert np.all(np.diff(curve.values) >= 0.0)

    def test_brownian_level_zero_mean(self):
        # mean local time of Brownian motion at level 0 and unit time
        n, dt = 2000, 1e-3
        eps = default_bandwidth(dt)
        vals = []
        for i in range(n):
            path = simulate_brownian_motion(dt, 1.0, rng=10_000 + i)
            vals.append(occupation_local_time(path, 0.0, eps).values[-1])
        vals = np.asarray(vals)
        stderr = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - SQRT_2_OVER_PI) <= 3.0 * stderr


def _overlap_increments(values, taus, dt, level, eps):
    """Reference form of the occupation increments: the overlap of the
    step's [min, max] range with the band over its length, or the in-band
    indicator on a flat step, times the stopped-clock weight over 2 eps."""
    n_steps = values.shape[1] - 1
    w = np.clip(taus[:, None] - dt * np.arange(n_steps)[None, :], 0.0, dt)
    x0, x1 = values[:, :-1], values[:, 1:]
    lo, hi = np.minimum(x0, x1), np.maximum(x0, x1)
    overlap = np.clip(np.minimum(hi, level + eps) - np.maximum(lo, level - eps), 0.0, None)
    span = hi - lo
    frac = np.where(span > 0.0, overlap / np.where(span > 0.0, span, 1.0),
                    (np.abs(x0 - level) <= eps) * 1.0)
    return (w * frac) / (2.0 * eps)


@st.composite
def occupation_blocks(draw):
    """A block of paths with flat steps, points exactly on the band edges
    and lengths that end before, inside or after the grid."""
    level = draw(st.floats(-2.0, 2.0))
    eps = draw(st.floats(1e-3, 0.5))
    dt = draw(st.sampled_from([1e-3, 1e-2, 0.1]))
    n_paths = draw(st.integers(1, 4))
    n_steps = draw(st.integers(1, 25))
    point = st.one_of(st.sampled_from([level, level - eps, level + eps]),
                      st.floats(level - 3.0 * eps, level + 3.0 * eps),
                      st.floats(-5.0, 5.0))
    step = st.one_of(st.none(), point)  # None repeats the previous value
    rows = []
    for _ in range(n_paths):
        row = [draw(point)]
        for _ in range(n_steps):
            x = draw(step)
            row.append(row[-1] if x is None else x)
        rows.append(row)
    tau = st.one_of(st.integers(-1, n_steps + 2).map(lambda j: j * dt),
                    st.floats(-dt, (n_steps + 2) * dt), st.just(math.inf))
    taus = np.array([draw(tau) for _ in range(n_paths)])
    return np.array(rows), taus, dt, level, eps


class TestOccupationIncrements:
    @given(occupation_blocks())
    @settings(max_examples=300)
    def test_matches_overlap_form_bit_for_bit(self, block):
        values, taus, dt, level, eps = block
        inc = occupation_increments(values, taus, dt, level, eps)
        assert np.array_equal(inc, _overlap_increments(values, taus, dt, level, eps))
        assert np.all(inc >= 0.0)
        # nothing accrues on a step that starts at or after the length
        dead = dt * np.arange(values.shape[1] - 1)[None, :] >= taus[:, None]
        assert np.all(inc[dead] == 0.0)


class TestTanaka:
    def test_linear_ramp_vanishes(self):
        path = _ramp_path()
        curve = tanaka_local_time(path, level=2.0)
        np.testing.assert_allclose(curve.values, 0.0, atol=1e-14)

    def test_monotone_by_construction(self):
        path = simulate_brownian_motion(1e-3, 1.0, rng=3)
        curve = tanaka_local_time(path, 0.0)
        assert np.all(np.diff(curve.values) >= 0.0)

    def test_brownian_level_zero_mean(self):
        n, dt = 2000, 1e-3
        vals = []
        for i in range(n):
            path = simulate_brownian_motion(dt, 1.0, rng=20_000 + i)
            vals.append(tanaka_local_time(path, 0.0).values[-1])
        vals = np.asarray(vals)
        stderr = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - SQRT_2_OVER_PI) <= 3.5 * stderr

    def test_flat_after_absorption(self, two_pin_symmetric):
        ens = simulate_ensemble(two_pin_symmetric, 1e-3, 2.0, 10, seed=6)
        for p in ens:
            if not p.absorbed:
                continue
            curve = tanaka_local_time(p, p.z)
            assert np.all(np.diff(curve.values[p.absorbed_index:]) == 0.0)


class TestCrossEstimator:
    def test_estimators_agree_within_band(self):
        path = simulate_brownian_motion(1e-4, 1.0, rng=5)
        occ = occupation_local_time(path, 0.0).values[-1]
        tan = tanaka_local_time(path, 0.0).values[-1]
        assert abs(occ - tan) < 0.15

    def test_disagreement_shrinks_with_dt(self):
        # median absolute gap between the estimators decays along dt ladder
        medians = []
        for dt in (1e-2, 1e-3, 1e-4):
            gaps = []
            for i in range(120):
                path = simulate_brownian_motion(dt, 1.0, rng=30_000 + i)
                occ = occupation_local_time(path, 0.0).values[-1]
                tan = tanaka_local_time(path, 0.0).values[-1]
                gaps.append(abs(occ - tan))
            medians.append(np.median(gaps))
        assert medians[0] > medians[1] > medians[2]


class TestLevelStructure:
    def test_level_continuity(self):
        # ensemble-mean |L(1, z') - L(1, 0)| shrinks as z' -> 0
        n = 300
        paths = [simulate_brownian_motion(1e-3, 1.0, rng=40_000 + i) for i in range(n)]
        gaps = []
        for dz in (0.3, 0.1, 0.03):
            diffs = [abs(occupation_local_time(p, dz).values[-1]
                         - occupation_local_time(p, 0.0).values[-1]) for p in paths]
            gaps.append(np.mean(diffs))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_compact_support(self):
        path = simulate_brownian_motion(1e-3, 1.0, rng=8)
        m = np.max(np.abs(path.values))
        for level in (m + 0.5, -(m + 0.5), m + 3.0):
            assert np.all(occupation_local_time(path, level).values == 0.0)


class TestOccupationFormula:
    def test_constant_integrand_recovers_clock(self, two_pin_symmetric):
        ens = simulate_ensemble(two_pin_symmetric, 1e-3, 2.0, 5, seed=12)
        for p in ens:
            t_side, x_side = occupation_formula_check(p, lambda x: np.ones_like(x), 2.0)
            assert t_side == pytest.approx(min(p.tau, 2.0), rel=1e-9)
            assert x_side == pytest.approx(t_side, rel=0.02)

    def test_pin_levels_carry_no_time(self, two_pin_symmetric):
        # time spent exactly on a pin level before absorption is null
        ens = simulate_ensemble(two_pin_symmetric, 1e-3, 2.0, 20, seed=13)
        for p in ens:
            pre = p.values[:min(p.absorbed_index, len(p.values) - 1)]
            frac = np.mean(np.isin(pre[1:], two_pin_symmetric.pinning.points))
            assert frac == 0.0

    def test_quadratic_integrand(self):
        path = simulate_brownian_motion(1e-4, 1.0, rng=14)
        t_side, x_side = occupation_formula_check(path, lambda x: x ** 2, 1.0)
        assert x_side == pytest.approx(t_side, rel=0.05)
