"""Occupation and Tanaka local-time estimators."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import erfcx

from infobridge import (
    SamplePath,
    occupation_local_time,
    simulate_brownian_motion,
    simulate_ensemble,
    tanaka_local_time,
)
from infobridge import localtime, paths
from infobridge.localtime import occupation_formula_check, occupation_increments

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _ramp_path(n=100, dt=0.01, slope=1.0):
    values = slope * dt * np.arange(n + 1)
    return SamplePath(dt=dt, values=values, tau=math.inf, z=math.nan,
                      seed=-1, absorbed_index=n + 1)


class TestOccupation:
    def test_zero_when_never_in_band(self):
        path = _ramp_path()
        curve = occupation_local_time(path, level=5.0)
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
        vals = []
        for i in range(n):
            path = simulate_brownian_motion(dt, 1.0, rng=10_000 + i)
            vals.append(occupation_local_time(path, 0.0).values[-1])
        vals = np.asarray(vals)
        stderr = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - SQRT_2_OVER_PI) <= 3.0 * stderr


def _dense_increments(values, taus, dt, level):
    """Reference form of the occupation increments: the closed form of the
    bridge's expected local time on every step of positive clock weight,
    nothing skipped."""
    n_steps = values.shape[1] - 1
    w = np.clip(taus[:, None] - dt * np.arange(n_steps)[None, :], 0.0, dt)
    a, b = values[:, :-1] - level, values[:, 1:] - level
    live = w > 0.0
    wl = np.where(live, w, 1.0)
    u = (np.abs(a) + np.abs(b)) / np.sqrt(2.0 * wl)
    ab = a * b
    ab += np.abs(ab)
    return np.where(live, erfcx(u) * np.exp(-ab / wl) * np.sqrt(0.5 * math.pi * wl), 0.0)


def _bridge_local_time(a, b, w):
    """int_0^w p(s, a) p(w - s, b) ds / p(w, b - a) by scipy quadrature,
    with p the centered Gaussian density of variance s.

    With A = |a|, B = |b| the ratio is exp(-(A (w - s) - B s)^2 /
    (2 s (w - s) w)) sqrt(w / (2 pi s (w - s))) exp(-(a b + |a b|) / w),
    the same function with its large exponents cancelled by hand.  It is
    integrated in phi, s = w sin(phi)^2, which removes the endpoint
    singularities: ds sqrt(w / (2 pi s (w - s))) = 2 sqrt(w / (2 pi)) dphi.
    The half above pi / 4 is integrated in pi / 2 - phi, which swaps A and
    B, so that the variable keeps its precision near either end.
    """
    A, B = abs(a), abs(b)
    tilt = math.exp(-(a * b + abs(a * b)) / w)
    if tilt == 0.0:
        return 0.0

    def half(A, B):
        def ratio(phi):
            t = math.tan(phi)
            return math.exp(-(A / t - B * t) ** 2 / (2.0 * w))

        # Break the range where A / tan(phi) - B tan(phi) = c, for c = 0
        # (the peak) and c = +-10^j sqrt(2 w), j = -6..1 (its flanks, which
        # can fall off as slowly as c^2): the peak can be far narrower than
        # the range and sit at one end.
        def phi_at(c):
            root = math.sqrt(c * c + 4.0 * A * B)
            if c > 0.0:
                return math.atan(2.0 * A / (c + root))
            return math.atan((root - c) / (2.0 * B)) if B > 0.0 else math.pi

        scales = [0.0] + [sign * 10.0 ** j for j in range(-6, 2) for sign in (-1, 1)]
        cuts = (phi_at(k * math.sqrt(2.0 * w)) for k in scales)
        points = sorted({p for p in cuts if 0.0 < p < 0.25 * math.pi}) or None
        return integrate.quad(ratio, 0.0, 0.25 * math.pi, points=points, epsabs=0.0,
                              epsrel=1e-11, limit=500)[0]

    return 2.0 * math.sqrt(w / (2.0 * math.pi)) * (half(A, B) + half(B, A)) * tilt


@st.composite
def bridge_steps(draw):
    """One step (a, b, level, w, dt): a full step (w = dt) or the step that
    straddles the length (w < dt), whose right end is the pin, sometimes at
    the level itself."""
    dt = draw(st.sampled_from([1e-4, 1e-3, 1e-2, 0.1]))
    level = draw(st.floats(-2.0, 2.0))
    sd = math.sqrt(dt)
    near = st.floats(-8.0, 8.0).map(lambda k: level + k * sd)
    point = st.one_of(st.just(level), near, st.floats(-3.0, 3.0))
    a = draw(point)
    straddle = draw(st.booleans())
    w = dt * draw(st.floats(1e-6, 1.0, exclude_max=True)) if straddle else dt
    b = draw(st.one_of(st.just(level), point)) if straddle else draw(point)
    return a, b, level, w, dt


@st.composite
def occupation_blocks(draw):
    """A block of paths with flat steps, points near and on the level and
    lengths that end before, inside or after the grid, on a grid point or
    one ulp past one."""
    level = draw(st.floats(-2.0, 2.0))
    dt = draw(st.sampled_from([1e-3, 1e-2, 0.1]))
    n_paths = draw(st.integers(1, 4))
    n_steps = draw(st.integers(1, 25))
    sd = math.sqrt(dt)
    point = st.one_of(st.just(level), st.floats(-8.0, 8.0).map(lambda k: level + k * sd),
                      st.floats(-5.0, 5.0))
    step = st.one_of(st.none(), point)  # None repeats the previous value
    rows = []
    for _ in range(n_paths):
        row = [draw(point)]
        for _ in range(n_steps):
            x = draw(step)
            row.append(row[-1] if x is None else x)
        rows.append(row)
    # one ulp past the grid point dt j, tau / dt can round down to j
    tau = st.one_of(st.integers(-1, n_steps + 2).map(lambda j: j * dt),
                    st.integers(1, n_steps + 2).map(lambda j: math.nextafter(j * dt, math.inf)),
                    st.floats(-dt, (n_steps + 2) * dt), st.just(math.inf))
    taus = np.array([draw(tau) for _ in range(n_paths)])
    return np.array(rows), taus, dt, level


def _masked_increments(values, taus, dt, level):
    """Reference form of the skip rule: the full step-weight array, boolean
    masks of the steps with both ends more than 6 sqrt(dt) out on one side
    or of zero weight, and 2-D gathers and scatters of the rest, over the
    whole block at once."""
    n_steps = values.shape[1] - 1
    x = values - level
    w = np.clip(taus[:, None] - dt * np.arange(n_steps)[None, :], 0.0, dt)
    far = 6.0 * math.sqrt(dt)
    above, below = x > far, x < -far
    skip = (above[:, :-1] & above[:, 1:]) | (below[:, :-1] & below[:, 1:])
    skip |= w == 0.0
    w[skip] = 0.0
    live = np.nonzero(~skip)
    a, b, wl = x[:, :-1][live], x[:, 1:][live], w[live]
    u = (np.abs(a) + np.abs(b)) / np.sqrt(2.0 * wl)
    ab = a * b
    ab += np.abs(ab)
    with np.errstate(over="ignore"):
        w[live] = erfcx(u) * np.exp(-ab / wl) * np.sqrt(0.5 * math.pi * wl)
    return w


_PINS = (-1.0, 2.0)
_FAR_LEVEL = 60.0  # beyond 6 sqrt(dt) of every bridge row below


@st.composite
def bridge_blocks(draw):
    """Bridge rows to the pins -1 and 2 from their own normals, with lengths
    that absorb at step 1, inside the grid or past it, and a level at a pin,
    anywhere near the paths, or far from all of them."""
    dt = draw(st.sampled_from([1e-3, 1e-2, 0.1]))
    n_steps = draw(st.integers(1, 60))
    n_paths = draw(st.integers(1, 6))
    length = st.one_of(st.floats(1e-9, dt), st.floats(dt, n_steps * dt),
                       st.floats(n_steps * dt, 3.0 * n_steps * dt))
    taus = np.array(draw(st.lists(length, min_size=n_paths, max_size=n_paths)))
    zs = np.array(draw(st.lists(st.sampled_from(_PINS), min_size=n_paths, max_size=n_paths)))
    values = np.empty((n_paths, n_steps + 1))
    values[:, 1:] = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(
        (n_paths, n_steps))
    paths._bridge_rows(taus, zs, dt, values)
    level = draw(st.one_of(st.sampled_from(_PINS), st.floats(-3.0, 3.0), st.just(_FAR_LEVEL)))
    return values, taus, dt, level


class TestOccupationIncrements:
    @given(bridge_steps())
    @settings(max_examples=300)
    def test_one_step_is_the_bridge_expectation(self, step):
        a, b, level, w, dt = step
        got = occupation_increments(np.array([[a, b]]), [w], dt, level)[0, 0]
        want = _bridge_local_time(a - level, b - level, w)
        far = 6.0 * math.sqrt(dt)
        if min(a, b) - level > far or max(a, b) - level < -far:
            # skipped: both ends more than 6 sqrt(dt) away on one side
            assert got == 0.0 and want < 1e-30 * math.sqrt(dt)
        elif max(got, want) < 1e-300:
            assert abs(got - want) <= 1e-300
        else:
            assert got == pytest.approx(want, rel=1e-8, abs=0.0)

    @given(occupation_blocks())
    @settings(max_examples=300)
    def test_matches_dense_form(self, block):
        values, taus, dt, level = block
        inc = occupation_increments(values, taus, dt, level)
        dense = _dense_increments(values, taus, dt, level)
        computed = inc > 0.0
        assert np.array_equal(inc[computed], dense[computed])
        # a skipped step adds below exp(-72) sqrt(dt)
        assert np.all(dense[~computed] < 1e-30 * math.sqrt(dt))
        assert np.all(inc >= 0.0)
        # nothing accrues on a step that starts at or after the length
        dead = dt * np.arange(values.shape[1] - 1)[None, :] >= taus[:, None]
        assert np.all(inc[dead] == 0.0)


    @given(st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
                     st.floats(max_value=0.0, allow_infinity=False)))
    def test_step_checked(self, dt):
        # a step that is not finite and positive raises the documented error
        # before any increment is formed
        values = np.array([[0.0, 0.1, -0.05]])
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            occupation_increments(values, [1.0], dt, 0.0)

    @given(st.sampled_from([occupation_increments, localtime.tanaka_increments]),
           st.one_of(st.tuples(st.sampled_from([math.nan, math.inf, -math.inf]),
                               st.just(1.0)),
                     st.tuples(st.floats(-1.0, 1.0), st.sampled_from([math.nan, -math.nan]))),
           st.integers(1, 3))
    def test_level_and_length_checked(self, increments, case, n_rows):
        # both estimators share one check: a level that is not finite or a
        # NaN length raises before any increment is formed
        level, bad_tau = case
        values = np.tile([0.0, 0.1, -0.05], (n_rows, 1))
        taus = [1.0] * (n_rows - 1) + [bad_tau]
        with pytest.raises(ValueError, match="level must be finite|length is NaN"):
            increments(values, taus, 0.01, level)

    @pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
    def test_curves_reject_a_level_that_is_not_finite(self, level):
        path = _ramp_path()
        for curve in (occupation_local_time, tanaka_local_time):
            with pytest.raises(ValueError, match="level must be finite"):
                curve(path, level)

    @given(st.one_of(bridge_blocks(), occupation_blocks()), st.integers(1, 200))
    @settings(max_examples=300)
    def test_matches_masked_form(self, block, cells):
        # the kept steps gathered by flat index, in row groups of any size,
        # give the masked form's increments bit for bit, zeros included
        values, taus, dt, level = block
        with mock.patch.object(localtime, "_CELLS", cells):
            inc = occupation_increments(values, taus, dt, level)
        np.testing.assert_array_equal(inc, _masked_increments(values, taus, dt, level))
        if level == _FAR_LEVEL:
            assert not inc.any()

    @given(occupation_blocks(), st.integers(1, 100))
    @settings(max_examples=300)
    def test_block_matches_single_rows(self, block, cells):
        # rows grouped by live length, each group over its live columns only,
        # give each row's increments bit for bit, whatever the group size
        values, taus, dt, level = block
        with mock.patch.object(localtime, "_CELLS", cells):
            inc = occupation_increments(values, taus, dt, level)
        for row, tau, got in zip(values, taus, inc):
            np.testing.assert_array_equal(got, occupation_increments(row[None, :], [tau],
                                                                     dt, level)[0])


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
