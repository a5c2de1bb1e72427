"""Posterior, survival, transition law, drift and innovation checks."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import riemann
from infobridge import (
    DriftCache,
    ExponentialLaw,
    GammaLaw,
    ModelSpec,
    PinningLaw,
    UniformLaw,
    drift,
    innovation_path,
    pin_posterior,
    posterior,
    simulate_ensemble,
    survival_probability,
    transition_law,
)
from infobridge.filtering import _ETA_MAX, BandProbabilityCache, _HybridTable, _space_grid
from infobridge.kernels import log_mix_weight
from infobridge.verify import VerificationContext


def quad_drift(model, s, x):
    """Drift by ``scipy.integrate.quad`` in v = sqrt(r - s), up to the
    library's truncation point, on pieces split where an integrand changes
    fast: at powers of two times each |z - x|, where the pull
    (z - x)/v^2 exp(-(z - x)^2/(2 v^2)) puts a spike of unit-order mass at
    v ~ |z - x|; around the peak of each exponent
    z^2/(2r) - (z - x)^2/(2 v^2), at v^2 = s |z - x|/(|z| - |z - x|) when
    |z| > |z - x|; and toward a bounded support edge.  Exponents are
    shifted by their largest value at the split points."""
    law, pins, probs = model.length, model.pinning.points, model.pinning.probs
    v_lo = math.sqrt(max(law.support_inf - s, 0.0))
    v_hi = math.sqrt(law.truncation_point(1e-10) - s)
    pts = [v_lo, v_hi, *np.geomspace(1e-12 * v_hi, v_hi, 60),
           *(v_hi * (1.0 - np.geomspace(1e-12, 0.5, 40)))]
    pts += [math.sqrt(b - s) for b in law.breakpoints if b > s]
    for z in pins:
        c = abs(z - x)
        pts += [c * 2.0 ** k for k in range(-4, 60)]
        if abs(z) > c:
            offsets = np.geomspace(1e-7, 0.5, 25)
            pts += list(math.sqrt(c * s / (abs(z) - c)) * np.concatenate((1.0 - offsets,
                                                                         1.0 + offsets)))
    edges = np.unique(np.clip(pts, v_lo, v_hi))

    def expo(z, v):
        return z * z / (2.0 * (s + v * v)) - (z - x) ** 2 / (2.0 * v * v)

    live = edges[(edges > 0.0) & (law.pdf(s + edges * edges) > 0.0)]
    top = max(expo(z, live).max() for z in pins)

    def mass(v, z):
        if v == 0.0:
            return 0.0
        return (2.0 * math.sqrt(s + v * v) * float(law.pdf(s + v * v))
                * math.exp(expo(z, v) - top))

    def pull(v, z):
        return 0.0 if v == 0.0 else mass(v, z) * (z - x) / (v * v)

    # Pieces where the integrand underflows cannot reach 1e-13 relative, and
    # quad says so; their share of the totals is far below it.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        totals = [math.fsum(p * math.fsum(integrate.quad(g, lo, hi, args=(z,), epsabs=0.0,
                                                         epsrel=1e-13, limit=200)[0]
                                          for lo, hi in zip(edges[:-1], edges[1:]))
                            for z, p in zip(pins, probs))
                  for g in (mass, pull)]
    return totals[1] / totals[0]


class TestPosterior:
    def test_no_information_limit_recovers_prior(self):
        model = ModelSpec(ExponentialLaw(1.0), PinningLaw([-1.0, 1.0], [0.3, 0.7]))
        state = posterior(model, t=1e-6, x=0.0)
        np.testing.assert_allclose(state.pin_probs, [0.3, 0.7], atol=1e-4)

    def test_absorbed_is_point_mass(self, two_pin_symmetric):
        state = posterior(two_pin_symmetric, t=1.4, x=1.0, absorbed=True, tau=1.3)
        assert state.point_mass == (1.3, 1.0)
        assert state.pin_probs[1] == 1.0
        assert state.expectation(lambda r, z: r * z) == pytest.approx(1.3)
        assert state.survival(1.35) == 0.0
        assert state.survival(1.25) == 1.0

    def test_absorbed_off_pin_rejected(self, two_pin_symmetric):
        with pytest.raises(ValueError):
            posterior(two_pin_symmetric, t=1.0, x=0.37, absorbed=True)

    def test_symmetric_model_is_fair_at_origin(self, two_pin_symmetric):
        state = posterior(two_pin_symmetric, t=0.8, x=0.0)
        assert state.pin_probs[0] == pytest.approx(0.5, abs=1e-14)

    def test_expectation_of_constant(self, two_pin_asymmetric):
        state = posterior(two_pin_asymmetric, t=0.5, x=0.2)
        assert state.expectation(lambda r, z: np.ones_like(r)) == pytest.approx(1.0, rel=1e-9)

    def test_expectation_of_pin_matches_weights(self, two_pin_asymmetric):
        state = posterior(two_pin_asymmetric, t=0.5, x=0.2)
        via_g = state.expectation(lambda r, z: z * np.ones_like(r))
        via_weights = float(state.pin_probs @ two_pin_asymmetric.pinning.points)
        assert via_g == pytest.approx(via_weights, rel=1e-9)

    @pytest.mark.parametrize("model, t, x, pdf, r_max, lower", [
        (ModelSpec(ExponentialLaw(1.0), PinningLaw([0.0], [1.0])), 0.5, 0.2,
         riemann.exp_pdf(), 60.0, None),
        (ModelSpec(ExponentialLaw(1.0), PinningLaw([0.0], [1.0])), 0.05, -0.1,
         riemann.exp_pdf(), 60.0, None),
        (ModelSpec(UniformLaw(0.5, 2.0), PinningLaw([-1.0, 2.0], [0.6, 0.4])), 0.8, 0.3,
         riemann.uniform_pdf(0.5, 2.0), 2.0, None),
        (ModelSpec(UniformLaw(0.5, 2.0), PinningLaw([-1.0, 2.0], [0.6, 0.4])), 0.2, -0.4,
         riemann.uniform_pdf(0.5, 2.0), 2.0, 0.5),
    ])
    def test_expectation_matches_riemann_oracle(self, model, t, x, pdf, r_max, lower):
        # one pass gives numerator and normalizer; ``lower`` keeps the
        # oracle's panels off the density jump at the support's lower edge
        def g(r, z):
            return r + z * np.sqrt(r)

        pins, probs = model.pinning.points, model.pinning.probs
        oracle = (riemann.mixture_tail(t, x, pins, probs, pdf, r_max, lower=lower, weight=g)
                  / riemann.mixture_tail(t, x, pins, probs, pdf, r_max, lower=lower))
        assert posterior(model, t, x).expectation(g) == pytest.approx(oracle, rel=1e-8)

    def test_survival_through_state(self, single_pin_exp):
        state = posterior(single_pin_exp, t=0.5, x=0.2)
        assert state.survival(0.5) == 1.0
        assert 0.0 < state.survival(1.0) < 1.0

    def test_pin_weights_normalized(self, two_pin_asymmetric):
        rng = np.random.default_rng(31)
        for _ in range(20):
            t = rng.uniform(0.01, 2.5)
            x = rng.uniform(-3.0, 3.0)
            state = posterior(two_pin_asymmetric, t, x)
            assert state.pin_probs.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.all(state.pin_probs >= 0.0)


class TestSurvival:
    def test_full_mass_at_current_time(self, two_pin_asymmetric):
        assert survival_probability(two_pin_asymmetric, 0.5, 0.1, 0.5) == 1.0

    def test_exhausted_support(self, two_pin_symmetric):
        assert survival_probability(two_pin_symmetric, 1.0, 0.1, 2.0) == 0.0
        assert survival_probability(two_pin_symmetric, 1.0, 0.1, 5.0) == 0.0

    def test_brute_force_oracle(self, single_pin_exp):
        oracle = riemann.survival(0.5, 0.2, 1.0, [0.0], [1.0], riemann.exp_pdf(), 60.0)
        assert oracle == pytest.approx(0.5228758679, abs=1e-9)
        got = survival_probability(single_pin_exp, 0.5, 0.2, 1.0)
        assert got == pytest.approx(oracle, rel=1e-6)

    def test_monotone_in_horizon(self, two_pin_asymmetric):
        us = np.linspace(0.5, 4.0, 15)
        vals = [survival_probability(two_pin_asymmetric, 0.5, -0.3, float(u)) for u in us]
        assert np.all(np.diff(vals) <= 1e-12)

    def test_u_before_t_rejected(self, single_pin_exp):
        with pytest.raises(ValueError):
            survival_probability(single_pin_exp, 1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            survival_probability(single_pin_exp, 1.0, 0.0, [1.5, 0.5])

    @pytest.mark.parametrize("model", [
        VerificationContext.model_single_pin(), VerificationContext.model_two_pin_symmetric(),
        VerificationContext.model_two_pin_asymmetric(), VerificationContext.model_bounded_support()])
    def test_ladder_of_times_is_one_pass(self, model):
        # a sequence of u adds a leading axis and matches one call per u
        t = 0.4
        sup = model.support_sup if math.isfinite(model.support_sup) else 6.0
        us = np.linspace(t, sup, 40)
        xs = np.array([-0.8, 0.1, 1.3])
        curve = survival_probability(model, t, 0.1, us)
        assert curve.shape == us.shape
        assert np.all(np.diff(curve) <= 0.0)
        loop = [survival_probability(model, t, 0.1, float(u)) for u in us]
        np.testing.assert_allclose(curve, loop, rtol=1e-9, atol=1e-13)
        grid = survival_probability(model, t, xs, us)
        assert grid.shape == (us.size, xs.size)
        np.testing.assert_allclose(grid[:, 1], curve, rtol=1e-9, atol=1e-13)


class TestTransitionLaw:
    def test_total_mass_is_one(self, two_pin_asymmetric):
        law = transition_law(two_pin_asymmetric, t=0.5, x=0.3, u=1.2)
        assert law.total_mass() == pytest.approx(1.0, abs=1e-6)

    def test_absorbed_state_is_a_trap(self, two_pin_symmetric):
        law = transition_law(two_pin_symmetric, t=1.0, x=1.0, u=1.5)
        np.testing.assert_array_equal(law.atoms, [0.0, 1.0])
        assert law.continuous_density(0.3) == 0.0
        assert law.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_density_zero_on_pin_levels(self, two_pin_asymmetric):
        law = transition_law(two_pin_asymmetric, t=0.5, x=0.3, u=1.2)
        assert law.continuous_density(-1.0) == 0.0
        assert law.continuous_density(2.0) == 0.0
        assert law.continuous_density(0.0) > 0.0

    def test_atom_growth_with_horizon(self, two_pin_asymmetric):
        small = transition_law(two_pin_asymmetric, 0.5, 0.3, 0.6).atoms.sum()
        large = transition_law(two_pin_asymmetric, 0.5, 0.3, 2.0).atoms.sum()
        assert 0.0 < small < large < 1.0

    def test_chapman_kolmogorov(self, single_pin_exp):
        # compose t -> s -> u and compare with the direct law t -> u; the
        # intermediate density sweep uses the closed-form factorization so
        # the composition integral can run on a dense grid
        from infobridge import bridge_marginal_density, mix_weight

        model = single_pin_exp
        t, s, u, x = 0.4, 0.7, 1.1, 0.25
        direct = transition_law(model, t, x, u)
        step1 = transition_law(model, t, x, s)
        # offset grid: the stored density is zero exactly on pin levels
        w = np.linspace(-4.0, 4.0, 12801) + 1.7e-5
        dens1 = step1.continuous_density(w)
        mix_s_w = mix_weight(s, w, model)
        for y in (-0.5, 0.2, 0.9):
            inner = (bridge_marginal_density(s, u, y, w)
                     * mix_weight(u, y, model) / mix_s_w)
            composed = np.trapezoid(dens1 * inner, w)
            assert composed == pytest.approx(direct.continuous_density(y), rel=1e-4)

    def test_chapman_kolmogorov_atoms(self, single_pin_exp):
        model = single_pin_exp
        t, s, u, x = 0.4, 0.7, 1.1, 0.25
        direct = transition_law(model, t, x, u)
        step1 = transition_law(model, t, x, s)
        w = np.linspace(-4.0, 4.0, 12801) + 1.7e-5
        dens1 = step1.continuous_density(w)
        inner_atom = 1.0 - survival_probability(model, s, w, u)
        composed = step1.atoms[0] + np.trapezoid(dens1 * inner_atom, w)
        assert composed == pytest.approx(direct.atoms[0], rel=1e-4)

    def test_bad_ordering_rejected(self, single_pin_exp):
        with pytest.raises(ValueError):
            transition_law(single_pin_exp, 1.0, 0.0, 1.0)


class TestDrift:
    def test_symmetric_cancellation(self, two_pin_symmetric):
        assert drift(two_pin_symmetric, 0.7, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_sign_follows_pin(self):
        model = ModelSpec(ExponentialLaw(1.0), PinningLaw([1.0], [1.0]))
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = rng.uniform(0.05, 2.0)
            x = rng.uniform(-2.0, 3.0)
            if abs(x - 1.0) < 1e-6:
                continue
            assert math.copysign(1.0, drift(model, s, x)) == math.copysign(1.0, 1.0 - x)

    def test_brute_force_oracle(self):
        model = ModelSpec(UniformLaw(1.0, 2.0), PinningLaw([0.0], [1.0]))
        oracle = riemann.drift(0.5, 0.3, [0.0], [1.0], riemann.uniform_pdf(1.0, 2.0),
                               2.0, lower=1.0)
        assert oracle == pytest.approx(-0.3338334051, abs=1e-9)
        assert drift(model, 0.5, 0.3) == pytest.approx(oracle, rel=1e-5)

    def test_matches_log_weight_gradient(self, two_pin_asymmetric):
        # independent finite-difference route: the drift is the spatial
        # gradient of the log mixture weight plus the bridge-to-zero pull
        for s, x in [(0.3, 0.4), (1.1, -0.6)]:
            h = 1e-5
            fd = (log_mix_weight(s, x + h, two_pin_asymmetric)
                  - log_mix_weight(s, x - h, two_pin_asymmetric)) / (2 * h) + x / s
            assert drift(two_pin_asymmetric, s, x) == pytest.approx(fd, rel=1e-6)

    def test_domain(self, two_pin_symmetric):
        with pytest.raises(ValueError):
            drift(two_pin_symmetric, 2.0, 0.0)
        with pytest.raises(ValueError):
            drift(two_pin_symmetric, 0.0, 0.0)

    @pytest.mark.parametrize("s, x", [(0.0115689, 1.076e-10), (1.0, 1e-9), (0.5, 3e-9),
                                      (1e-3, 3e-11)])
    def test_near_pin_matches_scipy_quad(self, single_pin_exp, s, x):
        assert drift(single_pin_exp, s, x) == pytest.approx(
            quad_drift(single_pin_exp, s, x), rel=1e-6)

    @given(st.floats(math.log(1e-3), 0.0), st.floats(math.log(1e-13), math.log(1e-6)),
           st.sampled_from([-1.0, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_near_pin_property(self, log_s, log_d, sign):
        # The pull's spike at v ~ |x| lies far below the first ladder's
        # bottom edge; the Kronrod-Gauss pair must see it and refine.
        model = VerificationContext.model_single_pin()
        s, x = math.exp(log_s), sign * math.exp(log_d)
        assert drift(model, s, x) == pytest.approx(quad_drift(model, s, x), rel=1e-6)


UNIFORM_EDGE = ModelSpec(UniformLaw(0.5, 2.0), PinningLaw([-1.0, 2.0], [0.6, 0.4]))
UNIFORM_NARROW = ModelSpec(UniformLaw(0.5, 1.5), PinningLaw([-1.0, 1.0], [0.5, 0.5]))
FAR_PINS = ModelSpec(GammaLaw(2.0), PinningLaw([-30.0, 0.5, 40.0], [1 / 3, 1 / 3, 1 / 3]))


@st.composite
def edge_states(draw):
    """A uniform length law, a time in [sup/2, sup (1 - 1e-4)] and a value
    up to 60 from the origin: near the support edge, and mostly far from
    every pin."""
    model = draw(st.sampled_from([UNIFORM_EDGE, UNIFORM_NARROW]))
    sup = model.support_sup
    return model, draw(st.floats(0.5 * sup, sup * (1.0 - 1e-4))), draw(st.floats(-60.0, 60.0))


class TestFarStates:
    """States where the integrand is steep in one panel only: far from
    every pin, next to a bounded support edge, or with far pins at a small
    time.  The tail rule bisects that panel until it settles."""

    @pytest.mark.parametrize("model, s, x", [
        (UNIFORM_EDGE, 1.0, 60.0), (UNIFORM_EDGE, 2.0 - 5e-4, 0.0),
        (UNIFORM_NARROW, 1.397, 9.34), (FAR_PINS, 1e-4, 2.0), (FAR_PINS, 1e-8, 2.0)])
    def test_drift_matches_scipy_quad(self, model, s, x):
        assert drift(model, s, x) == pytest.approx(quad_drift(model, s, x), rel=1e-9)

    def test_survival_and_transition_next_to_the_edge(self):
        s, x = 1.397, 9.34
        u = s + 1.118
        surv = survival_probability(UNIFORM_NARROW, s, x, u)
        assert 0.0 <= surv <= 1.0
        atoms = transition_law(UNIFORM_NARROW, s, x, u).atoms
        assert np.all(np.isfinite(atoms) & (atoms >= 0.0)) and atoms.sum() <= 1.0 + 1e-9

    def test_checked_table_row_at_the_edge(self):
        # the last time node of DriftCache(UNIFORM_EDGE, 1e-3, 2.0) on its
        # space nodes, with the checked rule
        xs = _space_grid(UNIFORM_EDGE, 1e-3, 2.0, 361)
        assert np.all(np.isfinite(drift(UNIFORM_EDGE, 2.0 * (1.0 - 1e-9), xs)))

    @given(edge_states())
    @settings(max_examples=40)
    def test_edge_property(self, state):
        model, s, x = state
        assert drift(model, s, x) == pytest.approx(quad_drift(model, s, x), rel=1e-8, abs=1e-8)
        u = s + 0.5 * (model.support_sup - s)
        assert 0.0 <= survival_probability(model, s, x, u) <= 1.0


class TestDriftCache:
    def test_single_pin_interpolation_tolerance(self, single_pin_exp):
        cache = DriftCache(single_pin_exp, s_min=1e-3, s_max=1.0)
        assert cache.max_rel_error(n_probe=150) <= 1e-4

    def test_multi_pin_interpolation_tolerance(self, two_pin_asymmetric):
        # the drift jumps sign across pin levels; away from the jumps the
        # table tracks direct quadrature to a fraction of a percent
        cache = DriftCache(two_pin_asymmetric, s_min=1e-3, s_max=1.0)
        assert cache.max_rel_error(n_probe=150) <= 2e-2

    def test_queries_clamp(self, single_pin_exp):
        cache = DriftCache(single_pin_exp, s_min=1e-3, s_max=1.0)
        assert np.isfinite(cache(1e-6, 0.1))
        assert np.isfinite(cache(5.0, 0.1))

    @pytest.mark.parametrize("make", [
        lambda model, s_min, s_max: DriftCache(model, s_min, s_max),
        lambda model, s_min, s_max: BandProbabilityCache(model, 0.1, s_min, s_max),
    ], ids=["drift", "band"])
    @pytest.mark.parametrize("s_min,s_max", [(1.0, 0.5), (0.0, 1.0), (0.5, 2.5)])
    def test_time_range_checked(self, two_pin_symmetric, make, s_min, s_max):
        # a descending range, a zero start and an end past the support
        # (sup 2) are rejected by both tables before any row is filled
        with pytest.raises(ValueError, match="need 0 < s_min < s_max"):
            make(two_pin_symmetric, s_min, s_max)


def _two_regime_read(table, s, x):
    """The table read as both regimes evaluated at every point, each clamped
    to its own side of the switch, with ``np.where`` keeping one of them."""
    s = np.asarray(s, dtype=float)
    x = np.asarray(x, dtype=float)
    if table._large is None:
        return table._small(s, np.clip(x / np.sqrt(s), -_ETA_MAX, _ETA_MAX))
    if table._small is None:
        return table._large(s, x)
    return np.where(
        s < table.s_switch,
        table._small(np.minimum(s, table.s_switch),
                     np.clip(x / np.sqrt(np.maximum(s, 1e-300)), -_ETA_MAX, _ETA_MAX)),
        table._large(np.maximum(s, table.s_switch), x))


def _synthetic_rows(s, xs):
    return np.sin(3.0 * xs) * np.log(s) + xs * xs * s


_EXP = ModelSpec(ExponentialLaw(1.0), PinningLaw([0.0], [1.0]))
_UNI = ModelSpec(UniformLaw(0.5, 2.0), PinningLaw([-1.0, 2.0], [0.6, 0.4]))
# Tables over synthetic rows: two regimes, the scaled regime alone (s_max
# below the switch), the space regime alone (s_min above the switch at
# 1/121), and two regimes stacking a ladder of three quantities.
_READ_TABLES = [
    _HybridTable(_EXP, _synthetic_rows, 1e-3, 1.0, 20, 41, 41),
    _HybridTable(_EXP, _synthetic_rows, 1e-3, 0.05, 20, 41, 41),
    _HybridTable(_UNI, _synthetic_rows, 0.01, 1.9, 20, 41, 41),
    _HybridTable(_UNI, lambda s, xs: np.stack([_synthetic_rows(s, xs) * k for k in (1, 2, 3)]),
                 1e-3, 1.9, 20, 41, 41),
]


@st.composite
def table_reads(draw):
    """A table and query points below ``s_min``, at the switch, past
    ``s_max`` and log-uniform in between, with values up to 10 away."""
    table = draw(st.sampled_from(_READ_TABLES))
    lo, hi = math.log(table.s_min), math.log(table.s_max)
    times = st.one_of(st.just(table.s_switch),
                      st.floats(math.log(table.s_min * 1e-3), lo).map(math.exp),
                      st.floats(hi, hi + math.log(3.0)).map(math.exp),
                      st.floats(lo, hi).map(math.exp))
    n = draw(st.integers(1, 12))
    s = np.array(draw(st.lists(times, min_size=n, max_size=n)))
    x = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    return table, s, x


class TestHybridTableRead:
    """Each point is read from its own regime only, bit for bit what
    reading both regimes everywhere and keeping one gives."""

    @given(table_reads())
    def test_matches_two_regime_read(self, case):
        table, s, x = case
        np.testing.assert_array_equal(table(s, x), _two_regime_read(table, s, x))
        np.testing.assert_array_equal(table(s[0], x[0]), _two_regime_read(table, s[0], x[0]))
        np.testing.assert_array_equal(table(s[0], x), _two_regime_read(table, s[0], x))

    def test_tables_cover_each_layout(self):
        layouts = [(t._small is not None, t._large is not None) for t in _READ_TABLES]
        assert layouts == [(True, True), (True, False), (False, True), (True, True)]
        assert _READ_TABLES[3](0.5, 0.2).shape == (3,)


class TestInnovation:
    def test_brownian_statistics(self, single_pin_exp):
        n = 400
        dt = 1e-3
        cache = DriftCache(single_pin_exp, s_min=dt, s_max=1.0)
        ens = simulate_ensemble(single_pin_exp, dt, 1.0, n, seed=17)
        innov = np.array([innovation_path(single_pin_exp, p, drift_fn=cache)
                          for p in ens])
        for idx in (250, 500, 1000):
            col = innov[:, idx]
            stderr = col.std(ddof=1) / math.sqrt(n)
            assert abs(col.mean()) <= 3.0 * stderr

    def test_flat_after_absorption(self, two_pin_symmetric):
        cache = DriftCache(two_pin_symmetric, s_min=1e-3, s_max=2.0)
        ens = simulate_ensemble(two_pin_symmetric, 1e-3, 2.0, 10, seed=3)
        for p in ens:
            innov = innovation_path(two_pin_symmetric, p, drift_fn=cache)
            k = p.absorbed_index
            assert np.max(np.abs(np.diff(innov[k:]))) == 0.0

    def test_increment_independence(self, single_pin_exp):
        n = 400
        dt = 1e-3
        cache = DriftCache(single_pin_exp, s_min=dt, s_max=1.0)
        ens = simulate_ensemble(single_pin_exp, dt, 1.0, n, seed=19)
        innov = np.array([innovation_path(single_pin_exp, p, drift_fn=cache)
                          for p in ens])
        a = innov[:, 300] - innov[:, 0]
        b = innov[:, 700] - innov[:, 400]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) <= 3.0 / math.sqrt(n)


class TestTowerProperty:
    def test_filter_mean_matches_unconditional(self, two_pin_asymmetric):
        # E[ E[g | path up to t] ] = E[g] for the pin-value functional
        model = two_pin_asymmetric
        n, t = 1500, 0.6
        ens = simulate_ensemble(model, 5e-3, 0.6, n, seed=23)
        col = ens.values[:, -1]
        alive = ens.taus > t
        est = np.where(alive, 0.0, ens.zs)
        if np.any(alive):
            probs = pin_posterior(model, t, col[alive])
            est[alive] = model.pinning.points @ probs
        stderr = est.std(ddof=1) / math.sqrt(n)
        assert abs(est.mean() - model.pinning.mean()) <= 3.0 * stderr


class TestBandProbability:
    def test_cache_tracks_direct(self, single_pin_exp):
        cache = BandProbabilityCache(single_pin_exp, h=0.05, s_min=1e-3, s_max=1.0)
        assert cache.max_rel_error(n_probe=80) <= 3e-2

    def test_ladder_cache_tracks_direct_for_each_width(self, single_pin_exp):
        # One table for the whole ladder of the Meyer approximation, as the
        # verification suite builds it; each width keeps the band gate.
        ladder = VerificationContext.AH_LADDER
        cache = BandProbabilityCache(single_pin_exp, h=ladder, s_min=1e-3, s_max=1.0)
        errors = cache.max_rel_error(n_probe=80)
        assert errors.shape == (len(ladder),)
        assert np.all(errors <= 3e-2)
        s, x = np.array([0.01, 0.2, 0.9]), np.array([0.05, -0.3, 0.8])
        assert cache(s, x).shape == (len(ladder), 3)
        assert np.all(np.diff(cache(s, x)[::-1], axis=0) >= 0.0)  # wider band, more mass

    def test_band_values_are_probabilities(self, single_pin_exp):
        cache = BandProbabilityCache(single_pin_exp, h=0.05, s_min=1e-3, s_max=1.0)
        rng = np.random.default_rng(0)
        s = rng.uniform(1e-3, 1.0, 200)
        x = rng.uniform(-2.0, 2.0, 200)
        vals = cache(s, x)
        assert np.all((vals >= 0.0) & (vals <= 1.0))
