"""Posterior, survival, transition law, drift and innovation checks."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import riemann
from infobridge import (
    CustomLengthLaw,
    DriftCache,
    ExponentialLaw,
    GammaLaw,
    ModelSpec,
    PinningLaw,
    TruncatedExponentialLaw,
    UniformLaw,
    drift,
    innovation_path,
    pin_posterior,
    posterior,
    simulate_ensemble,
    survival_probability,
    transition_law,
)
from infobridge.compensator import intensity_row
from infobridge.filtering import BandProbabilityCache, _space_grid, _Table, band_probability
from infobridge.kernels import QuadratureError, log_mix_weight, tail_integrals
from infobridge.paths import SamplePath
from infobridge.verify import VerificationContext


PIN_LEVEL_MODELS = [VerificationContext.model_single_pin(),
                    VerificationContext.model_two_pin_symmetric(),
                    VerificationContext.model_two_pin_asymmetric(),
                    VerificationContext.model_bounded_support()]


def quad_cut(law, s):
    """Where 1e-13 of the length law's tail past ``s`` remains, from
    ``scipy.special`` alone: the support edge of a bounded law, else the
    inverse of the Gamma survival function (Exp(rate) is Gamma(1, 1/rate))."""
    if math.isfinite(law.support_sup):
        return law.support_sup
    shape, scale = ((1.0, 1.0 / law.rate) if isinstance(law, ExponentialLaw)
                    else (law.shape, law.scale))
    return scale * special.gammainccinv(shape, 1e-13 * special.gammaincc(shape, s / scale))


def quad_reads(model, s, x, u=None):
    """Drift and, given ``u``, the survival probability past ``u`` by
    ``scipy.integrate.quad`` in v = sqrt(r - s), up to :func:`quad_cut`, on
    pieces split at sqrt(u - s) and where an integrand changes fast: at
    powers of two times each |z - x|, where the pull
    (z - x)/v^2 exp(-(z - x)^2/(2 v^2)) puts a spike of unit-order mass at
    v ~ |z - x|; around the peak of each exponent
    z^2/(2r) - (z - x)^2/(2 v^2), at v^2 = s |z - x|/(|z| - |z - x|) when
    |z| > |z - x|; and toward a bounded support edge.  Exponents are
    shifted by their largest value at the split points."""
    law, pins, probs = model.length, model.pinning.points, model.pinning.probs
    v_lo = math.sqrt(max(law.support_inf - s, 0.0))
    v_hi = math.sqrt(quad_cut(law, s) - s)
    v_u = math.inf if u is None else math.sqrt(u - s)
    pts = [v_lo, v_hi, *np.geomspace(1e-12 * v_hi, v_hi, 60),
           *(v_hi * (1.0 - np.geomspace(1e-12, 0.5, 40)))]
    pts += [math.sqrt(b - s) for b in law.breakpoints if b > s] + [min(v_u, v_hi)]
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

    def beyond(v, z):
        return mass(v, z) if v >= v_u else 0.0

    # Pieces where the integrand underflows cannot reach 1e-13 relative, and
    # quad says so; their share of the totals is far below it.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        totals = [math.fsum(p * math.fsum(integrate.quad(g, lo, hi, args=(z,), epsabs=0.0,
                                                         epsrel=1e-13, limit=200)[0]
                                          for lo, hi in zip(edges[:-1], edges[1:]))
                            for z, p in zip(pins, probs))
                  for g in (mass, pull, beyond)]
    return totals[1] / totals[0], totals[2] / totals[0]


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
        # the length 1.3 is at most t = 1.4, so it exceeds no u >= t
        assert state.survival(1.4) == 0.0
        assert state.survival(2.5) == 0.0
        # times in an array, as in the live state
        np.testing.assert_array_equal(state.survival([1.4, 2.5]), [0.0, 0.0])
        assert state.survival(np.full((2, 3), 1.5)).shape == (2, 3)

    def test_absorbed_off_pin_rejected(self, two_pin_symmetric):
        with pytest.raises(ValueError):
            posterior(two_pin_symmetric, t=1.0, x=0.37, absorbed=True)

    @pytest.mark.parametrize("absorbed,t,tau", [
        *[(a, t, None) for a in (True, False) for t in (math.nan, math.inf, 0.0, -1.0)],
        *[(True, 1.0, tau) for tau in (math.nan, 0.0, -0.5, 1.2, math.inf)],
    ])
    def test_times_checked(self, absorbed, t, tau):
        # t must be finite and positive, and an absorption time lie in (0, t]
        with pytest.raises(ValueError, match="t must be|tau must"):
            posterior(UNIFORM_EDGE, t, -1.0, absorbed=absorbed, tau=tau)

    @pytest.mark.parametrize("absorbed", [True, False])
    @pytest.mark.parametrize("u", [math.nan, 0.5, 0.999])
    def test_survival_needs_u_from_t(self, absorbed, u):
        # absorbed or not, survival(u) is defined for u >= t only
        state = posterior(UNIFORM_EDGE, 1.0, -1.0 if absorbed else 0.3, absorbed=absorbed)
        with pytest.raises(ValueError):
            state.survival(u)

    def test_absorbed_at_the_observation_time(self):
        state = posterior(UNIFORM_EDGE, 1.0, -1.0, absorbed=True, tau=1.0)
        assert state.point_mass == (1.0, -1.0)
        assert posterior(UNIFORM_EDGE, 1.0, -1.0, absorbed=True).point_mass == (1.0, -1.0)

    def test_symmetric_model_is_fair_at_origin(self, two_pin_symmetric):
        state = posterior(two_pin_symmetric, t=0.8, x=0.0)
        assert state.pin_probs[0] == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("absorbed", [False, True])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_expectation_of_a_non_finite_g_raises(self, absorbed, bad):
        # live, g is bad past r = 1.5 only; absorbed, at the point mass
        state = posterior(UNIFORM_EDGE, 1.0, -1.0 if absorbed else 0.3, absorbed=absorbed)
        with pytest.raises(ValueError, match="not finite"):
            state.expectation(lambda r, z: np.where((r > 1.5) | absorbed, bad, 1.0))

    def test_expectation_of_constant(self, two_pin_asymmetric):
        state = posterior(two_pin_asymmetric, t=0.5, x=0.2)
        assert state.expectation(lambda r, z: np.ones_like(r)) == pytest.approx(1.0, rel=1e-9)

    @given(st.sampled_from(PIN_LEVEL_MODELS), st.floats(0.05, 1.4), st.floats(-2.0, 2.0))
    @settings(max_examples=40)
    def test_expectation_of_scalar_one_is_one(self, model, t, x):
        # a g that returns a scalar joins the weights as 1.0: the moment is
        # the mass bit for bit
        assert posterior(model, t, x).expectation(lambda r, z: 1.0) == 1.0

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

    @pytest.mark.parametrize("x", [0.0, 0.3], ids=["absorbed", "live"])
    @pytest.mark.parametrize("y", [math.nan, math.inf, [0.1, math.nan], [[1.0, 2.0]]],
                             ids=["nan", "inf", "nan-in-row", "2-d"])
    def test_density_argument_checked_absorbed_or_not(self, single_pin_exp, x, y):
        # an absorbed law answers no density, but checks its argument as a live one does
        law = transition_law(single_pin_exp, 0.5, x, 0.6)
        with pytest.raises(ValueError):
            law.continuous_density(y)

    @given(y=st.lists(st.floats(-5.0, 5.0), max_size=4) | st.floats(-5.0, 5.0))
    @settings(max_examples=30)
    def test_absorbed_density_keeps_shape(self, y):
        model = ModelSpec(ExponentialLaw(1.0), PinningLaw([0.0], [1.0]))
        dens = transition_law(model, 0.5, 0.0, 0.6).continuous_density(y)
        if isinstance(y, float):
            assert isinstance(dens, float) and dens == 0.0
        else:
            np.testing.assert_array_equal(dens, np.zeros(len(y)))

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

    @pytest.mark.parametrize("t,u", [(0.5, math.inf), (0.5, math.nan), (math.nan, 1.0)])
    def test_non_finite_times_rejected(self, single_pin_exp, t, u):
        # at an infinite horizon the continuous density would be NaN
        with pytest.raises(ValueError, match="need 0 < t < u < inf"):
            transition_law(single_pin_exp, t, 0.1, u)


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
            quad_reads(single_pin_exp, s, x)[0], rel=1e-6)

    @given(st.floats(math.log(1e-3), 0.0), st.floats(math.log(1e-13), math.log(1e-6)),
           st.sampled_from([-1.0, 1.0]))
    @settings(max_examples=60)
    def test_near_pin_property(self, log_s, log_d, sign):
        # The pull's spike at v ~ |x| lies far below the first ladder's
        # bottom edge; the Kronrod-Gauss pair must see it and refine.
        model = VerificationContext.model_single_pin()
        s, x = math.exp(log_s), sign * math.exp(log_d)
        assert drift(model, s, x) == pytest.approx(quad_reads(model, s, x)[0], rel=1e-6)


def _first_pass_drifts(model, s, x):
    """The drift of the first pass in the row rule of a table of no widths
    and of one of the verification suite's A^h ladder."""
    return [_Table._row(model, np.array(widths, dtype=float), s, x, True)[0]
            for widths in ((), VerificationContext.AH_LADDER)]


class TestPinLevels:
    """On a pin level the pull ``z_i - x`` of that pin is 0, while the
    integral of ``1/(r - s)`` alone diverges there.  The pull multiplies the
    panel sums before they are checked, so the drift settles on the pin."""

    @pytest.mark.parametrize("s", [1e-4, 1e-3, 0.1, 0.5, 2.0, 10.0])
    def test_single_pin_drift_is_zero(self, single_pin_exp, s):
        assert drift(single_pin_exp, s, 0.0) == 0.0
        for first_pass in _first_pass_drifts(single_pin_exp, s, 0.0):
            assert first_pass[0] == 0.0

    @pytest.mark.parametrize("model", PIN_LEVEL_MODELS[1:])
    @pytest.mark.parametrize("s", [0.7, 1.2])
    def test_two_pin_drift_matches_riemann_oracle(self, model, s):
        law, pins, probs = model.length, model.pinning.points, model.pinning.probs
        alone, beside_bands = _first_pass_drifts(model, s, pins)
        for z, direct, first, beside in zip(pins, drift(model, s, pins), alone, beside_bands):
            oracle = riemann.drift(s, z, pins, probs, riemann.uniform_pdf(law.a, law.b), law.b)
            assert direct == pytest.approx(oracle, rel=1e-8)
            assert first == pytest.approx(oracle, rel=1e-8)
            assert beside == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("model", [PIN_LEVEL_MODELS[0], PIN_LEVEL_MODELS[2]])
    def test_cache_rows_at_pin_nodes_are_finite(self, model):
        table = DriftCache(model, s_min=1e-3, s_max=1.0)
        at_pins = np.isin(table.x_nodes, model.pinning.points)
        assert at_pins.sum() == len(model.pinning)
        rows = table.rows[..., at_pins]
        assert np.all(np.isfinite(rows))
        if len(model.pinning) == 1:
            assert np.all(rows == 0.0)


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
        assert drift(model, s, x) == pytest.approx(quad_reads(model, s, x)[0], rel=1e-9)

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
        xs = _space_grid(UNIFORM_EDGE, 1e-3, 2.0)
        assert np.all(np.isfinite(drift(UNIFORM_EDGE, 2.0 * (1.0 - 1e-9), xs)))

    @given(edge_states())
    @settings(max_examples=40)
    def test_edge_property(self, state):
        model, s, x = state
        assert drift(model, s, x) == pytest.approx(quad_reads(model, s, x)[0], rel=1e-8, abs=1e-8)
        u = s + 0.5 * (model.support_sup - s)
        assert 0.0 <= survival_probability(model, s, x, u) <= 1.0


OBSERVER_MODELS = [ModelSpec(ExponentialLaw(1.0), PinningLaw([0.0], [1.0])),
                   ModelSpec(GammaLaw(2.0), PinningLaw([-1.0, 0.5], [0.5, 0.5])),
                   ModelSpec(GammaLaw(0.5, 2.0), PinningLaw([0.0, 3.0], [0.5, 0.5])),
                   ModelSpec(UniformLaw(0.5, 2.0), PinningLaw([-1.0, 2.0], [0.6, 0.4])),
                   ModelSpec(TruncatedExponentialLaw(1.0, 3.0),
                             PinningLaw([-1.0, 1.0], [0.5, 0.5]))]
#: the top time of each unbounded law in OBSERVER_MODELS
OBSERVER_TOPS = [57.6, 65.8, 104.6]


@st.composite
def observer_states(draw):
    """A model, a time log-uniform from 1e-3 to its top (2.5 times the
    support edge of a bounded law, and of the point an unbounded law keeps
    1e-10 of its mass beyond), or for a bounded law one from 1e-9 to 0.1 of
    the edge below it, and a value within 4 sqrt(s)."""
    model = draw(st.sampled_from(OBSERVER_MODELS))
    sup = model.support_sup
    if math.isfinite(sup) and draw(st.booleans()):
        s = sup * (1.0 - 10.0 ** draw(st.floats(-9.0, -1.0)))
    else:
        top = 2.5 * sup if math.isfinite(sup) else OBSERVER_TOPS[OBSERVER_MODELS.index(model)]
        s = math.exp(draw(st.floats(math.log(1e-3), math.log(top))))
    return model, s, draw(st.floats(-4.0, 4.0)) * math.sqrt(s)


class TestObserverDomain:
    """Every observer function returns a finite value in range; on a bounded
    law it may raise ``QuadratureError`` instead, or ``ValueError`` at or
    past its support edge."""

    @given(observer_states())
    @settings(max_examples=500)
    def test_finite_in_range_or_quadrature_error(self, state):
        model, s, x = state
        if not math.isfinite(model.support_sup):
            errors = ()
        elif s >= model.support_sup:
            errors = (QuadratureError, ValueError)
        else:
            errors = QuadratureError
        checks = [
            (lambda: pin_posterior(model, s, x),
             lambda p: np.all((p >= 0.0) & (p <= 1.0)) and abs(p.sum() - 1.0) <= 1e-12),
            (lambda: survival_probability(model, s, x, s + 0.5), lambda p: 0.0 <= p <= 1.0),
            (lambda: band_probability(model, s, x, 0.1), lambda p: 0.0 <= p <= 1.0),
            (lambda: transition_law(model, s, x, s + 0.1).atoms,
             lambda a: np.all(a >= 0.0) and a.sum() <= 1.0 + 1e-12),
            (lambda: drift(model, s, x), math.isfinite),
            (lambda: posterior(model, s, x).expectation(lambda r, z: r),
             lambda m: s * (1.0 - 1e-12) <= m < math.inf),
            (lambda: intensity_row(model, s), lambda k: np.all((k >= 0.0) & (k < math.inf))),
        ]
        for value, in_range in checks:
            try:
                result = value()
            except errors:
                continue
            assert in_range(result)


EXP_COPY = CustomLengthLaw(pdf=ExponentialLaw(1.0).pdf, cdf=ExponentialLaw(1.0).cdf,
                           quantile=ExponentialLaw(1.0).quantile)


class TestLateStates:
    """Drift and survival against scipy's quad up to s = 40, on Exp(1) with
    one pin at 0 and on Gamma(2) with pins (-1, 0.5): long after 1e-10 of
    the prior law is left, so the quadrature must cut the conditional tail."""

    def test_survival_past_the_prior_cut(self):
        # read 0.451273 when the tail was cut where 1e-10 of the prior law remains
        model = OBSERVER_MODELS[0]
        surv = survival_probability(model, 20.0, 1.0, 21.0)
        assert surv == pytest.approx(0.480465, abs=1e-6)
        assert surv == pytest.approx(quad_reads(model, 20.0, 1.0, 21.0)[1], rel=1e-8)

    @pytest.mark.parametrize("law, s", [
        (ExponentialLaw(1.0), 744.0), (ExponentialLaw(1.0), 800.0), (GammaLaw(2.0), 800.0),
        (EXP_COPY, 30.0), (EXP_COPY, 800.0)])
    def test_tail_out_of_reach_raises_quadrature_error(self, law, s):
        # The tail past s underflows, or for the copy 1 - q rounds to 1: no
        # finite cut holds it, and no RuntimeWarning, NaN band edge or
        # ValueError may surface instead.
        model = ModelSpec(law, PinningLaw([0.0], [1.0]))
        reads = [lambda: pin_posterior(model, s, 0.5),
                 lambda: survival_probability(model, s, 0.5, s + 1.0),
                 lambda: band_probability(model, s, 0.5, 0.1),
                 lambda: transition_law(model, s, 0.5, s + 0.1),
                 lambda: drift(model, s, 0.5),
                 lambda: log_mix_weight(s, 0.5, model)]
        if float(law.pdf(s)) > 0.0:  # else the kernel is 0.0 without a tail read
            reads.append(lambda: intensity_row(model, s))
        for read in reads:
            with pytest.raises(QuadratureError):
                read()

    @given(st.sampled_from(OBSERVER_MODELS[:2]),
           st.floats(math.log(1e-2), math.log(40.0)).map(math.exp), st.integers(-8, 8))
    @settings(max_examples=30)
    def test_drift_and_survival_match_scipy_quad(self, model, s, k):
        # Values k sqrt(s) / 4: the near-pin spike has its own oracle test.
        # The drift is held to 1e-4 only: the cut leaves 1e-10 of the length
        # law's tail past s, but a value far from the pins moves the
        # posterior of the length out toward the cut, so more of it is left
        # (2e-5 relative at s = 40, x = 2 sqrt(40); a cut at 1e-30 reads
        # 4e-8 there).
        x, u = 0.25 * k * math.sqrt(s), s + 1.0
        ref_drift, ref_survival = quad_reads(model, s, x, u)
        assert drift(model, s, x) == pytest.approx(ref_drift, rel=1e-4)
        assert survival_probability(model, s, x, u) == pytest.approx(ref_survival, rel=1e-8)


@st.composite
def value_batches(draw):
    """A model of :class:`TestObserverDomain`, a time log-uniform from 1e-3
    to 0.9 of its support edge (at most 5), and 2 to 8 values within
    3 sqrt(s)."""
    model = draw(st.sampled_from(OBSERVER_MODELS))
    s = math.exp(draw(st.floats(math.log(1e-3), math.log(min(0.9 * model.support_sup, 5.0)))))
    xs = draw(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=8))
    return model, s, math.sqrt(s) * np.array(xs)


class TestValueContract:
    """Every observer ratio takes a float or a 1-d array of values: a float
    gives a Python float (pin weights one array over the pins), bit for bit
    entry 0 of the same call on ``[x]``; a batch gives one entry per value,
    each the one-float read to 1e-9 relative (refinement splits panels for a
    batch's failing values together, so the batch may read finer panels)."""

    READS = {
        "pin_posterior": lambda m, s, x: pin_posterior(m, s, x),
        "survival": lambda m, s, x: survival_probability(m, s, x, s + 0.1),
        "survival_seq": lambda m, s, x: survival_probability(m, s, x, (s + 0.1, s + 0.5)),
        "band": lambda m, s, x: band_probability(m, s, x, 0.1),
        "drift": lambda m, s, x: drift(m, s, x),
        "log_mix_weight": lambda m, s, x: log_mix_weight(s, x, m),
    }
    @given(value_batches())
    @settings(max_examples=150)
    def test_float_and_batch(self, state):
        model, s, xs = state
        leading = {"pin_posterior": (len(model.pinning),), "survival_seq": (2,)}
        for name, read in self.READS.items():
            lead = leading.get(name, ())
            one = read(model, s, float(xs[0]))
            if lead:
                assert type(one) is np.ndarray and one.shape == lead
            else:
                assert type(one) is float
            assert np.asarray(one).tobytes() == read(model, s, xs[:1])[..., 0].tobytes()
            batch = read(model, s, xs)
            assert batch.shape == lead + (xs.size,)
            for j, x in enumerate(xs):
                np.testing.assert_allclose(batch[..., j], read(model, s, float(x)),
                                           rtol=1e-9, atol=0.0, err_msg=name)


_TABLE_MAKERS = [lambda model, s_min, s_max: DriftCache(model, s_min, s_max),
                 lambda model, s_min, s_max: BandProbabilityCache(model, 0.1, s_min, s_max)]


class TestDriftCache:
    def test_single_pin_interpolation_tolerance(self, single_pin_exp):
        # s_min 1e-4 is the fine step of the full acceptance run
        for s_min in (1e-3, 1e-4):
            cache = DriftCache(single_pin_exp, s_min=s_min, s_max=1.0)
            assert cache.max_rel_error(n_probe=150) <= 1e-4

    def test_multi_pin_interpolation_tolerance(self, two_pin_asymmetric):
        # the drift jumps sign across pin levels; away from the jumps the
        # table tracks direct quadrature to a fraction of a percent
        for model in (two_pin_asymmetric, UNIFORM_EDGE):
            cache = DriftCache(model, s_min=1e-3, s_max=1.0)
            assert cache.max_rel_error(n_probe=150) <= 2e-2

    def test_bounded_law_reads_toward_the_edge(self):
        # the drift has a pole 1/(sup - s) at the support edge; the table
        # holds (sup - s) times the drift, so a read between the last two
        # time nodes tracks direct quadrature
        cache = DriftCache(UNIFORM_EDGE, 1e-3, 2.0)
        assert cache(1.958, 1.36) == pytest.approx(drift(UNIFORM_EDGE, 1.958, 1.36), rel=0.05)
        assert cache.max_rel_error(n_probe=150) <= 0.2

    def test_queries_clamp(self, single_pin_exp):
        cache = DriftCache(single_pin_exp, s_min=1e-3, s_max=1.0)
        assert np.isfinite(cache(1e-6, 0.1))
        assert np.isfinite(cache(5.0, 0.1))
        assert cache(0.5, math.inf) == cache(0.5, cache.x_nodes[-1])
        assert cache(math.inf, -math.inf) == cache(1.0, cache.x_nodes[0])
        for s, x in ((0.5, math.nan), (math.nan, 0.1), ([0.5, 0.6], [0.1, math.nan])):
            with pytest.raises(ValueError, match="NaN"):
                cache(s, x)

    @pytest.mark.parametrize("make", _TABLE_MAKERS, ids=["drift", "band"])
    @pytest.mark.parametrize("s_min,s_max", [(1.0, 0.5), (0.0, 1.0), (0.5, 2.5),
                                             (1.9999999995, 2.0)])
    def test_time_range_checked(self, two_pin_symmetric, make, s_min, s_max):
        # a descending range, a zero start, an end past the support (sup 2)
        # and a start within the end's clamp to 2 (1 - 1e-9), which would
        # leave one row and read NaN, are rejected by both tables before
        # any row is filled
        with pytest.raises(ValueError, match="need 0 < s_min < s_max"):
            make(two_pin_symmetric, s_min, s_max)

    @pytest.mark.parametrize("make", _TABLE_MAKERS, ids=["drift", "band"])
    def test_infinite_end_rejected_on_an_unbounded_law(self, single_pin_exp, make):
        with pytest.raises(ValueError, match="need 0 < s_min < s_max < inf"):
            make(single_pin_exp, 0.1, math.inf)


def _synthetic_rows(s, xs):
    return np.sin(3.0 * xs) * np.log(s) + xs * xs * s


class _SyntheticDrift(DriftCache):
    """A drift table whose rows come from a smooth synthetic function in
    place of the row rule."""

    @staticmethod
    def _row(model, widths, s, x, table):
        return _synthetic_rows(s, x)[None]


class _SyntheticBands(BandProbabilityCache):
    """A band table whose drift row is the synthetic function ``f`` and whose
    band of width ``h`` is ``h cos(f)^2``, a value in [0, h]."""

    @staticmethod
    def _row(model, widths, s, x, table):
        f = _synthetic_rows(s, x)
        return np.stack([f, *(h * np.cos(f) ** 2 for h in widths)])


_EXP = ModelSpec(ExponentialLaw(1.0), PinningLaw([0.0], [1.0]))
# The second table divides its drift by sup - s on read.
_READ_TABLES = [_SyntheticDrift(_EXP, 1e-3, 1.0), _SyntheticDrift(UNIFORM_EDGE, 0.01, 1.9)]
# Two widths, the second half the first, whose band reads exactly as half
# the first's; one width alone, which reads as the first of the two; and a
# ladder of three widths as the A^h band table has.
_STACKED = _SyntheticBands(UNIFORM_EDGE, (0.5, 0.25), 0.01, 1.9)
_BAND = _SyntheticBands(UNIFORM_EDGE, 0.5, 0.01, 1.9)
_LADDER = _SyntheticBands(_EXP, (0.1, 0.03, 0.01), 1e-3, 1.0)


def _bilinear(table, s, x):
    """The four-corner formula of the tables' reads on every row, with one
    temporary per term, as the reference of the in-place read; and the
    clamped time."""
    sc = np.clip(s, table.s_nodes[0], table.s_nodes[-1])
    ls, xc = np.log(sc), np.clip(x, table.x_nodes[0], table.x_nodes[-1])
    i = np.clip(np.searchsorted(table._ls, ls) - 1, 0, table._ls.size - 2)
    j = np.clip(np.searchsorted(table.x_nodes, xc) - 1, 0, table.x_nodes.size - 2)
    ws = (ls - table._ls[i]) / (table._ls[i + 1] - table._ls[i])
    wx = (xc - table.x_nodes[j]) / (table.x_nodes[j + 1] - table.x_nodes[j])
    t = table.rows
    out = ((1 - ws) * (1 - wx) * t[..., i, j] + ws * (1 - wx) * t[..., i + 1, j]
           + (1 - ws) * wx * t[..., i, j + 1] + ws * wx * t[..., i + 1, j + 1])
    return out, sc


def _reference_reads(table, s, x):
    """The drift read and the table's own read, from :func:`_bilinear`: the
    drift divided by its pole on a bounded law, the bands clipped to [0, 1]
    with a leading axis over a ladder."""
    out, sc = _bilinear(table, s, x)
    mu = out[0] if table._edge is None else out[0] / (table._edge - sc)
    if isinstance(table, DriftCache):
        return mu, mu
    bands = np.clip(out[1:], 0.0, 1.0)
    return mu, bands if np.ndim(table.h) else bands[0]


@st.composite
def table_reads(draw, tables=tuple(_READ_TABLES)):
    """A table and query points below ``s_min``, past ``s_max`` and
    log-uniform in between, with values up to 20 away (past the table's
    space nodes)."""
    table = draw(st.sampled_from(tables))
    lo, hi = math.log(table.s_min), math.log(table.s_max)
    times = st.one_of(st.floats(lo + math.log(1e-3), lo).map(math.exp),
                      st.floats(hi, hi + math.log(3.0)).map(math.exp),
                      st.floats(lo, hi).map(math.exp))
    n = draw(st.integers(1, 12))
    s = np.array(draw(st.lists(times, min_size=n, max_size=n)))
    x = np.array(draw(st.lists(st.floats(-20.0, 20.0), min_size=n, max_size=n)))
    return table, s, x


class TestTableRead:
    """Bilinear reads in (log s, x) on synthetic rows."""

    @given(table_reads())
    def test_outside_queries_read_the_clamped_edge(self, case):
        table, s, x = case
        s_edge = np.clip(s, table.s_nodes[0], table.s_nodes[-1])
        x_edge = np.clip(x, table.x_nodes[0], table.x_nodes[-1])
        np.testing.assert_array_equal(table(s, x), table(s_edge, x_edge))
        assert np.all(np.isfinite(table(s, x)))

    @given(st.sampled_from(_READ_TABLES), st.data())
    def test_node_queries_return_the_row_value(self, table, data):
        # the drift row, divided by sup - s on a bounded law
        i = np.array(data.draw(st.lists(st.integers(0, table.s_nodes.size - 1), min_size=1)))
        j = np.array(data.draw(st.lists(st.integers(0, table.x_nodes.size - 1),
                                        min_size=i.size, max_size=i.size)))
        node = table.rows[0, i, j]
        if table._edge is not None:
            node = node / (table._edge - table.s_nodes[i])
        np.testing.assert_array_equal(table(table.s_nodes[i], table.x_nodes[j]), node)

    @given(table_reads(), st.data())
    def test_nan_read_raises(self, case, data):
        # one NaN time or value among the queries, infinite ones beside it
        table, s, x = case
        i = data.draw(st.integers(0, s.size - 1))
        s[i - 1], x[i - 1] = data.draw(st.sampled_from([(math.inf, -math.inf), (0.0, math.inf)]))
        np.testing.assert_array_equal(table(s, x)[i - 1], table(s[i - 1], x[i - 1]))
        axis = data.draw(st.sampled_from([s, x]))
        axis[i] = math.nan
        for read in (table, _STACKED, _STACKED.drift):
            with pytest.raises(ValueError, match="NaN"):
                read(s, x)

    @given(table_reads([*_READ_TABLES, _STACKED, _BAND, _LADDER]),
           st.sampled_from(["paired", "outer", "ladder"]), st.data())
    @settings(max_examples=200)
    def test_read_is_the_bilinear_formula_bit_for_bit(self, case, layout, data):
        # of the query shapes the library passes: s (n,) with x (n,); s (n, 1)
        # with x (m,); and x (k, n) of k paths with the times s (n,) broadcast
        # to it as a view, as a ladder table reads a block of paths for A^h
        table, s, x = case
        if layout == "outer":
            s = s[:, None]
            x = np.array(data.draw(st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=12)))
        elif layout == "ladder":
            size = data.draw(st.integers(1, 4)) * s.size
            x = np.array(data.draw(st.lists(st.floats(-20.0, 20.0), min_size=size,
                                            max_size=size))).reshape(-1, s.size)
            s = np.broadcast_to(s, x.shape)
        mu, whole = _reference_reads(table, s, x)
        lead = () if isinstance(table, DriftCache) else np.shape(table.h)
        assert whole.shape == (*lead, *np.broadcast(s, x).shape)
        assert table(s, x).tobytes() == whole.tobytes()
        assert table.drift(s, x).tobytes() == mu.tobytes()
        # one state as numpy floats, 0-d arrays and Python floats; on a bounded
        # law the drift divides by sup - s
        s0, x0 = s.flat[0], x.flat[0]
        for state in ((s0, x0), (np.asarray(s0), np.asarray(x0)), (float(s0), float(x0))):
            one = [np.asarray(r).tobytes() for r in _reference_reads(table, *state)]
            assert np.asarray(table.drift(*state)).tobytes() == one[0]
            assert np.asarray(table(*state)).tobytes() == one[1]

    @given(table_reads())
    def test_stacked_rows_keep_their_leading_axis(self, case):
        _, s, x = case
        single = _BAND(s, x)
        np.testing.assert_array_equal(_STACKED(s, x), np.stack([single, 0.5 * single]))
        np.testing.assert_array_equal(_STACKED.drift(s, x), _READ_TABLES[1](s, x))
        assert _STACKED(s[0], x[0]).shape == (2,)


_REAL_TABLES = []


def _bucket_table(k):
    """The k-th of the test tables and, built on first use, real drift
    tables on Exp(1)/0 and U(0.5, 2)/(-1, 2)."""
    if not _REAL_TABLES:
        _REAL_TABLES.extend([DriftCache(_EXP, 1e-3, 1.0), DriftCache(UNIFORM_EDGE, 1e-3, 2.0)])
    return [*_READ_TABLES, _STACKED, _BAND, _LADDER, *_REAL_TABLES][k]


def _bucket_points(table):
    """Every node and each bucket edge ``x0 + b / ih``, with their
    neighbours on both sides, and +-inf, clamped as a read clamps them."""
    x0, x1 = table.x_nodes[0], table.x_nodes[-1]
    edges = x0 + np.arange(int((x1 - x0) * table._ih) + 2) / table._ih
    pts = np.concatenate((table.x_nodes, edges, [-math.inf, math.inf]))
    pts = np.concatenate((pts, np.nextafter(pts, -math.inf), np.nextafter(pts, math.inf)))
    return np.minimum(np.maximum(pts, x0), x1)


class TestBucketLookup:
    """The space cell found by bucket is the binary search's, side left."""

    @pytest.mark.parametrize("k", range(7))
    def test_every_node_and_bucket_edge(self, k):
        table = _bucket_table(k)
        inner = table.x_nodes[1:-1]
        pts = _bucket_points(table)
        rng = np.random.default_rng(k)
        uniform = rng.uniform(table.x_nodes[0], table.x_nodes[-1], 10_000)
        for q in (pts, uniform):
            assert table._cell(q).tobytes() == inner.searchsorted(q).tobytes()
        # one at a time: a query in a bucket of two nodes or more searches
        # alone, and a numpy scalar index takes no item assignment
        for x in np.concatenate((table.x_nodes, np.nextafter(table.x_nodes, 0.0))):
            x = min(max(x, table.x_nodes[0]), table.x_nodes[-1])
            assert table._cell(x) == inner.searchsorted(x)

    @given(st.integers(0, 6), st.integers(0, 2), st.data())
    def test_bucket_index_is_the_search(self, k, ndim, data):
        # 0-d (a numpy float and a 0-d array), 1-d and 2-d queries
        table = _bucket_table(k)
        pts = _bucket_points(table)
        shape = [(), (data.draw(st.integers(1, 12)),),
                 (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 6)))][ndim]
        idx = data.draw(st.lists(st.integers(0, pts.size - 1), min_size=math.prod(shape),
                                 max_size=math.prod(shape)))
        q = pts[idx].reshape(shape)
        for xc in ((q[()], q) if ndim == 0 else (q,)):
            want = table.x_nodes[1:-1].searchsorted(xc)
            got = table._cell(xc)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@st.composite
def row_states(draw):
    """Exp(1)/0 or U(0.5, 2)/(-1, 2), a time log-uniform inside the support
    (from 1e-4 to 10 on the unbounded law, to 2 (1 - 1e-9) on the bounded
    one) and 1 to 40 values up to 4 sqrt(s) + 2 from the origin."""
    model = draw(st.sampled_from([_EXP, UNIFORM_EDGE]))
    hi = 10.0 if math.isinf(model.support_sup) else model.support_sup * (1.0 - 1e-9)
    s = math.exp(draw(st.floats(math.log(1e-4), math.log(hi))))
    reach = 4.0 * math.sqrt(s) + 2.0
    x = draw(st.lists(st.floats(-reach, reach), min_size=1, max_size=40))
    return model, s, np.array(x)


class TestRowRule:
    """A table row is one first pass with the drift's weight and the band
    edges.  The weight joins no sum of the masses, so the bands are those of
    the band-only first pass bit for bit.  The band edges split the drift's
    panels: on Exp(1)/0 the drift stays within 1e-14 of the drift-only first
    pass (relative, floored at the median magnitude as ``max_rel_error``
    floors it).  On U(0.5, 2)/(-1, 2) the drift-only first pass is itself
    off the checked drift by up to about 1e-4 at some states, mostly toward
    the support edge; where the split moves the drift more than 1e-14, it
    moves it no farther from the checked drift."""

    @given(row_states())
    @settings(max_examples=60)
    def test_row_matches_the_single_quantity_passes(self, state):
        model, s, x = state
        widths = np.array(VerificationContext.AH_LADDER)
        row = _Table._row(model, widths, s, x, True)
        assert row.shape == (1 + widths.size, x.size)
        probs = model.pinning.probs
        q = tail_integrals(model, s, x, uppers=s + widths, table=True)
        bands = np.clip((probs @ q.band) / (probs @ q.mass), 0.0, 1.0)
        assert row[1:].tobytes() == bands.tobytes()
        alone = _Table._row(model, np.zeros(0), s, x, True)[0]
        floor = 1e-14 * np.maximum(np.abs(alone), np.median(np.abs(alone)))
        moved = np.abs(row[0] - alone) > floor
        assert not (math.isinf(model.support_sup) and moved.any())
        checked = drift(model, s, x)
        assert np.all((np.abs(row[0] - checked) <= np.abs(alone - checked) + floor)[moved])


MIRROR_MODELS = [_EXP,
                 ModelSpec(UniformLaw(0.5, 2.0), PinningLaw([-1.0, 1.0], [0.5, 0.5])),
                 UNIFORM_NARROW,
                 ModelSpec(GammaLaw(2.0), PinningLaw([-0.5, 0.5], [0.5, 0.5]))]


@st.composite
def mirror_states(draw):
    """A model of :data:`MIRROR_MODELS`, a time log-uniform from 1e-3 to
    0.95 of the support edge (of 3 on an unbounded law), 1 to 8 values up to
    4 sqrt(s) + 1 from the origin, later times and band widths."""
    model = draw(st.sampled_from(MIRROR_MODELS))
    s = math.exp(draw(st.floats(math.log(1e-3), math.log(0.95 * min(model.support_sup, 3.0)))))
    reach = 4.0 * math.sqrt(s) + 1.0
    x = np.array(draw(st.lists(st.floats(-reach, reach), min_size=1, max_size=8)))
    u = s + np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=3)))
    h = np.array(draw(st.lists(st.floats(1e-4, 1.0), min_size=1, max_size=3)))
    return model, s, x, u, h


class TestMirror:
    """On a symmetric pin law X and -X have one law, so the conditional law
    of (length, pin) given -x is the mirror of that given x: the drift is
    odd, survival and band probabilities are even, and the pin weights and
    the intensity kernel are reversed across the pins."""

    def test_symmetry_is_exact(self):
        assert PinningLaw([0.0], [1.0]).symmetric
        assert PinningLaw([-1.0, 0.0, 1.0], [0.25, 0.5, 0.25]).symmetric
        assert not PinningLaw([-1.0, 1.0], [0.6, 0.4]).symmetric
        assert not PinningLaw([-1.0, 2.0], [0.5, 0.5]).symmetric
        # symmetric only up to rounding: 0.1 + 0.2 is not 0.3
        assert not PinningLaw([-0.3, 0.1 + 0.2], [0.5, 0.5]).symmetric

    @given(mirror_states())
    @settings(max_examples=60)
    def test_public_functions_are_mirrored(self, state):
        model, s, x, u, h = state
        checks = [(drift(model, s, -x), -drift(model, s, x)),
                  (survival_probability(model, s, -x, u), survival_probability(model, s, x, u)),
                  (band_probability(model, s, -x, h), band_probability(model, s, x, h)),
                  (pin_posterior(model, s, -x), pin_posterior(model, s, x)[::-1])]
        row = intensity_row(model, s)
        for mirrored, value in [*checks, (row[::-1], row)]:
            np.testing.assert_allclose(mirrored, value, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("model, widths, s_min, s_max", [
        (_EXP, VerificationContext.AH_LADDER, 1e-3, 1.0),
        (UNIFORM_NARROW, (0.1,), 1e-2, 1.5)])
    def test_table_rows_are_reflected(self, model, widths, s_min, s_max):
        # the grid is its own negative and the rows odd (drift) or even
        # (bands) exactly; the nodes x >= 0 are the row rule's own
        table = BandProbabilityCache(model, widths, s_min, s_max)
        xs, rows = table.x_nodes, table.rows
        np.testing.assert_array_equal(xs, -xs[::-1])
        np.testing.assert_array_equal(rows[0], -rows[0, :, ::-1])
        np.testing.assert_array_equal(rows[1:], rows[1:, :, ::-1])
        mid = xs.size // 2
        assert xs[mid] == 0.0
        for k in range(0, table.s_nodes.size, 20):
            s = table.s_nodes[k]
            direct = _Table._row(model, np.array(widths), s, xs[mid:], True)
            if math.isfinite(model.support_sup):
                direct[0] *= model.support_sup - s
            np.testing.assert_allclose(rows[:, k, mid:], direct, rtol=1e-14, atol=0.0)

    def test_asymmetric_table_fills_every_node(self):
        # no reflection: every row is the row rule on the whole grid, bit for bit
        table = DriftCache(UNIFORM_EDGE, 1e-2, 2.0)
        assert not np.array_equal(table.x_nodes, -table.x_nodes[::-1])
        for k in range(0, table.s_nodes.size, 25):
            s = table.s_nodes[k]
            direct = _Table._row(UNIFORM_EDGE, np.zeros(0), s, table.x_nodes, True)[0] * (2.0 - s)
            assert table.rows[0, k].tobytes() == direct.tobytes()


class TestSpaceGrid:
    @pytest.mark.parametrize("model, s_max", [
        (ModelSpec(UniformLaw(0.5, 2.0), PinningLaw([-0.5, 0.5], [0.5, 0.5])), 2.0),
        (ModelSpec(UniformLaw(0.5, 1.5), PinningLaw([-0.5, 0.25], [0.5, 0.5])), 1.5)])
    def test_no_wasted_column_at_the_origin(self, model, s_max):
        # the linear base's middle node is the origin itself, so no node
        # lies a few ulp beside it (there were three, or two, at these spreads)
        xs = _space_grid(model, 1e-3, s_max)
        assert np.min(np.diff(xs)) > 1e-12 * xs[-1]

    @given(st.lists(st.integers(-60, 60), min_size=1, max_size=3, unique=True),
           st.booleans(), st.floats(1e-2, 5.0))
    def test_origin_is_one_node(self, steps, mirror, s_max):
        # whatever the spread, exactly one node lies within 1e-12 spread of
        # the origin, and it is 0.0 (pins on a grid of 0.05, as configs give them)
        pins = sorted({k / 20 for k in steps} | ({-k / 20 for k in steps} if mirror else set()))
        model = ModelSpec(ExponentialLaw(1.0), PinningLaw(pins, [1.0 / len(pins)] * len(pins)))
        xs = _space_grid(model, 1e-3, s_max)
        near = xs[np.abs(xs) <= 1e-12 * xs[-1]]
        assert near.tobytes() == np.zeros(1).tobytes()

    @given(st.lists(st.integers(-60, 60), min_size=1, max_size=3, unique=True),
           st.booleans(), st.booleans(), st.floats(1e-5, 1e-3), st.floats(0.1, 5.0))
    @settings(max_examples=150)
    def test_mirrored_by_construction_refined_at_the_pins(self, steps, mirror, negative_zero,
                                                          s_min, s_max):
        # pins on a grid of 0.05 with equal weights, so the law is symmetric
        # exactly when its levels are; a pin at -0.0 is the origin too
        pins = sorted({k / 20 for k in steps} | ({-k / 20 for k in steps} if mirror else set()))
        pins = [-0.0 if negative_zero and p == 0.0 else p for p in pins]
        model = ModelSpec(ExponentialLaw(1.0), PinningLaw(pins, [1.0 / len(pins)] * len(pins)))
        xs = _space_grid(model, s_min, s_max)
        assert np.all(np.diff(xs) > 0.0)
        assert np.all(np.isin(pins, xs))
        near = xs[np.abs(xs) <= 1e-12 * xs[-1]]
        assert near.tobytes() == np.zeros(1).tobytes()
        assert np.array_equal(xs, -xs[::-1]) == model.pinning.symmetric
        # the start point takes no refinement of its own: below the ladder's
        # first rung only a pin's offsets place nodes (at these ranges the
        # linear base's first node lies above that rung)
        if np.min(np.abs(pins)) > 0.6:
            assert not np.any((xs > 0.0) & (xs < 0.25 * math.sqrt(s_min)))


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


def _innovation_by_drift(table, path):
    """The innovation as it was formed from ``table.drift`` at the times
    ``dt * k``, the first clamped to ``dt``: the reference of the grid read."""
    values, dt = path.values, path.dt
    n_steps = len(values) - 1
    last = min(path.absorbed_index - 1, n_steps)
    cum = np.zeros(n_steps + 1)
    if last > 0:
        s_eval = dt * np.arange(last)
        s_eval[0] = dt
        np.multiply(table.drift(s_eval, values[:last]), dt, out=cum[1:last + 1])
    np.add.accumulate(cum[1:], out=cum[1:])
    return values - cum


def _walk(rng, dt, n_steps, absorbed_index):
    values = np.zeros(n_steps + 1)
    values[1:] = np.cumsum(rng.standard_normal(n_steps)) * math.sqrt(dt) * 3.0
    return SamplePath(dt=dt, values=values, tau=math.inf, z=0.0, seed=0,
                      absorbed_index=absorbed_index)


# mirrored unbounded, asymmetric bounded, and band tables beside their drift
_INNOVATION_TABLES = [lambda: _SyntheticDrift(_EXP, 1e-3, 1.0),
                      lambda: _SyntheticDrift(UNIFORM_EDGE, 0.01, 1.9),
                      lambda: _SyntheticBands(UNIFORM_EDGE, (0.5, 0.25), 0.01, 1.9),
                      lambda: _SyntheticBands(_EXP, (0.1, 0.03, 0.01), 1e-3, 1.0)]


class TestInnovationGridRead:
    """``innovation_path`` reads the drift along the grid with its time half
    kept per ``dt``, bit for bit the drift read at ``(s, x)``."""

    @given(st.integers(0, len(_INNOVATION_TABLES) - 1),
           st.lists(st.tuples(st.sampled_from([1e-4, 1e-3, 2e-3]),
                              st.sampled_from(["none", "one", "absorbed", "whole"]),
                              st.integers(1, 2500)), min_size=1, max_size=6),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_equals_the_drift_read(self, k, reads, seed):
        # fresh, so the kept time half grows when a longer path comes
        table, rng = _INNOVATION_TABLES[k](), np.random.default_rng(seed)
        for dt, steps, n_steps in reads:
            index = {"none": 1, "one": 2, "whole": n_steps + 1}.get(steps)
            path = _walk(rng, dt, n_steps, index or int(rng.integers(1, n_steps + 2)))
            got = innovation_path(_EXP, path, drift_fn=table)
            assert got.tobytes() == _innovation_by_drift(table, path).tobytes()

    @pytest.mark.parametrize("k", range(2))
    def test_real_tables_and_alternating_steps(self, k):
        # two steps alternate on one table, and a longer path grows the kept half
        table, rng = _bucket_table(5 + k), np.random.default_rng(k)
        model = table.model
        for dt, n_steps in ((1e-3, 300), (2e-3, 40), (1e-3, 1000), (2e-3, 2), (1e-3, 1)):
            path = _walk(rng, dt, n_steps, n_steps + 1)
            got = innovation_path(model, path, drift_fn=table)
            assert got.tobytes() == _innovation_by_drift(table, path).tobytes()
        ens = simulate_ensemble(model, 1e-3, 1.0, 20, seed=5)
        for path in ens:
            got = innovation_path(model, path, drift_fn=table)
            assert got.tobytes() == _innovation_by_drift(table, path).tobytes()

    def test_nan_value_raises(self):
        table, rng = _INNOVATION_TABLES[1](), np.random.default_rng(0)
        path = _walk(rng, 1e-3, 50, 51)
        innovation_path(_EXP, path, drift_fn=table)
        path.values[20] = math.nan
        with pytest.raises(ValueError, match="NaN"):
            innovation_path(_EXP, path, drift_fn=table)


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
        # one error per quantity: the drift beside the band, then the band
        cache = BandProbabilityCache(single_pin_exp, h=0.05, s_min=1e-3, s_max=1.0)
        errors = cache.max_rel_error(n_probe=80)
        assert errors.shape == (2,)
        assert errors[0] <= 1e-4 and errors[1] <= 3e-2

    def test_ladder_cache_tracks_direct_for_each_width(self, single_pin_exp):
        # One table for the whole ladder of the Meyer approximation, as the
        # verification suite builds it; each width keeps the band gate, and
        # the drift beside them the drift gate.
        ladder = VerificationContext.AH_LADDER
        cache = BandProbabilityCache(single_pin_exp, h=ladder, s_min=1e-3, s_max=1.0)
        errors = cache.max_rel_error(n_probe=80)
        assert errors.shape == (1 + len(ladder),)
        assert errors[0] <= 1e-4 and np.all(errors[1:] <= 3e-2)
        s, x = np.array([0.01, 0.2, 0.9]), np.array([0.05, -0.3, 0.8])
        assert cache(s, x).shape == (len(ladder), 3)
        assert np.all(np.diff(cache(s, x)[::-1], axis=0) >= 0.0)  # wider band, more mass

    def test_acceptance_table_meets_both_gates(self):
        # the one table of the full acceptance run, Exp(1)/0 over [1e-4, 1]:
        # the drift gate of DriftCache and the band gate on every width
        table = VerificationContext().table
        assert (table.s_min, table.s_max) == (1e-4, 1.0)
        errors = table.max_rel_error(n_probe=150)
        assert errors[0] <= 1e-4 and np.all(errors[1:] <= 3e-2)

    @pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, 0.0, -0.5, (), (0.1, math.nan),
                                   (0.1, -0.03), [[0.1]]])
    def test_width_checked(self, single_pin_exp, h):
        # before any row is filled: NaN, infinite and non-positive widths,
        # an empty ladder and a 2-d one
        with pytest.raises(ValueError, match="band widths must be finite and positive"):
            BandProbabilityCache(single_pin_exp, h, 0.01, 1.0)

    @given(st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, ()]),
                     st.floats(max_value=0.0, allow_infinity=False),
                     st.lists(st.floats(1e-3, 1.0), max_size=2).flatmap(
                         lambda good: st.sampled_from([math.nan, math.inf, 0.0, -0.1]).map(
                             lambda bad: [*good, bad]))),
           st.sampled_from([0.2, [0.1, -0.4]]))
    def test_direct_width_checked(self, single_pin_exp, h, x):
        # the width rule of the tables: a width that is not finite and
        # positive raises, also as one width of a ladder, where a band of
        # 0.0 or 1.0 was returned
        with pytest.raises(ValueError, match="band widths must be finite and positive"):
            band_probability(single_pin_exp, 0.5, x, h)

    def test_band_values_are_probabilities(self, single_pin_exp):
        cache = BandProbabilityCache(single_pin_exp, h=0.05, s_min=1e-3, s_max=1.0)
        rng = np.random.default_rng(0)
        s = rng.uniform(1e-3, 1.0, 200)
        x = rng.uniform(-2.0, 2.0, 200)
        vals = cache(s, x)
        assert np.all((vals >= 0.0) & (vals <= 1.0))
