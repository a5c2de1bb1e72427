"""Closed-form densities and the tail quadrature against brute-force
Riemann oracles."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riemann
from infobridge import (
    ExponentialLaw,
    GammaLaw,
    ModelSpec,
    PinningLaw,
    TruncatedExponentialLaw,
    UniformLaw,
    bridge_marginal_density,
    gaussian_density,
    mix_weight,
)
from infobridge.filtering import band_probability, drift, survival_probability
from infobridge import kernels
from infobridge.kernels import (QuadratureError, log_gaussian_density, log_mix_weight,
                                tail_integrals)
from infobridge.verify import VerificationContext

MODELS = [VerificationContext.model_single_pin(), VerificationContext.model_two_pin_symmetric(),
          VerificationContext.model_two_pin_asymmetric(),
          VerificationContext.model_bounded_support()]


@st.composite
def band_states(draw):
    """A model of the verification suite, an observation time inside its
    support (clear of the support edge), observed values and a ladder of
    band edges, some of them past the support."""
    model = draw(st.sampled_from(MODELS))
    s_hi = 0.95 * min(model.support_sup, 8.0)
    s = math.exp(draw(st.floats(math.log(1e-4), math.log(s_hi))))
    x = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4))
    widths = draw(st.lists(st.floats(1e-6, 3.0), min_size=1, max_size=4))
    return model, s, np.array(x), s + np.sort(widths)


class TestGaussianDensity:
    def test_standard_normal_at_origin(self):
        assert gaussian_density(1.0, 0.0, 0.0) == pytest.approx(0.3989422804, abs=1e-10)

    def test_symmetry_in_arguments(self):
        assert gaussian_density(4.0, 1.0, 3.0) == gaussian_density(4.0, 3.0, 1.0)

    def test_hand_checked_value(self):
        # exp(-1/4) / sqrt(4 pi)
        expected = math.exp(-0.25) / math.sqrt(4.0 * math.pi)
        assert expected == pytest.approx(0.2196956, abs=5e-8)
        assert gaussian_density(2.0, 1.0, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            gaussian_density(0.0, 1.0)
        with pytest.raises(ValueError):
            gaussian_density(-1.0, 1.0)

    def test_log_form_matches(self):
        rng = np.random.default_rng(7)
        t = rng.uniform(0.01, 5.0, 100)
        x = rng.uniform(-4.0, 4.0, 100)
        np.testing.assert_allclose(np.exp(log_gaussian_density(t, x)),
                                   gaussian_density(t, x), rtol=1e-13)


class TestBridgeMarginal:
    def test_zero_displacement_value(self):
        # reduces to a Gaussian of variance 1/2 at its mean: 1/sqrt(pi)
        val = bridge_marginal_density(1.0, 2.0, 1.0, 0.5)
        assert val == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)
        assert val == pytest.approx(0.5641896, abs=5e-8)

    def test_ratio_form_hand_arithmetic(self):
        # p(1, 0.5) * p(1, 0.5) / p(2, 1)
        num = gaussian_density(1.0, 0.5) ** 2
        den = gaussian_density(2.0, 1.0)
        assert gaussian_density(1.0, 0.5) == pytest.approx(0.352065, abs=5e-7)
        assert den == pytest.approx(0.219696, abs=5e-7)
        assert num / den == pytest.approx(bridge_marginal_density(1.0, 2.0, 1.0, 0.5),
                                          rel=1e-12)

    def test_both_forms_coincide_at_origin(self):
        direct = bridge_marginal_density(1.0, 2.0, 0.0, 0.0)
        ratio = gaussian_density(1.0, 0.0) * gaussian_density(1.0, 0.0) / gaussian_density(2.0, 0.0)
        assert direct == pytest.approx(ratio, rel=1e-12)
        assert direct == pytest.approx(0.5641896, abs=5e-8)

    def test_two_forms_agree_randomized(self):
        rng = np.random.default_rng(42)
        n = 20000
        r = rng.uniform(0.1, 10.0, n)
        t = r * rng.uniform(1e-4, 1.0 - 1e-4, n)
        z = rng.uniform(-5.0, 5.0, n)
        x = rng.uniform(-5.0, 5.0, n)
        direct = bridge_marginal_density(t, r, z, x)
        with np.errstate(under="ignore"):
            ratio = gaussian_density(r - t, z, x) * gaussian_density(t, x) / gaussian_density(r, z)
        # values below the normal float range compare absolutely
        assert np.all(np.abs(direct - ratio) <= 1e-12 * np.maximum(direct, ratio) + 1e-300)

    def test_normalizes_in_space(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            r = rng.uniform(0.2, 5.0)
            t = r * rng.uniform(0.05, 0.95)
            z = rng.uniform(-3.0, 3.0)
            sd = math.sqrt(t * (r - t) / r)
            mean = t * z / r
            x = np.linspace(mean - 10 * sd, mean + 10 * sd, 20001)
            total = np.trapezoid(bridge_marginal_density(t, r, z, x), x)
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bridge_marginal_density(2.0, 2.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            bridge_marginal_density(0.0, 2.0, 0.0, 0.0)


class TestMixWeight:
    def test_brute_force_oracle(self, single_pin_exp):
        oracle = riemann.mix_weight(0.5, 0.0, [0.0], [1.0], riemann.exp_pdf(), 60.0)
        assert oracle == pytest.approx(0.5809338034, abs=1e-9)
        value = mix_weight(0.5, 0.0, single_pin_exp)
        assert value == pytest.approx(oracle, rel=1e-8)

    def test_strict_positivity(self, two_pin_asymmetric):
        rng = np.random.default_rng(11)
        for _ in range(25):
            s = rng.uniform(0.01, 3.0)
            x = rng.uniform(-4.0, 4.0)
            assert mix_weight(s, x, two_pin_asymmetric) > 0.0

    def test_symmetric_model_even_in_x(self):
        model = ModelSpec(ExponentialLaw(1.0), PinningLaw([-1.0, 1.0], [0.5, 0.5]))
        for s in (0.2, 0.7, 1.5):
            for x in (0.3, 1.1, 2.4):
                a = mix_weight(s, x, model)
                b = mix_weight(s, -x, model)
                assert a == pytest.approx(b, rel=1e-12)

    def test_continuity_in_s(self, two_pin_symmetric):
        # shrinking increments in s produce shrinking increments in value
        x = 0.4
        gaps = []
        for ds in (1e-2, 1e-3, 1e-4):
            a = mix_weight(1.0, x, two_pin_symmetric)
            b = mix_weight(1.0 + ds, x, two_pin_symmetric)
            gaps.append(abs(b - a))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3

    def test_model_exhausted(self, two_pin_symmetric):
        with pytest.raises(ValueError, match="model exhausted"):
            mix_weight(2.0, 0.0, two_pin_symmetric)
        with pytest.raises(ValueError, match="model exhausted"):
            mix_weight(2.5, 0.0, two_pin_symmetric)

    def test_log_form_consistent(self, two_pin_asymmetric):
        s, x = 0.8, -0.5
        assert math.log(mix_weight(s, x, two_pin_asymmetric)) == pytest.approx(
            log_mix_weight(s, x, two_pin_asymmetric), abs=1e-12)

    def test_vectorized_over_x(self, single_pin_exp):
        xs = np.array([-1.0, 0.0, 0.5])
        vec = mix_weight(0.5, xs, single_pin_exp)
        for xi, vi in zip(xs, vec):
            assert vi == pytest.approx(mix_weight(0.5, float(xi), single_pin_exp), rel=1e-12)


TABLE_MODELS = [
    ModelSpec(ExponentialLaw(1.0), PinningLaw([0.0], [1.0])),
    ModelSpec(UniformLaw(0.5, 2.0), PinningLaw([-1.0, 2.0], [0.6, 0.4])),
    ModelSpec(GammaLaw(2.0), PinningLaw([-1.0, 0.5], [0.3, 0.7])),
    ModelSpec(TruncatedExponentialLaw(1.0, 3.0), PinningLaw([0.0, 1.0], [0.5, 0.5])),
]


@st.composite
def table_states(draw):
    """A model, a time log-uniform in [1e-4, 0.9 sup] (sup taken as 3 for an
    unbounded law) and a value in the reachable envelope |x| <= 3 sqrt(s),
    moved to 1e-6 from a pin that it comes closer to."""
    model = draw(st.sampled_from(TABLE_MODELS))
    sup = model.support_sup if math.isfinite(model.support_sup) else 3.0
    s = math.exp(draw(st.floats(math.log(1e-4), math.log(0.9 * sup))))
    x = 3.0 * math.sqrt(s) * draw(st.floats(-1.0, 1.0))
    for z in model.pinning.points:
        if abs(x - z) < 1e-6:
            x = z + math.copysign(1e-6, x - z)
    return model, s, x


class TestTablePass:
    """The tables take the tail rule's first pass, unchecked; at reachable
    states it agrees with the checked direct query to 1e-9, so the tables
    inherit no quadrature error worth measuring."""

    @given(table_states())
    @settings(max_examples=1000)
    def test_matches_adaptive_rule(self, state):
        model, s, x = state
        probs = model.pinning.probs
        fine = tail_integrals(model, s, x)
        coarse = tail_integrals(model, s, x, table=True)
        mass = (probs @ fine.mass)[0]
        rescaled = (probs @ coarse.mass)[0] * math.exp(coarse.scale[0] - fine.scale[0])
        assert abs(rescaled - mass) <= 1e-9 * mass
        hs = (0.01, 0.1)
        band = band_probability(model, s, x, hs)
        band_table = band_probability(model, s, x, hs, table=True)
        assert np.all(np.abs(band_table - band) <= 1e-9 * np.maximum(band, 1e-3))
        mu = drift(model, s, x)
        assert abs(drift(model, s, x, table=True) - mu) <= 1e-9 * max(abs(mu), 1e-2)


@st.composite
def panel_edges(draw):
    """Ascending edges of one to six panels from 0 to a length spanning many
    scales."""
    length = 10.0 ** draw(st.floats(-3.0, 3.0))
    inner = draw(st.lists(st.floats(1e-3, 1.0 - 1e-3), max_size=5, unique=True))
    return length * np.concatenate(([0.0], np.sort(inner), [1.0]))


@st.composite
def exp_drift_states(draw):
    """Exp(1) with its pin at 0: a time log-uniform in [1e-4, 2.7] and a
    value in |x| <= 3 sqrt(s), at least 1e-6 from the pin."""
    s = math.exp(draw(st.floats(math.log(1e-4), math.log(2.7))))
    x = 3.0 * math.sqrt(s) * draw(st.floats(-1.0, 1.0))
    return s, (x if abs(x) >= 1e-6 else math.copysign(1e-6, x))


class TestRule:
    """The one tail rule: Kronrod nodes on every panel, with the embedded
    Gauss weights as the estimate of its error from the same nodes."""

    @given(panel_edges())
    def test_exact_degrees(self, edges):
        v, w = kernels._panel_rule(edges)
        assert np.all(np.diff(v) > 0.0)
        length = edges[-1]
        for rule, top in ((0, 31), (1, 19)):
            for d in range(top + 1):
                # (v/length)^d is positive on the panels: no cancellation
                exact = length / (d + 1)
                assert abs(w[rule] @ (v / length) ** d - exact) <= 1e-13 * exact

    @given(exp_drift_states())
    @settings(max_examples=200)
    def test_direct_query_evaluates_one_node_set(self, state):
        s, x = state
        model = VerificationContext.model_single_pin()
        with mock.patch.object(kernels, "_evaluate", wraps=kernels._evaluate) as evaluate:
            drift(model, s, x)
        assert evaluate.call_count == 1

    def test_refines_only_the_x_that_fail(self):
        # One value next to the pin needs refinement; the 200 reachable ones
        # settle on the first pass and are not evaluated again.
        model = VerificationContext.model_single_pin()
        s = 0.5
        x = 3.0 * math.sqrt(s) * np.random.default_rng(3).uniform(-1.0, 1.0, 201)
        x = np.where(np.abs(x) < 1e-6, 1e-6, x)
        x[100] = 1e-10
        with mock.patch.object(kernels, "_evaluate", wraps=kernels._evaluate) as evaluate:
            mu = drift(model, s, x)
        sizes = [call.args[2].size for call in evaluate.call_args_list]
        assert sizes[0] == 201 and len(sizes) > 1 and set(sizes[1:]) == {1}
        np.testing.assert_allclose(mu, [drift(model, s, xi) for xi in x], rtol=1e-12)


class TestMoment:
    """The weighted integral comes from the nodes of the mass and must
    settle like every other quantity the tail rule returns."""

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("table", [False, True])
    def test_unit_weight_is_the_mass(self, model, table):
        x = np.array([-0.7, 0.0, 0.4])
        q = tail_integrals(model, 0.3, x, weight=lambda lag, z, x: np.ones_like(lag), table=table)
        np.testing.assert_array_equal(q.moment, q.mass)
        assert tail_integrals(model, 0.3, x, table=table).moment is None

    def test_unsettled_moment_raises(self, single_pin_exp):
        # a weight that changes from node to node never lets the Kronrod
        # and Gauss sums agree
        rng = np.random.default_rng(5)
        with pytest.raises(QuadratureError):
            tail_integrals(single_pin_exp, 0.5, 0.2,
                           weight=lambda lag, z, x: 1.0 + rng.uniform(0.0, 0.1, lag.shape))


class TestBandEdges:
    """One engine pass returns the full tail, the band below each edge u
    and the tail above it, from the same node values."""

    @given(band_states())
    def test_band_plus_tail_is_total(self, state):
        model, s, x, uppers = state
        q = tail_integrals(model, s, x, uppers=uppers)
        total = np.broadcast_to(q.mass, q.band.shape)
        # masses below the normal float range compare absolutely
        np.testing.assert_allclose(q.band + q.tail, total, rtol=1e-12, atol=1e-300)

    @given(band_states())
    def test_bands_grow_and_survival_falls_with_u(self, state):
        model, s, x, uppers = state
        q = tail_integrals(model, s, x, uppers=uppers)
        assert np.all(np.diff(q.band, axis=0) >= 0.0)
        survival = (model.pinning.probs @ q.tail) / (model.pinning.probs @ q.mass)
        assert np.all((survival >= 0.0) & (survival <= 1.0))
        assert np.all(np.diff(survival, axis=0) <= 0.0)
        direct = np.array([survival_probability(model, s, x, u) for u in uppers])
        np.testing.assert_allclose(direct, survival, rtol=1e-8, atol=1e-12)

    @pytest.mark.parametrize("model, s, x, h", [
        (MODELS[0], 0.5, 1.0, 0.01),
        (MODELS[1], 0.6, 0.0, 0.005),
        (MODELS[2], 1.0, 0.5, 0.01),
        (MODELS[3], 1.2, 0.0, 0.004),
    ])
    def test_tiny_band_matches_riemann_oracle(self, model, s, x, h):
        # Far below 1e-12, where one minus a survival probability carries
        # no relative accuracy at all.
        law = model.length
        pdf = (riemann.exp_pdf() if math.isinf(law.support_sup)
               else riemann.uniform_pdf(law.a, law.b))
        r_max = min(law.support_sup, 60.0)
        pins, probs = model.pinning.points, model.pinning.probs
        oracle = (riemann.mixture_tail(s, x, pins, probs, pdf, s + h)
                  / riemann.mixture_tail(s, x, pins, probs, pdf, r_max))
        assert 1e-200 < oracle < 1e-12
        assert 1.0 - survival_probability(model, s, x, s + h) < 1e-15
        assert band_probability(model, s, x, h) == pytest.approx(oracle, rel=1e-6, abs=0.0)
