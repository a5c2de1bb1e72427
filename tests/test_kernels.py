"""Closed-form densities and the tail quadrature against brute-force
Riemann oracles."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import riemann
from infobridge import (
    CustomLengthLaw,
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
from infobridge.filtering import (_Table, band_probability, drift, pin_posterior,
                                  survival_probability, transition_law)
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
        # the ratio in logs: the product of two densities underflows at some tuples
        ratio = np.exp(log_gaussian_density(r - t, z, x) + log_gaussian_density(t, x)
                       - log_gaussian_density(r, z))
        # values below the normal float range compare absolutely
        assert np.all(np.abs(direct - ratio) <= 1e-12 * np.maximum(direct, ratio) + 1e-300)

    def test_steep_exponent_late_in_the_bridge(self):
        # t within 4e-4 of r: the exponent is -617, so a one-ulp error in a
        # mean t z / r near z costs 1.7e-12 relative; reference by mpmath at 50 digits
        t, r, z, x = 0.21220410843575127, 0.2122890745438833, -4.614797697156221, -4.288311482063467
        exact = 1.5224536665245909098252565965e-268
        assert bridge_marginal_density(t, r, z, x) == pytest.approx(exact, rel=2e-13, abs=0.0)

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


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def density_calls(draw):
    """A closed-form density and its arguments inside the domain (a variance
    or bridge time in (0, 10], a length past it, points within 5 of the
    origin), with one argument, or one entry of it as a 1-d array, made NaN
    or +-inf."""
    t = draw(st.floats(1e-6, 10.0))
    x, y = draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0))
    f, args = draw(st.sampled_from([
        (gaussian_density, [t, x, y]), (log_gaussian_density, [t, x, y]),
        (bridge_marginal_density, [t, t * (1.0 + draw(st.floats(1e-3, 10.0))), y, x])]))
    k, bad = draw(st.integers(0, len(args) - 1)), draw(_NON_FINITE)
    if draw(st.booleans()):
        args[k] = np.array([args[k], bad, args[k]])
    else:
        args[k] = bad
    return f, args


class TestDensityDomain:
    @given(density_calls())
    @example((gaussian_density, [math.nan, 0.0, 0.0]))
    @example((gaussian_density, [1.0, math.nan, 0.0]))
    @example((log_gaussian_density, [math.nan, 0.0, 0.0]))
    @example((bridge_marginal_density, [math.nan, 1.0, 0.0, 0.0]))
    @example((bridge_marginal_density, [0.5, math.inf, 0.0, 0.1]))
    def test_non_finite_argument_raises(self, call):
        # a NaN or infinite argument is a documented ValueError, never a NaN
        f, args = call
        with pytest.raises(ValueError):
            f(*args)


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
    inherit no quadrature error worth measuring.  The drift is checked in the
    row of a table of no widths and beside the bands of two widths."""

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
        hs = np.array([0.01, 0.1])
        row = _Table._row(model, hs, s, x, True)[:, 0]
        band = band_probability(model, s, x, hs)
        assert np.all(np.abs(row[1:] - band) <= 1e-9 * np.maximum(band, 1e-3))
        mu = drift(model, s, x)
        for first_pass in (_Table._row(model, np.zeros(0), s, x, True)[0, 0], row[0]):
            assert abs(first_pass - mu) <= 1e-9 * max(abs(mu), 1e-2)


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
                # (v/length)^d is positive on the panels: no cancellation;
                # the weights carry the 2 of the Jacobian
                exact = 2.0 * length / (d + 1)
                assert abs(w[:, rule].ravel() @ (v / length) ** d - exact) <= 1e-13 * exact

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
    settle like every other quantity the tail rule returns.  Its factor is a
    pair ``(w, c)``: ``w(lag, z)`` joins the panel weights once per pass and
    ``c(z, x)`` multiplies the panel sums."""

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("table", [False, True])
    def test_unit_weight_is_the_mass(self, model, table):
        x = np.array([-0.7, 0.0, 0.4])
        for unit in (lambda lag, z: 1.0, lambda lag, z: np.ones_like(lag)):
            q = tail_integrals(model, 0.3, x, weight=(unit, lambda z, x: 1.0), table=table)
            np.testing.assert_array_equal(q.moment, q.mass)
        assert tail_integrals(model, 0.3, x, table=table).moment is None

    def test_unsettled_moment_raises(self, single_pin_exp):
        # a weight that changes from node to node never lets the Kronrod
        # and Gauss sums agree
        rng = np.random.default_rng(5)
        with pytest.raises(QuadratureError):
            tail_integrals(single_pin_exp, 0.5, 0.2,
                           weight=(lambda lag, z: 1.0 + rng.uniform(0.0, 0.1, lag.shape),
                                   lambda z, x: 1.0))

    def test_factors_see_nodes_and_values_apart(self, two_pin_symmetric):
        # w sees the nodes once per pin and pass, c a block of the values:
        # no (n_panels, 21, n_x) weight is built
        shapes = []
        x = np.linspace(-0.5, 0.5, 7)
        tail_integrals(two_pin_symmetric, 0.7, x,
                       weight=(lambda lag, z: shapes.append(("w", lag.shape)) or 1.0 / lag,
                               lambda z, x: shapes.append(("c", np.shape(x))) or z - x))
        w_shapes = [shape for kind, shape in shapes if kind == "w"]
        assert len(w_shapes) == 2 and all(shape[1:] == (1, 21) for shape in w_shapes)
        assert {shape for kind, shape in shapes if kind == "c"} == {(7,)}

    def test_three_argument_weight_is_gone(self, single_pin_exp):
        with pytest.raises(TypeError):
            tail_integrals(single_pin_exp, 0.5, 0.2, weight=lambda lag, z, x: (z - x) / lag)


class TestUnderflowSkip:
    """Exponent cells below ``_UNDERFLOW`` are set to 0.0 without calling
    ``exp``, which returns exactly 0.0 there: no value may move."""

    @given(band_states(), st.booleans(), st.booleans())
    @settings(max_examples=150)
    def test_skip_is_exact(self, state, weighted, table):
        model, s, x, uppers = state
        weight = (lambda lag, z: 1.0 / lag, lambda z, x: z - x) if weighted else None
        skipped = tail_integrals(model, s, x, uppers=uppers, weight=weight, table=table)
        with mock.patch.object(kernels, "_UNDERFLOW", -math.inf):
            full = tail_integrals(model, s, x, uppers=uppers, weight=weight, table=table)
        for a, b in zip(skipped, full):
            assert (a is None and b is None) or a.tobytes() == b.tobytes()

    def test_floor_is_below_the_last_subnormal(self):
        assert math.exp(kernels._UNDERFLOW) == 0.0
        assert math.exp(kernels._UNDERFLOW + 1.0) > 0.0  # not far below it


WINDOW_MODELS = [
    ModelSpec(ExponentialLaw(1.0), PinningLaw([0.0], [1.0])),
    ModelSpec(UniformLaw(0.5, 2.0), PinningLaw([-1.0, 2.0], [0.6, 0.4])),
    ModelSpec(GammaLaw(2.0), PinningLaw([-1.0, 0.5], [0.3, 0.7])),
    ModelSpec(GammaLaw(0.5, 2.0), PinningLaw([0.0, 3.0], [0.5, 0.5])),
    ModelSpec(TruncatedExponentialLaw(1.0, 3.0), PinningLaw([-1.0, 1.0], [0.5, 0.5])),
    # U(0.5, 2) as a custom law, whose panels start at 0: the nodes below 0.5
    # lie outside the support, where the exponent must not set the scale
    ModelSpec(CustomLengthLaw(lambda r: np.where((r >= 0.5) & (r <= 2.0), 1.0 / 1.5, 0.0),
                              lambda t: np.clip((t - 0.5) / 1.5, 0.0, 1.0),
                              lambda q: 0.5 + 1.5 * q, support_sup=2.0, breakpoints=(0.5,)),
              PinningLaw([-1.0, 2.0], [0.6, 0.4])),
]


@st.composite
def window_states(draw, n_min, n_max):
    """A model, a time log-uniform in [1e-4, 0.95 sup] (sup taken as 8 for an
    unbounded law), ``n_min`` to ``n_max`` observed values up to 4 sqrt(s)
    beyond the farthest pin, up to three band edges, the drift's weight or
    none, and the first or the checked pass."""
    model = draw(st.sampled_from(WINDOW_MODELS))
    s = math.exp(draw(st.floats(math.log(1e-4), math.log(0.95 * min(model.support_sup, 8.0)))))
    reach = 4.0 * math.sqrt(s) + float(np.max(np.abs(model.pinning.points)))
    x = draw(st.lists(st.floats(-reach, reach), min_size=n_min, max_size=n_max))
    widths = draw(st.lists(st.floats(1e-6, 3.0), max_size=3))
    return model, s, np.array(x), s + np.sort(widths), draw(st.booleans()), draw(st.booleans())


def _dense_window(s, x, edges, *nodes):
    return np.zeros(x.size, dtype=int), np.full(x.size, edges.size - 1)


def _drift_weight(weighted):
    return (lambda lag, z: 1.0 / lag, lambda z, x: z - x) if weighted else None


def _own_exponents(model, s, xs, edges):
    """The exponent cells ``(n_pins, n_nodes, n_x)`` of a pass, formed here
    as the engine forms them, nodes outside the support at -inf."""
    law, points = model.length, model.pinning.points
    v, _ = kernels._panel_rule(edges)
    r, lag = s + v * v, v * v
    return np.stack([np.where(law.pdf(r) == 0.0, -np.inf, z * z / (2.0 * r))[:, None]
                     - (z - xs) ** 2 / (2.0 * lag)[:, None] for z in points])


def _own_pass(model, s, xs, edges, weight):
    """The scale and the panel sums ``(n_rules, 1 [+ 1], n_pins, n_panels,
    n_x)`` of a pass, formed here with ``exp`` on every cell and no window."""
    law, points = model.length, model.pinning.points
    expo = _own_exponents(model, s, xs, edges)
    top = expo.max(axis=(0, 1))
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(under="ignore"):
        cells = np.exp(expo - top).reshape(len(points), edges.size - 1, 21, xs.size)
    v, w = kernels._panel_rule(edges)
    r = s + v * v
    base = (np.sqrt(r) * law.pdf(r)).reshape(-1, 1, 21) * w
    parts = [np.einsum("prn,ipnx->ripx", base, cells)]
    if weight is not None:
        lag = (v * v).reshape(-1, 1, 21)
        moment = np.stack([base * weight[0](lag, z) for z in points])
        c = np.stack([np.broadcast_to(weight[1](z, xs), xs.shape) for z in points])
        parts.append(np.einsum("iprn,ipnx->ripx", moment, cells) * c[:, None])
    return top, np.stack(parts, axis=1)


def _passes(call):
    """The result of ``call()``, None where it raises ``QuadratureError``,
    and every pass it made: (values, edges, scale, panel sums)."""
    evaluate, passes = kernels._evaluate, []

    def recording(law, s, x, edges, points, weight):
        scale, sums = evaluate(law, s, x, edges, points, weight)
        passes.append((x, edges, scale, sums))
        return scale, sums

    with mock.patch.object(kernels, "_evaluate", recording):
        try:
            return call(), passes
        except QuadratureError:
            return None, passes


class TestWindow:
    """A pass of more than ``_GROUPS`` values is evaluated on each value's
    window of panels only: every cell left out is one that the dense
    evaluation sets to 0.0, so the sums move only where BLAS rounds a
    group's columns differently.  A pass of at most ``_GROUPS`` values is one
    block over every panel, and reads what the windows read."""

    @given(window_states(kernels._GROUPS + 1, 40))
    @settings(max_examples=300)
    # next to the pin: the drift refines, and the refined passes have windows too
    @example((WINDOW_MODELS[0], 0.5, np.concatenate((np.arange(1.0, 10.0) * 1e-10, [0.3, -2.5])),
              np.array([0.6]), True, False))
    def test_skipped_cells_underflow_and_sums_match_dense(self, state):
        model, s, x, uppers, weighted, table = state
        weight = _drift_weight(weighted)
        window, windows = kernels._window, []

        def recording(*args):
            windows.append((args[1], args[2], *window(*args)))
            return windows[-1][2:]

        results = []
        for spy in (recording, _dense_window):
            with mock.patch.object(kernels, "_window", spy):
                try:
                    results.append(tail_integrals(model, s, x, uppers=uppers, weight=weight,
                                                  table=table))
                except QuadratureError:
                    results.append(None)
        windowed, dense = results
        assert (windowed is None) == (dense is None)
        if dense is not None:
            np.testing.assert_array_equal(windowed.scale, dense.scale)
            for a, b in zip(windowed, dense):
                if b is not None:
                    np.testing.assert_allclose(a, b, rtol=1e-14, atol=1e-300)
        # the dense exponents, formed here, of every pass
        for xs, edges, first, last in windows:
            expo = _own_exponents(model, s, xs, edges)
            top = expo.max(axis=(0, 1))
            g = expo - np.where(np.isfinite(top), top, 0.0)
            g = g.reshape(len(model.pinning), edges.size - 1, -1, xs.size).max(axis=(0, 2))
            panel = np.arange(edges.size - 1)[:, None]
            skipped = (panel < first) | (panel >= last)
            assert np.all(g[skipped] < kernels._UNDERFLOW)

    @given(window_states(1, kernels._GROUPS))
    @settings(max_examples=300)
    # next to the pin: the drift refines, on a band edge
    @example((WINDOW_MODELS[0], 0.5, np.array([1e-10, 0.3, -2.5]), np.array([0.6]), True, False))
    # on the upper pin before the support starts: the largest exponent
    # outside the support must not set the scale
    @example((WINDOW_MODELS[5], 0.1, np.array([2.0, 1.9, -1.0]), np.array([]), False, False))
    def test_block_reads_what_the_windows_read(self, state):
        model, s, x, uppers, weighted, table = state
        weight = _drift_weight(weighted)
        copies = kernels._GROUPS + 1  # so every pass of the padded call is windowed

        def call(values):
            return lambda: tail_integrals(model, s, values, uppers=uppers, weight=weight,
                                          table=table)

        block, block_passes = _passes(call(x))
        padded, padded_passes = _passes(call(np.repeat(x, copies)))
        assert (block is None) == (padded is None)
        assert len(block_passes) == len(padded_passes)
        for (xs, edges, scale, sums), (xs_pad, edges_pad, scale_pad, sums_pad) in zip(
                block_passes, padded_passes):
            assert xs.size <= kernels._GROUPS < xs_pad.size
            np.testing.assert_array_equal(edges, edges_pad)
            np.testing.assert_array_equal(xs, xs_pad[::copies])
            np.testing.assert_array_equal(scale, scale_pad[::copies])
            np.testing.assert_allclose(sums, sums_pad[..., ::copies], rtol=1e-14, atol=1e-300)
            own_scale, own_sums = _own_pass(model, s, xs, edges, weight)
            np.testing.assert_array_equal(scale, own_scale)
            np.testing.assert_allclose(sums, own_sums, rtol=1e-13, atol=1e-300)
        if block is not None:
            np.testing.assert_array_equal(block.scale, padded.scale[::copies])
            for a, b in zip(block, padded):
                if b is not None:
                    np.testing.assert_allclose(a, b[..., ::copies], rtol=1e-14, atol=1e-300)


class TestLadder:
    def test_ladder_is_geomspace_bit_for_bit(self):
        rng = np.random.default_rng(11)
        tops = np.concatenate((np.exp(rng.uniform(-25.0, 25.0, 10_000)),
                               rng.uniform(1e-3, 8.0, 10_000)))
        differ = [v for v in map(float, tops)
                  if kernels._ladder(v).tobytes() != np.geomspace(1e-9 * v, v, 30).tobytes()]
        assert differ == []


class TestNonFiniteInput:
    """A time or value that is NaN or infinite, or a NaN band edge, is
    rejected before any quadrature; an edge at +inf is an empty tail."""

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("s, x, uppers", [
        (math.nan, 0.1, ()), (math.inf, 0.1, ()), (0.7, math.nan, ()), (0.7, math.inf, ()),
        (0.7, -math.inf, ()), (0.7, [0.1, math.nan], ()), (0.7, 0.1, (math.nan,)),
        (0.7, 0.1, (0.8, math.nan)),
    ], ids=["nan-s", "inf-s", "nan-x", "inf-x", "minus-inf-x", "one-nan-x", "nan-edge",
            "second-edge-nan"])
    def test_tail_integrals_rejects(self, model, s, x, uppers):
        with pytest.raises(ValueError, match="must be finite"):
            tail_integrals(model, s, x, uppers=uppers)

    @pytest.mark.parametrize("model", MODELS)
    def test_infinite_edge_is_an_empty_tail(self, model):
        q = tail_integrals(model, 0.7, [0.1, -0.4], uppers=(math.inf,))
        assert np.all(q.tail == 0.0)
        np.testing.assert_allclose(q.band[0], q.mass, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("call", [
        lambda m: band_probability(m, 0.5, 0.1, math.nan),
        lambda m: survival_probability(m, 0.5, 0.1, math.nan),
        lambda m: survival_probability(m, 0.5, 0.1, [0.6, math.nan]),
        lambda m: pin_posterior(m, 0.5, math.inf),
        lambda m: pin_posterior(m, 0.5, -math.inf),
        lambda m: pin_posterior(m, math.nan, 0.1),
        lambda m: drift(m, 0.5, math.nan),
        lambda m: drift(m, 0.5, [0.0, math.inf]),
        lambda m: transition_law(m, 0.5, math.nan, 0.6),
        lambda m: mix_weight(0.5, math.inf, m),
    ], ids=["band-nan-h", "survival-nan-u", "survival-one-nan-u", "posterior-inf-x",
            "posterior-minus-inf-x", "posterior-nan-t", "drift-nan-x", "drift-one-inf-x",
            "transition-nan-x", "mix-weight-inf-x"])
    @pytest.mark.parametrize("model", [MODELS[0], MODELS[2]], ids=["exp", "uniform"])
    def test_public_functions_reject(self, model, call):
        with pytest.raises(ValueError, match="must be finite"):
            call(model)


class TestValueShape:
    """Observed values are a float or a 1-d array, band edges a float or a
    sequence: more dimensions raise ``ValueError`` before any quadrature,
    whatever the number of values."""

    @pytest.mark.parametrize("shape", [(2, 3), (1, 1), (9, 1)])
    @pytest.mark.parametrize("call", [
        lambda m, x: tail_integrals(m, 0.7, x),
        lambda m, x: drift(m, 0.7, x),
        lambda m, x: pin_posterior(m, 0.7, x),
        lambda m, x: survival_probability(m, 0.7, x, 0.8),
        lambda m, x: band_probability(m, 0.7, x, 0.1),
        lambda m, x: tail_integrals(m, 0.7, 0.1, uppers=x + 0.8),
    ], ids=["tail-integrals", "drift", "pin-posterior", "survival", "band", "band-edges"])
    def test_more_than_one_dimension_rejected(self, shape, call):
        # (2, 3) raised IndexError from inside the window
        model = ModelSpec(UniformLaw(0.5, 2.0), PinningLaw([-1.0, 2.0], [0.6, 0.4]))
        with pytest.raises(ValueError, match="1-d"):
            call(model, np.zeros(shape))


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
