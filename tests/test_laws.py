"""Length and pinning laws: analytic consistency, samplers, serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from infobridge import (
    CustomLengthLaw,
    ExponentialLaw,
    GammaLaw,
    ModelSpec,
    PinningLaw,
    TruncatedExponentialLaw,
    UniformLaw,
    ks_test,
)
from infobridge.laws import length_law_from_dict, validate_length_law

ALL_LAWS = [
    ExponentialLaw(1.0),
    ExponentialLaw(0.4),
    UniformLaw(0.5, 2.0),
    GammaLaw(2.0, 0.7),
    TruncatedExponentialLaw(1.0, 5.0),
]


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: repr(l))
def test_numeric_cdf_matches_analytic(law):
    # quadrature of the density reproduces the analytic CDF on a grid
    validate_length_law(law)


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: repr(l))
def test_sampler_ks(law):
    # inverse-CDF draws pass KS at the 1% level, three fresh-seed retries
    for attempt in range(3):
        rng = np.random.default_rng(1234 + attempt)
        draws = law.sample(rng, size=10_000)
        _, p = ks_test(draws, law.cdf)
        if p > 0.01:
            return
    pytest.fail(f"KS failed three times for {law!r}")


class TestTailPoint:
    """``tail_point(s, mass)``: the point beyond which ``mass`` of the law's
    tail past ``s`` remains."""

    @pytest.mark.parametrize("law", [UniformLaw(0.5, 2.0), TruncatedExponentialLaw(1.0, 5.0)],
                             ids=repr)
    def test_bounded_law_cuts_at_its_support_edge(self, law):
        assert [law.tail_point(s, 1e-10) for s in (0.0, 1.0, 1.9)] == [law.support_sup] * 3

    @given(s=st.floats(0.0, 400.0), log_mass=st.floats(math.log(1e-14), math.log(0.5)))
    def test_survival_pair_keeps_the_share(self, s, log_mass):
        # in closed form, so far past where 1 - cdf has lost every digit
        mass = math.exp(log_mass)
        for law in (ExponentialLaw(0.4), GammaLaw(2.0, 0.7), GammaLaw(0.5, 2.0)):
            cut = law.tail_point(s, mass)
            assert cut > s and float(law.sf(cut)) == pytest.approx(mass * float(law.sf(s)),
                                                                   rel=1e-9)

    def test_exponential_cut_is_s_plus_the_prior_one(self):
        law = ExponentialLaw(1.0)
        assert law.tail_point(0.0, 1e-4) == -math.log(1e-4)
        assert law.tail_point(30.0, 1e-10) == pytest.approx(30.0 - math.log(1e-10), rel=1e-14)

    def test_custom_law_falls_back_to_one_minus_cdf(self):
        exp = ExponentialLaw(1.0)
        law = CustomLengthLaw(pdf=exp.pdf, cdf=exp.cdf, quantile=exp.quantile)
        assert law.tail_point(0.0, 1e-10) == float(exp.quantile(1.0 - 1e-10))
        assert law.tail_point(5.0, 1e-3) == pytest.approx(exp.tail_point(5.0, 1e-3), rel=1e-9)
        # mass * sf(s) below the float spacing at 1, or sf(s) itself 0
        assert law.tail_point(30.0, 1e-10) == law.tail_point(800.0, 1e-3) == math.inf

    @pytest.mark.parametrize("law", [ExponentialLaw(1.0), GammaLaw(2.0)], ids=repr)
    def test_underflowed_tail_cuts_at_inf(self, law):
        # sf(s) is 0.0: no finite cut, and no divide-by-zero warning
        assert law.tail_point(800.0, 1e-10) == math.inf


@pytest.mark.parametrize("law", ALL_LAWS + [PinningLaw([-1.0, 0.3, 2.0], [0.2, 0.5, 0.3])],
                         ids=lambda l: repr(l))
def test_array_quantile_equals_scalar_samples(law):
    # the simulator maps a chunk's uniforms through one array quantile; each
    # entry must be the scalar draw ``sample`` makes from the same stream
    seeds = np.random.SeedSequence(99).spawn(257)
    scalar = [law.sample(np.random.default_rng(s)) for s in seeds]
    uniforms = np.array([np.random.default_rng(s).uniform() for s in seeds])
    assert np.array_equal(law.quantile(uniforms), np.array(scalar, dtype=float))


def test_exponential_sample_mean_lln():
    rng = np.random.default_rng(5)
    draws = ExponentialLaw(1.0).sample(rng, size=100_000)
    # mean 1, sd 1: three-sigma band for the sample mean
    assert abs(draws.mean() - 1.0) <= 3.0 / math.sqrt(draws.size)


def test_truncated_exponential_support():
    rng = np.random.default_rng(6)
    draws = TruncatedExponentialLaw(1.0, 5.0).sample(rng, size=100_000)
    assert np.all(draws > 0.0)
    assert np.all(draws < 5.0)


def test_uniform_degenerate_limit():
    rng = np.random.default_rng(7)
    for eps in (1e-3, 1e-6, 1e-9):
        draws = UniformLaw(1.0, 1.0 + eps).sample(rng, size=100)
        assert np.all(np.abs(draws - 1.0) <= eps)


def test_gamma_matches_scipy_moments():
    rng = np.random.default_rng(8)
    law = GammaLaw(2.0, 0.7)
    draws = law.sample(rng, size=50_000)
    assert abs(draws.mean() - 2.0 * 0.7) < 3.0 * draws.std() / math.sqrt(draws.size)


_POSITIVE = st.floats(1e-3, 1e3)

# Each family's constructor with a strategy for a valid parameter tuple.
VALID_PARAMS = [
    (ExponentialLaw, st.tuples(_POSITIVE)),
    (UniformLaw, st.tuples(st.floats(0.0, 10.0), st.floats(1e-3, 10.0)).map(
        lambda ab: (ab[0], ab[0] + ab[1]))),
    (GammaLaw, st.tuples(_POSITIVE, _POSITIVE)),
    (TruncatedExponentialLaw, st.tuples(_POSITIVE, _POSITIVE)),
]


@given(st.sampled_from(VALID_PARAMS), st.sampled_from([math.nan, math.inf, -math.inf]),
       st.data())
def test_non_finite_parameter_rejected(family, bad, data):
    # JSON reads NaN and Infinity, so every parameter is checked at construction.
    law, valid = family
    params = list(data.draw(valid))
    params[data.draw(st.integers(0, len(params) - 1))] = bad
    with pytest.raises(ValueError):
        law(*params)


@pytest.mark.parametrize("doc", [
    {"family": "exponential", "rate": True},
    {"family": "uniform", "a": False, "b": 2.0},
    {"family": "uniform", "a": 0.0, "b": True},
    {"family": "gamma", "shape": True},
    {"family": "gamma", "shape": 2.0, "scale": True},
    {"family": "truncated-exponential", "rate": True, "b": 4.0},
    {"family": "truncated-exponential", "rate": 1.0, "b": True},
], ids=["exp-rate", "uni-a", "uni-b", "gamma-shape", "gamma-scale", "trunc-rate", "trunc-b"])
def test_bool_parameter_rejected(doc):
    # JSON true and false are no numbers, though Python reads them as 1 and 0
    with pytest.raises(ValueError):
        length_law_from_dict(doc)


class TestPinningLaw:
    def test_single_point_always_drawn(self):
        law = PinningLaw([2.5], [1.0])
        rng = np.random.default_rng(0)
        assert np.all(law.sample(rng, size=50) == 2.5)

    def test_frequencies_within_three_sigma(self):
        law = PinningLaw([-1.0, 1.0], [0.3, 0.7])
        rng = np.random.default_rng(9)
        draws = law.sample(rng, size=100_000)
        for z, p in zip(law.points, law.probs):
            freq = np.mean(draws == z)
            sigma = math.sqrt(p * (1 - p) / draws.size)
            assert abs(freq - p) <= 3.0 * sigma

    def test_seeded_determinism(self):
        law = PinningLaw([-1.0, 0.0, 2.0], [0.2, 0.3, 0.5])
        a = law.sample(np.random.default_rng(123), size=1000)
        b = law.sample(np.random.default_rng(123), size=1000)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("points,probs", [
        ([1.0, 1.0], [0.5, 0.5]),       # not strictly increasing
        ([2.0, 1.0], [0.5, 0.5]),       # decreasing
        ([0.0, 1.0], [0.5, 0.4]),       # does not sum to one
        ([0.0, 1.0], [1.1, -0.1]),      # negative weight
        ([], []),                        # empty
        ([math.nan], [1.0]),             # NaN level
        ([-math.inf, 0.0], [0.5, 0.5]),  # infinite level
        ([0.0, math.inf], [0.5, 0.5]),   # infinite level
        ([0.0], [math.nan]),             # NaN weight
        ([0.0, 1.0], [0.5, math.nan]),   # NaN weight
        ([0.0, 1.0], [math.inf, 0.5]),   # infinite weight
        ([False], [1.0]),                # boolean level
        ([0.0, True], [0.5, 0.5]),       # boolean level
        ([0.0], [True]),                 # boolean weight
        (np.array([0.0]), np.array([True])),  # boolean weight array
    ])
    def test_invalid_rejected(self, points, probs):
        with pytest.raises(ValueError):
            PinningLaw(points, probs)


class TestModelSpecSerialization:
    def test_json_round_trip(self, tmp_path):
        doc = {"tau": {"family": "uniform", "a": 0.5, "b": 2.0},
               "pinning": {"points": [-1.0, 1.0], "probs": [0.5, 0.5]}}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        model = ModelSpec.from_json(path)
        assert model.length.support_sup == 2.0
        assert model.to_dict() == doc

    def test_every_family_constructible(self):
        for d in [{"family": "exponential", "rate": 2.0},
                  {"family": "uniform", "a": 0.0, "b": 1.0},
                  {"family": "gamma", "shape": 3.0, "scale": 0.5},
                  {"family": "truncated-exponential", "rate": 1.0, "b": 4.0}]:
            law = length_law_from_dict(d)
            assert law.to_dict()["family"] == d["family"]

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            length_law_from_dict({"family": "cauchy"})


class TestCustomLaw:
    def test_valid_plugin_accepted(self):
        law = CustomLengthLaw(
            pdf=lambda r: np.where((r > 0) & (r < 1), 2.0 * r, 0.0),
            cdf=lambda t: np.clip(t, 0.0, 1.0) ** 2,
            quantile=lambda q: np.sqrt(q),
            support_sup=1.0)
        rng = np.random.default_rng(1)
        draws = law.sample(rng, size=20_000)
        _, p = ks_test(draws, law.cdf)
        assert p > 0.01

    def test_bad_density_rejected_at_load(self):
        with pytest.raises(ValueError):
            CustomLengthLaw(
                pdf=lambda r: np.where((r > 0) & (r < 1), 1.5 * r, 0.0),  # mass 3/4
                cdf=lambda t: np.clip(t, 0.0, 1.0) ** 2,
                quantile=lambda q: np.sqrt(q),
                support_sup=1.0)
