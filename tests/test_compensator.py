"""Intensity kernel, compensators, the resolvent approximation, and the
exponential martingales, at module scale (acceptance scale lives in
test_acceptance)."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riemann
from infobridge import localtime, paths
from infobridge import (
    CompensatorCurve,
    ExponentialLaw,
    GammaLaw,
    IntensityKernel,
    ModelSpec,
    PinningLaw,
    UniformLaw,
    compensator_K,
    compensator_frak,
    ks_test_exponential,
    martingale_M,
    martingale_N,
    meyer_approx_Ah,
    mix_weight,
    occupation_local_time,
    martingale_expectation_test,
    simulate_ensemble,
)
from infobridge.compensator import (
    compensator_rows,
    exp_martingale,
    intensity_row,
    midpoint_kernel,
)
from infobridge.filtering import BandProbabilityCache
from infobridge.kernels import QuadratureError
from infobridge.localtime import occupation_increments
from infobridge.verify import (
    VerificationContext,
    _resolvent_approximations,
    compensator_products,
)


class TestIntensityKernel:
    def test_brute_force_oracle(self, single_pin_exp):
        oracle = riemann.intensity(0.5, 0, [0.0], [1.0], riemann.exp_pdf(),
                                   math.exp(-0.5), 60.0)
        assert oracle == pytest.approx(1.0440615714, abs=1e-8)
        assert intensity_row(single_pin_exp, 0.5)[0] == pytest.approx(oracle, rel=1e-6)

    @given(law=st.one_of(st.just(ExponentialLaw(1.0)),
                         st.builds(GammaLaw, st.floats(0.5, 3.0), st.floats(0.5, 2.0))),
           s=st.floats(math.log(1e-4), math.log(40.0)).map(math.exp))
    @settings(max_examples=80)
    def test_single_pin_gamma_closed_form(self, law, s):
        # up to s = 40, where far less than 1e-10 of the prior law lies past
        # s: the quadrature cuts the tail past s, not the prior law
        shape, scale = (1.0, 1.0) if isinstance(law, ExponentialLaw) else (law.shape, law.scale)
        row = intensity_row(ModelSpec(law, PinningLaw([0.0], [1.0])), s)
        assert row[0] == pytest.approx(riemann.gamma_intensity(s, shape, scale), rel=1e-8)

    def test_zero_outside_support(self, two_pin_symmetric):
        assert intensity_row(two_pin_symmetric, 0.3)[0] == 0.0
        assert intensity_row(two_pin_symmetric, 0.49)[1] == 0.0

    def test_symmetric_pins_equal(self, two_pin_symmetric):
        for s in (0.6, 1.0, 1.7):
            row = intensity_row(two_pin_symmetric, s)
            assert row[0] == pytest.approx(row[1], rel=1e-12)

    def test_matches_mixture_weight_identity(self, two_pin_asymmetric):
        # the kernel equals (pin weight x length density) over the mixture
        # weight evaluated at the pin level: an independent code path
        model = two_pin_asymmetric
        for s in (0.4, 1.0, 2.3):
            f = float(model.length.pdf(s))
            for k, z in enumerate(model.pinning.points):
                lam = intensity_row(model, s)[k]
                ident = model.pinning.probs[k] * f / mix_weight(s, z, model)
                assert lam == pytest.approx(ident, rel=1e-9)

    @pytest.mark.parametrize("dt", [1e-3, 1e-2])
    def test_first_midpoint_read_exactly(self, single_pin_exp, dt):
        # the grid starts at the first step midpoint, dt / 2, so the first
        # read is not clamped up to a later time
        kern = IntensityKernel(single_pin_exp, dt=dt, horizon=2.0)
        first = midpoint_kernel(kern, dt, int(round(2.0 / dt)))[0, 0]
        assert first == pytest.approx(intensity_row(single_pin_exp, dt / 2)[0], rel=1e-3)

    def test_domain_errors(self, two_pin_symmetric):
        with pytest.raises(ValueError):
            intensity_row(two_pin_symmetric, 2.5)

    @pytest.mark.parametrize("model", ["single_pin_exp", "two_pin_symmetric"])
    @pytest.mark.parametrize("name,dt,horizon", [
        *[("dt", bad, 2.0) for bad in (math.inf, math.nan, 0.0, -1e-3)],
        *[("horizon", 1e-3, bad) for bad in (math.inf, math.nan, 0.0, -2.0)],
    ])
    def test_step_and_horizon_checked(self, request, model, name, dt, horizon):
        # one error naming the argument, before any row is built
        with pytest.raises(ValueError, match=f"^{name} must be finite and strictly positive"):
            IntensityKernel(request.getfixturevalue(model), dt, horizon)

    @pytest.mark.parametrize("dt", [3.0, 4.0], ids=["midpoint-at-sup", "midpoint-past-sup"])
    def test_first_midpoint_past_a_bounded_support_names_dt(self, dt):
        # U(0.5, 1.5): the grid would start at dt / 2 >= 1.5; np.geomspace
        # raised on a zero, or warned on the log of a negative edge
        model = ModelSpec(UniformLaw(0.5, 1.5), PinningLaw([-1.0, 1.0], [0.5, 0.5]))
        with pytest.raises(ValueError, match=f"^dt={dt} is too large"):
            IntensityKernel(model, dt, 2 * dt)

    @given(ratio=st.floats(0.5 + 1e-9, 1.0))
    @settings(max_examples=20)
    def test_grid_within_first_read_and_support(self, ratio):
        # sup / dt in (0.5, 1]: below 3/4 both ladders ran down past dt / 2,
        # to nodes the kernel is never read at
        model = ModelSpec(UniformLaw(0.5, 1.5), PinningLaw([-1.0, 1.0], [0.5, 0.5]))
        dt = 1.5 / ratio
        kern = IntensityKernel(model, dt, 2 * dt)
        assert kern.s_grid[0] == dt / 2 and kern.s_grid[-1] < 1.5
        assert np.all(np.diff(kern.s_grid) > 0.0)
        assert np.all(np.isfinite(kern(kern.s_grid)))
        assert math.isfinite(kern.max_rel_error(n_probe=5))

    def test_infinite_times_clamp_and_nan_raises(self, single_pin_exp):
        kern = IntensityKernel(single_pin_exp, dt=1e-3, horizon=2.0)
        np.testing.assert_array_equal(kern([-math.inf, math.inf]),
                                      kern([kern.s_grid[0], kern.s_grid[-1]]))
        for s in (math.nan, [0.5, math.nan]):
            with pytest.raises(ValueError, match="NaN"):
                kern(s)

    def test_tabulation_accuracy(self, two_pin_symmetric):
        kern = IntensityKernel(two_pin_symmetric, dt=1e-3, horizon=2.0)
        assert kern.max_rel_error(n_probe=50) <= 1e-3

    def test_tabulation_accuracy_unbounded(self, single_pin_exp):
        kern = IntensityKernel(single_pin_exp, dt=1e-3, horizon=5.0)
        assert kern.max_rel_error(n_probe=50) <= 1e-3


EXP_PROBES = (0.25, 0.5, 1.0, 2.0, 4.0)


@pytest.fixture(scope="module")
def exp_bundle(single_pin_exp):
    """Shared module-scale ensemble reduction for the unbounded config."""
    return compensator_products(single_pin_exp, dt=2e-3, horizon=7.0,
                                n_paths=1500, seed=314,
                                probe_times=EXP_PROBES)


@pytest.fixture(scope="module")
def exp_ah(single_pin_exp):
    """The resolvent approximations at t = 1 of the first 800 paths of
    ``exp_bundle``, drawn again to t = 1, by width h."""
    dt = 2e-3
    ens = simulate_ensemble(single_pin_exp, dt, 1.0, 800, seed=314)
    bands = BandProbabilityCache(single_pin_exp, (0.1, 0.03), s_min=dt, s_max=1.0)
    return _resolvent_approximations(ens, bands)


#: (model, dt, horizon, probe times) of the per-path property: a pin at the
#: origin; two weighted pins, with probes past the support; far pins the
#: paths reach only at absorption; and one far negative pin, whose weighted
#: rows are -0.0 until then
PATH_CASES = [
    (ModelSpec(ExponentialLaw(1.0), PinningLaw([0.0], [1.0])), 2e-3, 3.0, (0.5, 1.0, 2.0, 3.0)),
    (ModelSpec(UniformLaw(0.5, 2.0), PinningLaw([-1.0, 2.0], [0.6, 0.4])), 2e-3, 2.5,
     (0.8, 1.2, 1.8, 2.5)),
    (ModelSpec(UniformLaw(5.0, 6.0), PinningLaw([-40.0, 40.0], [0.5, 0.5])), 1e-2, 7.0,
     (1.0, 5.5, 7.0)),
    (ModelSpec(UniformLaw(5.0, 6.0), PinningLaw([-40.0], [1.0])), 1e-2, 7.0, (1.0, 5.5, 7.0)),
]


@functools.lru_cache(maxsize=None)
def _path_case_kernel(i):
    model, dt, horizon, _ = PATH_CASES[i]
    return IntensityKernel(model, dt=dt, horizon=horizon)


class TestCompensatorK:
    def test_zero_local_time_gives_zero(self):
        # pins so far out the path never enters a band before absorption
        model = ModelSpec(UniformLaw(5.0, 6.0), PinningLaw([-40.0, 40.0], [0.5, 0.5]))
        ens = simulate_ensemble(model, 1e-2, 1.0, 1, seed=1)
        path = ens.path(0)
        kern = IntensityKernel(model, dt=1e-2, horizon=1.0)
        lts = [occupation_local_time(path, z) for z in model.pinning.points]
        assert all(np.all(lt.values == 0.0) for lt in lts)
        curve = compensator_K(model, path, kern)
        assert np.all(curve.values == 0.0)

    @given(case_i=st.integers(0, len(PATH_CASES) - 1), n_paths=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_pathwise_matches_ensemble_pipeline(self, case_i, n_paths, seed):
        # a single path is a one-row ensemble: the per-path plain and weighted
        # compensators and the martingale M are the pipeline's rows byte for
        # byte, at the probes and, for path 0, along the whole curve
        model, dt, horizon, times = PATH_CASES[case_i]
        prod = compensator_products(model, dt, horizon, n_paths, seed, times, weighted=True)
        kern = _path_case_kernel(case_i)
        idx = [int(round(t / dt)) for t in times]
        mart_m = exp_martingale(0.25, prod["frak"], prod["absorbed"][:, None] <= idx,
                                prod["X_probe"])
        for i, p in enumerate(simulate_ensemble(model, dt, horizon, n_paths, seed)):
            curve = compensator_K(model, p, kern)
            frak = compensator_frak(model, p, kern)
            assert curve.values[idx].tobytes() == prod["K_probe"][i].tobytes()
            assert frak.values[idx].tobytes() == prod["frak"][i].tobytes()
            assert martingale_M(p, frak, 0.25)[idx].tobytes() == mart_m[i].tobytes()
            if i == 0:
                assert curve.values.tobytes() == prod["K_path0"].tobytes()

    def test_curve_shape_invariants(self, two_pin_symmetric):
        dt = 1e-3
        ens = simulate_ensemble(two_pin_symmetric, dt, 2.0, 5, seed=3)
        kern = IntensityKernel(two_pin_symmetric, dt=dt, horizon=2.0)
        for p in ens:
            curve = compensator_K(two_pin_symmetric, p, kern)
            assert curve.values[0] == 0.0
            assert np.all(np.diff(curve.values) >= 0.0)
            assert np.all(np.diff(curve.values[p.absorbed_index:]) == 0.0)

    def test_martingale_identity(self, single_pin_exp, exp_bundle):
        report = martingale_expectation_test(
            "module_K", exp_bundle["K_probe"], EXP_PROBES,
            lambda t: float(single_pin_exp.length.cdf(t)), seed=0)
        assert report.passed, report.details

    def test_indicator_minus_compensator_is_centered(self, exp_bundle):
        # the compensated indicator has mean zero simultaneously at five
        # grid times (paired per-path differences)
        taus = exp_bundle["taus"]
        for j, t in enumerate(EXP_PROBES):
            diff = (taus <= t).astype(float) - exp_bundle["K_probe"][:, j]
            stderr = diff.std(ddof=1) / math.sqrt(diff.size)
            assert abs(diff.mean()) <= 3.0 * stderr, f"t={t}" 

    def test_terminal_mean_and_law(self, exp_bundle):
        k_inf = exp_bundle["K_term"][exp_bundle["taus"] <= 7.0]
        stderr = k_inf.std(ddof=1) / math.sqrt(k_inf.size)
        assert abs(k_inf.mean() - 1.0) <= 3.0 * stderr
        _, p = ks_test_exponential(k_inf)
        assert p > 0.005

    def test_corrupted_kernel_detected(self, single_pin_exp, exp_bundle):
        report = martingale_expectation_test(
            "module_K_corrupt", 1.1 * exp_bundle["K_probe"], EXP_PROBES,
            lambda t: float(single_pin_exp.length.cdf(t)), seed=0)
        assert not report.passed

    def test_constant_beyond_support(self):
        model = ModelSpec(UniformLaw(0.5, 1.5), PinningLaw([-1.0, 1.0], [0.5, 0.5]))
        dt = 2e-3
        ens = simulate_ensemble(model, dt, 3.0, 10, seed=5)
        kern = IntensityKernel(model, dt=dt, horizon=3.0)
        for p in ens:
            curve = compensator_K(model, p, kern)
            i15, i30 = int(round(1.5 / dt)), int(round(3.0 / dt))
            assert curve.values[i30] == curve.values[i15]

    def test_step_increments_shrink_with_dt(self, single_pin_exp):
        # numerical face of continuity: the largest single-step jump of the
        # compensator vanishes under grid refinement
        worst = []
        for dt in (2e-2, 2e-3, 2e-4):
            kern = IntensityKernel(single_pin_exp, dt=dt, horizon=2.0)
            ens = simulate_ensemble(single_pin_exp, dt, 2.0, 12, seed=6)
            jumps = []
            for p in ens:
                curve = compensator_K(single_pin_exp, p, kern)
                jumps.append(np.max(np.diff(curve.values), initial=0.0))
            worst.append(np.median(jumps))
        assert worst[0] > worst[1] > worst[2]


DT_PROP = 1e-2
H_PROP = 3.0
PROP_MODELS = [VerificationContext.model_single_pin(),
               VerificationContext.model_two_pin_symmetric(),
               VerificationContext.model_two_pin_asymmetric(),
               VerificationContext.model_bounded_support()]


@functools.lru_cache(maxsize=None)
def _prop_kernel_mid(i):
    kern = IntensityKernel(PROP_MODELS[i], dt=DT_PROP, horizon=H_PROP)
    return midpoint_kernel(kern, DT_PROP, int(round(H_PROP / DT_PROP)))


#: (model, horizon, weighted) of the live-window property: a pin at the
#: origin; two pins with the horizon past the support, so that every row's
#: window ends before the grid does; and one negative pin the paths do not
#: come near before absorption, whose weighted rows are -0.0 until then
WINDOW_CASES = [
    (PROP_MODELS[0], 2.0, False),
    (PROP_MODELS[2], 3.0, True),
    (ModelSpec(UniformLaw(5.0, 6.0), PinningLaw([-40.0], [1.0])), 1.0, True),
    (ModelSpec(UniformLaw(5.0, 6.0), PinningLaw([-40.0], [1.0])), 7.0, True),
]


@functools.lru_cache(maxsize=None)
def _window_kernel_mid(case_i):
    model, horizon, _ = WINDOW_CASES[case_i]
    kern = IntensityKernel(model, dt=DT_PROP, horizon=horizon)
    return midpoint_kernel(kern, DT_PROP, int(round(horizon / DT_PROP)))


def _dense_products(case_i, n_paths, seed, idx):
    """The streamed reduction over full-width blocks: local time and
    compensator over every column of a block, probes read by column."""
    model, horizon, weighted = WINDOW_CASES[case_i]
    kernel_mid = _window_kernel_mid(case_i)
    pins = model.pinning.points
    out = {"K_probe": [], "X_probe": [], "K_term": [], "frak": []}
    for ens in paths.iter_ensemble_chunks(model, DT_PROP, horizon, n_paths, seed):
        d = [occupation_increments(ens.values, ens.taus, DT_PROP, z) for z in pins]
        K = compensator_rows(kernel_mid, d)
        if not out["K_term"]:
            path0 = K[0].copy()
        out["K_probe"].append(K[:, idx])
        out["X_probe"].append(ens.values[:, idx])
        out["K_term"].append(K[:, -1].copy())
        if weighted:
            out["frak"].append(compensator_rows(kernel_mid, d, pins)[:, idx])
    result = {k: (np.concatenate(v) if v else None) for k, v in out.items()}
    result["K_path0"] = path0
    return result


class TestReduction:
    @given(model_i=st.integers(0, 3), n_paths=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_rows_of_small_ensembles(self, model_i, n_paths, seed):
        # every row starts at 0, the plain rows do not decrease, both are
        # flat from absorption on, and a one-path block gives that path's
        # row of the ensemble block bit for bit
        model = PROP_MODELS[model_i]
        pins = model.pinning.points
        kernel_mid = _prop_kernel_mid(model_i)
        ens = simulate_ensemble(model, DT_PROP, H_PROP, n_paths, seed)
        d = [occupation_increments(ens.values, ens.taus, DT_PROP, z) for z in pins]
        plain = compensator_rows(kernel_mid, d)
        weighted = compensator_rows(kernel_mid, d, pins)
        assert np.all(plain[:, 0] == 0.0) and np.all(weighted[:, 0] == 0.0)
        assert np.all(np.diff(plain, axis=1) >= 0.0)
        for i in range(n_paths):
            a = min(ens.absorbed_indices[i], ens.n_steps)
            assert np.all(plain[i, a:] == plain[i, a])
            assert np.all(weighted[i, a:] == weighted[i, a])
            one = [x[i:i + 1] for x in d]
            assert np.array_equal(compensator_rows(kernel_mid, one)[0], plain[i])
            assert np.array_equal(compensator_rows(kernel_mid, one, pins)[0], weighted[i])

    @given(case_i=st.integers(0, len(WINDOW_CASES) - 1), n_paths=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1), block_rows=st.integers(1, 6),
           group_rows=st.integers(1, 4), probes=st.lists(st.floats(0.0, 1.0), max_size=3))
    @settings(max_examples=50)
    def test_live_windows_match_the_dense_reduction(self, case_i, n_paths, seed, block_rows,
                                                    group_rows, probes):
        # the streamed reduction over each group's live window gives, byte for
        # byte and in the same layout, what full-width blocks give; blocks and
        # groups are made small so that both split
        model, horizon, weighted = WINDOW_CASES[case_i]
        n_steps = int(round(horizon / DT_PROP))
        idx = sorted({0, n_steps, *(int(p * n_steps) for p in probes)})
        times = [i * DT_PROP for i in idx]
        widths = []

        def recording(values, taus, dt, level):
            widths.append(values.shape[1] - 1)
            assert widths[-1] == paths._live_steps(taus, dt, n_steps).max()
            return occupation_increments(values, taus, dt, level)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(paths, "_CELLS", block_rows * (n_steps + 1))
            mp.setattr(localtime, "_CELLS", group_rows * (n_steps + 1))
            mp.setattr(localtime, "occupation_increments", recording)
            got = compensator_products(model, DT_PROP, horizon, n_paths, seed, times,
                                       weighted=weighted)
            want = _dense_products(case_i, n_paths, seed, idx)
        blocks = [min(block_rows, n_paths - first) for first in range(0, n_paths, block_rows)]
        assert len(widths) == len(model.pinning) * sum(-(-b // group_rows) for b in blocks)
        for key in ("K_probe", "X_probe", "frak", "K_term", "K_path0"):
            if want[key] is None:
                assert got[key] is None
                continue
            assert got[key].shape == want[key].shape
            # summaries add along the paths, so the layout sets their rounding
            assert got[key].flags.f_contiguous == want[key].flags.f_contiguous
            assert got[key].flags.c_contiguous == want[key].flags.c_contiguous
            assert got[key].tobytes(order="A") == want[key].tobytes(order="A"), key


class TestWeightedCompensator:
    def test_origin_pin_weighted_vanishes(self, single_pin_exp):
        dt = 1e-3
        ens = simulate_ensemble(single_pin_exp, dt, 2.0, 3, seed=7)
        kern = IntensityKernel(single_pin_exp, dt=dt, horizon=2.0)
        for p in ens:
            plain = compensator_K(single_pin_exp, p, kern)
            frak = compensator_frak(single_pin_exp, p, kern)
            # the integrand carries the pin level, 0
            assert plain.values[-1] > 0.0
            assert np.all(frak.values == 0.0)

    def test_positive_pins_nondecreasing(self):
        model = ModelSpec(UniformLaw(0.5, 2.0), PinningLaw([0.5, 2.0], [0.5, 0.5]))
        dt = 1e-3
        ens = simulate_ensemble(model, dt, 2.0, 5, seed=8)
        kern = IntensityKernel(model, dt=dt, horizon=2.0)
        for p in ens:
            frak = compensator_frak(model, p, kern)
            assert np.all(np.diff(frak.values) >= 0.0)

    def test_mean_tracks_pin_mean_times_cdf(self):
        model = ModelSpec(UniformLaw(0.5, 2.0), PinningLaw([-1.0, 2.0], [0.6, 0.4]))
        prod = compensator_products(model, dt=2e-3, horizon=2.0, n_paths=1500,
                                    seed=99, probe_times=(0.8, 1.2, 1.8), weighted=True)
        ez = model.pinning.mean()
        report = martingale_expectation_test(
            "module_frak", prod["frak"], (0.8, 1.2, 1.8),
            lambda t: ez * float(model.length.cdf(t)), seed=0)
        assert report.passed, report.details


class TestMeyerApproximation:
    def test_flat_after_absorption(self, two_pin_symmetric):
        dt = 5e-3
        ens = simulate_ensemble(two_pin_symmetric, dt, 2.0, 4, seed=9)
        bands = BandProbabilityCache(two_pin_symmetric, 0.1, s_min=dt, s_max=2.0)
        for p in ens:
            if not p.absorbed:
                continue
            curve = meyer_approx_Ah(two_pin_symmetric, p, 0.1, bands)
            assert np.all(np.diff(curve.values[p.absorbed_index:]) == 0.0)

    def test_terminal_mean_fubini(self, single_pin_exp, exp_ah):
        # E[A^h at t] = (1/h) int_0^t (F(s+h) - F(s)) ds, computable in
        # closed form for the exponential law
        for h in (0.1, 0.03):
            a1 = exp_ah[h]
            s = np.linspace(0.0, 1.0, 20001)
            f = single_pin_exp.length.cdf
            target = np.trapezoid(f(s + h) - f(s), s) / h
            stderr = a1.std(ddof=1) / math.sqrt(a1.size)
            assert abs(a1.mean() - target) <= 3.5 * stderr + 0.01 * target

    def test_cache_route_matches_ensemble_pipeline(self, single_pin_exp, exp_ah):
        # per path of the horizon-7 ensemble, with a band table from the same
        # ladder, the resolvent approximation at t = 1 is the helper's row
        dt, ladder = 2e-3, (0.1, 0.03)
        ens = simulate_ensemble(single_pin_exp, dt, 7.0, 3, seed=314)
        bands = BandProbabilityCache(single_pin_exp, ladder, s_min=dt, s_max=1.0)
        n_ah = int(round(1.0 / dt))
        for k, h in enumerate(ladder):
            for i in range(3):
                curve = meyer_approx_Ah(single_pin_exp, ens.path(i), h,
                                        band_fn=lambda s, x: bands(s, x)[k])
                np.testing.assert_allclose(curve.values[n_ah], exp_ah[h][i],
                                           rtol=1e-12)

    @given(st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0]),
                     st.floats(max_value=0.0, allow_infinity=False)))
    def test_width_checked(self, single_pin_exp, h):
        # a width that is not finite and positive raises before any read
        path = simulate_ensemble(single_pin_exp, 0.01, 1.0, 1, seed=1).path(0)

        def band_fn(s, x):
            raise AssertionError("read")

        with pytest.raises(ValueError, match="band widths must be finite and positive"):
            meyer_approx_Ah(single_pin_exp, path, h, band_fn)

    def test_approaches_compensator(self, exp_bundle, exp_ah):
        k1 = exp_bundle["K_probe"][:800, EXP_PROBES.index(1.0)]
        gap_large = abs(exp_ah[0.1].mean() - k1.mean())
        gap_small = abs(exp_ah[0.03].mean() - k1.mean())
        assert gap_small < gap_large


class TestExponentialMartingales:
    def test_lambda_zero_is_unity(self, single_pin_exp):
        ens = simulate_ensemble(single_pin_exp, 1e-2, 2.0, 1, seed=10)
        p = ens.path(0)
        kern = IntensityKernel(single_pin_exp, dt=1e-2, horizon=2.0)
        curve = compensator_K(single_pin_exp, p, kern)
        np.testing.assert_array_equal(martingale_N(p, curve, 0.0), 1.0)
        frak = compensator_frak(single_pin_exp, p, kern)
        np.testing.assert_array_equal(martingale_M(p, frak, 0.0), 1.0)

    def test_bounded_by_one_plus_lambda(self, single_pin_exp):
        ens = simulate_ensemble(single_pin_exp, 1e-2, 3.0, 10, seed=11)
        kern = IntensityKernel(single_pin_exp, dt=1e-2, horizon=3.0)
        for p in ens:
            curve = compensator_K(single_pin_exp, p, kern)
            for lam in (0.5, 1.0, 2.0):
                assert np.max(martingale_N(p, curve, lam)) <= 1.0 + lam + 1e-12

    def test_negative_lambda_rejected(self, single_pin_exp):
        ens = simulate_ensemble(single_pin_exp, 1e-2, 2.0, 1, seed=12)
        p = ens.path(0)
        curve = CompensatorCurve(times=p.times, values=np.zeros_like(p.values),
                                 kind="plain")
        with pytest.raises(ValueError):
            martingale_N(p, curve, -0.5)

    def test_terminal_means(self, exp_bundle):
        k_inf = exp_bundle["K_term"]
        absorbed = exp_bundle["taus"] <= 7.0
        for lam in (0.5, 1.0, 2.0):
            n_inf = (1.0 + lam * absorbed) * np.exp(-lam * k_inf)
            stderr = n_inf.std(ddof=1) / math.sqrt(n_inf.size)
            assert abs(n_inf.mean() - 1.0) <= 3.5 * stderr
            mgf = np.exp(-lam * k_inf)
            stderr_m = mgf.std(ddof=1) / math.sqrt(mgf.size)
            assert abs(mgf.mean() - 1.0 / (1.0 + lam)) <= 3.5 * stderr_m

    def test_weighted_martingale_unit_mean(self):
        model = ModelSpec(UniformLaw(0.5, 2.0), PinningLaw([-1.0, 2.0], [0.6, 0.4]))
        times = (0.8, 1.2, 1.8)
        prod = compensator_products(model, dt=2e-3, horizon=2.0, n_paths=1500,
                                    seed=77, probe_times=times, weighted=True)
        absorbed = prod["absorbed"][:, None] <= [int(round(t / 2e-3)) for t in times]
        mart_m = exp_martingale(0.25, prod["frak"], absorbed, prod["X_probe"])
        report = martingale_expectation_test("module_M", mart_m, times, lambda t: 1.0, seed=0)
        assert report.passed, report.details
