"""KS machinery, report types, and the generic statistical tests."""

import dataclasses
import json
import math
import threading
from unittest import mock

import numpy as np
import pytest
from scipy.special import kolmogorov

from infobridge import compensator as comp
from infobridge import filtering, localtime, paths, verify
from infobridge import (
    EnsembleSummary,
    TestReport,
    ks_test,
    ks_test_exponential,
    martingale_expectation_test,
    refinement_report,
)
from infobridge.verify import (
    VerificationContext,
    compensator_products,
    criterion_density_consistency,
    kolmogorov_pvalue,
    ks_statistic,
    run_criterion,
)


class TestKSStatistic:
    def test_three_point_hand_enumeration(self):
        # samples {0.5, 1.0, 1.5} against 1 - e^{-x}: the sup is attained
        # below the first step, D = F(0.5) - 0
        samples = np.array([0.5, 1.0, 1.5])
        cdf = lambda x: 1.0 - np.exp(-x)
        steps = [(1 / 3, 0.0, cdf(0.5)), (2 / 3, 1 / 3, cdf(1.0)), (1.0, 2 / 3, cdf(1.5))]
        brute = max(max(hi - f, f - lo) for hi, lo, f in steps)
        assert brute == pytest.approx(1.0 - math.exp(-0.5))
        d = ks_statistic(samples, cdf)
        assert d == pytest.approx(brute, abs=1e-15)
        assert d == pytest.approx(0.3934693403, abs=1e-10)

    def test_point_mass_at_one(self):
        # all samples equal 1: D = max(F(1), 1 - F(1)) = 1 - e^{-1}
        samples = np.ones(100)
        d = ks_statistic(samples, lambda x: 1.0 - np.exp(-x))
        assert d == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_pvalue_matches_kolmogorov_series(self):
        # independent oracle: scipy's Kolmogorov survival function
        # below lam 0.04, 100 terms of the alternating series read 0.3965 at
        # 0.005, 0.8674 at 0.01 and 0.99969 at 0.02, where the p-value is 1
        for lam in (0.005, 0.01, 0.02, 0.05, 0.1, 0.17, 0.18, 0.2, 0.3, 0.5, 0.8, 1.0,
                    1.36, 2.0):
            ours = kolmogorov_pvalue(lam, 1)
            assert ours == pytest.approx(float(kolmogorov(lam)), abs=1e-10)

    def test_exponential_self_consistency(self):
        # i.i.d. unit-exponential samples pass at the 1% level in at least
        # 97 of 100 seeded repetitions
        hits = 0
        for rep in range(100):
            rng = np.random.default_rng(10_000 + rep)
            sample = -np.log(rng.uniform(size=400))
            _, p = ks_test_exponential(sample)
            hits += p > 0.01
        assert hits >= 97

    def test_preconditions(self):
        with pytest.raises(ValueError):
            ks_test_exponential(np.ones(10))
        with pytest.raises(ValueError):
            ks_test_exponential(np.concatenate([np.ones(60), [-1.0]]))

    def test_detects_wrong_law(self):
        rng = np.random.default_rng(3)
        sample = rng.uniform(0.0, 2.0, 500) + 1e-9
        _, p = ks_test_exponential(sample)
        assert p < 1e-6


class TestCompensatorProducts:
    def test_blocking_does_not_change_products(self, two_pin_asymmetric):
        # One block of 30 paths against blocks of 7, both compensators
        dt, horizon = 0.01, 2.0
        products = []
        for cells in (paths._CELLS, 7 * 201):
            with mock.patch.object(paths, "_CELLS", cells):
                products.append(compensator_products(
                    two_pin_asymmetric, dt, horizon, 30, seed=5,
                    probe_times=(0.5, 1.0, 2.0), weighted=True))
        one, blocked = products
        assert one.keys() == blocked.keys() == {"K_probe", "K_term", "K_path0", "X_probe",
                                                "taus", "zs", "absorbed", "frak"}
        for key in one:
            np.testing.assert_array_equal(one[key], blocked[key], err_msg=key)
        assert one["frak"].shape == one["X_probe"].shape == (30, 3)

    def test_frak_only_when_weighted(self, two_pin_asymmetric):
        prod = compensator_products(two_pin_asymmetric, 0.01, 1.0, 4, seed=5,
                                    probe_times=(0.5, 1.0))
        assert prod["frak"] is None
        ens = paths.simulate_ensemble(two_pin_asymmetric, 0.01, 1.0, 4, seed=5)
        np.testing.assert_array_equal(prod["X_probe"], ens.values[:, [50, 100]])
        np.testing.assert_array_equal(prod["absorbed"], ens.absorbed_indices)

    @pytest.mark.parametrize("n_paths", [0, -3])
    def test_rejects_no_paths(self, two_pin_asymmetric, n_paths):
        with mock.patch.object(comp, "IntensityKernel",
                               side_effect=AssertionError("kernel built")):
            with pytest.raises(ValueError, match="at least one path"):
                compensator_products(two_pin_asymmetric, 0.01, 1.0, n_paths, seed=5,
                                     probe_times=(0.5,))


    @pytest.mark.parametrize("probes", [(-0.5,), (2.0,), (0.5, math.nan), (0.505,),
                                        (0.5, 0.995)],
                             ids=["before-start", "past-horizon", "nan", "half-step", "off-grid"])
    def test_rejects_probe_outside_the_horizon(self, two_pin_asymmetric, probes):
        # -0.5 at dt 0.01 read column -50, the compensator 0.5 before the
        # horizon; 2.0 on a horizon of 1 raised IndexError; 0.505 read
        # column 50, the compensator at 0.5
        with mock.patch.object(comp, "IntensityKernel",
                               side_effect=AssertionError("kernel built")):
            with pytest.raises(ValueError, match="probe times"):
                compensator_products(two_pin_asymmetric, 0.01, 1.0, 4, seed=5,
                                     probe_times=probes)

    def test_reduction_stays_on_the_callers_thread(self, two_pin_asymmetric, monkeypatch):
        # blocks of 7 paths: the stream draws blocks 2-5 on its worker, while
        # local time and the kernel's reads all run where the caller does
        threads = {"occupation_increments": set(), "kernel": set(), "_model_block": set()}

        def on_thread(name, fn):
            def recorded(*args, **kwargs):
                threads[name].add(threading.get_ident())
                return fn(*args, **kwargs)
            return recorded

        monkeypatch.setattr(paths, "_CELLS", 7 * 201)
        monkeypatch.setattr(localtime, "occupation_increments",
                            on_thread("occupation_increments", localtime.occupation_increments))
        monkeypatch.setattr(comp.IntensityKernel, "__call__",
                            on_thread("kernel", comp.IntensityKernel.__call__))
        monkeypatch.setattr(paths, "_model_block", on_thread("_model_block", paths._model_block))
        compensator_products(two_pin_asymmetric, 0.01, 2.0, 30, seed=5,
                             probe_times=(0.5, 1.0, 2.0), weighted=True)
        caller = threading.get_ident()
        assert threads["occupation_increments"] == threads["kernel"] == {caller}
        assert caller in threads["_model_block"] and len(threads["_model_block"]) == 2


class TestScales:
    NAMES = ("dt_fine", "n_compensator", "n_terminal", "n_bridge", "n_brownian",
             "n_quadratic")

    @pytest.mark.parametrize("fast,row", [
        (False, (1e-4, 5000, 2000, 10_000, 10_000, 1000)),
        # the benchmark's verify-fast workload runs this row
        (True, (1e-3, 600, 300, 2000, 500, 100)),
    ], ids=["acceptance", "fast"])
    def test_rows_are_pinned(self, fast, row):
        ctx = VerificationContext(master_seed=0, fast=fast)
        assert tuple(getattr(ctx, name) for name in self.NAMES) == row

    @pytest.mark.parametrize("fast", [False, True], ids=["acceptance", "fast"])
    def test_exp_horizon_snaps_to_the_grid(self, fast):
        # the Exp(1) tail point of mass 1e-4, 9.2103..., snapped up to the grid
        assert VerificationContext(fast=fast).exp_horizon == 9.211

    def test_fields_are_seed_and_scale(self):
        assert [f.name for f in dataclasses.fields(VerificationContext)] == \
               ["master_seed", "fast"]

    @pytest.mark.parametrize("fast", [False, True], ids=["acceptance", "fast"])
    def test_products_table(self, fast):
        # Each ensemble's model, horizon and path count, built once per
        # (tag, attempt) at the attempt's derived seed.
        ctx = VerificationContext(master_seed=3, fast=fast)
        calls = []

        def record(model, dt, horizon, n_paths, seed, **kwargs):
            calls.append((repr(model.length), horizon, n_paths, kwargs))
            return {}

        with mock.patch.object(verify, "compensator_products", record):
            for tag in ("expA", "uniB", "uniB2", "uniC"):
                prod = ctx.products(tag, 1)
                assert prod == {"seed": ctx.seed_for(tag, 1)}
                assert ctx.products(tag, 1) is prod
        assert len(calls) == 4
        assert [c[0] for c in calls] == ["ExponentialLaw(rate=1)", "UniformLaw(a=0.5, b=2)",
                        "UniformLaw(a=0.5, b=2)", "UniformLaw(a=0.5, b=1.5)"]
        assert [c[1] for c in calls] == [ctx.exp_horizon, 2.0, 2.0, 3.0]
        assert [c[2] for c in calls] == [ctx.n_compensator] * 3 + [500]
        assert [c[3] for c in calls] == [
            dict(probe_times=(0.5, 1.0, 2.0)), dict(probe_times=(0.5, 1.0, 2.0)),
            # filter_tower reads the first probe, the weighted criteria the rest
            dict(probe_times=(0.75, 0.8, 1.2, 1.8), weighted=True),
            dict(probe_times=(1.5, 3.0))]


class TestResolventApproximations:
    def test_rows_do_not_interact(self, two_pin_asymmetric):
        # the first 17 of 30 paths give the A^h of the 17 paths alone, a
        # one-path ensemble its own row, and the table read in groups of 7
        # rows (2 widths x 100 steps each), or of one row, the read in one
        # block, bit for bit
        dt, hs = 0.01, (0.1, 0.03)
        bands = filtering.BandProbabilityCache(two_pin_asymmetric, hs, s_min=dt, s_max=1.0)
        ens = {n: paths.simulate_ensemble(two_pin_asymmetric, dt, 1.0, n, seed=5)
               for n in (30, 17, 1)}
        ah = {n: verify._resolvent_approximations(e, bands) for n, e in ens.items()}
        assert localtime._CELLS >= 30 * 2 * 100  # one block unpatched
        for cells in (7 * 2 * 100, 50):
            with mock.patch.object(localtime, "_CELLS", cells):
                blocked = verify._resolvent_approximations(ens[30], bands)
            for h in hs:
                assert blocked[h].tobytes() == ah[30][h].tobytes()
        for h in hs:
            assert ah[30][h].shape == (30,)
            np.testing.assert_array_equal(ah[30][h][:17], ah[17][h])
            np.testing.assert_array_equal(ah[30][h][:1], ah[1][h])

    def test_band_table_built_once(self, monkeypatch):
        # the table does not depend on the seed: one build serves attempts 0-3
        ctx = VerificationContext(master_seed=3, fast=True)
        builds = []
        table = filtering.BandProbabilityCache

        def counting(*args, **kwargs):
            builds.append(args)
            return table(*args, **kwargs)

        def products(model, dt, horizon, n_paths, seed, **kwargs):
            return {"K_probe": np.zeros((n_paths, 3))}

        monkeypatch.setattr(filtering, "BandProbabilityCache", counting)
        monkeypatch.setattr(verify, "compensator_products", products)
        for attempt in range(4):
            report = verify.criterion_meyer_refinement(ctx, attempt)
            assert report.n == ctx.n_terminal
            assert report.seed == ctx.seed_for("expA", attempt)
        assert len(builds) == 1

    def test_drift_table_built_once(self, monkeypatch):
        # the quadratic-variation drift is read from the same seed-free
        # table, over both criteria's ranges
        ctx = VerificationContext(master_seed=3, fast=True)
        builds = []

        class Counting:
            def __init__(self, model, h, s_min, s_max):
                builds.append((h, s_min, s_max))

            def drift(self, s, x):
                return np.zeros(np.shape(x))

        monkeypatch.setattr(filtering, "BandProbabilityCache", Counting)
        monkeypatch.setattr(ctx, "n_quadratic", 20)
        for attempt in range(4):
            report = verify.criterion_quadratic_variation(ctx, attempt)
            assert report.seed == ctx.seed_for("qv", attempt)
        assert builds == [(ctx.AH_LADDER, ctx.dt_fine, 1.0)]

    @pytest.mark.parametrize("fast", [True, False])
    def test_one_table_for_both_criteria(self, monkeypatch, fast):
        # quadratic_variation and meyer_refinement on one context fill one
        # table, whose range spans both: [1e-3, 1] fast, [1e-4, 1] in full
        ctx = VerificationContext(master_seed=3, fast=fast)
        inits = []

        def counting(table, *args):
            inits.append(args)

        def products(model, dt, horizon, n_paths, seed, **kwargs):
            return {"K_probe": np.zeros((n_paths, 3))}

        monkeypatch.setattr(filtering._Table, "__init__", counting)
        monkeypatch.setattr(verify, "compensator_products", products)
        monkeypatch.setattr(verify, "_resolvent_approximations",
                            lambda ens, bands: {h: np.zeros(len(ens)) for h in bands.h})
        monkeypatch.setattr(filtering, "innovation_path", lambda model, path, drift_fn: path.values)
        monkeypatch.setattr(ctx, "n_quadratic", 2)
        monkeypatch.setattr(ctx, "n_terminal", 2)
        verify.criterion_quadratic_variation(ctx, 0)
        verify.criterion_meyer_refinement(ctx, 0)
        assert len(inits) == 1
        model, widths, s_min, s_max = inits[0]
        assert (tuple(widths), s_min, s_max) == (ctx.AH_LADDER, 1e-3 if fast else 1e-4, 1.0)


class TestMartingaleExpectation:
    def test_unbiased_ensemble_passes(self):
        rng = np.random.default_rng(1)
        target = np.array([0.3, 0.6, 0.9])
        values = target[None, :] + rng.standard_normal((5000, 3))
        rep = martingale_expectation_test("t", values, [1.0, 2.0, 3.0], target)
        assert rep.passed
        assert rep.statistic <= 3.0

    def test_ten_percent_bias_detected_at_acceptance_scale(self):
        # the sensitivity scale of the suite: a x1.1 corruption on values
        # of order one must exceed three standard errors at n=5000
        rng = np.random.default_rng(2)
        target = np.array([0.5, 0.8])
        values = 1.1 * (target[None, :] + 0.5 * rng.standard_normal((5000, 2)))
        rep = martingale_expectation_test("t", values, [1.0, 2.0], target)
        assert not rep.passed

    def test_constant_ensemble_on_target_passes_with_zero_margin(self):
        values = np.full((100, 2), 0.7)
        rep = martingale_expectation_test("t", values, [1.0, 2.0],
                                          np.array([0.7, 0.7]))
        assert rep.passed
        assert rep.statistic == 0.0

    def test_constant_ensemble_off_target_fails(self):
        values = np.full((100, 2), 0.7)
        rep = martingale_expectation_test("t", values, [1.0, 2.0],
                                          np.array([0.7, 0.8]))
        assert not rep.passed

    def test_requires_two_times(self):
        with pytest.raises(ValueError):
            martingale_expectation_test("t", np.ones((10, 1)), [1.0], lambda t: 1.0)


class TestRefinementReport:
    def test_strictly_decreasing_passes(self):
        rep = refinement_report("r", ["a", "b", "c"], [0.1, 0.03, 0.01])
        assert rep.passed

    def test_non_monotone_fails(self):
        rep = refinement_report("r", ["a", "b", "c"], [0.1, 0.12, 0.01])
        assert not rep.passed

    def test_constant_zero_passes(self):
        rep = refinement_report("r", ["a", "b", "c"], [0.0, 0.0, 0.0])
        assert rep.passed

    def test_needs_three_rungs(self):
        with pytest.raises(ValueError):
            refinement_report("r", ["a", "b"], [0.1, 0.01])


class TestReportTypes:
    def test_report_schema(self):
        rep = TestReport(name="x", statistic=1.5, threshold=3.0, passed=True,
                         seed=7, n=100)
        doc = json.loads(json.dumps(rep.to_dict()))
        assert set(doc) == {"name", "statistic", "threshold", "pass", "seed",
                            "n", "retries", "details"}
        assert doc["pass"] is True

    def test_summary_requires_two_paths(self):
        with pytest.raises(ValueError):
            EnsembleSummary.from_values(np.ones((1, 3)), [0.1, 0.2, 0.3])

    def test_summary_stderr(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        s = EnsembleSummary.from_values(values, [0.5, 1.0])
        np.testing.assert_allclose(s.means, [3.0, 4.0])
        np.testing.assert_allclose(s.stderrs, 2.0 / math.sqrt(3))


class TestDeterminism:
    def test_criteria_reports_are_reproducible(self):
        from infobridge.verify import (criterion_bridge_exactness,
                                       criterion_density_consistency)
        a = VerificationContext(master_seed=99, fast=True)
        b = VerificationContext(master_seed=99, fast=True)
        for fn in (criterion_density_consistency, criterion_bridge_exactness):
            assert fn(a, 0).to_dict() == fn(b, 0).to_dict()


class TestDensityConsistency:
    def test_passes_on_every_derived_seed(self):
        # neither form may leave the normal float range or cancel into a
        # steep exponent: every attempt of thirty master seeds is within 1e-12
        for master_seed in range(20260811, 20260841):
            ctx = VerificationContext(master_seed=master_seed, fast=True)
            for attempt in range(4):
                report = criterion_density_consistency(ctx, attempt)
                assert report.statistic <= 1.0, (master_seed, attempt, report.statistic)


class TestRetries:
    @staticmethod
    def _stub(pass_on):
        """A criterion that passes from attempt ``pass_on`` on (never when
        None), recording the attempts it was called with."""
        calls = []

        def criterion(ctx, attempt=0):
            calls.append(attempt)
            passed = pass_on is not None and attempt >= pass_on
            return TestReport(name="stub", statistic=0.0, threshold=0.0,
                              passed=passed, seed=attempt, n=1)
        return criterion, calls

    def test_failing_criterion_runs_once_then_three_retries(self):
        fn, calls = self._stub(None)
        report = run_criterion(None, fn)
        assert calls == [0, 1, 2, 3]
        assert report.retries == 3 and not report.passed

    def test_stops_at_first_pass(self):
        fn, calls = self._stub(2)
        report = run_criterion(None, fn)
        assert calls == [0, 1, 2]
        assert report.retries == 2 and report.passed
