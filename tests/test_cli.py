"""Command-line interface: config handling, outputs, determinism."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import riemann
from infobridge import IntensityKernel, ModelSpec, compensator_K, kernels, paths, verify
from infobridge.cli import main
from infobridge.compensator import save_curve_csv


def _write_config(tmp_path, **overrides):
    doc = {
        "model": {"tau": {"family": "exponential", "rate": 1.0},
                  "pinning": {"points": [0.0], "probs": [1.0]}},
        "dt": 0.01,
        "horizon": 1.0,
        "n_paths": 50,
        "seed": 7,
        "out": str(tmp_path / "out"),
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestSimulate:
    def test_writes_ensemble_and_csv(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        assert (out / "ensemble.bin").exists()
        assert (out / "path_0000.csv").exists()
        text = capsys.readouterr().out
        assert "mean length" in text and "pin frequencies" in text

    def test_deterministic_output_bytes(self, tmp_path):
        cfg_a = _write_config(tmp_path, out=str(tmp_path / "a"))
        main(["simulate", "--config", str(cfg_a)])
        cfg_b = _write_config(tmp_path, out=str(tmp_path / "b"))
        main(["simulate", "--config", str(cfg_b)])
        for name in ("ensemble.bin", "path_0000.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_pin_frequencies_within_three_sigma(self, tmp_path, capsys):
        band = 3.0 * math.sqrt(0.3 * 0.7 / 10_000)
        for attempt in range(3):
            cfg = _write_config(
                tmp_path, n_paths=10_000, dt=0.05, horizon=0.5, seed=7 + attempt,
                model={"tau": {"family": "uniform", "a": 0.5, "b": 2.0},
                       "pinning": {"points": [-1.0, 1.0], "probs": [0.3, 0.7]}})
            assert main(["simulate", "--config", str(cfg)]) == 0
            freq = float(capsys.readouterr().out.rsplit("1: ", 1)[1])
            if abs(freq - 0.7) <= band:
                return
        pytest.fail(f"pin frequency {freq} outside the band three times")

    def test_dt_at_least_horizon_rejected(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, dt=1.0, horizon=1.0)
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "config rejected" in capsys.readouterr().err


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if a command simulates paths or evaluates a tail integral."""
    def fail(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(paths, "_model_block", fail)  # every model ensemble
    monkeypatch.setattr(kernels, "tail_integrals", fail)


class TestRejectedInput:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--seed", "-1"],
        ["simulate", "--dt", "0.3", "--horizon", "1"],
        ["posterior", "--t", "2.5", "--x", "0.0"],
        ["compensator", "--paths", "1"],
        ["compensator", "--dt", "4", "--horizon", "8"],
        ["compensator", "--dt", "5", "--horizon", "10"],
        ["posterior", "--t", "0.5", "--x", "inf"],
        ["posterior", "--t", "0.5", "--x=-inf"],
        ["posterior", "--t", "0.5", "--x", "nan"],
        ["posterior", "--t", "nan", "--x", "0.0"],
    ], ids=["negative-seed", "horizon-off-grid", "t-past-support", "one-path",
            "midpoint-at-sup", "midpoint-past-sup", "inf-x", "minus-inf-x", "nan-x", "nan-t"])
    def test_exits_2_before_any_work(self, tmp_path, capsys, no_work, argv):
        # U(0.5, 2) puts t = 2.5 past the support supremum, and the first
        # step midpoint dt / 2 of the kernel grid at or past it; argparse
        # reads inf and nan as floats
        cfg = _write_config(tmp_path, model={"tau": {"family": "uniform", "a": 0.5, "b": 2.0},
                                             "pinning": {"points": [-1.0, 1.0],
                                                         "probs": [0.5, 0.5]}})
        assert main([*argv, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config rejected:") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc", [
        '{"n_paths": 2.5}',
        '{"n_paths": true}',
        '{"seed": 7.5}',
        '{"seed": true}',
        '{"horizon": Infinity}',
        '{"dt": NaN}',
        '{"out": 5}',
        '[1, 2]',
        '{"model": {"tau": {"family": "exponential", "rate": NaN},'
        ' "pinning": {"points": [0.0], "probs": [1.0]}}}',
        '{"model": {"tau": {"family": "exponential", "rate": 1.0},'
        ' "pinning": {"points": [Infinity], "probs": [1.0]}}}',
        '{"dt": true}',
        '{"horizon": true}',
        '{"model": {"tau": {"family": "exponential", "rate": true},'
        ' "pinning": {"points": [0.0], "probs": [1.0]}}}',
        '{"model": {"tau": {"family": "exponential", "rate": 1.0},'
        ' "pinning": {"points": [false], "probs": [1.0]}}}',
        '{"model": {"tau": {"family": "exponential", "rate": 1.0},'
        ' "pinning": {"points": [0.0], "probs": [true]}}}',
    ], ids=["float-paths", "bool-paths", "float-seed", "bool-seed", "infinite-horizon",
            "nan-dt", "int-out", "not-an-object", "nan-rate", "infinite-pin", "bool-dt",
            "bool-horizon", "bool-rate", "bool-pin", "bool-weight"])
    def test_bad_config_document_exits_2(self, tmp_path, capsys, monkeypatch, no_work, doc):
        # JSON reads NaN, Infinity and true; none of them is a usable value here
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "config.json"
        cfg.write_text(doc)
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config rejected:") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
    def test_unreadable_config_exits_3(self, tmp_path, capsys, monkeypatch, no_work, name):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--config", str(tmp_path / name)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("io failure:") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestPosterior:
    def test_survival_curve_anchors(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert main(["posterior", "--config", str(cfg), "--t", "0.5", "--x", "0.2"]) == 0
        rows = np.loadtxt(tmp_path / "out" / "survival.csv", delimiter=",", skiprows=1)
        assert rows[0, 0] == 0.5 and rows[0, 1] == 1.0
        assert np.all(np.diff(rows[:, 1]) <= 1e-12)

    def test_late_observation_curve_runs_past_t(self, tmp_path):
        # On the default Exp(1) model the curve ends at 16.91, where 1e-3 of
        # the law's tail past t = 10 remains; it used to end at its prior
        # quantile(0.999) = 6.91, before t.
        out = tmp_path / "out"
        assert main(["posterior", "--t", "10", "--x", "0", "--out", str(out)]) == 0
        rows = np.loadtxt(out / "survival.csv", delimiter=",", skiprows=1)
        assert rows[0, 0] == 10.0 and rows[-1, 0] > 10.0 and rows[0, 1] == 1.0
        assert np.all(np.isfinite(rows)) and np.all((rows[:, 1] >= 0.0) & (rows[:, 1] <= 1.0))
        assert np.all(np.diff(rows[:, 1]) <= 0.0)

    def test_past_the_prior_cut_writes_finite_curves(self, tmp_path):
        # t = 30 lies past where 1e-10 of the prior Exp(1) law remains (about
        # 23), where the tail quadrature used to stop; it cuts the tail past t
        out = tmp_path / "out"
        assert main(["posterior", "--t", "30", "--x", "0", "--out", str(out)]) == 0
        rows = np.loadtxt(out / "survival.csv", delimiter=",", skiprows=1)
        assert rows[0].tolist() == [30.0, 1.0]
        assert rows[-1, 0] == pytest.approx(30.0 - math.log(1e-3))
        assert np.all((rows[:, 1] >= 0.0) & (rows[:, 1] <= 1.0))
        assert np.all(np.diff(rows[:, 1]) <= 0.0)
        j = int(np.argmin(np.abs(rows[:, 0] - 31.0)))
        oracle = riemann.survival(30.0, 0.0, rows[j, 0], [0.0], [1.0], riemann.exp_pdf(), 90.0)
        assert rows[j, 1] == pytest.approx(oracle, rel=1e-6)
        pins = np.loadtxt(out / "pin_posterior.csv", delimiter=",", skiprows=1)
        assert pins.tolist() == [0.0, 1.0]

    def test_unsettled_band_sums_exit_with_quadrature_code(self, tmp_path, capsys):
        # Gamma(2) with far pins, observed far from them at a tiny time: the
        # band pin sums cannot settle, so no curve is written
        cfg = _write_config(tmp_path, model={
            "tau": {"family": "gamma", "shape": 2.0},
            "pinning": {"points": [-30.0, 0.5, 40.0], "probs": [0.3, 0.4, 0.3]}})
        assert main(["posterior", "--config", str(cfg), "--t", "1e-8", "--x", "50"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("quadrature failure:") and err.count("\n") == 1
        # the 200 band edges of the curve are reported as a count and a range
        assert len(err) < 300 and "s=1e-08" in err and "200 band edges in [" in err
        assert "panels=" in err
        assert not any((tmp_path / "out").iterdir())

    def test_survival_matches_quadrature_oracle(self, tmp_path):
        cfg = _write_config(tmp_path)
        main(["posterior", "--config", str(cfg), "--t", "0.5", "--x", "0.2"])
        rows = np.loadtxt(tmp_path / "out" / "survival.csv", delimiter=",", skiprows=1)
        j = int(np.argmin(np.abs(rows[:, 0] - 1.0)))
        oracle = riemann.survival(0.5, 0.2, rows[j, 0], [0.0], [1.0],
                                  riemann.exp_pdf(), 60.0)
        assert rows[j, 1] == pytest.approx(oracle, rel=1e-6)

    def test_early_posterior_recovers_prior(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            model={"tau": {"family": "exponential", "rate": 1.0},
                   "pinning": {"points": [-1.0, 1.0], "probs": [0.3, 0.7]}})
        assert main(["posterior", "--config", str(cfg), "--t", "1e-6", "--x", "0.0"]) == 0
        rows = np.loadtxt(tmp_path / "out" / "pin_posterior.csv", delimiter=",", skiprows=1)
        np.testing.assert_allclose(rows[:, 1], [0.3, 0.7], atol=1e-4)

    def test_nonpositive_t_rejected(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert main(["posterior", "--config", str(cfg), "--t", "0", "--x", "0.0"]) == 2

    @pytest.mark.parametrize("quadrature", [{"rel_tol": 1e-7, "truncation_mass": 1e-9},
                                            {"rel_tol": -1.0}, {}])
    def test_quadrature_field_rejected(self, tmp_path, capsys, quadrature):
        # the quadrature rules are fixed, so the field is unknown at any value
        cfg = _write_config(tmp_path, quadrature=quadrature)
        assert main(["posterior", "--config", str(cfg), "--t", "0.5", "--x", "0.2"]) == 2
        assert capsys.readouterr().err.startswith("config rejected:")


class TestCompensatorCommand:
    def test_summary_and_curve(self, tmp_path):
        cfg = _write_config(tmp_path, n_paths=40, dt=0.005, horizon=2.0)
        assert main(["compensator", "--config", str(cfg)]) == 0
        summary = json.loads((tmp_path / "out" / "compensator_summary.json").read_text())
        assert set(summary) == {"n", "t", "mean", "stderr"}
        assert summary["n"] == 40
        curve = np.loadtxt(tmp_path / "out" / "compensator_path0.csv",
                           delimiter=",", skiprows=1)
        assert np.all(np.diff(curve[:, 1]) >= 0.0)

    def test_matches_per_path_route(self, tmp_path, monkeypatch):
        # The ensemble summary is the per-path route's, byte for byte: each
        # path's compensator_K, a one-row ensemble, gives its row of the
        # reduction.  A budget of 500 rows of 201 grid values streams the
        # 1,100 paths in 3 blocks.
        monkeypatch.setattr(paths, "_CELLS", 500 * 201)
        model_doc = {"tau": {"family": "uniform", "a": 0.5, "b": 2.0},
                     "pinning": {"points": [-1.0, 1.0], "probs": [0.5, 0.5]}}
        dt, horizon, n = 0.01, 2.0, 1100
        cfg = _write_config(tmp_path, model=model_doc, dt=dt, horizon=horizon, n_paths=n)
        assert main(["compensator", "--config", str(cfg)]) == 0

        model = ModelSpec.from_dict(model_doc)
        kernel = IntensityKernel(model, dt, horizon)
        probes = [0.5, 1.0, 1.5, 2.0]
        idx = [int(round(t / dt)) for t in probes]
        curves = [compensator_K(model, p, kernel)
                  for p in paths.simulate_ensemble(model, dt, horizon, n, seed=7)]
        prod = verify.compensator_products(model, dt, horizon, n, seed=7, probe_times=probes)
        # in the pipeline's layout, since the summary adds along the paths
        rows = np.array([c.values[idx] for c in curves],
                        order="F" if prod["K_probe"].flags.f_contiguous else "C")
        assert rows.tobytes(order="A") == prod["K_probe"].tobytes(order="A")
        out = tmp_path / "out"
        summary = json.loads((out / "compensator_summary.json").read_text())
        assert summary == verify.EnsembleSummary.from_values(rows, probes).to_dict()
        # Path 0's curve is row 0 of the ensemble reduction, written as is.
        assert curves[0].values.tobytes() == prod["K_path0"].tobytes()
        save_curve_csv(curves[0], tmp_path / "row0.csv")
        assert (out / "compensator_path0.csv").read_bytes() == \
               (tmp_path / "row0.csv").read_bytes()

    def test_summary_is_the_ensemble_reduction(self, tmp_path):
        # The command's summary is the verification suite's reduction.
        model_doc = {"tau": {"family": "exponential", "rate": 1.0},
                     "pinning": {"points": [-1.0, 1.0], "probs": [0.3, 0.7]}}
        dt, horizon, n = 0.01, 2.0, 300
        cfg = _write_config(tmp_path, model=model_doc, dt=dt, horizon=horizon, n_paths=n)
        assert main(["compensator", "--config", str(cfg)]) == 0

        probes = [0.5, 1.0, 1.5, 2.0]
        prod = verify.compensator_products(ModelSpec.from_dict(model_doc), dt, horizon, n,
                                           seed=7, probe_times=probes)
        expect = verify.EnsembleSummary.from_values(prod["K_probe"], probes)
        summary = json.loads((tmp_path / "out" / "compensator_summary.json").read_text())
        assert summary["n"] == n and summary["t"] == probes
        np.testing.assert_allclose(summary["mean"], expect.means, rtol=1e-12)
        np.testing.assert_allclose(summary["stderr"], expect.stderrs, rtol=1e-12)

    def test_builds_one_kernel(self, tmp_path, monkeypatch):
        # the path-0 curve reuses the kernel of the ensemble reduction
        builds = []
        init = IntensityKernel.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(IntensityKernel, "__init__", counting_init)
        cfg = _write_config(tmp_path, n_paths=20, dt=0.01, horizon=1.0)
        assert main(["compensator", "--config", str(cfg)]) == 0
        assert len(builds) == 1

    @pytest.mark.parametrize("c", [0.0, -1.0, 0.25])
    def test_nonpositive_bandwidth_rejected(self, tmp_path, capsys, c):
        # the local-time estimator has no bandwidth, so the field is unknown
        # at any value, the nonpositive ones included
        cfg = _write_config(tmp_path, bandwidth_c=c)
        assert main(["compensator", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config rejected:")

    def test_summary_times_are_the_grid_times_read(self, tmp_path):
        # dt 0.3 puts the quarters 0.225, 0.45 and 0.675 of the horizon 0.9
        # off the grid: the summary labels the grid times whose K it reports
        cfg = _write_config(tmp_path, dt=0.3, horizon=0.9, n_paths=50, seed=0)
        assert main(["compensator", "--config", str(cfg)]) == 0
        summary = json.loads((tmp_path / "out" / "compensator_summary.json").read_text())
        assert summary["t"] == [0.3, 0.6, 0.6, 0.9]
        model = ModelSpec.from_dict(json.loads(cfg.read_text())["model"])
        prod = verify.compensator_products(model, 0.3, 0.9, 50, seed=0, probe_times=summary["t"])
        assert summary["mean"] == prod["K_probe"].mean(axis=0).tolist()

    def test_horizon_30_kernel_matches_closed_form(self, tmp_path, monkeypatch):
        # Past where 1e-10 of the prior Exp(1) law remains (about 23) the
        # kernel is built from the tail past each node; with one pin at 0 it
        # has a closed form.
        kernels_built = []
        init = IntensityKernel.__init__

        def keeping_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            kernels_built.append(self)

        monkeypatch.setattr(IntensityKernel, "__init__", keeping_init)
        assert main(["compensator", "--horizon", "30", "--paths", "50", "--out",
                     str(tmp_path)]) == 0
        (kern,) = kernels_built
        assert kern.s_grid[-1] == 30.0
        np.testing.assert_allclose(kern(kern.s_grid)[0], riemann.gamma_intensity(kern.s_grid, 1.0),
                                   rtol=1e-8)
        summary = json.loads((tmp_path / "compensator_summary.json").read_text())
        curve = np.loadtxt(tmp_path / "compensator_path0.csv", delimiter=",", skiprows=1)
        assert np.all(np.isfinite(summary["mean"])) and np.all(np.isfinite(curve))

    def test_kernel_failure_exits_with_quadrature_code(self, tmp_path, capsys, monkeypatch):
        # a kernel that cannot be built fails the command before simulating
        def failing_init(self, *args, **kwargs):
            raise kernels.QuadratureError("tail quadrature did not converge")

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulation started")

        monkeypatch.setattr(IntensityKernel, "__init__", failing_init)
        monkeypatch.setattr(paths, "iter_ensemble_chunks", no_simulation)
        assert main(["compensator", "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("quadrature failure:") and err.count("\n") == 1


class TestVerifyCommand:
    def test_explicit_seed_zero_is_honoured(self, tmp_path, monkeypatch):
        # One cheap criterion stands in for the suite: only the seed
        # plumbing from the command line to the reports is under test.
        monkeypatch.setattr(verify, "CRITERIA", [
            ("density_consistency", verify.criterion_density_consistency)])
        seeds = {}
        for name, argv in (("zero", ["--seed", "0"]), ("absent", [])):
            out = tmp_path / name
            assert main(["verify", "--fast", "--out", str(out), *argv]) == 0
            (report,) = json.loads((out / "reports.json").read_text())
            seeds[name] = report["seed"]
        assert seeds["zero"] == verify.VerificationContext(master_seed=0).seed_for("density", 0)
        assert seeds["absent"] == verify.VerificationContext(
            master_seed=20260810).seed_for("density", 0)
        assert seeds["zero"] != seeds["absent"]

    def test_corrupt_kernel_option_rejected(self, tmp_path, capsys):
        # kernel corruption is checked by the kernel_sensitivity criterion alone
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--fast", "--corrupt-kernel", "1.1", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--corrupt-kernel" in capsys.readouterr().err
        assert not (tmp_path / "reports.json").exists()

    def test_fast_smoke_reports_and_determinism(self, tmp_path):
        cfg = _write_config(tmp_path, seed=20260810)
        code = main(["verify", "--config", str(cfg), "--fast"])
        first = (tmp_path / "out" / "reports.json").read_bytes()
        reports = json.loads(first)
        assert len(reports) == 13
        for rep in reports:
            assert {"name", "statistic", "threshold", "pass", "seed", "n",
                    "retries", "details"} <= set(rep)
        # exit code mirrors the report verdicts
        assert code == (1 if any(not r["pass"] for r in reports) else 0)
        # identical seed, identical bytes
        cfg2 = _write_config(tmp_path, seed=20260810, out=str(tmp_path / "out2"))
        main(["verify", "--config", str(cfg2), "--fast"])
        assert (tmp_path / "out2" / "reports.json").read_bytes() == first
