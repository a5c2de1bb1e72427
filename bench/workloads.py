"""The benchmark's three workloads: set-up, timed work and checks.

Every workload is a class with

* ``__init__(seed, tiny)``: the set-up.  It makes every input from the
  seed (observed paths, query states) and is timed as ``setup_s``.
* ``timed()``: the work timed as ``wall_s``; returns the outputs to check.
* ``check(outputs)``: the operations of one round as ``(name, ok)`` pairs.
  Every check compares an output of the library with a property the model
  must satisfy or with a computation made apart from the library.
* ``stats``: the statistic of each statistical check of the last round, for
  the log.

A round is ``timed()`` then ``check()``; a run repeats whole rounds, so the
share of failed operations is the same in every run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np
from scipy import integrate

from infobridge import cli, compensator, filtering, paths
from infobridge.laws import ExponentialLaw, ModelSpec, PinningLaw, UniformLaw

import riemann  # tests/riemann.py: brute-force oracle written apart from the library

DT = 1e-3
# verify-fast runs the criteria at the library's master seed on every
# benchmark seed: at --fast scale other master seeds make criteria retry,
# and each retry adds up to half the run, so wall_s would measure the seed.
# Never pass 0: cli.py runs `cfg.seed or 20260810`.
VERIFY_MASTER_SEED = 20260810
SURVIVAL_H = 0.1    # a scalar query asks for survival to s + 0.1 ...
TRANSITION_H = 0.01  # ... and for the transition law to s + 0.01
BAND_SIGMAS = 3.0   # band of the compensator probe checks
TOWER_SIGMAS = 5.0  # band of the filter's ensemble-mean checks (see README)
QV_REL = 0.02
KERNEL_REL = 1e-3

#: Operations that fail on every seed because of a known fault of the
#: library, keyed by name prefix; any other failed operation makes the run
#: incorrect.
KNOWN_FAULTS = {
    "compensator.probe": "(a) left-endpoint local time at bandwidth 2 sqrt(dt) biases K low",
    "edge.exp_past_truncation": "(b) NaN past the truncation quantile of Exp(1)",
    "edge.uni_drift": "(c) QuadratureError in drift of U(0.5,2), pins (-1, 2)",
    "edge.kernel_horizon_30": "(d) intensity denominator underflows for Exp(1) at horizon 30",
}


def model_exp():
    """Exp(1) length, single pin at 0: the default model of the CLI."""
    return ModelSpec(ExponentialLaw(1.0), PinningLaw([0.0], [1.0]))


def model_uni():
    """U(0.5, 2) length, pins -1 and 2 with weights 0.6 and 0.4."""
    return ModelSpec(UniformLaw(0.5, 2.0), PinningLaw([-1.0, 2.0], [0.6, 0.4]))


# Closed forms of the two length laws, written apart from the library:
# (pdf, survival function, lower support edge, upper edge for the oracle).
LAWS = {
    "exp": (lambda r: np.exp(-r), lambda u: math.exp(-u), 0.0, 60.0),
    "uni": (lambda r: np.where((r >= 0.5) & (r <= 2.0), 1.0 / 1.5, 0.0),
            lambda u: min(max((2.0 - u) / 1.5, 0.0), 1.0), 0.5, 2.0),
}


def derived_seed(seed, tag):
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def sample_states(ens, n, seed, s_lo, s_hi):
    """``n`` not-yet-absorbed grid states (s, x) of an ensemble, with s in
    [s_lo, s_hi], drawn uniformly over (path, step) by rejection."""
    rng = np.random.default_rng(seed)
    k_lo, k_hi = int(math.ceil(s_lo / ens.dt)), int(math.floor(s_hi / ens.dt))
    states = []
    while len(states) < n:
        i = int(rng.integers(len(ens)))
        k = int(rng.integers(k_lo, k_hi + 1))
        if k < ens.absorbed_indices[i]:
            states.append((k * ens.dt, float(ens.values[i, k])))
    return states


def observer_query(model, s, x):
    """One scalar observer query: posterior, survival, transition law and
    drift at the state (s, x)."""
    post = filtering.posterior(model, s, x)
    surv = post.survival(s + SURVIVAL_H)
    law = filtering.transition_law(model, s, x, s + TRANSITION_H)
    mu = filtering.drift(model, s, x)
    return post.pin_probs, surv, law.atoms, mu


def query_ok(pins, surv, atoms, mu):
    """Pin weights sum to 1, survival and atoms are probabilities, and
    survival to s + 0.1 does not exceed survival to s + 0.01."""
    values = np.concatenate([pins, [surv], atoms, [mu]])
    if not np.all(np.isfinite(values)):
        return False
    return bool(abs(pins.sum() - 1.0) <= 1e-9 and np.all((pins >= 0.0) & (pins <= 1.0))
                and 0.0 <= surv <= 1.0 and np.all(atoms >= 0.0)
                and atoms.sum() <= 1.0 + 1e-9 and surv <= 1.0 - atoms.sum() + 1e-9)


def query_ops(states, results):
    return [(f"query.{key}", query_ok(*res)) for (key, *_), res in zip(states, results)]


def oracle_ok(key, model, s, x, result, n=10 ** 6):
    """A scalar query against midpoint Riemann sums of the model's
    integrals (``tests/riemann.py``)."""
    pins_got, surv_got, _, mu_got = result
    pdf, _, lo, r_max = LAWS[key]
    pins, probs = model.pinning.points, model.pinning.probs
    per_pin = np.array([riemann.mixture_tail(s, x, [z], [1.0], pdf, r_max,
                                             lower=max(s, lo), n=n) for z in pins])
    total = probs @ per_pin
    u = s + SURVIVAL_H
    tail = (riemann.mixture_tail(s, x, pins, probs, pdf, r_max, lower=max(u, lo), n=n)
            if u < r_max else 0.0)
    mu = riemann.drift(s, x, pins, probs, pdf, r_max, n=n, lower=max(s, lo))
    return bool(np.all(np.abs(pins_got - probs * per_pin / total) <= 1e-6)
                and abs(surv_got - tail / total) <= 1e-6 * max(tail / total, 1e-3)
                and abs(mu_got - mu) <= 1e-5 * max(abs(mu), 1e-2))


def sigmas_off(values, target):
    """Distance of the mean of ``values`` from ``target`` in standard errors
    (0 when the mean sits exactly on it)."""
    values = np.asarray(values, dtype=float)
    dev = abs(values.mean() - target)
    if dev == 0.0:
        return 0.0
    return float(dev / (values.std(ddof=1) / math.sqrt(values.size)))


def sigma_op(stats, name, values, target, sigmas):
    """Operation ``name``: the mean of ``values`` lies within ``sigmas``
    standard errors of ``target``; the distance is kept in ``stats``."""
    stats[name] = sigmas_off(values, target)
    return name, stats[name] <= sigmas


def finite_in_range(*arrays, lo=-math.inf, hi=math.inf):
    values = np.concatenate([np.ravel(np.asarray(a, dtype=float)) for a in arrays])
    return bool(np.all(np.isfinite(values)) and np.all((values >= lo) & (values <= hi)))


def attempt(op):
    """Run an edge-state operation; an exception counts as its result."""
    try:
        return op()
    except Exception as exc:  # noqa: BLE001 - the failure is the measured outcome
        return exc


def quiet_cli(argv):
    """``infobridge <argv>`` in this process; returns the exit code and what
    it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class VerifyFast:
    """``infobridge verify --fast``: 13 criteria on 4 models; table builds
    over the grid quadrature take most of the time.  Its inputs do not
    depend on the seed (see VERIFY_MASTER_SEED)."""

    def __init__(self, seed, tiny, out_dir):
        self.out_dir = out_dir
        self.stats = {}

    def timed(self):
        return quiet_cli(["verify", "--fast", "--seed", str(VERIFY_MASTER_SEED),
                          "--out", self.out_dir])

    def check(self, outputs):
        code, _ = outputs
        with open(os.path.join(self.out_dir, "reports.json")) as fh:
            reports = json.load(fh)
        ops = [(f"verify.{r['name']}", bool(r["pass"])) for r in reports]
        self.stats["verify.retries"] = sum(r["retries"] for r in reports)
        ops.append(("verify.report_count", len(reports) == 13))
        ops.append(("verify.exit_code", (code == 0) == all(r["pass"] for r in reports)))
        return ops


class CompensatorEnsemble:
    """``infobridge compensator`` on the default model: dt 1e-3, horizon 2,
    40,000 paths; simulation, local time and the per-path Stieltjes sum.
    At 20,000 paths fault (a) sat as close as 5.6 SE to the probes' 3 SE
    band; at 40,000 it sits 6.6 to 11 SE away, so it fails on every seed."""

    probes = (0.5, 1.0, 1.5, 2.0)  # the command's probes: horizon * k / 4

    def __init__(self, seed, tiny, out_dir):
        self.out_dir = out_dir
        self.stats = {}
        self.n_paths = 200 if tiny else 40_000
        self.seed = derived_seed(seed, 3)
        self.model = model_exp()

    def timed(self):
        return quiet_cli(["compensator", "--seed", str(self.seed), "--paths", str(self.n_paths),
                          "--dt", str(DT), "--horizon", "2", "--out", self.out_dir])

    @staticmethod
    def exact_kernel(s):
        """Intensity of Exp(1) with one pin at 0 by scipy quadrature:
        e^-s sqrt(2 pi s) / int_s^inf e^-r sqrt(2 pi r) p(r - s, 0) dr, with
        r = s + v^2 to remove the endpoint singularity."""
        den, _ = integrate.quad(lambda v: 2.0 * math.exp(-s - v * v) * math.sqrt(s + v * v),
                                0.0, math.inf, epsabs=0.0, epsrel=1e-11, limit=200)
        return math.exp(-s) * math.sqrt(2.0 * math.pi * s) / den

    def check(self, outputs):
        code, _ = outputs
        ops = [("compensator.exit_code", code == 0)]
        with open(os.path.join(self.out_dir, "compensator_summary.json")) as fh:
            summary = json.load(fh)
        ops.append(("compensator.summary_times", summary["t"] == list(self.probes)
                    and summary["n"] == self.n_paths))
        for t, mean, se in zip(summary["t"], summary["mean"], summary["stderr"]):
            name = f"compensator.probe_t{t:g}"
            self.stats[name] = (mean - (1.0 - math.exp(-t))) / se
            ops.append((name, abs(self.stats[name]) <= BAND_SIGMAS))
        curve = np.loadtxt(os.path.join(self.out_dir, "compensator_path0.csv"),
                           delimiter=",", skiprows=1)[:, 1]
        ops.append(("compensator.path0_monotone",
                    bool(curve[0] == 0.0 and np.all(np.diff(curve) >= 0.0))))
        kernel = compensator.IntensityKernel(self.model, DT, 2.0)
        for s in np.geomspace(DT, 2.0, 20):
            exact = self.exact_kernel(float(s))
            ops.append((f"compensator.kernel_s{s:.4g}",
                        abs(float(kernel(s)[0]) - exact) <= KERNEL_REL * exact))
        return ops


class FilterSweep:
    """The observer's use of the filter on Exp(1)/pin 0 and on U(0.5,2) with
    pins (-1, 2): a drift table per model, the innovation of every observed
    path, ensemble queries at checkpoint times, scalar observer queries, and
    the known edge states."""

    checkpoints = {"exp": (0.25, 0.5, 1.0), "uni": (0.25, 0.5, 1.0, 1.5)}
    horizons = {"exp": 1.0, "uni": 2.0}
    query_s_max = {"exp": 1.0, "uni": 1.9}

    def __init__(self, seed, tiny, out_dir):
        self.stats = {}
        n_paths = 100 if tiny else 4000
        n_queries = 30 if tiny else 600
        self.n_oracle = 1 if tiny else 3
        self.models = {"exp": model_exp(), "uni": model_uni()}
        self.ensembles = {}
        self.query_states = []
        for tag, (key, model) in enumerate(self.models.items()):
            ens = paths.simulate_ensemble(model, DT, self.horizons[key], n_paths,
                                          derived_seed(seed, 10 + tag))
            self.ensembles[key] = ens
            self.query_states += [(key, model, s, x) for s, x in sample_states(
                ens, n_queries, derived_seed(seed, 20 + tag), 0.01, self.query_s_max[key])]

    def _sweep(self, key):
        model, ens = self.models[key], self.ensembles[key]
        cache = filtering.DriftCache(model, s_min=DT, s_max=self.horizons[key])
        innovations = np.empty_like(ens.values)
        for i in range(len(ens)):
            innovations[i] = filtering.innovation_path(model, ens.path(i), drift_fn=cache)
        at = {}
        for t in self.checkpoints[key]:
            xs = ens.values[ens.absorbed_indices > round(t / DT), round(t / DT)]
            at[t] = (filtering.pin_posterior(model, t, xs),
                     filtering.survival_probability(model, t, xs, t + 0.25),
                     filtering.survival_probability(model, t, xs, t + 0.5),
                     filtering.drift(model, t, xs))
        return innovations, at

    def _edges(self):
        """The known faulty edge states (b), (c) and (d): name -> (result,
        range)."""
        exp, uni = self.models["exp"], self.models["uni"]
        unit, real = (0.0, 1.0), (-math.inf, math.inf)
        return {
            "edge.exp_past_truncation.drift":
                (attempt(lambda: filtering.drift(exp, 30.0, 0.0)), real),
            "edge.exp_past_truncation.pin_posterior":
                (attempt(lambda: filtering.pin_posterior(exp, 30.0, 0.0)), unit),
            "edge.exp_past_truncation.survival":
                (attempt(lambda: filtering.survival_probability(exp, 30.0, 0.0, 31.0)), unit),
            "edge.uni_drift.far_state":
                (attempt(lambda: filtering.drift(uni, 1.0, 60.0)), real),
            "edge.uni_drift.support_edge":
                (attempt(lambda: filtering.drift(uni, 2.0 - 5e-4, 0.0)), real),
            "edge.kernel_horizon_30": (attempt(lambda: compensator.IntensityKernel(
                exp, DT, 30.0)(np.geomspace(DT, 30.0, 50))), (0.0, math.inf)),
        }

    def timed(self):
        sweeps = {key: self._sweep(key) for key in self.models}
        results = [observer_query(model, s, x) for _, model, s, x in self.query_states]
        return sweeps, results, self._edges()

    def _sweep_ops(self, key, innovations, at):
        model, ens = self.models[key], self.ensembles[key]
        _, survival, _, _ = LAWS[key]
        ops = []
        for t, (pins, surv1, surv2, mu) in at.items():
            j = round(t / DT)
            alive = ens.absorbed_indices > j
            ops.append((f"filter.{key}.range_t{t:g}",
                        finite_in_range(pins, surv1, surv2, lo=0.0, hi=1.0)
                        and finite_in_range(mu)
                        and bool(np.all(np.abs(pins.sum(axis=0) - 1.0) <= 1e-9))
                        and bool(np.all(surv2 <= surv1 + 1e-12))))
            u = t + 0.25
            est = (ens.taus > u).astype(float)
            est[alive] = surv1
            ops.append(sigma_op(self.stats, f"filter.{key}.tower_survival_t{t:g}",
                                est, survival(u), TOWER_SIGMAS))
            if len(model.pinning) > 1:
                est = ens.zs.copy()
                est[alive] = model.pinning.points @ pins
                ops.append(sigma_op(self.stats, f"filter.{key}.tower_pin_t{t:g}", est,
                                    float(model.pinning.points @ model.pinning.probs),
                                    TOWER_SIGMAS))
            ops.append(sigma_op(self.stats, f"filter.{key}.innovation_mean_t{t:g}",
                                innovations[:, j], 0.0, TOWER_SIGMAS))
        times = np.array(self.checkpoints[key])
        idx = np.round(times / DT).astype(int)
        qv = np.cumsum(np.diff(innovations, axis=1) ** 2, axis=1)[:, idx - 1].mean(axis=0)
        clock = np.minimum(ens.taus[:, None], times[None, :]).mean(axis=0)
        name = f"filter.{key}.innovation_qv"
        self.stats[name] = float(np.max(np.abs(qv - clock) / clock))
        ops.append((name, self.stats[name] <= QV_REL))
        return ops

    def check(self, outputs):
        sweeps, results, edges = outputs
        ops = []
        for key, (innovations, at) in sweeps.items():
            ops += self._sweep_ops(key, innovations, at)
        ops += query_ops(self.query_states, results)
        for key in self.models:
            picked = [(st, res) for st, res in zip(self.query_states, results)
                      if st[0] == key][:self.n_oracle]
            for (_, model, s, x), res in picked:
                ops.append((f"filter.{key}.oracle_s{s:g}", oracle_ok(key, model, s, x, res)))
        for name, (value, (lo, hi)) in edges.items():
            ops.append((name, not isinstance(value, Exception)
                        and finite_in_range(value, lo=lo, hi=hi)))
        return ops


WORKLOADS = {
    "verify-fast": VerifyFast,
    "compensator-ensemble": CompensatorEnsemble,
    "filter-sweep": FilterSweep,
}
