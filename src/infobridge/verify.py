"""Statistical verification of the model's exact identities at desk scale.

The identities under test are exact in the continuum (compensated
indicators are martingales, the terminal compensator is standard
exponential, the innovation is a stopped Brownian motion); Monte Carlo
noise is the only legitimate slack.  Acceptance bands are therefore always
3 measured standard errors (or a Kolmogorov-Smirnov p-value above 0.01),
never hard-coded absolute tolerances, and every stochastic test is seeded
with up to three retries on fresh seeds derived deterministically from the
master seed.  A suite run with a fixed master seed is bitwise reproducible.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import compensator as comp
from . import filtering, localtime, paths
from .kernels import bridge_marginal_density, log_gaussian_density
from .laws import ExponentialLaw, ModelSpec, PinningLaw, UniformLaw

__all__ = [
    "EnsembleSummary",
    "TestReport",
    "ks_statistic",
    "kolmogorov_pvalue",
    "ks_test",
    "ks_test_exponential",
    "martingale_expectation_test",
    "refinement_report",
    "VerificationContext",
    "MAX_RETRIES",
    "run_criterion",
    "run_verification_suite",
    "CRITERIA",
]


# ---------------------------------------------------------------------------
# Reports and summaries
# ---------------------------------------------------------------------------


@dataclass
class EnsembleSummary:
    """Per-time means with standard errors for an ensemble quantity."""

    n_paths: int
    times: np.ndarray
    means: np.ndarray
    stderrs: np.ndarray

    @classmethod
    def from_values(cls, values, times):
        values = np.atleast_2d(np.asarray(values, dtype=float))
        n = values.shape[0]
        if n < 2:
            raise ValueError("need at least two paths for a standard error")
        return cls(n_paths=n, times=np.asarray(times, dtype=float),
                   means=values.mean(axis=0),
                   stderrs=values.std(axis=0, ddof=1) / math.sqrt(n))

    def to_dict(self):
        return {"n": self.n_paths, "t": self.times.tolist(),
                "mean": self.means.tolist(), "stderr": self.stderrs.tolist()}


@dataclass
class TestReport:
    """Outcome of one statistical check; serializable and deterministic
    given the seed."""

    __test__ = False  # not a pytest collectable despite the name

    name: str
    statistic: float
    threshold: float
    passed: bool
    seed: int
    n: int
    retries: int = 0
    details: dict = field(default_factory=dict)

    def to_dict(self):
        return {"name": self.name, "statistic": self.statistic,
                "threshold": self.threshold, "pass": self.passed,
                "seed": self.seed, "n": self.n, "retries": self.retries,
                "details": self.details}

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: statistic={self.statistic:.6g} "
                f"threshold={self.threshold:.6g} n={self.n} seed={self.seed}"
                + (f" retries={self.retries}" if self.retries else ""))


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov machinery
# ---------------------------------------------------------------------------


def ks_statistic(samples, cdf):
    """One-sample sup distance between the empirical CDF and ``cdf``."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    f = np.asarray(cdf(x), dtype=float)
    steps = np.arange(1, n + 1) / n
    return float(max(np.max(steps - f), np.max(f - (steps - 1.0 / n))))


def kolmogorov_pvalue(d, n):
    """Asymptotic p-value of the KS statistic via the Kolmogorov series.

    The p-value is 1.0 where the Kolmogorov CDF, ``sqrt(2 pi) / lam *
    exp(-pi^2 / (8 lam^2))`` to leading order, is under half an ulp of 1:
    below lam ~ 0.17, where 100 terms of the alternating series do not
    converge for lam < 0.04."""
    lam = math.sqrt(n) * d
    if lam <= 0.0 or 1.0 - math.sqrt(2.0 * math.pi) * (
            math.exp(-math.pi ** 2 / 8.0 / lam / lam) / lam) == 1.0:
        return 1.0
    k = np.arange(1, 101)
    p = 2.0 * np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * (k * lam) ** 2))
    return float(min(max(p, 0.0), 1.0))


def ks_test(samples, cdf):
    d = ks_statistic(samples, cdf)
    return d, kolmogorov_pvalue(d, len(samples))


def ks_test_exponential(samples):
    """One-sample KS against the unit-rate exponential."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < 50:
        raise ValueError("need at least 50 samples")
    if np.any(samples <= 0.0):
        raise ValueError("samples must be strictly positive")
    return ks_test(samples, lambda x: -np.expm1(-x))


# ---------------------------------------------------------------------------
# Generic tests
# ---------------------------------------------------------------------------


def martingale_expectation_test(name, values, times, target, seed=0):
    """Pass iff the ensemble mean matches the target within 3 standard
    errors at every listed time.

    ``target`` is a callable of time or an array; the statistic is the
    worst deviation in stderr units (zero-variance ensembles pass with
    zero margin only when they sit exactly on the target).
    """
    times = np.asarray(times, dtype=float)
    if times.size < 2:
        raise ValueError("need at least two test times")
    summary = EnsembleSummary.from_values(values, times)
    goal = np.asarray([target(t) for t in times], dtype=float) if callable(target) \
        else np.asarray(target, dtype=float)
    dev = np.abs(summary.means - goal)
    # zero-variance ensembles sitting on the target pass with zero margin
    dev = np.where(dev <= 1e-12 * (1.0 + np.abs(goal)), 0.0, dev)
    with np.errstate(divide="ignore", invalid="ignore"):
        sigmas = np.where(dev == 0.0, 0.0, dev / summary.stderrs)
    stat = float(np.max(sigmas))
    return TestReport(name=name, statistic=stat, threshold=3.0,
                      passed=bool(stat <= 3.0), seed=seed, n=summary.n_paths,
                      details={"times": times.tolist(),
                               "means": summary.means.tolist(),
                               "targets": goal.tolist(),
                               "stderrs": summary.stderrs.tolist()})


def refinement_report(name, labels, errors, seed=0, n=0):
    """Pass iff the error metric decreases strictly along the ladder
    (identically zero rungs may tie)."""
    errors = np.asarray(errors, dtype=float)
    if errors.size < 3:
        raise ValueError("need a ladder of at least 3 resolutions")
    diffs = np.diff(errors)
    ok = np.all((diffs < 0.0) | ((errors[1:] == 0.0) & (errors[:-1] == 0.0)))
    return TestReport(name=name, statistic=float(diffs.max()), threshold=0.0,
                      passed=bool(ok), seed=seed, n=n,
                      details={"labels": list(labels), "errors": errors.tolist()})


# ---------------------------------------------------------------------------
# Shared ensemble products
# ---------------------------------------------------------------------------


def _probe_indices(times, dt):
    """Grid indices of ``times`` on the grid of step ``dt``; ``ValueError``
    for a time off that grid."""
    idx = [int(round(t / dt)) for t in times]
    if not all(paths._on_grid(i, dt, t) for i, t in zip(idx, times)):
        raise ValueError(f"probe times must lie on the grid of step dt={dt}: {list(times)}")
    return idx


def compensator_products(model, dt, horizon, n_paths, seed, probe_times, *, weighted=False):
    """Stream an ensemble and reduce it to its compensators, one row per path:
    ``"K_probe"`` and ``"X_probe"``, the compensator and the observed value
    at ``probe_times``; ``"K_term"``, the compensator at the horizon;
    ``"taus"``, ``"zs"`` and ``"absorbed"``, the length, pin and grid
    absorption index; ``"frak"``, the weighted compensator at
    ``probe_times`` when ``weighted`` (else None); and ``"K_path0"``, the
    whole compensator row of path 0.

    Each block that :func:`~infobridge.paths.iter_ensemble_chunks` streams
    goes through :func:`~infobridge.compensator.compensator_rows`, with the
    occupation estimator of local time (the expected local time of each step
    given its grid values), and is released before the next one is asked
    for: two blocks are alive, the one reduced here and the next one, drawn
    meanwhile on one worker thread.  Local time stops at absorption, so each
    row's compensator is constant from one step past its absorption index
    on: a block is reduced in groups of rows of similar absorption, each only
    over its live window of ``m`` steps, and a probe past column ``m`` reads
    column ``m``.
    Raises ``ValueError`` for fewer than one path or a probe time outside
    ``[0, horizon]`` or off the grid.
    """
    if n_paths < 1:
        raise ValueError("need at least one path")
    if not all(0.0 <= t <= horizon for t in probe_times):
        raise ValueError(f"probe times must lie in [0, horizon={horizon}]: {list(probe_times)}")
    idx = _probe_indices(probe_times, dt)
    n_steps = int(round(horizon / dt))
    kernel = comp.IntensityKernel(model, dt, horizon)
    kernel_mid = comp.midpoint_kernel(kernel, dt, n_steps)
    pins = model.pinning.points

    group_rows = paths._rows_within(localtime._CELLS, n_steps + 1)
    out = {key: [] for key in ("K_probe", "K_term", "X_probe", "taus", "zs", "absorbed", "frak")}
    for ens in paths.iter_ensemble_chunks(model, dt, horizon, n_paths, seed):
        # Fortran order, as ``K[:, idx]`` gives it: the summaries add probe columns in this layout
        K_probe, frak = (np.empty((len(ens), len(idx)), order="F") for _ in range(2))
        K_term = np.empty(len(ens))
        for group, m in paths._live_groups(paths._live_steps(ens.taus, dt, n_steps), group_rows):
            d_locals = [localtime.occupation_increments(ens.values[group, :m + 1], ens.taus[group],
                                                        dt, z) for z in pins]
            K = comp.compensator_rows(kernel_mid[:, :m], d_locals)  # constant from column m on
            cols = np.minimum(idx, m)
            K_probe[group], K_term[group] = K[:, cols], K[:, m]
            if weighted:
                frak[group] = comp.compensator_rows(kernel_mid[:, :m], d_locals, pins)[:, cols]
            if not out["K_term"] and 0 in group:
                path0 = np.pad(K[group.argmin()], (0, n_steps - m), mode="edge")
        out["K_probe"].append(K_probe)
        out["K_term"].append(K_term)
        out["X_probe"].append(ens.values[:, idx])
        out["taus"].append(ens.taus)
        out["zs"].append(ens.zs)
        out["absorbed"].append(ens.absorbed_indices)
        if weighted:
            out["frak"].append(frak)
        del ens  # freed before the next block is asked for: two blocks are alive, not three
    result = {k: (np.concatenate(v) if v else None) for k, v in out.items()}
    result["K_path0"] = path0
    return result


def _resolvent_approximations(ens, bands):
    """Meyer's A^h of each path of ``ens`` at its horizon, by width h of the
    ladder table ``bands``: the sum over the grid steps of
    :func:`~infobridge.compensator.band_integrand`, times ``dt / h``, over
    row groups of at most ``localtime._CELLS`` values of the ladder."""
    n, dt = ens.n_steps, ens.dt
    t = dt * np.arange(n)
    rows = paths._rows_within(localtime._CELLS, len(bands.h) * n)
    blocks = []
    for lo in range(0, len(ens), rows):
        x, taus = ens.values[lo:lo + rows, 1:n], ens.taus[lo:lo + rows]
        ladder = bands(np.broadcast_to(t[1:], x.shape), x)
        blocks.append([comp.band_integrand(bands.model, h, t, taus, cond).sum(axis=1) * dt / h
                       for h, cond in zip(bands.h, ladder)])
    return dict(zip(bands.h, np.concatenate(blocks, axis=1)))


# ---------------------------------------------------------------------------
# Verification context: models, scales, cached products
# ---------------------------------------------------------------------------


#: The suite's two scales, keyed by ``fast``: the acceptance run and
#: ``verify --fast``.  ``dt_fine`` is the grid step of the quadratic
#: variation and Brownian local-time criteria; the rest are path counts.
_SCALES = {
    False: dict(dt_fine=1e-4, n_compensator=5000, n_terminal=2000,
                n_bridge=10_000, n_brownian=10_000, n_quadratic=1000),
    True: dict(dt_fine=1e-3, n_compensator=600, n_terminal=300,
               n_bridge=2000, n_brownian=500, n_quadratic=100),
}


@dataclass
class VerificationContext:
    """The suite's master seed and scale, its cached ensemble reductions and
    its one seed-free table (:attr:`table`): ``fast`` picks the row of the
    two scales whose values become attributes (``dt_fine``,
    ``n_compensator``, ``n_terminal``, ``n_bridge``, ``n_brownian``,
    ``n_quadratic``)."""

    master_seed: int = 20260810
    fast: bool = False

    def __post_init__(self):
        vars(self).update(_SCALES[self.fast])
        self._cache = {}
        # Horizon with at most 1e-4 survival mass for the unbounded law,
        # snapped up to a whole number of grid steps.
        self.exp_horizon = self.dt * math.ceil(
            self.model_single_pin().length.tail_point(0.0, 1e-4) / self.dt)
        # Each shared ensemble by its seed tag: model, horizon, path count
        # and the keyword arguments of compensator_products.
        self._ensembles = {
            "expA": (self.model_single_pin(), self.exp_horizon, self.n_compensator,
                     dict(probe_times=self.EXP_PROBES)),
            "uniB": (self.model_two_pin_symmetric(), 2.0, self.n_compensator,
                     dict(probe_times=self.UNI_PROBES)),
            "uniB2": (self.model_two_pin_asymmetric(), 2.0, self.n_compensator,
                      dict(probe_times=(self.TOWER_T, *self.FRAK_PROBES), weighted=True)),
            "uniC": (self.model_bounded_support(), 3.0, 500,
                     dict(probe_times=(1.5, 3.0))),
        }

    # -- models -------------------------------------------------------------

    @staticmethod
    def model_single_pin():
        return ModelSpec(ExponentialLaw(1.0), PinningLaw([0.0], [1.0]))

    @staticmethod
    def model_two_pin_symmetric():
        return ModelSpec(UniformLaw(0.5, 2.0), PinningLaw([-1.0, 1.0], [0.5, 0.5]))

    @staticmethod
    def model_two_pin_asymmetric():
        return ModelSpec(UniformLaw(0.5, 2.0), PinningLaw([-1.0, 2.0], [0.6, 0.4]))

    @staticmethod
    def model_bounded_support():
        return ModelSpec(UniformLaw(0.5, 1.5), PinningLaw([-1.0, 1.0], [0.5, 0.5]))

    # -- seeds and products ---------------------------------------------------

    _TAGS = {"expA": 1, "uniB": 2, "uniB2": 3, "uniC": 4, "bridge": 5,
             "brownian": 6, "qv": 7, "density": 8}

    def seed_for(self, tag, attempt):
        ss = np.random.SeedSequence((self.master_seed, self._TAGS[tag], attempt))
        return int(ss.generate_state(1, dtype=np.uint32)[0])

    dt = 1e-3  # grid step of the compensator and bridge products; not a field
    AH_LADDER = (0.1, 0.03, 0.01)
    AH_T = 1.0  # time of the resolvent approximations, one of EXP_PROBES
    QV_HORIZON = 1.0  # horizon of the quadratic-variation paths
    EXP_PROBES = (0.5, 1.0, 2.0)
    UNI_PROBES = (0.5, 1.0, 2.0)
    FRAK_PROBES = (0.8, 1.2, 1.8)
    TOWER_T = 0.75
    TOWER_U = 1.25
    LAM_M = 0.25

    def products(self, tag, attempt):
        """The :func:`compensator_products` of ensemble ``tag`` (``expA``,
        ``uniB``, ``uniB2`` or ``uniC``) at ``attempt``'s derived seed, under
        ``"seed"``; built once per context."""
        key = (tag, attempt)
        if key not in self._cache:
            model, horizon, n_paths, kwargs = self._ensembles[tag]
            seed = self.seed_for(tag, attempt)
            self._cache[key] = compensator_products(
                model, self.dt, horizon, n_paths, seed, **kwargs) | {"seed": seed}
        return self._cache[key]

    @functools.cached_property
    def table(self):
        """The drift of ``quadratic_variation`` and the A^h bands of
        ``meyer_refinement``, one table over both ranges, free of the seed:
        built once."""
        return filtering.BandProbabilityCache(
            self.model_single_pin(), self.AH_LADDER, s_min=min(self.dt, self.dt_fine),
            s_max=max(self.AH_T, self.QV_HORIZON))


# ---------------------------------------------------------------------------
# The thirteen criteria
# ---------------------------------------------------------------------------


def criterion_density_consistency(ctx, attempt):
    """Both closed forms of the bridge marginal agree to 1e-12 relative on
    random tuples (values below the normal float range compare absolutely)."""
    seed = ctx.seed_for("density", attempt)
    rng = np.random.default_rng(seed)
    n = 10_000
    r = rng.uniform(0.1, 10.0, n)
    t = r * rng.uniform(1e-4, 1.0 - 1e-4, n)
    z = rng.uniform(-5.0, 5.0, n)
    x = rng.uniform(-5.0, 5.0, n)
    direct = bridge_marginal_density(t, r, z, x)
    # in logs: the product of two densities can underflow where their ratio does not
    ratio = np.exp(log_gaussian_density(r - t, z, x) + log_gaussian_density(t, x)
                   - log_gaussian_density(r, z))
    err = np.abs(direct - ratio)
    tol = 1e-12 * np.maximum(direct, ratio) + 1e-300
    stat = float(np.max(err / tol))
    return TestReport(name="density_consistency", statistic=stat, threshold=1.0,
                      passed=bool(stat <= 1.0), seed=seed, n=n)


def criterion_bridge_exactness(ctx, attempt):
    """Grid marginals of the fixed-length bridge, simulated to the marginal's
    time only, pass KS against the exact Gaussian marginal."""
    seed = ctx.seed_for("bridge", attempt)
    r, z, t_eval = 1.0, 0.5, 0.5
    ens = paths.simulate_bridge_ensemble(r, z, ctx.dt, t_eval, ctx.n_bridge, seed)
    col = ens.values[:, -1]
    mean = t_eval * z / r
    sd = math.sqrt(t_eval * (r - t_eval) / r)
    from scipy.special import ndtr
    d, p = ks_test(col, lambda v: ndtr((v - mean) / sd))
    return TestReport(name="bridge_exactness", statistic=p, threshold=0.01,
                      passed=bool(p > 0.01), seed=seed, n=ctx.n_bridge,
                      details={"D": d, "t": t_eval, "r": r, "z": z})


def criterion_quadratic_variation(ctx, attempt):
    """Mean quadratic variation of the path and of its innovation both track
    the stopped clock within 2% at the fine step."""
    seed = ctx.seed_for("qv", attempt)
    model = ctx.model_single_pin()
    dt = ctx.dt_fine
    horizon = ctx.QV_HORIZON
    probes = (0.25, 0.5, 1.0)
    idx = _probe_indices(probes, dt)
    qv_x = []
    qv_i = []
    clocks = []
    for ens in paths.iter_ensemble_chunks(model, dt, horizon, ctx.n_quadratic, seed):
        dx2 = np.diff(ens.values, axis=1) ** 2
        cum = np.zeros_like(ens.values)
        np.cumsum(dx2, axis=1, out=cum[:, 1:])
        qv_x.append(cum[:, idx])
        innov = np.empty_like(ens.values)
        for i in range(len(ens)):
            innov[i] = filtering.innovation_path(model, ens.path(i), drift_fn=ctx.table.drift)
        di2 = np.diff(innov, axis=1) ** 2
        cumi = np.zeros_like(innov)
        np.cumsum(di2, axis=1, out=cumi[:, 1:])
        qv_i.append(cumi[:, idx])
        clocks.append(np.minimum(ens.taus[:, None], np.asarray(probes)[None, :]))
    qv_x = np.concatenate(qv_x)
    qv_i = np.concatenate(qv_i)
    clocks = np.concatenate(clocks)
    target = clocks.mean(axis=0)
    rel_x = np.abs(qv_x.mean(axis=0) - target) / target
    rel_i = np.abs(qv_i.mean(axis=0) - target) / target
    stat = float(max(rel_x.max(), rel_i.max()))
    return TestReport(name="quadratic_variation", statistic=stat, threshold=0.02,
                      passed=bool(stat <= 0.02), seed=seed, n=ctx.n_quadratic,
                      details={"times": list(probes), "rel_path": rel_x.tolist(),
                               "rel_innovation": rel_i.tolist()})


def criterion_filter_tower(ctx, attempt):
    """The posterior estimate of a fixed functional has the unconditional
    mean: tested for the survival indicator and for the pin value."""
    prod = ctx.products("uniB2", attempt)
    model = ctx.model_two_pin_asymmetric()
    t, u = ctx.TOWER_T, ctx.TOWER_U
    taus, zs, x_t = prod["taus"], prod["zs"], prod["X_probe"][:, 0]
    alive = taus > t
    est_surv = np.zeros(taus.size)
    est_pin = np.where(alive, 0.0, zs)
    if np.any(alive):
        xs = x_t[alive]
        est_surv[alive] = filtering.survival_probability(model, t, xs, u)
        pin_probs = filtering.pin_posterior(model, t, xs)
        est_pin[alive] = model.pinning.points @ pin_probs
    # absorbed paths: the survival functional evaluates at the realized time
    est_surv[~alive] = (taus[~alive] > u).astype(float)
    targets = np.array([1.0 - float(model.length.cdf(u)), model.pinning.mean()])
    values = np.column_stack([est_surv, est_pin])
    rep = martingale_expectation_test("filter_tower", values, [0.0, 1.0],
                                      targets, seed=prod["seed"])
    rep.details.update(functionals=["survival_indicator", "pin_value"], t=t, u=u)
    return rep


def criterion_brownian_local_time(ctx, attempt):
    """Mean Brownian local time at zero and unit time equals sqrt(2/pi):
    the occupation estimator on never-absorbed paths, one child stream of
    the seed per path."""
    seed = ctx.seed_for("brownian", attempt)
    dt = ctx.dt_fine
    target = math.sqrt(2.0 / math.pi)
    streams = paths._streams(np.random.default_rng(0), seed, 0, ctx.n_brownian, None)
    values = np.array([
        localtime.occupation_increments(
            paths.simulate_brownian_motion(dt, 1.0, rng).values, math.inf, dt, 0.0).sum()
        for rng in streams])
    mean = values.mean()
    stderr = values.std(ddof=1) / math.sqrt(values.size)
    stat = abs(mean - target) / stderr
    return TestReport(name="brownian_local_time", statistic=float(stat), threshold=3.0,
                      passed=bool(stat <= 3.0), seed=seed, n=ctx.n_brownian,
                      details={"mean": float(mean), "target": target,
                               "stderr": float(stderr)})


def criterion_compensator_martingale(ctx, attempt, corrupt=1.0, name="compensator_martingale"):
    """Mean compensator equals the length CDF at every probe time, for the
    single-pin unbounded config and the two-pin bounded config."""
    prod_a = ctx.products("expA", attempt)
    prod_b = ctx.products("uniB", attempt)
    model_a = ctx.model_single_pin()
    model_b = ctx.model_two_pin_symmetric()
    rep_a = martingale_expectation_test(
        name + "_single_pin", corrupt * prod_a["K_probe"], ctx.EXP_PROBES,
        lambda t: float(model_a.length.cdf(t)), seed=prod_a["seed"])
    rep_b = martingale_expectation_test(
        name + "_two_pin", corrupt * prod_b["K_probe"], ctx.UNI_PROBES,
        lambda t: float(model_b.length.cdf(t)), seed=prod_b["seed"])
    stat = max(rep_a.statistic, rep_b.statistic)
    return TestReport(name=name, statistic=float(stat), threshold=3.0,
                      passed=bool(rep_a.passed and rep_b.passed),
                      seed=prod_a["seed"], n=ctx.n_compensator,
                      details={"single_pin": rep_a.to_dict(), "two_pin": rep_b.to_dict()})


def criterion_terminal_exponential(ctx, attempt):
    """The terminal compensator is standard exponential: unit mean within
    3 stderr and KS p above 0.01 (censored paths are excluded and counted)."""
    prod = ctx.products("expA", attempt)
    k_inf = prod["K_term"][:ctx.n_terminal]
    absorbed = prod["taus"][:ctx.n_terminal] <= ctx.exp_horizon
    sample = k_inf[absorbed & (k_inf > 0.0)]
    mean = sample.mean()
    stderr = sample.std(ddof=1) / math.sqrt(sample.size)
    mean_stat = abs(mean - 1.0) / stderr
    d, p = ks_test_exponential(sample)
    passed = bool(mean_stat <= 3.0 and p > 0.01)
    return TestReport(name="terminal_exponential", statistic=float(p), threshold=0.01,
                      passed=passed, seed=prod["seed"], n=int(sample.size),
                      details={"mean": float(mean), "mean_sigmas": float(mean_stat),
                               "D": d, "censored": int((~absorbed).sum())})


def criterion_mgf(ctx, attempt):
    """Moment generating function of the terminal compensator matches the
    unit-rate exponential at several arguments."""
    prod = ctx.products("expA", attempt)
    k_inf = prod["K_term"][:ctx.n_terminal]
    lams = (0.5, 1.0, 2.0)
    values = np.column_stack([np.exp(-lam * k_inf) for lam in lams])
    rep = martingale_expectation_test(
        "terminal_mgf", values, list(lams),
        lambda lam: 1.0 / (1.0 + lam), seed=prod["seed"])
    rep.details["lambdas"] = list(lams)
    return rep


def criterion_weighted_compensator(ctx, attempt):
    """Mean weighted compensator equals (mean pin) x (length CDF)."""
    prod = ctx.products("uniB2", attempt)
    model = ctx.model_two_pin_asymmetric()
    ez = model.pinning.mean()
    rep = martingale_expectation_test(
        "weighted_compensator", prod["frak"][:, 1:], ctx.FRAK_PROBES,
        lambda t: ez * float(model.length.cdf(t)), seed=prod["seed"])
    rep.details["pin_mean"] = ez
    return rep


def criterion_martingale_M(ctx, attempt):
    """The exponential local martingale of the weighted compensator has
    unit mean (bounded configuration, small argument)."""
    prod = ctx.products("uniB2", attempt)
    absorbed = prod["absorbed"][:, None] <= _probe_indices(ctx.FRAK_PROBES, ctx.dt)
    values = comp.exp_martingale(ctx.LAM_M, prod["frak"][:, 1:], absorbed,
                                 prod["X_probe"][:, 1:])
    rep = martingale_expectation_test(
        "martingale_M", values, ctx.FRAK_PROBES,
        lambda t: 1.0, seed=prod["seed"])
    rep.details["lambda"] = ctx.LAM_M
    return rep


def criterion_meyer_refinement(ctx, attempt):
    """The resolvent approximation converges to the compensator: the gap of
    the ensemble means shrinks strictly along the h-ladder."""
    prod = ctx.products("expA", attempt)
    n = ctx.n_terminal
    # The first n paths again, to AH_T only: each path has its own streams,
    # so these rows are the leading columns of the product's rows.
    ens = paths.simulate_ensemble(ctx.model_single_pin(), ctx.dt, ctx.AH_T, n, prod["seed"])
    ah = _resolvent_approximations(ens, ctx.table)
    k1 = prod["K_probe"][:n, ctx.EXP_PROBES.index(ctx.AH_T)]
    gaps = [abs(float(ah[h].mean() - k1.mean())) for h in ctx.AH_LADDER]
    return refinement_report("meyer_refinement", [f"h={h}" for h in ctx.AH_LADDER],
                             gaps, seed=prod["seed"], n=int(k1.size))


def criterion_constant_beyond_support(ctx, attempt):
    """With bounded length support the compensator is exactly constant
    beyond the support supremum, pathwise."""
    prod = ctx.products("uniC", attempt)
    diff = np.abs(prod["K_probe"][:, 1] - prod["K_probe"][:, 0])
    stat = float(diff.max())
    return TestReport(name="constant_beyond_support", statistic=stat, threshold=0.0,
                      passed=bool(stat == 0.0), seed=prod["seed"],
                      n=prod["K_probe"].shape[0],
                      details={"t_inside": 1.5, "t_beyond": 3.0})


def criterion_kernel_sensitivity(ctx, attempt):
    """A deliberate 10% kernel corruption must make the compensator
    martingale test fail (guards against vacuous tolerances)."""
    rep = criterion_compensator_martingale(ctx, attempt, corrupt=1.1,
                                           name="corrupted_martingale")
    return TestReport(name="kernel_sensitivity", statistic=rep.statistic,
                      threshold=3.0, passed=bool(not rep.passed),
                      seed=rep.seed, n=rep.n,
                      details={"corrupted_report": rep.to_dict()})


CRITERIA = [
    ("density_consistency", criterion_density_consistency),
    ("bridge_exactness", criterion_bridge_exactness),
    ("quadratic_variation", criterion_quadratic_variation),
    ("filter_tower", criterion_filter_tower),
    ("brownian_local_time", criterion_brownian_local_time),
    ("compensator_martingale", criterion_compensator_martingale),
    ("terminal_exponential", criterion_terminal_exponential),
    ("terminal_mgf", criterion_mgf),
    ("weighted_compensator", criterion_weighted_compensator),
    ("martingale_M", criterion_martingale_M),
    ("meyer_refinement", criterion_meyer_refinement),
    ("constant_beyond_support", criterion_constant_beyond_support),
    ("kernel_sensitivity", criterion_kernel_sensitivity),
]


#: Retries a failing criterion gets on fresh seeds before it is reported.
MAX_RETRIES = 3


def run_criterion(ctx, fn):
    """Run one criterion, then retry it at most :data:`MAX_RETRIES` times
    on fresh, deterministically derived seeds (``fn(ctx, attempt)``), until
    it passes; the report carries the retry count."""
    for attempt in range(MAX_RETRIES + 1):
        report = fn(ctx, attempt)
        report.retries = attempt
        if report.passed:
            break
    return report


def run_verification_suite(master_seed, progress, fast):
    """Run every criterion through :func:`run_criterion` on one shared
    :class:`VerificationContext` at ``master_seed``, at the acceptance scale
    or, when ``fast``, at the scale of ``verify --fast``; ``progress``, when
    not None, is called with each report as it is made."""
    ctx = VerificationContext(master_seed=master_seed, fast=fast)
    reports = []
    for name, fn in CRITERIA:
        report = run_criterion(ctx, fn)
        reports.append(report)
        if progress is not None:
            progress(report)
    return reports


def reports_to_json(reports, path):
    """Write the reports to the file ``path`` as sorted, indented JSON."""
    with open(path, "w") as fh:
        fh.write(json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True) + "\n")
