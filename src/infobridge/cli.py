"""Command-line entry point: config-driven simulation, filtering curves,
compensator curves, and the full verification suite.

All randomness derives from the configured seed, so repeated runs with the
same inputs produce byte-identical outputs.  Without a seed, ``verify``
runs the suite's master seed and the other commands seed 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import compensator as comp
from . import filtering, paths, verify
from .kernels import QuadratureError
from .laws import ModelSpec

DEFAULT_MODEL = {
    "tau": {"family": "exponential", "rate": 1.0},
    "pinning": {"points": [0.0], "probs": [1.0]},
}


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class RunConfig:
    model: dict
    dt: float = 1e-3
    horizon: float = 2.0
    n_paths: int = 1000
    seed: int | None = None
    out: str = "out"

    def __post_init__(self):
        if not (_is_int(self.n_paths) and (self.seed is None or _is_int(self.seed))):
            raise ValueError("n_paths and seed must be integers")
        if not all(math.isfinite(v) and not isinstance(v, bool) for v in (self.dt, self.horizon)):
            raise ValueError("dt and horizon must be finite numbers")
        if not isinstance(self.out, str):
            raise ValueError("out must be a path")
        if self.dt <= 0.0 or self.horizon <= 0.0 or self.n_paths < 1:
            raise ValueError("dt, horizon and n_paths must be positive")
        if self.dt >= self.horizon:
            raise ValueError("dt must be smaller than the horizon")
        paths._n_steps(self.dt, self.horizon)
        if self.seed is not None and self.seed < 0:
            raise ValueError("seed must be nonnegative")

    @classmethod
    def load(cls, path=None, **overrides):
        data = {}
        if path is not None:
            with open(path) as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ValueError("the run configuration must be a JSON object")
        data.update({k: v for k, v in overrides.items() if v is not None})
        data.setdefault("model", DEFAULT_MODEL)
        return cls(**data)

    def model_spec(self):
        return ModelSpec.from_dict(self.model)

    def seed_or(self, default):
        """The configured seed, or ``default`` when none was given."""
        return default if self.seed is None else self.seed


def _ensure_out(cfg):
    os.makedirs(cfg.out, exist_ok=True)
    return cfg.out


def cmd_simulate(cfg):
    model = cfg.model_spec()
    out = _ensure_out(cfg)
    ens = paths.simulate_ensemble(model, cfg.dt, cfg.horizon, cfg.n_paths, cfg.seed_or(0))
    paths.save_ensemble(ens, os.path.join(out, "ensemble.bin"))
    for i in range(min(3, len(ens))):
        paths.save_path_csv(ens.path(i), os.path.join(out, f"path_{i:04d}.csv"))
    absorbed = ens.taus <= cfg.horizon
    freq = {float(z): float(np.mean(ens.zs == z)) for z in model.pinning.points}
    print(f"paths: {len(ens)}  dt: {cfg.dt}  horizon: {cfg.horizon}")
    print(f"mean length: {ens.taus.mean():.6g}  absorbed in horizon: {absorbed.mean():.4f}")
    print("pin frequencies: " + ", ".join(f"{z:g}: {f:.4f}" for z, f in freq.items()))
    return 0


def cmd_posterior(cfg, t, x):
    model = cfg.model_spec()
    out = _ensure_out(cfg)
    # raises QuadratureError where t is out of reach, before the curve's end is cut
    pins = filtering.pin_posterior(model, t, x)
    u = np.linspace(t, model.length.tail_point(t, 1e-3), 200)
    surv = filtering.survival_probability(model, t, x, u)
    data = np.column_stack([u, surv])
    surv_path = os.path.join(out, "survival.csv")
    np.savetxt(surv_path, data, delimiter=",", header="u,probability", comments="", fmt="%.12g")
    pin_path = os.path.join(out, "pin_posterior.csv")
    np.savetxt(pin_path, np.column_stack([model.pinning.points, pins]),
               delimiter=",", header="z,probability", comments="", fmt="%.12g")
    print(f"wrote {surv_path} and {pin_path}")
    return 0


def cmd_compensator(cfg):
    """Plain compensator of every path at the grid times nearest the
    quarters of the horizon, and the whole curve of path 0, both from the
    verification suite's ensemble reduction; local time is the occupation
    estimator, the expected local time given the grid values, which has no
    bandwidth.  The summary labels the grid times it read."""
    model = cfg.model_spec()
    out = _ensure_out(cfg)
    n = paths._n_steps(cfg.dt, cfg.horizon)
    probes = [cfg.horizon * round(n * k / 4) / n for k in (1, 2, 3, 4)]  # grid times
    prod = verify.compensator_products(model, cfg.dt, cfg.horizon, cfg.n_paths,
                                       cfg.seed_or(0), probe_times=probes)
    k0 = prod["K_path0"]
    comp.save_curve_csv(comp.CompensatorCurve(cfg.dt * np.arange(k0.size), k0, "plain"),
                        os.path.join(out, "compensator_path0.csv"))
    summary = verify.EnsembleSummary.from_values(prod["K_probe"], probes)
    with open(os.path.join(out, "compensator_summary.json"), "w") as fh:
        json.dump(summary.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"mean K at {probes}: {np.round(summary.means, 6).tolist()}")
    return 0


def cmd_verify(cfg, fast):
    out = _ensure_out(cfg)
    master_seed = cfg.seed_or(verify.VerificationContext.master_seed)
    reports = verify.run_verification_suite(master_seed=master_seed,
                                            progress=lambda r: print(r.line()),
                                            fast=fast)
    verify.reports_to_json(reports, os.path.join(out, "reports.json"))
    n_fail = sum(not r.passed for r in reports)
    print(f"{len(reports) - n_fail}/{len(reports)} checks passed")
    return 1 if n_fail else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="infobridge",
        description="Pinned bridges with random length: simulation, filtering, "
                    "local time and compensator checks.",
        epilog="exit codes: 0 success, 1 a verify check failed, 2 configuration or "
               "arguments rejected, 3 input/output failure, 4 tail quadrature did not "
               "converge (model state out of reach)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--seed", type=int)
        p.add_argument("--dt", type=float)
        p.add_argument("--horizon", type=float)
        p.add_argument("--paths", type=int, dest="n_paths")
        p.add_argument("--out")

    p_sim = sub.add_parser("simulate", help="simulate an ensemble and export it")
    add_common(p_sim)

    p_post = sub.add_parser("posterior", help="survival and pin posterior curves")
    add_common(p_post)
    p_post.add_argument("--t", type=float, required=True)
    p_post.add_argument("--x", type=float, required=True)

    p_comp = sub.add_parser("compensator", help="compensator curves and summary")
    add_common(p_comp)

    p_ver = sub.add_parser("verify", help="run the verification suite")
    add_common(p_ver)
    p_ver.add_argument("--fast", action="store_true",
                       help="reduced path counts (smoke test, not acceptance scale)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    overrides = {k: getattr(args, k) for k in ("seed", "dt", "horizon", "n_paths", "out")
                 if getattr(args, k, None) is not None}
    try:
        cfg = RunConfig.load(args.config, **overrides)
        sup = cfg.model_spec().support_sup
        if args.command == "posterior" and not 0.0 < args.t < sup:
            raise ValueError("t must lie strictly inside the support of the length law")
        if args.command == "posterior" and not math.isfinite(args.x):
            raise ValueError("x must be a finite number")
        if args.command == "compensator":
            if cfg.n_paths < 2:
                raise ValueError("the compensator summary needs at least two paths")
            comp._check_step(cfg.model_spec(), cfg.dt)
    except OSError as exc:
        print(f"io failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, KeyError) as exc:
        print(f"config rejected: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "posterior":
            return cmd_posterior(cfg, args.t, args.x)
        if args.command == "compensator":
            return cmd_compensator(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, fast=args.fast)
    except OSError as exc:
        print(f"io failure: {exc}", file=sys.stderr)
        return 3
    except QuadratureError as exc:
        print(f"quadrature failure: {exc}", file=sys.stderr)
        return 4
    return 2


if __name__ == "__main__":
    sys.exit(main())
