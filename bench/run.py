#!/usr/bin/env python3
"""Benchmark of infobridge: one workload per call, one JSON line of results.

    python3 bench/run.py --workload verify-fast --seed 0 --seconds 8 --trace 0

Run from the root of a source checkout.  The workload runs in a process of
its own (``worker.py``); set-up is measured in that process and in
``SETUP_REPEATS - 1`` further processes that stop once set up, half of them
before it and half after, and ``setup_s`` is their median.  With
``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run.
See ``bench/README.md``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPEATS = 5
RUN_TIMEOUT_S = 170.0  # for all the processes of one run together
REQUIRED = ("src/infobridge/__init__.py", "tests/riemann.py")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs and one set-up, for the smoke test")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def run_worker(args, setup_only, deadline):
    """Run ``worker.py`` to its end, or kill it at ``deadline`` (a
    ``time.monotonic`` reading), and return its result object."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spawned-at", repr(time.time())]
    cmd += ["--setup-only"] * setup_only + ["--tiny"] * args.tiny
    # A fixed string-hash seed: with Python's per-process random one, the
    # peak RSS of verify-fast read 550 MB on about one run in four, 589 MB
    # on the others.
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          env=dict(os.environ, PYTHONHASHSEED="0"),
                          timeout=max(deadline - time.monotonic(), 1.0), text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    args = parse_args(argv)
    missing = [f for f in REQUIRED if not (ROOT / f).is_file()]
    if missing:
        print(f"not a source checkout of infobridge: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    extra = 0 if (args.tiny or args.trace) else SETUP_REPEATS - 1
    deadline = time.monotonic() + RUN_TIMEOUT_S
    # Set-ups before and after the measuring process, so that their median
    # does not rest on one spell of the machine's speed.
    setups = [run_worker(args, True, deadline)["setup_s"] for _ in range(extra // 2)]
    res = run_worker(args, False, deadline)
    setups.append(res["setup_s"])
    setups += [run_worker(args, True, deadline)["setup_s"] for _ in range(extra - extra // 2)]

    if args.trace:
        values, kind = res["layers"], "per_layer"
    else:
        values, kind = dict(res, setup_s=statistics.median(setups)), "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC[kind]}
    print(f"{args.workload}: {res['rounds']} round(s), "
          f"{res['attempted']} operations, {res['failed']} failed "
          f"{res['failed_ops'] if res['failed_ops'] else ''}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, value in res["stats"].items():
        print(f"  check {name}: {value:.3g}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
