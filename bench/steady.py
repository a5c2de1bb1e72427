#!/usr/bin/env python3
"""Steadiness of the benchmark: run each workload of ``BENCHMARK.json`` (or
those named) on several seeds, in two sets, and report the median and
quartiles of every end-to-end metric.

    python3 bench/steady.py --runs 10 [--workload NAME ...] [--trace] [--write]

Each run is one call of ``bench/run.py`` in a process of its own; runs go
one after another, seeds 0 to ``runs - 1`` in each set, and a workload's
second set follows its first.  A metric's spread is the distance between
the first and third quartile of a set as a share of its median.  The
benchmark holds when, on every workload, every spread,
``setup_s`` included, stays within its bound, every median of a later set is
not worse than the first set's by more than the bound, and the share of
failed operations is the same in every run; otherwise the exit code is 1.
A spread above a third of its bound is marked WIDE and counted: the
benchmark aims to stay below that, and a WIDE metric holds only with less
margin than that aim.

``--write`` sets each bound in ``BENCHMARK.json`` to four times the largest
spread seen, rounded up to a hundredth, at least 0.10 and at most 0.25, and
then gives ``setup_s`` the largest of the bounds; it names every metric
whose spread was above a third of 0.25, which no bound can cover with that
margin.  ``--trace`` adds one traced run per workload and reports each
layer's share of the traced wall time and the tracing overhead, both as
estimated from the span count (``trace.overhead_s``) and as traced minus
median untraced ``wall_s``.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = ROOT / "BENCHMARK.json"
MAX_BOUND = 0.25
MIN_BOUND = 0.10
SETS = 2  # a later set's medians are compared with the first set's


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None):
    spec = json.loads(BENCH_FILE.read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--trace", action="store_true")
    p.add_argument("--write", action="store_true", help="set the bounds in BENCHMARK.json")
    args = p.parse_args(argv)

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = dict.fromkeys(bounds, 0.0)
    holds, wide = True, []
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        first = None
        for n_set in range(1, SETS + 1):
            runs = [run_once(workload, seed, seconds, False) for seed in range(args.runs)]
            shares = {r["failed"] / r["attempted"] for r in runs}
            if first is not None:
                shares.add(first["share"])
            print(f"{workload}, set {n_set}: {len(runs)} runs, attempted "
                  f"{sorted({r['attempted'] for r in runs})}, failed "
                  f"{sorted({r['failed'] for r in runs})}, correct "
                  f"{all(r['correct'] for r in runs)}, one failed share: {len(shares) == 1}")
            holds &= len(shares) == 1 and all(r["correct"] for r in runs)
            medians = {}
            for name, bound in bounds.items():
                med, q1, q3, sp = spread([r["metrics"][name]["value"] for r in runs])
                medians[name] = med
                worst[name] = max(worst[name], sp)
                ok = sp <= bound
                line = (f"  {name:14s} median {med:10.4f}  quartiles {q1:10.4f} {q3:10.4f}  "
                        f"spread {sp:6.2%}  bound {bound:.2f}")
                if first is not None:
                    ratio = med / first["medians"][name]
                    ok &= ratio <= 1.0 + bound
                    line += f"  median / set 1 {ratio:.3f}"
                holds &= ok
                if sp > bound / 3:
                    wide.append(f"{workload} {name} set {n_set}")
                    line += "  WIDE"
                print(line + ("" if ok else "  OUT OF BOUND"))
            if first is None:
                first = {"share": runs[0]["failed"] / runs[0]["attempted"], "medians": medians}
        if args.trace:
            traced = run_once(workload, 0, seconds, True)["metrics"]
            wall = traced["trace.wall_s"]["value"]
            print(f"  traced wall {wall:.3f} s, {traced['trace.spans']['value']:.0f} spans, "
                  f"overhead {traced['trace.overhead_s']['value']:.4f} s estimated from them, "
                  f"{wall - first['medians']['wall_s']:+.3f} s against the untraced median "
                  f"of set 1, unattributed {traced['trace.unattributed_s']['value']:.4f} s")
            for name, m in traced.items():
                if m["unit"] == "s" and not name.startswith("trace.") and m["value"] > 0:
                    print(f"    {name:30s} {m['value']:9.4f} s  {m['value'] / wall:6.1%}")

    print("the benchmark holds" if holds else "the benchmark does NOT hold: see OUT OF BOUND")
    print(f"{len(wide)} spread(s) above a third of the bound"
          + (": " + ", ".join(wide) if wide else ""))
    if args.write:
        new = {name: min(MAX_BOUND, max(MIN_BOUND, math.ceil(400 * sp) / 100))
               for name, sp in worst.items()}
        new["setup_s"] = max(new.values())
        for name, sp in worst.items():
            if sp > MAX_BOUND / 3:
                print(f"{name}: spread {sp:.2%} is above a third of the largest bound")
        for m in spec["end_to_end"]:
            m["bound"] = new[m["name"]]
        BENCH_FILE.write_text(json.dumps(spec, indent=2) + "\n")
        print("bounds written:", new)
    return 0 if holds else 1


if __name__ == "__main__":
    sys.exit(main())
