"""One workload in its own process; started by ``run.py``.

Prints one JSON object as its last line of standard output: the set-up
time, and unless ``--setup-only`` the timed rounds and the operations, plus
the per-layer metrics when ``--trace 1``.
"""

import os
import sys
import time

# Spawn time of this process as taken by the parent; set-up time runs from
# it, so that it covers interpreter start and imports.
SPAWNED_AT = float(sys.argv[sys.argv.index("--spawned-at") + 1])

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import spans  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    out_dir = str(ROOT / ".bench_out" / args.workload)
    os.makedirs(out_dir, exist_ok=True)
    tracer = spans.Tracer()
    if args.trace:
        tracer.install()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, out_dir)
    result = {"setup_s": time.time() - SPAWNED_AT}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    walls, ops = [], []
    while not walls or sum(walls) < args.seconds:
        tracer.active = bool(args.trace)
        t0 = perf_counter()
        outputs = wl.timed()
        walls.append(perf_counter() - t0)
        tracer.active = False
        ops += wl.check(outputs)
        del outputs

    failed = [name for name, ok in ops if not ok]
    unexpected = [n for n in failed if not n.startswith(tuple(workloads.KNOWN_FAULTS))]
    result.update(
        rounds=len(walls),
        wall_s=statistics.median(walls),
        attempted=len(ops),
        failed=len(failed),
        correct=not unexpected,
        failed_ops=sorted(set(failed)),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        stats=wl.stats,
    )
    if args.trace:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        result["layers"] = tracer.layer_metrics([m["name"] for m in spec["per_layer"]],
                                                sum(walls), len(walls))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
