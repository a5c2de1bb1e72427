"""Spans around the library's public functions, recorded from outside it.

``Tracer.install`` replaces public functions and methods of the
``infobridge`` modules with wrappers that record one span per call: its
name, start, end, parent span, whether it raised, and a work count taken
from the call's arguments (or, for the chunked simulator, from the chunk it
yields).  Spans are kept in memory and reduced to per-layer metrics at the
end of the run.  A layer's self time is its spans' durations minus the time
covered by their child spans, so the layers' self times add up to the
traced time spent inside the library.

The library itself is not modified: callers inside the package reach these
functions through module or class attributes, which is what is replaced.
"""

from __future__ import annotations

import functools
from time import perf_counter

import numpy as np

from infobridge import cli, compensator, filtering, kernels, localtime, paths, verify

# Span kinds: the metric that receives a span's self time.
_SELF_TIME = {
    "tail": "kernels.tail_integrals_s",
    "build": "filtering.table_build_s",
    "table_query": "filtering.table_query_s",
    "direct": "filtering.direct_query_s",
    "innovation": "filtering.innovation_s",
    "simulate": "paths.simulate_s",
    "increments": "localtime.increments_s",
    "kernel_build": "compensator.kernel_build_s",
    "kernel_query": "compensator.kernel_query_s",
    "reduce": "compensator.reduce_s",
    "products": "verify.products_s",
    "criteria": "verify.criteria_s",
    "command": "cli.command_s",
}


def _layer(kind):
    """Layer of a span kind: the module its metric is named after."""
    return _SELF_TIME[kind].split(".")[0]


def _steps(dt, horizon):
    return int(round(horizon / dt))


def _cells(values):
    rows, cols = np.atleast_2d(values).shape
    return rows * (cols - 1)


class Tracer:
    """In-memory span recorder; records only while ``active`` is true."""

    def __init__(self):
        # Each span: [kind, start, end, parent index, work count, raised].
        self.spans = []
        self._stack = []
        self.active = False

    def _open(self, kind, work):
        rec = [kind, 0.0, 0.0, self._stack[-1] if self._stack else -1, work, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = perf_counter()
        self._stack.pop()

    def wrap(self, kind, fn, work=None):
        """Wrapper of ``fn`` recording a ``kind`` span per call; ``work``
        maps the call's (args, kwargs) to its work count."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = tracer._open(kind, work(args, kwargs) if work else 0)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                tracer._close(rec)
        return wrapper

    def wrap_generator(self, kind, fn, work):
        """Like :meth:`wrap` for a generator function: one span per item
        produced, with ``work`` applied to the item."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                rec = tracer._open(kind, 0) if tracer.active else None
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    if rec is not None:
                        tracer._close(rec)
                if rec is not None:
                    rec[4] = work(item)
                yield item
        return wrapper

    def install(self):
        """Replace the library's public entry points with span wrappers."""
        def patch(owner, name, kind, work=None):
            setattr(owner, name, self.wrap(kind, getattr(owner, name), work))

        patch(kernels, "tail_integrals", "tail",
              lambda a, k: int(np.size(a[2] if len(a) > 2 else k["x"])))

        for cls in (filtering.DriftCache, filtering.BandProbabilityCache):
            patch(cls, "__init__", "build")
            patch(cls, "__call__", "table_query",
                  lambda a, k: int(np.broadcast(a[1], a[2]).size))
        for name in ("posterior", "pin_posterior", "survival_probability",
                     "transition_law", "drift"):
            patch(filtering, name, "direct")
        patch(filtering.PosteriorState, "survival", "direct")
        patch(filtering.PosteriorState, "expectation", "direct")
        patch(filtering.TransitionLaw, "continuous_density", "direct")
        patch(filtering, "innovation_path", "innovation")

        paths.iter_ensemble_chunks = self.wrap_generator(
            "simulate", paths.iter_ensemble_chunks, lambda ens: len(ens) * ens.n_steps)
        for name in ("simulate_ensemble", "simulate_information_path"):
            patch(paths, name, "simulate")  # work is counted in their chunks
        patch(paths, "simulate_bridge_ensemble", "simulate",
              lambda a, k: (a[4] if len(a) > 4 else k["n_paths"]) * _steps(a[2], a[3]))
        patch(paths, "simulate_deterministic_bridge", "simulate",
              lambda a, k: _steps(a[2], a[3]))
        patch(paths, "simulate_brownian_motion", "simulate",
              lambda a, k: _steps(a[0], a[1]))

        for name in ("occupation_increments", "tanaka_increments"):
            patch(localtime, name, "increments", lambda a, k: _cells(a[0]))
        for name in ("occupation_local_time", "tanaka_local_time"):
            patch(localtime, name, "increments")  # work is counted in the increments

        patch(compensator.IntensityKernel, "__init__", "kernel_build")
        patch(compensator.IntensityKernel, "__call__", "kernel_query")
        for name in ("compensator_K", "compensator_frak", "meyer_approx_Ah",
                     "martingale_N", "martingale_M"):
            patch(compensator, name, "reduce")

        patch(verify, "compensator_products", "products")
        patch(verify, "run_verification_suite", "criteria")
        retry = lambda a, k: int((a[1] if len(a) > 1 else k.get("attempt", 0)) > 0)
        verify.CRITERIA[:] = [(name, self.wrap("criteria", fn, retry))
                              for name, fn in verify.CRITERIA]

        for name in ("cmd_simulate", "cmd_posterior", "cmd_compensator", "cmd_verify"):
            patch(cli, name, "command")

    def span_cost(self, calls=2000, repeats=7):
        """Seconds one recorded span adds to a call: a wrapped no-op with a
        work count against the bare no-op, each the fastest of ``repeats``
        loops of ``calls`` calls.  The recorded spans are discarded."""
        def noop(x):
            return x

        wrapped = self.wrap("command", noop, lambda a, k: int(np.size(a[0])))
        mark, active = len(self.spans), self.active
        self.active = True

        def fastest(fn):
            best = float("inf")
            for _ in range(repeats):
                t0 = perf_counter()
                for _ in range(calls):
                    fn(0.0)
                best = min(best, perf_counter() - t0)
            return best / calls

        cost = fastest(wrapped) - fastest(noop)
        del self.spans[mark:]
        self.active = active
        return cost

    def layer_metrics(self, names, traced_wall_s, rounds):
        """The per-layer metrics ``names`` per round from the recorded spans;
        a metric these spans feed that is not in ``names`` is an error."""
        spans = self.spans
        n = len(spans)
        child_time = np.zeros(n)
        for rec in spans:
            if rec[3] >= 0:
                child_time[rec[3]] += rec[2] - rec[1]

        def ancestors(i):
            j = spans[i][3]
            while j >= 0:
                yield spans[j][0]
                j = spans[j][3]

        out = dict.fromkeys(names, 0.0)
        for i, (kind, start, end, _, work, raised) in enumerate(spans):
            above = list(ancestors(i))
            key = _SELF_TIME[kind]
            # Direct queries made while filling a table are table-build work.
            if kind == "direct" and "build" in above:
                key = _SELF_TIME["build"]
            out[key] += end - start - child_time[i]
            outermost = not any(_layer(a) == _layer(kind) for a in above)
            if kind == "tail":
                out["kernels.calls"] += 1
                out["kernels.x_points"] += work
                out["kernels.errors"] += int(raised)
            elif kind == "build":
                out["filtering.table_builds"] += 1
            elif kind == "table_query":
                out["filtering.table_query_points"] += work
            elif kind == "direct" and outermost:
                out["filtering.direct_queries"] += 1
            elif kind == "simulate":
                out["paths.calls"] += int(outermost)
                out["paths.path_steps"] += work
            elif kind == "increments":
                out["localtime.calls"] += int(outermost)
                out["localtime.cells"] += work
            elif kind == "reduce":
                out["compensator.reduce_calls"] += 1
            elif kind == "criteria":
                out["verify.retries"] += work
        attributed = sum(out[k] for k in _SELF_TIME.values())
        out["trace.wall_s"] = traced_wall_s
        out["trace.unattributed_s"] = traced_wall_s - attributed
        out["trace.spans"] = n
        out["trace.overhead_s"] = n * self.span_cost()
        return {k: v / rounds for k, v in out.items()}
