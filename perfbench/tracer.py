"""Outside-in tracing of roughdyn: spans around the public functions of each
module, installed by rebinding module attributes before a pass runs.

A name imported with ``from .x import y`` is bound in the importing module,
so it is wrapped where it is looked up (``roughdyn.solver.weighted_holder_norm``,
``roughdyn.dynsys.solve_mild``, ``roughdyn.fracint.frac_deriv_left_mid``).
Nothing in ``src/`` changes.  Spans are aggregated in memory as they close:
per span name the call count, inclusive time and the time covered by direct
child spans (self time = inclusive - child).  Counters record work sizes.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        # name -> [calls, inclusive seconds, seconds covered by child spans]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = defaultdict(float)
        self._stack = []

    def span(self, name, fn, after=None):
        """Wrap fn in a span; after(args, result, exc) updates counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            result, exc = None, None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                dur = time.perf_counter() - t0
                self._stack.pop()
                rec = self.spans[name]
                rec[0] += 1
                rec[1] += dur
                rec[2] += frame[0]
                if self._stack:
                    self._stack[-1][0] += dur
                if after is not None:
                    after(args, result, exc)

        return traced

    def calls(self, name):
        return self.spans[name][0] if name in self.spans else 0

    def inclusive(self, name):
        return self.spans[name][1] if name in self.spans else 0.0

    def self_time(self, name):
        if name not in self.spans:
            return 0.0
        _, total, child = self.spans[name]
        return total - child


def _rebind(module_name, attr, wrapper_for):
    mod = importlib.import_module(module_name)
    setattr(mod, attr, wrapper_for(getattr(mod, attr)))


def install(tracer: Tracer) -> None:
    """Rebind every traced roughdyn function to its span wrapper."""
    c = tracer.counters
    wrapped = {}

    def once(name, after=None):
        # one wrapper per original function, shared by every module that
        # looks the function up under its own name
        def wrapper_for(fn):
            if fn not in wrapped:
                wrapped[fn] = tracer.span(name, fn, after)
            return wrapped[fn]

        return wrapper_for

    def count_nodes(args, result, exc):
        c["paths.weighted_holder_norm.nodes"] += args[0].values.shape[0]

    def count_cells(args, result, exc):
        # (midpoint, cell) pairs of the O(n^2) sweep times columns, computed
        # from the input shape: n(n+1)/2 * m for an (n+1, m) input
        n1, m = args[0].shape
        c["kernels.frac_deriv.cells"] += (n1 - 1) * n1 // 2 * m

    def count_bytes(args, result, exc):
        if exc is None:
            c["io.bytes_written"] += os.path.getsize(args[0])

    def solve_stats(args, result, exc):
        cfg = args[3]
        if result is not None:
            traces = result.residual_traces
            c["solver.distinct"] += len(result)
            c["solver.rho_max"] = max(c["solver.rho_max"], result.rho)
        else:
            traces = getattr(exc, "residual_traces", [])
        c["solver.picard_iters"] += sum(len(t) for t in traces)
        c["solver.starts"] += len(traces)
        c["solver.converged"] += sum(1 for t in traces if t and t[-1] < cfg.fp_tol)

    def usc_stats(args, result, exc):
        if result is not None:
            c["dynsys.usc_failures"] += result["failures"]

    for mod in ("roughdyn.paths", "roughdyn.solver"):
        _rebind(mod, "weighted_holder_norm", once("paths.weighted_holder_norm", count_nodes))
    _rebind("roughdyn.paths", "sample_qfbm", once("paths.sample_qfbm"))
    _rebind("roughdyn.paths", "holder_seminorm", once("paths.holder_seminorm"))

    _rebind("roughdyn.fracint", "frac_deriv_left_mid", once("kernels.frac_deriv_left_mid", count_cells))
    _rebind("roughdyn.fracint", "frac_deriv_right_mid", once("kernels.frac_deriv_right_mid", count_cells))
    _rebind("roughdyn.fracint", "pathwise_integral", once("fracint.pathwise_integral"))
    _rebind("roughdyn.fracint", "pathwise_integral_window", once("fracint.pathwise_integral_window"))

    for mod in ("roughdyn.solver", "roughdyn.dynsys"):
        _rebind(mod, "solve_mild", once("solver.solve_mild", solve_stats))
    _rebind("roughdyn.solver", "apply_mild", once("solver.apply_mild"))

    _rebind("roughdyn.dynsys", "solution_map", once("dynsys.solution_map"))
    _rebind("roughdyn.dynsys", "hausdorff_semidist", once("dynsys.hausdorff_semidist"))
    _rebind("roughdyn.dynsys", "usc_probe", once("dynsys.usc_probe", usc_stats))

    _rebind("roughdyn.io", "write_report", once("io.write_report", count_bytes))
    _rebind("roughdyn.io", "write_series", once("io.write_series", count_bytes))

    def traced_build(build):
        # drift and diffusion are fields of the returned spec, called once
        # per grid node by apply_mild
        @functools.wraps(build)
        def build_heat_problem(*args, **kwargs):
            spec = build(*args, **kwargs)
            spec.drift = tracer.span("heat.drift", spec.drift)
            spec.diffusion = tracer.span("heat.diffusion", spec.diffusion)
            return spec

        return build_heat_problem

    _rebind("roughdyn.heat", "build_heat_problem", traced_build)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values of one traced pass, keyed by metric name."""
    t, c = tracer, tracer.counters
    starts = c["solver.starts"]
    return {
        "heat.drift.calls": t.calls("heat.drift"),
        "heat.drift.s": t.inclusive("heat.drift"),
        "heat.diffusion.calls": t.calls("heat.diffusion"),
        "heat.diffusion.s": t.inclusive("heat.diffusion"),
        "solver.solve_mild.calls": t.calls("solver.solve_mild"),
        "solver.solve_mild.s": t.inclusive("solver.solve_mild"),
        "solver.apply_mild.calls": t.calls("solver.apply_mild"),
        "solver.apply_mild.self_s": t.self_time("solver.apply_mild"),
        "solver.picard_iters": int(c["solver.picard_iters"]),
        "solver.probe_calls": t.calls("solver.apply_mild") - int(c["solver.picard_iters"]),
        "solver.starts": int(starts),
        "solver.converged_ratio": c["solver.converged"] / starts if starts else 0.0,
        "solver.distinct": int(c["solver.distinct"]),
        "solver.rho_max": c["solver.rho_max"],
        "paths.weighted_holder_norm.calls": t.calls("paths.weighted_holder_norm"),
        "paths.weighted_holder_norm.s": t.inclusive("paths.weighted_holder_norm"),
        "paths.weighted_holder_norm.nodes": int(c["paths.weighted_holder_norm.nodes"]),
        "paths.sample_qfbm.calls": t.calls("paths.sample_qfbm"),
        "paths.sample_qfbm.s": t.inclusive("paths.sample_qfbm"),
        "paths.holder_seminorm.s": t.inclusive("paths.holder_seminorm"),
        "kernels.frac_deriv_left_mid.s": t.inclusive("kernels.frac_deriv_left_mid"),
        "kernels.frac_deriv_right_mid.s": t.inclusive("kernels.frac_deriv_right_mid"),
        "kernels.frac_deriv.cells": int(c["kernels.frac_deriv.cells"]),
        "fracint.pathwise_integral.s": t.inclusive("fracint.pathwise_integral"),
        "fracint.pathwise_integral_window.self_s": t.self_time("fracint.pathwise_integral_window"),
        "dynsys.solution_map.calls": t.calls("dynsys.solution_map"),
        "dynsys.solution_map.self_s": t.self_time("dynsys.solution_map"),
        "dynsys.hausdorff_semidist.s": t.inclusive("dynsys.hausdorff_semidist"),
        "dynsys.usc_failures": int(c["dynsys.usc_failures"]),
        "io.write_series.s": t.inclusive("io.write_series"),
        "io.write_report.s": t.inclusive("io.write_report"),
        "io.bytes_written": int(c["io.bytes_written"]),
    }
