"""Span tracing for the traced benchmark run.

The tracer wraps public functions of the ntcircle modules from outside:
it rebinds the module and class attributes that callers look up, so the
library itself is unchanged.  Every wrapped call records one span
(name, grid size N, parent span, start, end) in memory; spans are written
out once the run is over.  A span's self time is its duration minus the
durations of its direct children, so the `_s` metrics below never count
the same nanosecond twice.  FFTs are traced through a private copy of the
numpy namespace bound into `fourier`, so only FFTs issued by that module
are counted.
"""

from __future__ import annotations

import collections
import functools
import gzip
import math
import os
import time
import types

import numpy as np

NEWTON_QP = "solver_qp.newton_solve"

# per-layer metric -> unit, in the order they are reported
LAYER_UNITS = {
    "fourier.scalar_allocs": "count",
    "fourier.scalar_alloc_s": "s",
    "fourier.fft_calls": "count",
    "fourier.fft_s": "s",
    "fourier.fft_flops_computed": "flop",
    "fourier.shift_calls": "count",
    "fourier.shift_s": "s",
    "fourier.dealias_calls": "count",
    "fourier.dealias_s": "s",
    "fourier.cohomological_s": "s",
    "frame.torsion_s": "s",
    "frame.vartheta_qp_s": "s",
    "frame.reducibility_s": "s",
    "frame.vartheta_general_s": "s",
    "maps.eval_calls": "count",
    "maps.eval_s": "s",
    "maps.jacobian_s": "s",
    "solver_qp.geometries": "count",
    "solver_qp.newton_solves": "count",
    "solver_qp.newton_iters": "count",
    "solver_qp.ffts_per_iter": "count",
    "solver_qp.steffensen_s": "s",
    "solver_qp.eps_derivative_s": "s",
    "solver_qp.accept_ratio": "ratio",
    "solver_qp.regrids": "count",
    "solver_qp.max_n": "N",
    "solver_qp.floor_accepts": "count",
    "solver_general.stencil_builds": "count",
    "solver_general.stencil_s": "s",
    "solver_general.newton_steps": "count",
    "solver_general.fixed_point_iters": "count",
    "solver_general.invert_s": "s",
    "solver_general.accept_ratio": "ratio",
    "solver_general.birkhoff_s": "s",
    "solver_general.ambient_points": "count",
    "cli.config_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "trace.untraced_wall_ref_s": "s",
    "trace.wall_ref_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.spans": "count",
}


def grid_size(args) -> int:
    """Grid size N of the first argument that has one, else 0."""
    for a in args:
        n = getattr(a, "n", None)        # PeriodicScalar, TorusEmbedding, GridCircle
        if isinstance(n, int):
            return n
        k = getattr(a, "k", None)        # QpState
        if isinstance(getattr(k, "n", None), int):
            return k.n
        if isinstance(a, np.ndarray) and a.ndim >= 1:
            return a.shape[-1]
        if isinstance(a, tuple) and a:   # a (x, y) pair of fields
            return grid_size(a[:1])
    return 0


class Tracer:
    """In-memory span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.spans = []                  # [name, n, parent, start_ns, end_ns]
        self.counters = collections.Counter()
        self._stack = []
        self._patches = []               # (owner, attribute, original)

    def wrap(self, name, fn, size=grid_size, after=None):
        """fn with a span around every call; after(counters, args, result)."""
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, size(args), stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if after is not None:
                after(counters, args, out)
            return out

        return traced

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _everywhere(self, modules, fn, wrapped) -> None:
        """Rebind every module-level name bound to fn."""
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, key, wrapped)

    def install(self) -> None:
        """Patch the ntcircle layers; undo with uninstall()."""
        import ntcircle
        from ntcircle import cli, fourier, frame, maps, solver_general, solver_qp

        modules = (ntcircle, cli, fourier, frame, maps, solver_general, solver_qp)

        def func(mod, attr, name, **kw):
            fn = getattr(mod, attr)
            self._everywhere(modules, fn, self.wrap(name, fn, **kw))

        def method(cls, attr, name, **kw):
            self._set(cls, attr, self.wrap(name, getattr(cls, attr), **kw))

        # fourier: allocations, FFTs, shifts, dealiasing, cohomological solves
        method(fourier.PeriodicScalar, "__init__", "fourier.scalar_alloc",
               size=lambda a: np.size(a[1]))
        fft = types.ModuleType("numpy.fft")
        fft.__dict__.update(np.fft.__dict__)
        fft.rfft = self.wrap("fourier.fft", np.fft.rfft,
                             size=lambda a: np.shape(a[0])[-1])
        fft.irfft = self.wrap("fourier.fft", np.fft.irfft,
                              size=lambda a: a[1] if len(a) > 1
                              else 2 * (np.shape(a[0])[-1] - 1))
        np_copy = types.ModuleType("numpy")
        np_copy.__dict__.update(np.__dict__)
        np_copy.fft = fft
        self._set(fourier, "np", np_copy)
        func(fourier, "shift", "fourier.shift")
        func(fourier, "dealias", "fourier.dealias")
        func(fourier, "solve_contractive", "fourier.cohomological")
        func(fourier, "solve_small_divisor", "fourier.cohomological")

        # frame: torsion and transfer solves, reducibility check, regrids
        func(frame, "torsion0", "frame.torsion")
        func(frame, "vartheta_qp", "frame.vartheta_qp")
        func(frame, "reducibility_error", "frame.reducibility",
             size=lambda a: a[0].gram.n)
        func(frame, "vartheta_general", "frame.vartheta_general")
        method(frame.TorusEmbedding, "resample", "frame.resample",
               size=lambda a: a[1])
        # geometries are counted where solver_qp asks for a tangent
        self._set(solver_qp, "tangent",
                  self.wrap("frame.tangent", solver_qp.tangent))

        # maps: evaluations and derivatives along the circle or orbit
        fam = maps.StandardNonTwistMap
        method(fam, "eval_lift", "maps.eval")
        method(fam, "jacobian", "maps.jacobian")
        for attr in ("d_a", "d_mu", "d_eps"):
            method(fam, attr, "maps.param_derivs")

        # solver_qp: Newton solves and iterations, continuation accepts
        def after_newton(c, args, state):
            if state.diagnostics.invariance_error > args[0].tol:
                c["solver_qp.floor_accepts"] += 1

        def after_continue(c, args, result):
            c["solver_qp.accepted"] += len(result.records)

        func(solver_qp, "newton_solve", NEWTON_QP, after=after_newton)
        func(solver_qp, "steffensen_update", "solver_qp.steffensen")
        func(solver_qp, "eps_derivative", "solver_qp.eps_derivative")
        func(solver_qp, "continue_in_eps", "solver_qp.continue",
             after=after_continue)

        # solver_general: stencils, Newton steps, inversions, Birkhoff orbits
        def after_step(c, args, out):
            c["solver_general.fixed_point_iters"] += out[2].fixed_point_iters

        def after_sweep(c, args, records):
            c["solver_general.sweep_points"] += len(records)

        func(solver_general, "interp_stencil", "solver_general.stencil",
             size=lambda a: a[0])
        func(solver_general, "newton_step_general", "solver_general.newton_step",
             after=after_step)
        func(solver_general, "invert_map", "solver_general.invert")
        func(solver_general, "newton_solve_general", "solver_general.newton_solve")
        func(solver_general, "rotation_number", "solver_general.birkhoff")
        func(solver_general, "ambient_rotation_number", "solver_general.ambient")
        func(solver_general, "sweep_parameter", "solver_general.sweep",
             after=after_sweep)

        # cli: config parsing and table writes
        def after_write(c, args, _):
            c["cli.bytes_written"] += os.path.getsize(args[0])

        func(cli, "load_config", "cli.config")
        func(cli, "write_csv", "cli.write", after=after_write)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- derived numbers ---------------------------------------------------

    def self_times(self) -> list:
        """Self time of every span in ns (duration minus direct children)."""
        own = [end - start for _, _, _, start, end in self.spans]
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def by_layer(self) -> list:
        """Rows (name, N, calls, self_s, total_s), one per span name and N."""
        acc = collections.defaultdict(lambda: [0, 0, 0])
        for rec, own in zip(self.spans, self.self_times()):
            row = acc[(rec[0], rec[1])]
            row[0] += 1
            row[1] += own
            row[2] += rec[4] - rec[3]
        return [(name, n, calls, own * 1e-9, total * 1e-9)
                for (name, n), (calls, own, total) in sorted(acc.items())]

    def metrics(self) -> dict:
        """The per-layer metrics; 0 for a layer the workload never called."""
        spans, c = self.spans, self.counters
        calls = collections.Counter()
        own_s = collections.defaultdict(float)
        for rec, own in zip(spans, self.self_times()):
            calls[rec[0]] += 1
            own_s[rec[0]] += own * 1e-9
        # FFTs issued while a QP Newton solve is open (parents precede children)
        in_newton = [False] * len(spans)
        fft_in_newton = 0
        regrids = 0
        max_n = 0
        flops = 0.0
        for i, (name, n, parent, _, _) in enumerate(spans):
            if parent >= 0:
                in_newton[i] = in_newton[parent] or spans[parent][0] == NEWTON_QP
            if name == "fourier.fft":
                flops += 2.5 * n * math.log2(n)
                fft_in_newton += in_newton[i]
            elif name == "frame.resample" and parent >= 0:
                regrids += spans[parent][0].startswith("solver_qp.")
            elif name == NEWTON_QP:
                max_n = max(max_n, n)

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "fourier.scalar_allocs": calls["fourier.scalar_alloc"],
            "fourier.scalar_alloc_s": own_s["fourier.scalar_alloc"],
            "fourier.fft_calls": calls["fourier.fft"],
            "fourier.fft_s": own_s["fourier.fft"],
            "fourier.fft_flops_computed": flops,
            "fourier.shift_calls": calls["fourier.shift"],
            "fourier.shift_s": own_s["fourier.shift"],
            "fourier.dealias_calls": calls["fourier.dealias"],
            "fourier.dealias_s": own_s["fourier.dealias"],
            "fourier.cohomological_s": own_s["fourier.cohomological"],
            "frame.torsion_s": own_s["frame.torsion"],
            "frame.vartheta_qp_s": own_s["frame.vartheta_qp"],
            "frame.reducibility_s": own_s["frame.reducibility"],
            "frame.vartheta_general_s": own_s["frame.vartheta_general"],
            "maps.eval_calls": calls["maps.eval"],
            "maps.eval_s": own_s["maps.eval"],
            "maps.jacobian_s": own_s["maps.jacobian"],
            "solver_qp.geometries": calls["frame.tangent"],
            "solver_qp.newton_solves": calls[NEWTON_QP],
            "solver_qp.newton_iters": calls["solver_qp.steffensen"],
            "solver_qp.ffts_per_iter": ratio(fft_in_newton,
                                             calls["solver_qp.steffensen"]),
            "solver_qp.steffensen_s": own_s["solver_qp.steffensen"],
            "solver_qp.eps_derivative_s": own_s["solver_qp.eps_derivative"],
            "solver_qp.accept_ratio": ratio(c["solver_qp.accepted"],
                                            calls[NEWTON_QP]),
            "solver_qp.regrids": regrids,
            "solver_qp.max_n": max_n,
            "solver_qp.floor_accepts": c["solver_qp.floor_accepts"],
            "solver_general.stencil_builds": calls["solver_general.stencil"],
            "solver_general.stencil_s": own_s["solver_general.stencil"],
            "solver_general.newton_steps": calls["solver_general.newton_step"],
            "solver_general.fixed_point_iters": c["solver_general.fixed_point_iters"],
            "solver_general.invert_s": own_s["solver_general.invert"],
            "solver_general.accept_ratio": ratio(
                c["solver_general.sweep_points"],
                calls["solver_general.newton_solve"]),
            "solver_general.birkhoff_s": own_s["solver_general.birkhoff"],
            "solver_general.ambient_points": calls["solver_general.ambient"],
            "cli.config_s": own_s["cli.config"],
            "cli.write_s": own_s["cli.write"],
            "cli.bytes_written": c["cli.bytes_written"],
        }

    def write(self, spans_path: str, layers_path: str) -> None:
        """Spans as gzipped CSV (times relative to the first span), per-N rows."""
        t0 = self.spans[0][3] if self.spans else 0
        with gzip.open(spans_path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("id,parent,name,n,start_ns,end_ns\n")
            for i, (name, n, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{n},{start - t0},{end - t0}\n")
        with open(layers_path, "w", encoding="ascii") as fh:
            fh.write("name,n,calls,self_s,total_s\n")
            for name, n, calls, own, total in self.by_layer():
                fh.write(f"{name},{n},{calls},{own:.9f},{total:.9f}\n")
