"""Span tracing for the traced run (``--trace 1``).

``Tracer.install`` wraps the public functions that mark a layer boundary of
dilogzeta.  Modules import names directly (``cli.zeta_via_d``,
``zerofree.d_quad``, ``mellin.zeta_ref``), so the wrapper replaces every
attribute of every dilogzeta module that is bound to one of those functions.
Each call records a span (layer, start, end, parent) in memory; the spans are
reduced to per-layer figures when the run ends.  A layer's self time is the
duration of its spans minus the time covered by their child spans.  The
untraced run never imports this module.
"""

from __future__ import annotations

import functools
import sys
import time

# layer -> (module, functions).  A function not listed here is charged to the
# layer of the nearest listed caller.
LAYERS = {
    "cli": ("dilogzeta.cli", ("main",)),
    "zeta_reps": ("dilogzeta.zeta_reps", ("zeta_via_d", "zeta_via_e", "zeta_via_f")),
    "mellin.period_sum": ("dilogzeta.mellin", ("d_quad", "e_quad", "f_quad")),
    "mellin.closed": ("dilogzeta.mellin", ("d_closed", "e_closed", "f_closed")),
    "mellin.gamma_series": ("dilogzeta.mellin", ("d_gamma_series",)),
    "specfun.zeta_ref": ("dilogzeta.specfun", ("zeta_ref", "zeta_eta_path")),
    "specfun.inc_gamma": ("dilogzeta.specfun", ("inc_gamma", "inc_gamma_many")),
    "zerofree.residual": ("dilogzeta.zerofree", ("zero_residual",)),
    "zerofree.refine": ("dilogzeta.zerofree", ("_golden_min",)),
    "zerofree.certify": ("dilogzeta.zerofree", ("certify", "c_bracket")),
    "muntz": ("dilogzeta.muntz", (
        "triangle", "gaussian", "mellin_numeric", "mellin_theta_check", "muntz_lhs_rhs",
        "corollary_5_5_residual", "mellin_fourier_phi", "mellin_fourier_phi_numeric",
        "muntz_rederivation_residual",
    )),
}
BENCH = "bench"  # the benchmark's own work: one root span per request
# Calls whose (first argument, result) the checker compares with the oracle.
CAPTURED = {"zeta_via_d", "zeta_via_e", "zeta_via_f", "d_quad", "e_quad", "f_quad", "zeta_ref"}
# Called per quadrature sample: counted, not spanned.
COUNTED = {"kernels.kernel_eval": ("dilogzeta.kernels", "kernel_eval")}

LAYER_NAMES = (BENCH, *LAYERS)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (layer index, start ns, end ns, parent index)
        self._stack = [-1]
        self.captures: list = []  # (function name, first argument, result)
        self.counts = {key: [0] for key in COUNTED}

    def wrap(self, fn, layer: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        captures, lid = self.captures, LAYER_NAMES.index(layer)
        name = fn.__name__
        capture = name in CAPTURED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (lid, t0, clock(), parent)
                stack.pop()
            if capture:
                captures.append((name, args[0], result))
            return result

        return wrapper

    def _counter(self, fn, key: str):
        cell = self.counts[key]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Bind the wrappers in place of the originals, wherever bound."""
        by_id = {}
        for layer, (modname, names) in LAYERS.items():
            for name in names:
                fn = getattr(sys.modules[modname], name)
                by_id[id(fn)] = (fn, self.wrap(fn, layer))
        for key, (modname, name) in COUNTED.items():
            fn = getattr(sys.modules[modname], name)
            by_id[id(fn)] = (fn, self._counter(fn, key))
        for modname, mod in list(sys.modules.items()):
            if modname != "dilogzeta" and not modname.startswith("dilogzeta."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def summary(self, wall_ns: int) -> dict:
        """Per-layer self time and entry count; time outside every root span
        is the benchmark's own and is added to ``bench``."""
        spans = self.spans
        covered = [0] * len(spans)
        for lid, t0, t1, parent in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        self_ns = dict.fromkeys(LAYER_NAMES, 0)
        calls = dict.fromkeys(LAYER_NAMES, 0)
        residual = refine = 0
        root_ns = 0
        res_id, ref_id = LAYER_NAMES.index("zerofree.residual"), LAYER_NAMES.index("zerofree.refine")
        for i, (lid, t0, t1, parent) in enumerate(spans):
            name = LAYER_NAMES[lid]
            self_ns[name] += (t1 - t0) - covered[i]
            if parent < 0:
                root_ns += t1 - t0
            if parent < 0 or spans[parent][0] != lid:
                calls[name] += 1
            if lid == res_id:
                residual += 1
                refine += parent >= 0 and spans[parent][0] == ref_id
        self_ns[BENCH] += wall_ns - root_ns
        return {
            "self_s": {k: v / 1e9 for k, v in self_ns.items()},
            "calls": calls,
            "counts": {k: c[0] for k, c in self.counts.items()},
            "residual_calls": residual,
            "refine_calls": refine,
            "spans": len(spans),
            "captures": [_capture_row(*c) for c in self.captures],
        }


def _capture_row(name: str, arg, result) -> list:
    z, v = complex(arg), complex(result.value)
    return [name, z.real, z.imag, v.real, v.imag, float(result.abs_err), int(result.work)]


def calibrate(repeats: int = 5, calls: int = 20000) -> dict:
    """Cost in ns of one span and of one counted call, from timing wrapped
    and bare calls of a no-op function (best of ``repeats``)."""

    def noop(x):
        return x

    def best(fn):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            for i in range(calls):
                fn(i)
            times.append(time.perf_counter_ns() - t0)
        return min(times) / calls

    tracer = Tracer()
    tracer.counts["calibration"] = [0]
    bare = best(noop)
    span = best(tracer.wrap(noop, BENCH)) - bare
    count = best(tracer._counter(noop, "calibration")) - bare
    return {"span_ns": max(span, 0.0), "count_ns": max(count, 0.0)}
