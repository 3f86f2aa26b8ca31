"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` rebinds each traced function, in every ``isospectra``
module namespace that holds it, to a wrapper that records one span per call
while an operation span is open.  Calls outside an operation (input
generation, checks) pass straight through.  Spans stay in memory;
``Tracer.metrics`` reduces them to per-layer numbers.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# the layers are the package modules; each entry is one public function
TRACED = (
    "cli.main",
    "cli.draw_spec",
    "families.build_polynomial",
    "families.refine_zeros",
    "families.compute_zeros",
    "families.max_defining_residual",
    "numeric.poly_roots",
    "numeric.matrix_eigenvalues",
    "numeric.multiset_match",
    "matrices.build_matrix",
    "matrices.identity_residual",
    "matrices.verify_matrix",
    "dynamics.nonlinear_rhs",
    "dynamics.integrate",
    "dynamics.algebraic_trajectory",
    "dynamics.equilibrium_residual",
    "dynamics.evolve_compare",
)

# accuracy beside time: metric name -> (traced function, residual taken from its result)
ACCURACY = {
    "families.compute_zeros.forward_error_digits": (
        "families.compute_zeros", lambda zs: zs.max_poly_residual),
    "numeric.matrix_eigenvalues.spectral_digits": (
        "matrices.verify_matrix", lambda report: report.spectral_residual),
    "matrices.identity_residual.digits": (
        "matrices.identity_residual", lambda r: float(np.max(np.abs(r)))),
    "dynamics.integrate.deviation_digits": (
        "dynamics.evolve_compare", lambda rec: rec.max_deviation),
}
_KEEP_RESULT = {fn for fn, _ in ACCURACY.values()}

OP = "op"


def digits(residual: float) -> float:
    """-log10 of a residual, floored at 1e-300 so an exact zero stays finite."""
    return -math.log10(max(float(residual), 1e-300))


def metric_names() -> list[str]:
    names = []
    for fn in TRACED:
        p50 = "p50_ms" if fn == "cli.main" else "p50_us"
        names += [f"{fn}.calls", f"{fn}.total_s", f"{fn}.{p50}", f"{fn}.failed"]
    names += ["cli.unattributed_s", *ACCURACY,
              "trace.ops", "trace.overhead_s", "trace.overhead_frac", "trace.leaf_coverage_p50"]
    return names


class Tracer:
    def __init__(self):
        self.spans = []   # [id, parent, name, t0, t1, failed, result]
        self._stack = []
        self._patched = []

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "isospectra" or n.startswith("isospectra.")]
        for qual in TRACED:
            mod_name, fn_name = qual.split(".")
            original = getattr(sys.modules[f"isospectra.{mod_name}"], fn_name)
            wrapper = self._wrap(qual, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, qual, fn):
        spans, stack = self.spans, self._stack
        keep = qual in _KEEP_RESULT

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            sid = len(spans)
            span = [sid, stack[-1], qual, 0.0, 0.0, True, None]
            spans.append(span)
            stack.append(sid)
            span[3] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                span[5] = qual == "cli.main" and out != 0
                if keep:
                    span[6] = out
                return out
            finally:
                span[4] = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def begin_op(self) -> list:
        span = [len(self.spans), None, OP, 0.0, 0.0, False, None]
        self.spans.append(span)
        self._stack.append(span[0])
        span[3] = time.perf_counter()
        return span

    def end_op(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()

    def metrics(self, untraced_s: float, scale: float) -> dict:
        """Per-layer metrics; times are multiplied by `scale` (see speed.py)."""
        spans = self.spans
        children = defaultdict(list)
        for s in spans:
            if s[1] is not None:
                children[s[1]].append(s)
        by_name = defaultdict(list)
        for s in spans:
            by_name[s[2]].append(s)

        out = {}
        for fn in TRACED:
            rows = by_name.get(fn, [])
            durations = [(s[4] - s[3]) * scale for s in rows]
            p50 = statistics.median(durations) if durations else 0.0
            out[f"{fn}.calls"] = len(rows)
            out[f"{fn}.total_s"] = float(sum(durations))
            if fn == "cli.main":
                out[f"{fn}.p50_ms"] = p50 * 1e3
            else:
                out[f"{fn}.p50_us"] = p50 * 1e6
            out[f"{fn}.failed"] = sum(1 for s in rows if s[5])

        out["cli.unattributed_s"] = scale * float(sum(
            (s[4] - s[3]) - sum(c[4] - c[3] for c in children[s[0]])
            for s in by_name.get("cli.main", [])
        ))
        for metric, (fn, residual) in ACCURACY.items():
            values = [residual(s[6]) for s in by_name.get(fn, []) if s[6] is not None]
            out[metric] = digits(max(values)) if values else 0.0

        ops = by_name.get(OP, [])
        traced_s = sum(s[4] - s[3] for s in ops)
        coverage = []
        for op in ops:
            leaves, todo = 0.0, list(children[op[0]])
            while todo:
                s = todo.pop()
                kids = children[s[0]]
                if kids:
                    todo.extend(kids)
                else:
                    leaves += s[4] - s[3]
            coverage.append(leaves / max(op[4] - op[3], 1e-12))
        out["trace.ops"] = len(ops)
        out["trace.overhead_s"] = (traced_s - untraced_s) * scale
        out["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s if untraced_s > 0 else 0.0
        out["trace.leaf_coverage_p50"] = statistics.median(coverage) if coverage else 0.0
        return out
