"""Layer tracing from outside the program.

:class:`Tracer` replaces every public function of the six ``heunops``
modules, in every ``heunops`` namespace that binds it, by a wrapper that
records a span (op, span id, parent span, name, start, end) and counts;
``Poly.__mul__``/``__rmul__`` are wrapped as well.  Time spent in a
function that is not wrapped (private helpers, ``Poly`` methods other
than the product) is self time of the nearest wrapped caller.

:func:`layer_metrics` turns one traced pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import os
import sys
import time
from array import array

MODULES = ("cli", "identities", "entropy", "bspline", "specfun", "exactalg")

# Function groups behind the named per-layer metrics.
SERIES = ("specfun.heun_local", "specfun.heun_local_deriv", "specfun.confluent_heun",
          "specfun.confluent_heun_deriv", "specfun.hyp2f1")
POLYFORM = ("specfun.heun_poly", "specfun.confluent_heun_poly", "specfun.hyp2f1_poly",
            "specfun.legendre_poly", "specfun.f_poly")
KERNEL_SUM = ("specfun.kernel_sum", "specfun.szasz_K")
MUL = ("exactalg.Poly.__mul__",)


class Tracer:
    def __init__(self) -> None:
        self.op = -1
        self.names: list[str] = []
        self.started = 0  # spans opened so far; the next span's id
        self.spans = array("q")  # op, span, parent, name index, start ns, end ns
        self.stack: list[list[int]] = []  # [span id, ns covered by children]
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.series_terms = 0
        self.series_terminated = 0
        self.coeff_pairs = 0
        self.knot_sets: set = set()

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        from heunops import exactalg

        namespaces = [m for name, m in sys.modules.items()
                      if name == "heunops" or name.startswith("heunops.")]
        for short in MODULES:
            module = importlib.import_module(f"heunops.{short}")
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isroutine(fn)
                        or fn.__module__ != module.__name__):
                    continue
                traced = self._wrap(f"{short}.{attr}", fn)
                for ns in namespaces:
                    for bound, obj in list(vars(ns).items()):
                        if obj is fn:
                            setattr(ns, bound, traced)
        mul = self._wrap("exactalg.Poly.__mul__", exactalg.Poly.__mul__)
        exactalg.Poly.__mul__ = exactalg.Poly.__rmul__ = mul

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        for table in (self.calls, self.total_ns, self.self_ns):
            table[name] = 0
        note = self._note_for(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.started
            tracer.started += 1
            parent = tracer.stack[-1][0] if tracer.stack else -1
            frame = [span, 0]
            tracer.stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer.stack.pop()
                elapsed = end - start
                if tracer.stack:
                    tracer.stack[-1][1] += elapsed
                tracer.spans.extend((tracer.op, span, parent, index, start, end))
                tracer.calls[name] += 1
                tracer.total_ns[name] += elapsed
                tracer.self_ns[name] += elapsed - frame[1]
            if note is not None:
                note(args, result)
            return result

        return traced

    def _note_for(self, name: str):
        if name in SERIES:
            def note(args, result):
                self.series_terms += result.terms_used
                self.series_terminated += bool(result.terminated)
            return note
        if name in MUL:
            def note(args, result):
                left, right = args
                self.coeff_pairs += len(left.coeffs) * len(getattr(right, "coeffs", (1,)))
            return note
        if name == "bspline.bspline_density":
            def note(args, result):
                knots = args[0]
                self.knot_sets.add(tuple(getattr(knots, "points", knots)))
            return note
        return None

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        return {"calls": self.calls, "total_ns": self.total_ns, "self_ns": self.self_ns,
                "series_terms": self.series_terms, "series_terminated": self.series_terminated,
                "coeff_pairs": self.coeff_pairs, "distinct_knot_sets": len(self.knot_sets)}

    def write(self, path: str) -> None:
        """Write the spans as gzipped tab-separated rows, one per call."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        rows = self.spans
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(0, len(rows), 6):
                op, span, parent, name, start, end = rows[i:i + 6]
                fh.write(f"{op}\t{span}\t{parent}\t{self.names[name]}\t{start}\t{end}\n")


def _group(summary: dict, key: str, names) -> float:
    return sum(summary[key].get(n, 0) for n in names)


def layer_metrics(summary: dict, op_seconds: float, bytes_out: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass; ``op_seconds`` is the summed
    latency of its ops, the base of every ``share``."""
    out: dict[str, float] = {}
    for mod in MODULES:
        names = [n for n in summary["calls"] if n.split(".")[0] == mod]
        self_s = _group(summary, "self_ns", names) / 1e9
        out[f"{mod}.calls"] = _group(summary, "calls", names)
        out[f"{mod}.self_s"] = self_s
        out[f"{mod}.share"] = self_s / op_seconds
    series_calls = _group(summary, "calls", SERIES)
    out["specfun.series.calls"] = series_calls
    out["specfun.series.ms_per_call"] = (
        _group(summary, "total_ns", SERIES) / 1e6 / series_calls if series_calls else 0.0)
    out["specfun.series.terms"] = summary["series_terms"]
    out["specfun.series.terminated_ratio"] = (
        summary["series_terminated"] / series_calls if series_calls else 0.0)
    out["specfun.polyform.calls"] = _group(summary, "calls", POLYFORM)
    out["specfun.quadrature.calls"] = summary["calls"]["specfun.quadrature"]
    out["specfun.quadrature.self_s"] = summary["self_ns"]["specfun.quadrature"] / 1e9
    out["specfun.kernel_sum.calls"] = _group(summary, "calls", KERNEL_SUM)
    out["exactalg.mul.calls"] = _group(summary, "calls", MUL)
    out["exactalg.mul.coeff_pairs"] = summary["coeff_pairs"]
    out["exactalg.mul.self_s"] = _group(summary, "self_ns", MUL) / 1e9
    out["exactalg.integrate_product.calls"] = summary["calls"]["exactalg.integrate_product"]
    out["exactalg.integrate_product.self_s"] = summary["self_ns"]["exactalg.integrate_product"] / 1e9
    density_calls = summary["calls"]["bspline.bspline_density"]
    out["bspline.density.calls"] = density_calls
    out["bspline.density.distinct_ratio"] = (
        summary["distinct_knot_sets"] / density_calls if density_calls else 0.0)
    out["bspline.kernel.calls"] = summary["calls"]["bspline.kernel"]
    out["entropy.s_direct_poly.calls"] = summary["calls"]["entropy.s_direct_poly"]
    out["entropy.s_direct_poly.self_s"] = summary["self_ns"]["entropy.s_direct_poly"] / 1e9
    out["entropy.kantorovich_poly.calls"] = summary["calls"]["entropy.kantorovich_poly"]
    out["entropy.sync.self_s"] = summary["self_ns"]["entropy.synchronicity_check"] / 1e9
    out["identities.verify.calls"] = summary["calls"]["identities.verify"]
    out["cli.bytes_out"] = bytes_out
    return out
