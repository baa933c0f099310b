"""Spans around the calls the CLI makes into each layer of polygauss.

The tracer replaces public functions where they are looked up — names in
``polygauss.cli``'s namespace, ``polygauss.functionals.solve_chain_lp`` and
``polygauss.density.evaluate_batch`` — with wrappers that record a span
(layer, function, start, end, parent span, operation) and a work count.
Spans stay in memory; ``run.py`` writes them when the run ends.  Nothing in
the program changes, so a traced operation must write the same data files
as an untraced one.
"""

from __future__ import annotations

import hashlib
import importlib
import time
from dataclasses import dataclass

import numpy as np

FUNCTIONALS = (
    "default_probe_grid", "shift_modulus_curve", "dual_modulus_curve",
    "modulus_equivalence_check", "small_set_check", "envelope_check",
    "degree_envelope_check", "tv_vs_kr_check", "balancing_epsilon",
    "tv_kr_rate_ratio",
)

# (module, attribute) -> layer.  Names the CLI calls but that are not listed
# (polynomial arithmetic, leading_magnitude, saving samples, the CF decay
# fit, ...) count as cli self time.
WRAPPED = {
    ("polygauss.cli", "random_in_class"): "poly.draw",
    ("polygauss.density", "evaluate_batch"): "poly.eval",
    ("polygauss.cli", "sample"): "density.sample",
    ("polygauss.cli", "histogram_density"): "density.histogram",
    ("polygauss.cli", "ecdf"): "density.ecdf",
    ("polygauss.cli", "variance"): "moments.variance",
    ("polygauss.cli", "variance_via_hermite"): "moments.variance",
    ("polygauss.functionals", "solve_chain_lp"): "lp.solve",
    ("polygauss.cli", "ecf_modulus"): "charfn.ecf",
    **{("polygauss.cli", name): "functionals" for name in FUNCTIONALS},
}


# Per-layer metrics and units.  Times and counts are per operation; the
# ratios are taken over all operations of the run.
PER_LAYER_UNITS = {
    "poly.draw_s": "s",
    "poly.eval_s": "s",
    "density.sample_s": "s",
    "density.sample_calls": "count",
    "density.samples_drawn": "count",
    "density.histogram_s": "s",
    "density.ecdf_s": "s",
    "moments.variance_s": "s",
    "lp.solve_s": "s",
    "lp.solves": "count",
    "lp.unique_ratio": "ratio",
    "lp.us_per_cell": "us",
    "functionals.self_s": "s",
    "charfn.ecf_s": "s",
    "charfn.ecf_terms": "count",
    "charfn.ns_per_term": "ns",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_ratio": "ratio",
}
PER_OP_MEANS = (
    "poly.draw_s", "poly.eval_s", "density.sample_s", "density.sample_calls",
    "density.samples_drawn", "density.histogram_s", "density.ecdf_s",
    "moments.variance_s", "lp.solve_s", "lp.solves", "functionals.self_s",
    "charfn.ecf_s", "charfn.ecf_terms", "cli.self_s",
)


@dataclass
class Span:
    layer: str
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None for an operation
    op: int
    work: float = 0.0  # samples drawn, LP cells or ECF terms
    key: str = ""  # LP problem identity: weights digest, box, step


def _work(layer: str, args, kwargs) -> tuple[float, str]:
    if layer == "density.sample":
        return float(args[1] if len(args) > 1 else kwargs["n_samples"]), ""
    if layer == "lp.solve":
        w = np.asarray(args[0], dtype=np.float64)
        digest = hashlib.blake2b(w.tobytes(), digest_size=16).hexdigest()
        return float(w.shape[0]), f"{digest}/{args[1]!r}/{args[2]!r}"
    if layer == "charfn.ecf":
        return float(args[0].count * len(args[1])), ""
    return 0.0, ""


class Tracer:
    """Records spans while installed; ``operation`` opens the span every
    layer span of one CLI invocation hangs under."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for (module_name, attr), layer in WRAPPED.items():
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, f"{module_name}.{attr}", original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, layer: str, name: str, fn):
        def traced(*args, **kwargs):
            work, key = _work(layer, args, kwargs)
            return self._span(layer, name, fn, args, kwargs, work, key)

        return traced

    def _span(self, layer, name, fn, args, kwargs, work=0.0, key=""):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(layer, name, 0.0, 0.0, parent, self._op, work, key)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def operation(self, label: str, fn, *args):
        """Run fn(*args) as one operation span labelled ``label``."""
        self._op += 1
        return self._span("op", label, fn, args, {})


def op_metrics(spans: list[Span], op_index: int) -> dict[str, float]:
    """Per-layer sums for one operation.  A span's self time is its duration
    minus that of its direct children."""
    mine = [(i, s) for i, s in enumerate(spans) if s.op == op_index]
    child_time: dict[int, float] = {}
    for _, s in mine:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.end - s.start
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    work: dict[str, float] = {}
    keys: set[str] = set()
    for i, s in mine:
        dur = s.end - s.start
        total[s.layer] = total.get(s.layer, 0.0) + dur
        self_time[s.layer] = self_time.get(s.layer, 0.0) + dur - child_time.get(i, 0.0)
        calls[s.layer] = calls.get(s.layer, 0) + 1
        work[s.layer] = work.get(s.layer, 0.0) + s.work
        if s.key:
            keys.add(s.key)
    return {
        "poly.draw_s": total.get("poly.draw", 0.0),
        "poly.eval_s": total.get("poly.eval", 0.0),
        "density.sample_s": self_time.get("density.sample", 0.0),
        "density.sample_calls": calls.get("density.sample", 0),
        "density.samples_drawn": work.get("density.sample", 0.0),
        "density.histogram_s": total.get("density.histogram", 0.0),
        "density.ecdf_s": total.get("density.ecdf", 0.0),
        "moments.variance_s": total.get("moments.variance", 0.0),
        "lp.solve_s": total.get("lp.solve", 0.0),
        "lp.solves": calls.get("lp.solve", 0),
        "lp.distinct": len(keys),
        "lp.cells": work.get("lp.solve", 0.0),
        "functionals.self_s": self_time.get("functionals", 0.0),
        "charfn.ecf_s": total.get("charfn.ecf", 0.0),
        "charfn.ecf_terms": work.get("charfn.ecf", 0.0),
        "cli.self_s": self_time.get("op", 0.0),
    }
