"""Span recorder for the traced pass, and the per-layer report built from it.

The recorder wraps the module attributes through which the program's layers
call each other (``BINDINGS``).  Each wrapped call records a span (name,
start, end, parent span, operation id) in memory; hot entry points whose span
cost would distort the pass are counted, not spanned.  A layer's self time is
its span's duration minus the durations of its child spans: the program is
single-threaded, so children run one after another inside their parent.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter


def _rref_work(rec, args, out):
    rows = args[0]
    rec.counts["linalg.rref.work"] += len(rows) * (len(rows[0]) if rows else 0) * len(out[1])


def _verdict(rec, args, out):
    rec.counts[f"bundles.verdict.{out.status}"] += 1


def _bytes_out(rec, args, out):
    rec.counts["serialize.bytes_out"] += len(out.encode())


# (module, attribute, span name, after-call hook).  Attributes are wrapped on
# the module whose code makes the call, so a span marks a layer boundary:
# e.g. ``endalg.kernel`` counts the kernels endalg asks for, not the ones
# ``linalg.intersect`` computes internally.  ``linalg._rref_rows`` is the one
# global wrap: every elimination in linalg, plus the ones fans makes directly.
BINDINGS = (
    ("linalg", "_rref_rows", "linalg.rref", _rref_work),
    ("fans", "_rref_rows", "linalg.rref", _rref_work),
    ("bundles", "intersect", "linalg.intersect", None),
    ("bundles", "subspace_sum", "linalg.subspace_sum", None),
    ("bundles", "cone_grading", "bundles.cone_grading", None),
    ("bundles", "adapted_basis_oracle", "bundles.oracle", None),
    ("bundles", "dual_basis", "fans.dual_basis", None),
    ("cohiggs", "dual_basis", "fans.dual_basis", None),
    ("cli", "is_vector_bundle", "bundles.is_vector_bundle", _verdict),
    ("cohiggs", "is_vector_bundle", "bundles.is_vector_bundle", _verdict),
    ("cli", "validate_fan", "fans.validate_fan", None),
    ("cli", "classify", "cohiggs.classify", None),
    ("cli", "validate_field", "cohiggs.validate_field", None),
    ("cli", "verify_integrability", "cohiggs.verify_integrability", None),
    ("cohiggs", "filtered_endos", "endalg.filtered_endos", None),
    ("cohiggs", "is_commutative", "endalg.is_commutative", None),
    ("cohiggs", "center", "endalg.center", None),
    ("cohiggs", "tuple_variety_equations", "endalg.tuple_variety_equations", None),
    ("endalg", "structure_constants", "endalg.structure_constants", None),
    ("endalg", "solve_linear", "linalg.solve_linear", None),
    ("endalg", "kernel", "linalg.kernel", None),
    ("serialize", "load_bundle", "serialize.load", None),
    ("serialize", "load_field", "serialize.load", None),
    ("serialize", "file_digest", "serialize.load", None),
    ("serialize", "bundle_verdict_to_obj", "serialize.emit", None),
    ("serialize", "classification_to_obj", "serialize.emit", None),
    ("serialize", "field_verdict_to_obj", "serialize.emit", None),
    ("serialize", "integrability_to_obj", "serialize.emit", None),
    ("serialize", "dumps_canonical", "serialize.emit", _bytes_out),
)

# Counted, not spanned: called hundreds of thousands of times per pass.
COUNTED = (("linalg", "as_vec", "linalg.as_vec.calls"),)
_COUNTED_NAMES = frozenset(name for _, _, name in COUNTED)

# Per-layer metrics: (name, unit, better).  ``.calls`` counts spans,
# ``.s`` is the wall time the named spans cover, ``.self_s`` their self time.
LAYER_METRICS = (
    ("linalg.rref.calls", "count", "lower"),
    ("linalg.rref.s", "s", "lower"),
    ("linalg.rref.work", "count", "lower"),
    ("linalg.as_vec.calls", "count", "lower"),
    ("linalg.intersect.calls", "count", "lower"),
    ("linalg.intersect.s", "s", "lower"),
    ("linalg.subspace_sum.calls", "count", "lower"),
    ("linalg.subspace_sum.s", "s", "lower"),
    ("bundles.cone_grading.calls", "count", "lower"),
    ("bundles.cone_grading.self_s", "s", "lower"),
    ("bundles.oracle.calls", "count", "lower"),
    ("bundles.oracle.s", "s", "lower"),
    ("bundles.verdict.compatible", "count", "higher"),
    ("bundles.verdict.incompatible", "count", "higher"),
    ("bundles.verdict.indeterminate", "count", "lower"),
    ("linalg.kernel.calls", "count", "lower"),
    ("linalg.kernel.s", "s", "lower"),
    ("linalg.solve_linear.calls", "count", "lower"),
    ("linalg.solve_linear.s", "s", "lower"),
    ("endalg.filtered_endos.s", "s", "lower"),
    ("endalg.is_commutative.s", "s", "lower"),
    ("endalg.center.s", "s", "lower"),
    ("endalg.structure_constants.s", "s", "lower"),
    ("endalg.structure_constants.calls", "count", "lower"),
    ("endalg.tuple_variety_equations.self_s", "s", "lower"),
    ("fans.validate_fan.s", "s", "lower"),
    ("fans.dual_basis.calls", "count", "lower"),
    ("fans.dual_basis.s", "s", "lower"),
    ("cohiggs.classify.self_s", "s", "lower"),
    ("cohiggs.validate_field.s", "s", "lower"),
    ("cohiggs.verify_integrability.s", "s", "lower"),
    ("serialize.load.s", "s", "lower"),
    ("serialize.emit.s", "s", "lower"),
    ("serialize.bytes_out", "bytes", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


class Recorder:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, op id)
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []

    def span(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if after is not None:
                after(self, args, out)
            return out

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, modules: dict):
        """Wrap every binding in ``modules``; returns a function that undoes it."""
        saved = []
        for mod, attr, name, after in BINDINGS:
            fn = getattr(modules[mod], attr)
            saved.append((modules[mod], attr, fn))
            setattr(modules[mod], attr, self.span(name, fn, after))
        for mod, attr, name in COUNTED:
            fn = getattr(modules[mod], attr)
            saved.append((modules[mod], attr, fn))
            setattr(modules[mod], attr, self.counter(name, fn))

        def restore():
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

        return restore

    def write(self, path) -> None:
        with gzip.open(path, "wt") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps([name, start, end, parent, op]) + "\n")


def self_times(spans) -> list[float]:
    """Per span: its duration minus the durations of its children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_report(rec: Recorder, overhead: float) -> dict:
    """Every metric of ``LAYER_METRICS``, as ``{name: {"value", "unit"}}``."""
    calls: Counter = Counter()
    total: Counter = Counter()
    self_total: Counter = Counter()
    selfs = self_times(rec.spans)
    for idx, (name, start, end, parent, _) in enumerate(rec.spans):
        calls[name] += 1
        self_total[name] += selfs[idx]
        # nested spans of the same name are already inside the outer one
        p = parent
        while p >= 0 and rec.spans[p][0] != name:
            p = rec.spans[p][3]
        if p < 0:
            total[name] += end - start
    values = {"trace.overhead": overhead}
    for metric, _, _ in LAYER_METRICS:
        if metric in values:
            continue
        base, _, kind = metric.rpartition(".")
        if kind == "calls" and metric not in _COUNTED_NAMES:
            values[metric] = calls[base]
        elif kind == "s":
            values[metric] = float(total[base])
        elif kind == "self_s":
            values[metric] = float(self_total[base])
        else:
            values[metric] = rec.counts[metric]
    units = {m: u for m, u, _ in LAYER_METRICS}
    return {m: {"value": values[m], "unit": units[m]} for m, _, _ in LAYER_METRICS}
