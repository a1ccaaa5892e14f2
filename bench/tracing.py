"""Spans around qminv's public functions, recorded from outside the library.

``Tracer.install`` replaces each traced function in every qminv module that
looks it up (``qminv.invariants.wall_components``,
``qminv.quotloc.slice_euler_bruteforce``, ...) with a wrapper that records
a span: name, start, end, parent.  Spans stay in memory; ``write`` puts
them in a file when the run ends.  ``count_fractions`` is a separate pass
that only counts ``Fraction.__new__``, because a wrapper on every
Fraction would distort the spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction

import qminv.arith
import qminv.cli
import qminv.exactalg
import qminv.invariants
import qminv.quotloc
import qminv.selfcheck

import workloads

MODULES = (
    qminv.arith,
    qminv.exactalg,
    qminv.quotloc,
    qminv.invariants,
    qminv.selfcheck,
    qminv.cli,
    workloads,
)

# (defining module, attribute, span name)
FUNCTIONS = [
    (qminv.arith, "divisors", "arith.divisors"),
    (qminv.arith, "solve_base_degrees", "arith.solve_base_degrees"),
    (qminv.arith, "canonical_u_choice", "arith.canonical_u_choice"),
    (workloads, "build_query", "arith.query_build"),
    (qminv.exactalg, "laurent_residue", "exactalg.laurent_residue"),
    (qminv.exactalg, "series_log_product", "exactalg.series_log_product"),
    (qminv.quotloc, "wall_components", "quotloc.wall_components"),
    (qminv.quotloc, "slice_euler_bruteforce", "quotloc.slice_euler_bruteforce"),
    (qminv.quotloc, "normal_bundle_inverse_expansion", "quotloc.normal_bundle_inverse_expansion"),
    (qminv.quotloc, "component_residue_degree", "quotloc.component_residue_degree"),
    (qminv.invariants, "qm_elliptic_closed", "invariants.qm_elliptic_closed"),
    (qminv.invariants, "qm_elliptic_oracle", "invariants.qm_elliptic_oracle"),
    (qminv.invariants, "qm_moduli", "invariants.qm_moduli"),
    (qminv.invariants, "series_identity_odd", "invariants.series_identity"),
    (qminv.invariants, "series_identity_even", "invariants.series_identity"),
    (qminv.selfcheck, "run_selfcheck", "selfcheck.run_selfcheck"),
    (qminv.cli, "main", "cli.main"),
]

QSERIES_OPERATORS = ("__add__", "__sub__", "__neg__", "__mul__", "scale", "negate_variable", "exp")

# Span detail recorded from a call: the (r, k) of a slice, the number of
# wall components returned.
DETAILS = {
    "quotloc.slice_euler_bruteforce": lambda args, result: (args[0], args[1].deg),
    "quotloc.wall_components": lambda args, result: len(result),
}


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent index, detail)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        detail_of = DETAILS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                detail = detail_of(args, result) if detail_of and result is not None else None
                spans[index] = (name, start, end, parent, detail)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def install(self):
        """Patch every traced function where qminv looks it up; undo on exit."""
        patches = []
        for home, attr, name in FUNCTIONS:
            original = getattr(home, attr)
            wrapper = self.wrap(name, original)
            for module in MODULES:
                if getattr(module, attr, None) is original:
                    patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
        qseries = qminv.exactalg.QSeries
        for attr in QSERIES_OPERATORS:
            original = qseries.__dict__[attr]
            patches.append((qseries, attr, original))
            setattr(qseries, attr, self.wrap("exactalg.qseries_arith", original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def aggregate(self) -> dict:
        """Per span name: calls, total and self nanoseconds, details."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0, "details": []})
        for index, (name, start, end, _, detail) in enumerate(self.spans):
            entry = stats[name]
            entry["calls"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += end - start - child_ns[index]
            if detail is not None:
                entry["details"].append(detail)
        return stats

    def write(self, path) -> None:
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [[index[n], s, e, p] for n, s, e, p, _ in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": names, "columns": ["name", "start_ns", "end_ns", "parent"], "spans": rows}, handle)


@contextmanager
def count_fractions():
    """Count ``Fraction.__new__`` calls; yields a one-element list."""
    counter = [0]
    original = Fraction.__dict__["__new__"]
    new = original.__func__

    def counting_new(cls, *args, **kwargs):
        counter[0] += 1
        return new(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting_new)
    try:
        yield counter
    finally:
        Fraction.__new__ = original
