"""Per-layer spans and counters, recorded from outside the package.

Each traced function is replaced, at the module attribute its caller
looks it up through, by a wrapper that records a span (name, start,
end, parent) and reads work counters from the call's return value (or,
where the work is fixed by the input, from its arguments).  Counters
therefore repeat exactly between runs of the same inputs; times do not.

Wrappers exist only inside ``Tracer.installed()``; the original
functions are put back when it exits, also on error.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median

ROOT = "cli.main"

SURGERY_KINDS = ("NotHomotopySphere", "HomeoS4Certified", "NontrivialPi1", "Unknown")
CORD_KINDS = ("TrivialCordClass", "NontrivialCordCertified", "Unknown")


def _kind(kind: str, allowed: tuple[str, ...]) -> str:
    if kind not in allowed:
        raise ValueError(f"unexpected verdict kind {kind!r}")
    return kind


def _surgery(args, result):
    return {
        "relator_letters": result.pi1.total_relator_length(),
        f"surgery.verdict.{_kind(result.verdict.kind, SURGERY_KINDS)}": 1,
    }


def _cord(args, result):
    return {f"ribbon.verdict.{_kind(result.kind, CORD_KINDS)}": 1}


def _enumeration(args, result):
    """Counters shared by the three coset-enumeration entry points.

    certify_trivial and subgroup_membership report an overflow as kind
    "Unknown"; enumerate_cosets returns an Overflow.
    """
    overflowed = getattr(result, "kind", None) == "Unknown" or type(result).__name__ == "Overflow"
    return {
        "cosets_defined": result.cosets_defined,
        "collapses": result.collapses,
        "completed": int(not overflowed),
        "overflows": int(overflowed),
        "wasted_cosets": result.cosets_defined if overflowed else 0,
    }


def _quotient(args, result):
    if result is None:
        return {"found": 0}
    return {"found": 1, "witness_degree_max": result.degree}


# span name -> (binding sites "module:attribute", counters(args, result)).
# A counter key without a dot is appended to the span name; a key with
# one is a full metric name.  Keys ending in "_max" keep the largest
# value, all others are summed.
# A binding site is the name the caller resolves at call time, so that
# nested entry points (certify_trivial calls enumerate_cosets inside
# coset_enum) are not counted twice.
LAYERS: dict[str, tuple[tuple[str, ...], object]] = {
    "cli.main": (("pochette.cli:main",), None),
    "surgery.surgery_invariants": (("pochette.cli:surgery_invariants",), _surgery),
    "ribbon.cord_triviality": (
        ("pochette.cli:cord_triviality",),
        _cord,
    ),
    "words.substitute": (
        ("pochette.surgery:substitute", "pochette.presentations:substitute"),
        lambda args, result: {"letters_out": len(result)},
    ),
    "presentations.add_relator": (
        ("pochette.surgery:add_relator",),
        lambda args, result: {"letters_in": args[0].total_relator_length() + len(args[1])},
    ),
    "presentations.parse_presentation": (
        ("pochette.cli:parse_presentation", "pochette.ribbon:parse_presentation"),
        None,
    ),
    "presentations.tietze_simplify": (
        ("pochette.cli:tietze_simplify",),
        lambda args, result: {
            "steps": result.steps,
            "exhausted": int(result.budget_exhausted),
        },
    ),
    "abelian.hom_to_Z": (
        ("pochette.surgery:hom_to_Z", "pochette.ribbon:hom_to_Z"),
        lambda args, result: {
            "matrix_cells": len(args[0].relators) * len(args[0].alphabet)
        },
    ),
    "abelian.abelian_invariants": (("pochette.cli:abelian_invariants",), None),
    "coset_enum.certify_trivial": (("pochette.surgery:certify_trivial",), _enumeration),
    "coset_enum.subgroup_membership": (
        ("pochette.ribbon:subgroup_membership",),
        _enumeration,
    ),
    "coset_enum.enumerate_cosets": (("pochette.cli:enumerate_cosets",), _enumeration),
    "quotient_search.find_noncyclic_quotient": (
        ("pochette.ribbon:find_noncyclic_quotient",),
        _quotient,
    ),
}

# Per-layer metrics, in report order: (name, unit).
_COSET_FIELDS = (
    ("calls", "count"),
    ("busy_s", "s"),
    ("cosets_defined", "count"),
    ("collapses", "count"),
    ("cosets_per_s", "1/s"),
    ("completed", "count"),
    ("overflows", "count"),
    ("wasted_cosets", "count"),
)
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("words.substitute.calls", "count"),
    ("words.substitute.busy_s", "s"),
    ("words.substitute.letters_out", "count"),
    ("presentations.add_relator.calls", "count"),
    ("presentations.add_relator.busy_s", "s"),
    ("presentations.add_relator.letters_in", "count"),
    ("presentations.add_relator.letters_per_s", "1/s"),
    ("presentations.parse_presentation.calls", "count"),
    ("presentations.parse_presentation.busy_s", "s"),
    ("presentations.tietze_simplify.calls", "count"),
    ("presentations.tietze_simplify.busy_s", "s"),
    ("presentations.tietze_simplify.steps", "count"),
    ("presentations.tietze_simplify.exhausted", "count"),
    ("abelian.hom_to_Z.calls", "count"),
    ("abelian.hom_to_Z.busy_s", "s"),
    ("abelian.hom_to_Z.matrix_cells", "count"),
    ("abelian.abelian_invariants.calls", "count"),
    ("abelian.abelian_invariants.busy_s", "s"),
    *(
        (f"coset_enum.{fn}.{field_}", unit)
        for fn in ("certify_trivial", "subgroup_membership", "enumerate_cosets")
        for field_, unit in _COSET_FIELDS
    ),
    ("quotient_search.find_noncyclic_quotient.calls", "count"),
    ("quotient_search.find_noncyclic_quotient.busy_s", "s"),
    ("quotient_search.find_noncyclic_quotient.found", "count"),
    ("quotient_search.find_noncyclic_quotient.found_share", "ratio"),
    ("quotient_search.find_noncyclic_quotient.witness_degree_max", "count"),
    ("surgery.surgery_invariants.calls", "count"),
    ("surgery.surgery_invariants.busy_s", "s"),
    ("surgery.surgery_invariants.self_s", "s"),
    ("surgery.surgery_invariants.relator_letters", "count"),
    *((f"surgery.verdict.{kind}", "count") for kind in SURGERY_KINDS),
    ("ribbon.cord_triviality.calls", "count"),
    ("ribbon.cord_triviality.busy_s", "s"),
    ("ribbon.cord_triviality.self_s", "s"),
    *((f"ribbon.verdict.{kind}", "count") for kind in CORD_KINDS),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.main.report_bytes", "count"),
    ("trace.overhead_s", "s"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root


@dataclass
class Tracer:
    """Spans and counters for one traced pass; ``reset`` starts the next."""

    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _stack: list[int] = field(default_factory=list)

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def count(self, name: str, amount: int):
        if name.endswith("_max"):
            self.counts[name] = max(self.counts[name], amount)
        else:
            self.counts[name] += amount

    def _wrap(self, name: str, fn, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # Calls made outside a query, by the benchmark's own checks,
            # are not part of the workload.
            if name != ROOT and not self._stack:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counters is not None:
                for key, amount in counters(args, result).items():
                    self.count(key if "." in key else f"{name}.{key}", amount)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every binding site with a traced wrapper; restore on exit."""
        originals: list[tuple[object, str, object]] = []
        try:
            for name, (sites, counters) in LAYERS.items():
                for site in sites:
                    module_name, attribute = site.split(":")
                    module = importlib.import_module(module_name)
                    original = getattr(module, attribute)
                    originals.append((module, attribute, original))
                    setattr(module, attribute, self._wrap(name, original, counters))
            yield self
        finally:
            for module, attribute, original in reversed(originals):
                setattr(module, attribute, original)

    def layer_times(self) -> dict[str, tuple[float, float]]:
        """span name -> (busy seconds, self seconds).

        Self time is the span's duration minus that of its direct
        children; calls are sequential, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict[str, tuple[float, float]] = {}
        for span, children in zip(self.spans, child_time):
            busy, own = out.get(span.name, (0.0, 0.0))
            duration = span.end - span.start
            out[span.name] = (busy + duration, own + duration - children)
        return out

    def pass_counters(self) -> dict[str, int]:
        """Every deterministic counter of the pass, span calls included."""
        counters = dict(self.counts)
        for span in self.spans:
            key = f"{span.name}.calls"
            counters[key] = counters.get(key, 0) + 1
        return counters


def per_layer_metrics(
    counters: dict[str, int],
    times: list[dict[str, tuple[float, float]]],
    overhead_s: float,
) -> dict[str, float]:
    """Every PER_LAYER metric from one pass's counters and all passes' times.

    Times are medians over the traced passes; a rate divides a counter
    by the median busy time of the same span.
    """

    def median_time(span: str, slot: int) -> float:
        return median(t[span][slot] if span in t else 0.0 for t in times)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator > 0 else 0.0

    metrics: dict[str, float] = {}
    for name, _ in PER_LAYER:
        span, _, metric = name.rpartition(".")
        if name == "trace.overhead_s":
            metrics[name] = overhead_s
        elif metric == "busy_s":
            metrics[name] = median_time(span, 0)
        elif metric == "self_s":
            metrics[name] = median_time(span, 1)
        elif metric == "letters_per_s":
            metrics[name] = ratio(counters.get(f"{span}.letters_in", 0), median_time(span, 0))
        elif metric == "cosets_per_s":
            metrics[name] = ratio(counters.get(f"{span}.cosets_defined", 0), median_time(span, 0))
        elif metric == "found_share":
            metrics[name] = ratio(counters.get(f"{span}.found", 0), counters.get(f"{span}.calls", 0))
        else:
            metrics[name] = counters.get(name, 0)
    return metrics
