"""Layer spans recorded from outside the library.

Tracer.install() replaces every public function of every toriso layer
module with a wrapper that records one span (name, start, end, parent)
per call, wherever the function is bound: in its own module (so calls
inside a module are seen), in each module that imported it by name, and
in the package namespace.  A few wrappers also read counts off the
return value.  Spans stay in memory until write_spans() saves them at the
end of the run; restore() puts every original attribute back.  Untraced
runs never create a Tracer.

layer_metrics() turns the spans of one traced batch into the per-layer
metrics declared in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import time
from dataclasses import dataclass, field

LAYERS = (
    "linalg",
    "lattices",
    "enumeration",
    "spectra",
    "isometry",
    "decomposition",
    "codes",
    "search",
    "formats",
    "cli",
)
# modules whose namespaces may hold a bound copy of a layer function
NAMESPACES = ("toriso",) + tuple(f"toriso.{m}" for m in LAYERS) + ("toriso.triplet",)


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    failed: bool = False
    counts: dict = field(default_factory=dict)
    # run_search only: progress-callback times and checkpoint state
    marks: list = field(default_factory=list)
    resumed: bool = False
    checkpoint_bytes: int = 0


def _distinct_candidates(q2, stats) -> int:
    # columns with equal target diagonal share one candidate shell
    shells = {}
    for j, count in enumerate(stats.candidate_counts):
        shells[q2.matrix.at(j, j)] = count
    return sum(shells.values())


def _count_equivalence(args, kwargs, result):
    q2 = args[1] if len(args) > 1 else kwargs["q2"]
    stats = result.stats
    return {
        "nodes": stats.nodes,
        "candidates": _distinct_candidates(q2, stats),
        "budget_exhausted": int(any("budget" in note for note in stats.notes)),
    }


def _count_certificate(args, kwargs, result):
    return {
        "values_compared": len(result.table),
        "inconclusive": int(result.verdict.value == "Inconclusive"),
    }


def _count_report(args, kwargs, result):
    return {
        "codes_scanned": result.codes_scanned,
        "buckets": result.distinct_distributions,
        "collisions": len(result.collisions),
    }


COUNTERS = {
    "enumeration.enumerate_up_to": lambda args, kwargs, result: {"vectors": len(result)},
    "isometry.integral_equivalence": _count_equivalence,
    "spectra.certify": _count_certificate,
    "search.run_search": _count_report,
}


def _watch_search(span: Span, kwargs: dict) -> dict:
    """run_search keyword arguments with a progress callback that stamps
    each finished partition into the span, then calls the caller's own."""
    path = kwargs.get("checkpoint_path")
    span.resumed = path is not None and os.path.exists(path)
    inner = kwargs.get("progress")

    def progress(done, total):
        span.marks.append(time.perf_counter())
        if path is not None:  # saved just before each callback
            span.checkpoint_bytes = os.path.getsize(path)
        if inner is not None:
            inner(done, total)

    return {**kwargs, "progress": progress}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            if name == "search.run_search":
                kwargs = _watch_search(span, kwargs)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.failed = True
                stats = getattr(exc, "stats", None)  # SearchBudgetExceeded
                if stats is not None and name == "isometry.integral_equivalence":
                    span.counts = {"nodes": stats.nodes, "budget_exhausted": 1}
                raise
            finally:
                span.end = clock()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public layer function at every binding site."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"toriso.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == module.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for modname in NAMESPACES:
            module = importlib.import_module(modname)
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def restore(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def _durations(spans: list[Span]):
    """Inclusive time per name (outermost spans of each name only) and
    self time per name (span time minus its direct children's time)."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    inclusive: dict[str, float] = {}
    self_time: dict[str, float] = {}
    for i, s in enumerate(spans):
        dur = s.end - s.start
        self_time[s.name] = self_time.get(s.name, 0.0) + dur - child_time[i]
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            inclusive[s.name] = inclusive.get(s.name, 0.0) + dur
    return inclusive, self_time


def _under(spans: list[Span], i: int, name: str) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def _search_metrics(spans: list[Span]) -> dict:
    intervals: list[float] = []
    scan = orbit = resume = 0.0
    checkpoint_bytes = 0
    for s in spans:
        if s.name != "search.run_search":
            continue
        stamps = [s.start] + s.marks
        intervals += [b - a for a, b in zip(stamps, stamps[1:])]
        scan += stamps[-1] - s.start
        if s.resumed:
            resume += s.end - s.start
        checkpoint_bytes = max(checkpoint_bytes, s.checkpoint_bytes)
        if not s.failed:
            verify = sum(
                v.end - v.start
                for v in spans
                if v.name == "search.verify_tuple" and s.start <= v.start and v.end <= s.end
            )
            orbit += s.end - stamps[-1] - verify
    growth = 0.0
    if intervals:
        quarter = max(1, len(intervals) // 4)
        growth = statistics.fmean(intervals[-quarter:]) / statistics.fmean(intervals[:quarter])
    return {
        "search.scan_s": scan,
        "search.partition_p50_s": statistics.median(intervals) if intervals else 0.0,
        "search.orbit_s": orbit,
        "search.partition_growth": growth,
        "search.checkpoint_bytes": checkpoint_bytes,
        "search.resume_s": resume,
    }


def _total(spans: list[Span], name: str, key: str, under: str | None = None) -> int:
    return sum(
        s.counts.get(key, 0)
        for i, s in enumerate(spans)
        if s.name == name and (under is None or _under(spans, i, under))
    )


def layer_metrics(spans: list[Span], overhead_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced batch, keyed by metric name."""
    inclusive, self_time = _durations(spans)
    vectors = _total(spans, "enumeration.enumerate_up_to", "vectors")
    shell_vectors = _total(spans, "enumeration.enumerate_up_to", "vectors", "isometry.integral_equivalence")
    candidates = _total(spans, "isometry.integral_equivalence", "candidates")
    out = {
        "enumeration.enumerate_up_to.self_s": self_time.get("enumeration.enumerate_up_to", 0.0),
        "enumeration.rep_spectrum.self_s": self_time.get("enumeration.rep_spectrum", 0.0),
        "enumeration.vectors": vectors,
        "isometry.integral_equivalence.self_s": self_time.get("isometry.integral_equivalence", 0.0),
        "isometry.nodes": _total(spans, "isometry.integral_equivalence", "nodes"),
        "isometry.candidates": candidates,
        "isometry.shell_use_ratio": candidates / shell_vectors if shell_vectors else 0.0,
        "isometry.budget_exhausted": _total(spans, "isometry.integral_equivalence", "budget_exhausted"),
        "linalg.lll_reduce.s": inclusive.get("linalg.lll_reduce", 0.0),
        "linalg.eigenvalue_lower_bound.s": inclusive.get("linalg.eigenvalue_lower_bound", 0.0),
        "linalg.hnf.s": inclusive.get("linalg.hnf", 0.0),
        "spectra.certify.self_s": self_time.get("spectra.certify", 0.0),
        "spectra.values_compared": _total(spans, "spectra.certify", "values_compared"),
        "spectra.inconclusive": _total(spans, "spectra.certify", "inconclusive"),
        "decomposition.decompose.self_s": self_time.get("decomposition.decompose", 0.0),
        "codes.canonical_monomial_form.s": inclusive.get("codes.canonical_monomial_form", 0.0),
        "codes.lift.s": inclusive.get("codes.lift", 0.0),
        "codes.project.s": inclusive.get("codes.project", 0.0),
        "search.codes_scanned": _total(spans, "search.run_search", "codes_scanned"),
        "search.buckets": _total(spans, "search.run_search", "buckets"),
        "search.verify_tuple.s": inclusive.get("search.verify_tuple", 0.0),
        "search.collisions": _total(spans, "search.run_search", "collisions"),
        "formats.write_search_results.s": inclusive.get("formats.write_search_results", 0.0),
        "cli.main.s": inclusive.get("cli.main", 0.0),
        "trace.overhead_s": overhead_s,
    }
    out.update(_search_metrics(spans))
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer module."""
    _, self_time = _durations(spans)
    out: dict[str, float] = {}
    for name, t in self_time.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + t
    return out


def write_spans(spans: list[Span], path) -> None:
    """One JSON object per span, in start order; parent is a line index."""
    with open(path, "w") as fh:
        for i, s in enumerate(spans):
            record = {"id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
            if s.counts:
                record["counts"] = s.counts
            fh.write(json.dumps(record) + "\n")


def coverage(spans: list[Span], wall: float) -> float:
    """Share of a batch's wall time spent inside top-level layer spans."""
    return sum(s.end - s.start for s in spans if s.parent < 0) / wall
