"""In-memory span recorder and the call wrappers of the traced run.

Spans are recorded around calls into ``apseq`` modules by wrappers that the
benchmark installs at the names callers look up (module attributes), so the
program itself carries no instrumentation.  Counts are taken from the
arguments and return values at the same boundaries.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time

# Every module whose attributes callers look functions up in.
MODULES = (
    "apseq",
    "apseq.cli",
    "apseq.evaluate",
    "apseq.localize",
    "apseq.mapgen",
    "apseq.model",
    "apseq.propagation",
    "apseq.selection",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "attrs")

    def __init__(self, name, start, end, parent, request, attrs):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.request = request
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans in call order; ``parent`` is the index of the enclosing span."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request: int | None = None
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.request, None))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def finish(self, index: int, attrs: dict | None = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.attrs = attrs
        self._open.pop()

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line (gzip)."""
        with gzip.open(path, "wt") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\trequest\tattrs\n")
            for i, s in enumerate(self.spans):
                attrs = ",".join(f"{k}={v}" for k, v in (s.attrs or {}).items())
                fh.write(
                    f"{i}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\t"
                    f"{'' if s.parent is None else s.parent}\t"
                    f"{'' if s.request is None else s.request}\t{attrs}\n"
                )


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append(s.duration - covered)
    return out


def _samples(window) -> int:
    return sum(len(series) for series in window.aps.values())


def _k_arg(args, kwargs):
    return kwargs.get("k", args[2] if len(args) > 2 else None)


# span name -> (defining module, function, counts taken at the boundary).
# Counts read only public fields; a field a later version drops reads None.
TARGETS = {
    "cli.main": ("apseq.cli", "main", lambda a, kw, r: {"command": (a[0] if a else kw["argv"])[0], "rc": r}),
    "evaluate.window_sweep": ("apseq.evaluate", "window_sweep", None),
    "evaluate.run_experiment": ("apseq.evaluate", "run_experiment", None),
    "evaluate.build_stores": ("apseq.evaluate", "build_stores", None),
    "mapgen.build_map_store": (
        "apseq.mapgen",
        "build_map_store",
        lambda a, kw, r: {"k": r.k, "regions": sum(m.n_regions for m in r.maps.values())},
    ),
    "mapgen.build_fingerprint_map": (
        "apseq.mapgen",
        "build_fingerprint_map",
        lambda a, kw, r: {"cells": r.grid.n_cells, "regions": r.n_regions},
    ),
    "mapgen.map_store_to_text": (
        "apseq.mapgen",
        "map_store_to_text",
        lambda a, kw, r: {"k": a[0].k, "bytes": len(r.encode())},
    ),
    "mapgen.map_store_from_text": ("apseq.mapgen", "map_store_from_text", None),
    "propagation.synth_window": (
        "apseq.propagation",
        "synth_window",
        lambda a, kw, r: {"samples": _samples(r)},
    ),
    "localize.aggregate_scan": (
        "apseq.localize",
        "aggregate_scan",
        lambda a, kw, r: {"samples": _samples(a[0] if a else kw["window"])},
    ),
    "localize.localize": (
        "apseq.localize",
        "localize",
        lambda a, kw, r: {
            "k": _k_arg(a, kw),
            "hit": r.__class__.__name__ == "Estimate",
            "tried": getattr(r, "candidates_tried", None),
        },
    ),
    "selection.kmeans_1d": (
        "apseq.selection",
        "kmeans_1d",
        lambda a, kw, r: {"iterations": getattr(r, "iterations", None)},
    ),
    "selection.generate_candidate_sets": (
        "apseq.selection",
        "generate_candidate_sets",
        lambda a, kw, r: {"n": len(r)},
    ),
    "model.make_signature": ("apseq.model", "make_signature", None),
    "localize.match_signature": (
        "apseq.localize",
        "match_signature",
        lambda a, kw, r: {"hit": r is not None},
    ),
}


def _wrap(recorder: Recorder, name: str, fn, counts):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.begin(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            recorder.finish(index, counts(args, kwargs, result) if counts and result is not None else None)

    return wrapper


class Patches:
    """Replace every module attribute bound to a target function by a wrapper.

    ``install``/``remove`` are cheap, so the traced run can switch tracing on
    and off between blocks of operations.
    """

    def __init__(self, recorder: Recorder):
        originals = {}
        for name, (module, attr, counts) in TARGETS.items():
            fn = getattr(importlib.import_module(module), attr, None)
            if fn is not None:
                originals[id(fn)] = (fn, _wrap(recorder, name, fn, counts))
        self._sites = []  # (module, attr, original, wrapper)
        for module_name in MODULES:
            module = importlib.import_module(module_name)
            for attr, value in vars(module).items():
                if id(value) in originals and originals[id(value)][0] is value:
                    self._sites.append((module, attr, *originals[id(value)]))

    def install(self) -> None:
        for module, attr, _, wrapper in self._sites:
            setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original, _ in self._sites:
            setattr(module, attr, original)


def _mean(values) -> float:
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else 0.0


def _p99(values) -> float:
    values = sorted(v for v in values if v is not None)
    return values[min(len(values) - 1, int(0.99 * len(values)))] if values else 0.0


K_RANGE = range(3, 8)


def layer_metrics(spans: list[Span], timed_wall_s: float, overhead_ratio: float) -> dict:
    """Per-layer metrics as ``{name: (value, unit)}``.

    A layer the workload never calls reads 0.  ``timed_wall_s`` is the time
    the benchmark measured around the ops of its traced blocks; the
    top-level spans (those with a request id) should account for nearly all
    of it.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[tuple[Span, float]]] = {}
    for s, own in zip(spans, selfs):
        by_name.setdefault(s.name, []).append((s, own))

    def rows(name):
        return by_name.get(name, [])

    def mean_time(name, scale, own=False, where=lambda s: True):
        return _mean([(o if own else s.duration) * scale for s, o in rows(name) if where(s)])

    def attr(name, key):
        return [s.attrs.get(key) for s, _ in rows(name) if s.attrs]

    def last_per_k(name, key):
        per_k = {}
        for s, _ in rows(name):
            if s.attrs:
                per_k[s.attrs["k"]] = s.attrs[key]
        return sum(per_k.values())

    fmap = rows("mapgen.build_fingerprint_map")
    fmap_s = sum(s.duration for s, _ in fmap)
    synth = rows("propagation.synth_window")
    synth_s = sum(s.duration for s, _ in synth)
    tried = attr("localize.localize", "tried")
    hits = attr("localize.localize", "hit")
    top_s = sum(s.duration for s in spans if s.parent is None and s.request is not None)

    m = {
        "mapgen.build_fingerprint_map.calls": (len(fmap), "count"),
        "mapgen.build_fingerprint_map.ms_per_call": (mean_time("mapgen.build_fingerprint_map", 1e3), "ms"),
        "mapgen.cells_per_s": (sum(attr("mapgen.build_fingerprint_map", "cells")) / fmap_s if fmap_s else 0.0, "1/s"),
        "mapgen.build_map_store.ms": (mean_time("mapgen.build_map_store", 1e3), "ms"),
    }
    for k in K_RANGE:
        m[f"mapgen.build_map_store.ms.k{k}"] = (
            mean_time("mapgen.build_map_store", 1e3, where=lambda s: bool(s.attrs) and s.attrs["k"] == k),
            "ms",
        )
    m.update({
        "mapgen.map_store_to_text.ms": (mean_time("mapgen.map_store_to_text", 1e3), "ms"),
        "mapgen.map_store_from_text.ms": (mean_time("mapgen.map_store_from_text", 1e3), "ms"),
        "mapgen.map_store_from_text.self_ms": (mean_time("mapgen.map_store_from_text", 1e3, own=True), "ms"),
        "mapgen.regions": (last_per_k("mapgen.build_map_store", "regions"), "count"),
        "mapgen.store_text_bytes": (last_per_k("mapgen.map_store_to_text", "bytes"), "bytes"),
        "selection.kmeans_1d.us_per_call": (mean_time("selection.kmeans_1d", 1e6), "us"),
        "selection.kmeans_1d.iterations_mean": (_mean(attr("selection.kmeans_1d", "iterations")), "count"),
        "selection.generate_candidate_sets.us_per_call": (mean_time("selection.generate_candidate_sets", 1e6), "us"),
        "selection.candidates_generated_mean": (_mean(attr("selection.generate_candidate_sets", "n")), "count"),
        "localize.aggregate_scan.us_per_call": (mean_time("localize.aggregate_scan", 1e6), "us"),
        "localize.samples_per_scan": (_mean(attr("localize.aggregate_scan", "samples")), "count"),
        "localize.localize.self_us": (mean_time("localize.localize", 1e6, own=True), "us"),
        "model.make_signature.us_per_call": (mean_time("model.make_signature", 1e6), "us"),
        "localize.match_signature.calls": (len(rows("localize.match_signature")), "count"),
        "localize.candidates_tried_mean": (_mean(tried), "count"),
        "localize.candidates_tried_p99": (_p99(tried), "count"),
        "localize.hit_ratio": (sum(hits) / sum(t for t in tried if t) if any(tried) else 0.0, "ratio"),
    })
    for k in K_RANGE:
        outcomes = [s.attrs["hit"] for s, _ in rows("localize.localize") if s.attrs and s.attrs["k"] == k]
        m[f"localize.missed_rate.k{k}"] = (
            outcomes.count(False) / len(outcomes) if outcomes else 0.0,
            "ratio",
        )
    m.update({
        "propagation.synth_window.ms_per_call": (mean_time("propagation.synth_window", 1e3), "ms"),
        "propagation.samples_per_s": (sum(attr("propagation.synth_window", "samples")) / synth_s if synth_s else 0.0, "1/s"),
        "evaluate.run_experiment.self_ms": (mean_time("evaluate.run_experiment", 1e3, own=True), "ms"),
        "evaluate.build_stores.ms": (mean_time("evaluate.build_stores", 1e3), "ms"),
    })
    for command in ("mapgen", "localize"):
        m[f"cli.main.{command}.self_ms"] = (
            mean_time("cli.main", 1e3, own=True, where=lambda s: bool(s.attrs) and s.attrs["command"] == command),
            "ms",
        )
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    m["trace.top_level_coverage"] = (top_s / timed_wall_s if timed_wall_s else 0.0, "ratio")
    return m
