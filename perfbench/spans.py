"""In-memory span tracing around supplygraph's public functions.

``Tracer.install`` wraps the functions and methods listed in ``TARGETS`` in
place, in every ``supplygraph`` module that binds them, and ``uninstall``
puts the originals back, so untraced passes run the unmodified code. Each
call records a span: name, layer, start, end, parent span, run id and thread.
A span opened on a thread with no open span of its own (a crawler worker)
takes the innermost open span of the installing thread as its parent.

``layer_metrics`` turns one run's spans into the per-layer metrics. A
layer's self time is the sum over its spans of the span's duration minus the
part of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# (span name, module, attribute path). The layer is the part before the dot.
TARGETS = (
    ("corpus.load", "supplygraph.corpus", "load_corpus"),
    ("corpus.fetch", "supplygraph.corpus", "fetch_articles"),
    ("prompting.segment", "supplygraph.prompting", "segment_text"),
    ("prompting.render", "supplygraph.prompting", "build_extraction_prompt"),
    ("prompting.render", "supplygraph.prompting", "build_classification_prompt"),
    ("prompting.parse", "supplygraph.prompting", "parse_entity_list"),
    ("prompting.parse", "supplygraph.prompting", "parse_yes_no"),
    ("prompting.truncate", "supplygraph.prompting", "truncate_to_budget"),
    ("backends.call", "supplygraph.backends", "ScriptedBackend.complete"),
    ("backends.call", "supplygraph.backends", "HttpBackend.complete"),
    ("crawler.run", "supplygraph.crawler", "Crawler.run"),
    ("graph.upsert", "supplygraph.graph", "SupplyChainGraph.upsert_entity"),
    ("graph.comention", "supplygraph.graph", "SupplyChainGraph.add_comention"),
    ("graph.neighbors", "supplygraph.graph", "SupplyChainGraph.neighbors"),
    ("graph.sample", "supplygraph.graph", "SupplyChainGraph.sample_k_hop"),
    ("graph.load", "supplygraph.graph", "load_state"),
    ("graph.save", "supplygraph.graph", "save_state"),
    ("graph.export", "supplygraph.graph", "export_graph"),
    ("classify.graph", "supplygraph.classify", "classify_graph"),
    ("classify.entity", "supplygraph.classify", "classify_entity"),
)

# Called so often that a span each would dominate the trace: counted only.
COUNT_ONLY = frozenset({"graph.neighbors"})


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    thread: int
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _counts(name: str, args: tuple, kwargs: dict, result: Any, before: Any) -> dict[str, float]:
    """Work counts read at a boundary from the call's arguments and result."""
    if name == "corpus.fetch":
        return {"articles": len(result)}
    if name == "prompting.segment":
        return {"segments": len(result.segments)}
    if name == "prompting.parse" and before is not None:
        diagnostics = args[1] if len(args) > 1 else kwargs.get("diagnostics")
        return {"lines_skipped": diagnostics.lines_skipped - before}
    if name == "backends.call":
        return {"input_tokens": result.input_tokens, "output_tokens": result.output_tokens}
    if name == "crawler.run":
        return {"articles_applied": result[1].stats.articles_processed}
    if name == "graph.save":
        path = args[1] if len(args) > 1 else kwargs["path"]
        return {"state_bytes": os.path.getsize(path)}
    if name == "classify.graph":
        return {"undetermined": len(result.undetermined_pairs())}
    return {}


def _before(name: str, args: tuple, kwargs: dict) -> Any:
    if name == "prompting.parse":
        diagnostics = args[1] if len(args) > 1 else kwargs.get("diagnostics")
        return diagnostics.lines_skipped if diagnostics is not None else None
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[tuple[str, str], int] = {}
        self.missing: dict[str, str] = {}
        self.run = ""
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._owner = threading.current_thread()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is self._owner else []
            self._local.stack = stack
        return stack

    def _open(self) -> tuple[int, int | None, list[int]]:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack.append(span_id)
        return span_id, parent, stack

    def _close(self, name: str, span_id: int, parent: int | None, stack: list[int],
               start: float, end: float, counts: dict[str, float]) -> None:
        stack.pop()
        span = Span(span_id, name, start, end, parent, self.run, threading.get_ident(), counts)
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the benchmark's own code."""
        span_id, parent, stack = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, span_id, parent, stack, start, time.perf_counter(), {})

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counting(*args, **kwargs):
                key = (tracer.run, name)
                with tracer._lock:
                    tracer.counters[key] = tracer.counters.get(key, 0) + 1
                return fn(*args, **kwargs)
            return counting

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent, stack = tracer._open()
            before = _before(name, args, kwargs)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(name, span_id, parent, stack, start, time.perf_counter(),
                              {"failed": 1})
                raise
            end = time.perf_counter()
            tracer._close(name, span_id, parent, stack, start, end,
                          _counts(name, args, kwargs, result, before))
            return result
        return traced

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; note the ones that do not."""
        for name, module_name, attr in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing[name] = f"{module_name}.{attr}"
                continue
            wrapped = self._wrap(name, original)
            if path:
                self._patch(owner, leaf, wrapped)
                continue
            # A module-level function is also bound by name in every module
            # that imported it; replace each binding.
            for mod_name, module in list(sys.modules.items()):
                if mod_name == "supplygraph" or mod_name.startswith("supplygraph."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapped)

    def _patch(self, owner: Any, key: str, value: Any) -> None:
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    @contextlib.contextmanager
    def active(self, run: str):
        """Record spans under run id ``run`` while the targets are wrapped."""
        self.run = run
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path: str) -> None:
        """Write all spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "run": s.run, "thread": s.thread, "counts": s.counts,
                }) + "\n")


# -- derivation ------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted((max(c.start, s.start), min(c.end, s.end))
                             for c in children.get(s.id, ())):
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


# Span names each per-layer metric is derived from. A metric derived from a
# span name whose target is missing is reported absent. Metric names and
# units are declared in BENCHMARK.json.
SOURCES = {
    "corpus.load_s": ("corpus.load",),
    "corpus.fetch_calls": ("corpus.fetch",),
    "corpus.fetch_s": ("corpus.fetch",),
    "prompting.segment_s": ("prompting.segment",),
    "prompting.segments": ("prompting.segment",),
    "prompting.render_s": ("prompting.render",),
    "prompting.parse_s": ("prompting.parse",),
    "prompting.truncate_s": ("prompting.truncate",),
    "prompting.lines_skipped": ("prompting.parse",),
    "backends.calls": ("backends.call",),
    "backends.busy_s": ("backends.call",),
    "backends.call_p50_ms": ("backends.call",),
    "backends.call_p99_ms": ("backends.call",),
    "backends.input_tokens": ("backends.call",),
    "backends.output_tokens": ("backends.call",),
    "backends.retries": ("backends.call",),
    "backends.failures": ("backends.call",),
    "backends.connections": ("backends.call",),
    "backends.connections_per_call": ("backends.call",),
    "backends.in_flight_mean": ("backends.call",),
    "crawler.self_s": ("crawler.run",),
    "crawler.keywords": ("corpus.fetch",),
    "crawler.articles": ("corpus.fetch",),
    "crawler.useful_ratio": ("corpus.fetch", "crawler.run"),
    "graph.upsert_s": ("graph.upsert",),
    "graph.comention_s": ("graph.comention",),
    "graph.neighbors_calls": ("graph.neighbors",),
    "graph.sample_s": ("graph.sample",),
    "graph.load_s": ("graph.load",),
    "graph.save_s": ("graph.save",),
    "graph.export_s": ("graph.export",),
    "graph.state_bytes": ("graph.save",),
    "classify.entities": ("classify.entity",),
    "classify.calls_per_entity": ("classify.entity", "backends.call"),
    "classify.self_s": ("classify.graph", "classify.entity"),
    "classify.entity_p50_ms": ("classify.entity",),
    "classify.entity_p99_ms": ("classify.entity",),
    "classify.undetermined": ("classify.graph",),
}


def _stage_of(spans: list[Span]) -> dict[int, str]:
    """Span id -> name of the enclosing ``stage.*`` span ("" if none)."""
    by_id = {s.id: s for s in spans}
    out: dict[int, str] = {}
    for s in spans:
        cur: Span | None = s
        while cur is not None and not cur.name.startswith("stage."):
            cur = by_id.get(cur.parent) if cur.parent is not None else None
        out[s.id] = cur.name[len("stage."):] if cur is not None else ""
    return out


def layer_metrics(spans: list[Span], neighbors_calls: int, http: dict[str, int],
                  graph_size: tuple[int, int]) -> dict[str, float]:
    """Per-layer metrics of one pass.

    ``spans`` are the pass's spans, ``http`` the stub's counters for the pass
    (empty for an in-process backend), ``graph_size`` the final node and edge
    counts.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    own = self_times(spans)
    stage = _stage_of(spans)

    def total(name: str) -> float:
        return sum(s.duration for s in by_name.get(name, ()))

    def count(name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in by_name.get(name, ()))

    calls = by_name.get("backends.call", [])
    entities = by_name.get("classify.entity", [])
    backend_stage_wall = sum(s.duration for s in spans if s.name in ("stage.crawl", "stage.classify"))
    harvested = count("corpus.fetch", "articles")
    busy = total("backends.call")
    connections = http.get("connections", 0)
    classify_calls = sum(1 for s in calls if stage[s.id] == "classify")
    return {
        "corpus.load_s": total("corpus.load"),
        "corpus.fetch_calls": len(by_name.get("corpus.fetch", ())),
        "corpus.fetch_s": total("corpus.fetch"),
        "prompting.segment_s": total("prompting.segment"),
        "prompting.segments": count("prompting.segment", "segments"),
        "prompting.render_s": total("prompting.render"),
        "prompting.parse_s": total("prompting.parse"),
        "prompting.truncate_s": total("prompting.truncate"),
        "prompting.lines_skipped": count("prompting.parse", "lines_skipped"),
        "backends.calls": len(calls),
        "backends.busy_s": busy,
        "backends.call_p50_ms": percentile([s.duration * 1000 for s in calls], 50),
        "backends.call_p99_ms": percentile([s.duration * 1000 for s in calls], 99),
        "backends.input_tokens": count("backends.call", "input_tokens"),
        "backends.output_tokens": count("backends.call", "output_tokens"),
        "backends.retries": max(0, http.get("requests", 0) - len(calls)),
        "backends.failures": count("backends.call", "failed"),
        "backends.connections": connections,
        "backends.connections_per_call": connections / len(calls) if calls else 0.0,
        "backends.in_flight_mean": busy / backend_stage_wall if backend_stage_wall else 0.0,
        "crawler.self_s": sum(own[s.id] for s in by_name.get("crawler.run", ())),
        "crawler.keywords": len(by_name.get("corpus.fetch", ())),
        "crawler.articles": harvested,
        "crawler.useful_ratio": count("crawler.run", "articles_applied") / harvested if harvested else 0.0,
        "graph.upsert_s": total("graph.upsert"),
        "graph.comention_s": total("graph.comention"),
        "graph.neighbors_calls": neighbors_calls,
        "graph.sample_s": total("graph.sample"),
        "graph.load_s": total("graph.load"),
        "graph.save_s": total("graph.save"),
        "graph.export_s": total("graph.export"),
        "graph.state_bytes": count("graph.save", "state_bytes"),
        "graph.nodes": graph_size[0],
        "graph.edges": graph_size[1],
        "classify.entities": len(entities),
        "classify.calls_per_entity": classify_calls / len(entities) if entities else 0.0,
        "classify.self_s": sum(own[s.id] for s in spans if s.name.startswith("classify.")),
        "classify.entity_p50_ms": percentile([s.duration * 1000 for s in entities], 50),
        "classify.entity_p99_ms": percentile([s.duration * 1000 for s in entities], 99),
        "classify.undetermined": count("classify.graph", "undetermined"),
    }


def absent_metrics(missing: dict[str, str]) -> dict[str, str]:
    """Metric -> the missing target that makes it absent."""
    out = {}
    for metric, sources in SOURCES.items():
        for source in sources:
            if source in missing:
                out[metric] = missing[source]
                break
    return out
