"""Benchmark-side tracing: timed spans around the library's entry points.

The traced pass of ``run.py`` installs a wrapper around each public
entry point listed in :data:`ENTRY_POINTS`, grouped by the ``repro``
layer that owns it.  Nothing inside ``src/`` is instrumented: the
wrappers live here and are removed again after the pass.

A span is recorded only while a client operation is open
(:meth:`Recorder.op`), so every span belongs to exactly one op root and
the untimed bookkeeping around an op (input generation, answer checks)
leaves no spans.  Spans stay in memory until the run ends.

Self time is a span's duration minus the durations of its direct
children.  The client is one thread, so children never overlap and the
self times of one op's spans add up to exactly the op's wall time; the
op root's own self time is the part spent outside every wrapped entry
point (benchmark glue and unwrapped library code).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, NamedTuple

#: The library layers, named after the ``repro`` packages.
LAYERS = ("sacx", "core", "index", "xpath", "storage", "service",
          "editing", "collection", "streaming")

#: The layer of op root spans: the benchmark's own client.
CLIENT = "client"


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped callable: ``module.owner.attr`` (``owner`` None for
    a module-level function, wrapped where its callers look it up).

    ``size`` maps the call's result to a count stored on the span;
    ``probe`` is read from the arguments before and after the call and
    the span stores the difference.
    """

    layer: str
    module: str
    owner: str | None
    attr: str
    size: Callable[[object], int] | None = None
    probe: Callable[[tuple], int] | None = None

    @property
    def name(self) -> str:
        return f"{self.owner or self.module.rsplit('.', 1)[1]}.{self.attr}"


def _methods(layer: str, module: str, owner: str, *attrs: str):
    return [EntryPoint(layer, module, owner, attr) for attr in attrs]


_SQLITE = "repro.storage.sqlite_backend"

ENTRY_POINTS: tuple[EntryPoint, ...] = (
    EntryPoint("sacx", "repro.sacx.parser", "SACXParser", "parse"),
    EntryPoint("core", "repro.core.goddag", "GoddagBuilder", "build"),
    # A refresh span's size is 1 when the call rebuilt the indexes.
    EntryPoint("index", "repro.index.manager", "IndexManager", "refresh",
               probe=lambda args: args[0].build_count),
    EntryPoint("index", "repro.index.manager", "IndexManager", "payload"),
    *_methods("xpath", "repro.xpath.engine", "ExtendedXPath",
              "__init__", "evaluate"),
    EntryPoint("xpath", "repro.xpath.planner", "Planner", "plan"),
    EntryPoint("storage", _SQLITE, "SqliteStore", "load",
               size=lambda document: document.element_count()),
    *_methods("storage", _SQLITE, "SqliteStore", "save", "save_index",
              "resave_with_index", "route_documents",
              "element_rows_by_tag", "begin_stream_ingest"),
    *_methods("storage", _SQLITE, "StreamIngestSession", "add_elements",
              "append_text", "append_paths", "append_terms", "finalize"),
    EntryPoint("storage", _SQLITE, "SqliteConnectionPool", "acquire"),
    *_methods("service", "repro.service.service", "DocumentService",
              "read_session", "write_session"),
    EntryPoint("service", "repro.service.service", "WriteSession",
               "publish"),
    *_methods("editing", "repro.editing.editor", "Editor",
              "insert_markup", "set_attribute", "remove_markup"),
    *_methods("collection", "repro.collection.corpus", "Corpus",
              "query", "explain", "add", "remove", "add_streams"),
    EntryPoint("collection", "repro.collection.corpus", None, "run_fanout"),
    EntryPoint("streaming", "repro.streaming.ingest", None, "stream_save"),
    EntryPoint("streaming", "repro.streaming.ingest", None,
               "count_content_events"),
    *_methods("streaming", "repro.streaming.lazy", "LazyDocument",
              "__init__", "xpath"),
)


class Span(NamedTuple):
    id: int
    parent: int | None
    op: int
    name: str
    layer: str
    start_ns: int
    end_ns: int
    size: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Recorder:
    """Collects spans from wrapped entry points while an op is open."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._ops = 0
        self._next_id = 0

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @contextmanager
    def op(self, kind: str):
        """The root span of one client operation."""
        self._ops += 1
        self._op = self._ops
        span_id = self._new_id()
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(
                Span(span_id, None, self._op, kind, CLIENT, start, end))
            self._op = None

    def _wrapper(self, point: EntryPoint, original):
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if recorder._op is None:
                return original(*args, **kwargs)
            span_id = recorder._new_id()
            parent = recorder._stack[-1]
            recorder._stack.append(span_id)
            before = point.probe(args) if point.probe else 0
            start = time.perf_counter_ns()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                recorder._stack.pop()
                if point.probe:
                    size = point.probe(args) - before
                elif point.size and result is not None:
                    size = point.size(result)
                else:
                    size = 0
                recorder.spans.append(Span(span_id, parent, recorder._op,
                                           point.name, point.layer, start,
                                           end, size))

        return wrapper

    @contextmanager
    def installed(self, points=ENTRY_POINTS):
        """The wrappers are in place for the duration of the block."""
        restore = []
        try:
            for point in points:
                module = importlib.import_module(point.module)
                owner = getattr(module, point.owner) if point.owner else module
                original = vars(owner)[point.attr]
                setattr(owner, point.attr, self._wrapper(point, original))
                restore.append((owner, point.attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict()) + "\n")


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id → duration minus the durations of its direct children."""
    children: dict[int, int] = {}
    for span in spans:
        if span.parent is not None:
            children[span.parent] = (children.get(span.parent, 0)
                                     + span.duration_ns)
    return {span.id: span.duration_ns - children.get(span.id, 0)
            for span in spans}


def check_tree(spans: list[Span]) -> list[str]:
    """Problems with the span forest; empty when it is well formed.

    Well formed: ids are unique, every span closed (end ≥ start) inside
    its parent's interval, every chain of parents ends at the one
    client root of the span's own op, and per op the library layers'
    self times sum to at most the op's wall time.
    """
    problems: list[str] = []
    by_id: dict[int, Span] = {}
    for span in spans:
        if span.id in by_id:
            problems.append(f"span {span.id} recorded twice")
        by_id[span.id] = span
    roots: dict[int, Span] = {}
    for span in spans:
        if span.end_ns < span.start_ns:
            problems.append(f"span {span.id} ({span.name}) ends before it starts")
        if span.parent is None:
            if span.layer != CLIENT:
                problems.append(f"span {span.id} ({span.name}) has no op root")
            elif span.op in roots:
                problems.append(f"op {span.op} has two roots")
            roots[span.op] = span
            continue
        parent = by_id.get(span.parent)
        if parent is None:
            problems.append(f"span {span.id} ({span.name}) has a missing parent")
        elif parent.op != span.op:
            problems.append(f"span {span.id} crosses from op {parent.op} "
                            f"to op {span.op}")
        elif not (parent.start_ns <= span.start_ns
                  and span.end_ns <= parent.end_ns):
            problems.append(f"span {span.id} ({span.name}) leaves its parent")
    library: dict[int, int] = {}
    for span_id, ns in self_times(spans).items():
        span = by_id[span_id]
        if span.layer != CLIENT:
            library[span.op] = library.get(span.op, 0) + ns
    for op, ns in library.items():
        root = roots.get(op)
        if root is None:
            problems.append(f"op {op} has spans but no root")
        elif ns > root.duration_ns:
            problems.append(f"op {op}: layer self time {ns} ns exceeds "
                            f"its wall time {root.duration_ns} ns")
    return problems


def layer_summary(spans: list[Span]) -> dict[str, float]:
    """``<layer>.calls``, ``<layer>.self_s`` and ``<layer>.share`` (self
    time over the summed wall time of every op) for each layer."""
    selfs = self_times(spans)
    wall = sum(span.duration_ns for span in spans if span.parent is None)
    calls = dict.fromkeys(LAYERS, 0)
    self_ns = dict.fromkeys(LAYERS, 0)
    for span in spans:
        if span.layer in calls:
            calls[span.layer] += 1
            self_ns[span.layer] += selfs[span.id]
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_ns[layer] / 1e9
        out[f"{layer}.share"] = self_ns[layer] / wall if wall else 0.0
    return out
