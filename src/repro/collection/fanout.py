"""Per-document fan-out for cross-document queries.

One routed query visits many documents; this module evaluates the
per-document expression against each of them in one of three execution
modes — ``serial``, ``thread``, ``process`` — and guarantees the merged
answer is **byte-identical** across all three:

* every document is read through a
  :class:`~repro.storage.sqlite_backend.SnapshotCache` (the pool's, or
  a process worker's own): a frozen document of the probed generation,
  or one loaded with its stamp in one read transaction, so a row set
  is always consistent with the generation it reports.  A fan-out
  routing more documents than the cache holds installs none of them;
* such a wide fan-out decodes nothing it can answer from rows: when
  the per-document expression is a one-step name test the lazy row
  path serves (``//tag``, ``//h:tag``, one optional ``[@a='v']``), the
  members the cache does not hold are answered from their element
  rows, read for the whole chunk in one transaction with their stamps
  (:func:`row_served` decides, for
  :meth:`~repro.collection.corpus.Corpus.explain` too).  Members
  without an index, and members whose root element the name test
  selects, are still decoded;
* node results are flattened to plain comparable tuples
  (:func:`node_rows`) — picklable for the process pool and
  order-stable, since the evaluator already emits document order;
* chunks are reassembled in the caller's document-name order whatever
  order the workers finished in.

Process workers re-open the store read-only from the database *path*
(one cached connection per worker process — never a connection
inherited across ``fork``, which SQLite forbids).  When a process pool
cannot be used (no ``fork``/spawn support, pickling trouble, a broken
pool), the fan-out falls back to threads and reports itself on the
``collection.fanout`` fallback metric rather than failing the query.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from functools import partial

from ..core.node import Element
from ..errors import ServiceError
from ..obs import fallback as _obs_fallback
from ..obs.metrics import metrics
from ..storage.sqlite_backend import SnapshotCache, SqliteStore
from ..streaming.lazy import _row_query, names_root, row_answer
from ..xpath.axes import AttributeNode, DocumentNode
from ..xpath.engine import ExtendedXPath

#: One read-only store connection and snapshot cache per (worker
#: process, database path).  Keyed by pid so a connection is never
#: reused across a fork — each worker opens its own on first use.
_process_stores: dict[tuple[int, str], tuple[SqliteStore, SnapshotCache]] = {}


def default_workers() -> int:
    """The default fan-out width: usable CPUs (or all CPUs), at most 4."""
    affinity = getattr(os, "sched_getaffinity", None)
    return min(4, (len(affinity(0)) if affinity else os.cpu_count()) or 1)


def node_rows(value) -> tuple:
    """Flatten an XPath result into comparable, picklable row tuples.

    Node-sets become one row per node in the order the evaluator
    produced (document order); scalar results become a single
    ``("value", ...)`` row.  The encoding is total over every node kind
    the evaluator can emit, so two evaluations agree exactly when their
    rows agree.
    """
    if not isinstance(value, list):
        return (("value", type(value).__name__, value),)
    rows = []
    for node in value:
        if isinstance(node, AttributeNode):
            rows.append(("attribute", node.owner.elem_id, node.name,
                         node.value))
        elif isinstance(node, DocumentNode):
            rows.append(("document",))
        elif isinstance(node, Element):
            rows.append((
                "element", node.elem_id, node.hierarchy, node.tag,
                node.start, node.end,
                tuple(sorted(node.attributes.items())),
            ))
        else:  # Leaf
            rows.append(("leaf", node.start, node.end))
    return tuple(rows)


def installs(snapshots: SnapshotCache, routed: int) -> bool:
    """Whether a fan-out over ``routed`` members installs what it loads
    in ``snapshots``: only when they all fit, since a wider scan would
    only flush the cache."""
    return routed <= snapshots.LIMIT


def row_served(query: ExtendedXPath, install: bool) -> tuple | None:
    """The :func:`~repro.streaming.lazy._row_query` that answers a
    fan-out's members from element rows, or ``None`` when they are read
    from snapshots: a fan-out that installs nothing reads rows whenever
    that row path serves the per-document expression.  The one rule
    behind :func:`evaluate_documents` and
    :meth:`~repro.collection.corpus.Corpus.explain`."""
    return None if install else _row_query(query.ast)


def evaluate_documents(
    backend: SqliteStore, snapshots: SnapshotCache, names: list[str],
    expression: str, install: bool,
) -> list[tuple[str, str | None, tuple]]:
    """Evaluate ``expression`` per document over one borrowed
    connection and ``snapshots`` (see :meth:`SnapshotCache.get`);
    returns ``(name, generation, rows)`` triples.

    Evaluation runs the classic unindexed engine (``index=False``): the
    answers are identical by the index contract, and a cold
    per-document manager build would dominate a one-shot visit.  When
    :func:`row_served` admits the query, the members it can are
    answered from element rows instead (:func:`_answer_from_rows`).
    """
    query = ExtendedXPath(expression)
    served = row_served(query, install)
    answered = {} if served is None else _answer_from_rows(
        backend, snapshots, names, served)
    out = []
    for name in names:
        if name in answered:
            out.append(answered[name])
            continue
        (generation, document, _), shared = snapshots.get(
            nullcontext(backend), name, index=False, install=install)
        metrics.incr("collection.snapshots.shared" if shared
                     else "collection.snapshots.loaded")
        value = query.evaluate(document, index=False)
        out.append((name, generation, node_rows(value)))
    return out


def _answer_from_rows(
    backend: SqliteStore, snapshots: SnapshotCache, names: list[str],
    served: tuple,
) -> dict[str, tuple[str, str | None, tuple]]:
    """The ``(name, generation, rows)`` answers of the ``names`` that the
    row query ``served`` can answer from element rows, by name.

    One read transaction holds every statement — the members' stamps,
    their hierarchy ranks, all their candidate rows in one ``elements``
    statement, and any parent probes — so each generation reported is
    exactly the generation of its rows.  A member is left to the caller
    (and the snapshot cache) when the cache already holds it at that
    generation, when it has no index, or when the name test selects
    its root element, which has no element row.
    """
    tag, hierarchy, attr, value = served
    with backend.read_transaction():
        members = [
            (name, doc_id, stamp)
            for name, doc_id, root_tag, stamp in backend.member_stamps(names)
            if stamp is not None and not names_root(served, root_tag)
            and not snapshots.holds(name, stamp)
        ]
        doc_ids = [doc_id for _, doc_id, _ in members]
        ranks = backend.hierarchy_ranks(doc_ids)
        rows = backend.element_rows_by_tag_of(doc_ids, tag, hierarchy,
                                              attr, value)
        answered = {
            name: (name, stamp, row_answer(
                rows.get(doc_id, []), served, ranks.get(doc_id, {}),
                partial(backend.element_row_at, doc_id), {}))
            for name, doc_id, stamp in members
        }
    metrics.incr("collection.rows.served", len(answered))
    return answered


def _worker_chunk(
    path: str, names: list[str], expression: str, install: bool
) -> list[tuple[str, str | None, tuple]]:
    """Process-pool entry point: evaluate one chunk against a
    per-worker read-only connection (module-level so it pickles)."""
    key = (os.getpid(), path)
    if key not in _process_stores:
        _process_stores[key] = (SqliteStore(path, wal=True), SnapshotCache())
    return evaluate_documents(*_process_stores[key], names, expression,
                              install)


def run_fanout(pool, names: list[str], expression: str, *,
               mode: str = "serial", workers: int | None = None,
               process_pool=None, thread_pool=None
               ) -> list[tuple[str, str | None, tuple]]:
    """Fan ``expression`` out over ``names`` and merge the answers back
    in the caller's name order (the stable ``(doc, document-order)``
    contract — identical whatever mode ran).

    ``pool`` is the corpus's :class:`SqliteConnectionPool`; ``mode`` is
    ``"serial"``, ``"thread"`` or ``"process"``; ``process_pool`` /
    ``thread_pool`` are reusable executors owned by the caller.
    """
    if mode not in ("serial", "thread", "process"):
        raise ServiceError(
            f"unknown fan-out mode {mode!r}: use 'serial', 'thread' "
            "or 'process'"
        )
    if workers is None:
        workers = default_workers()
    install = installs(pool.snapshots, len(names))

    def chunk_on_pool(chunk: list[str]):
        with pool.connection() as backend:
            return evaluate_documents(backend, pool.snapshots, chunk,
                                      expression, install)

    if mode == "serial" or workers <= 1 or len(names) <= 1:
        with metrics.time("collection.fanout.serial"):
            return chunk_on_pool(names)
    chunks = [names[i::workers] for i in range(workers) if names[i::workers]]
    if mode == "process" and process_pool is None:
        _obs_fallback("collection.fanout", "process-unavailable",
                      "no process pool could be created")
        mode = "thread"
    if mode == "process":
        try:
            with metrics.time("collection.fanout.process"):
                results = list(process_pool.map(
                    _worker_chunk,
                    [pool.path] * len(chunks),
                    chunks,
                    [expression] * len(chunks),
                    [install] * len(chunks),
                ))
            return _merge(names, results)
        except (BrokenProcessPool, OSError, ImportError) as exc:
            _obs_fallback("collection.fanout", "process-unavailable",
                          str(exc))
            mode = "thread"

    with metrics.time("collection.fanout.thread"):
        results = list(thread_pool.map(chunk_on_pool, chunks))
    return _merge(names, results)


def _merge(names: list[str], results) -> list:
    by_name = {
        entry[0]: entry for chunk in results for entry in chunk
    }
    return [by_name[name] for name in names]


__all__ = [
    "default_workers", "evaluate_documents", "installs", "node_rows",
    "row_served", "run_fanout",
]
