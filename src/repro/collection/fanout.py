"""Per-document fan-out for cross-document queries.

One routed query visits many documents; this module evaluates the
per-document expression against each of them — serially in the
caller's process when the query may use one worker, on a process pool
when it may use more — and guarantees the merged answer is
**byte-identical** either way:

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
  :meth:`~repro.collection.corpus.Corpus.explain` too).  A member whose
  root element (which has no row) the name test selects gets the
  root's row from its document columns, read for those members only;
* node results are flattened to plain comparable tuples
  (:func:`node_rows`) — picklable for the process pool and
  order-stable, since the evaluator already emits document order;
* chunks are reassembled in the caller's document-name order whatever
  order the workers finished in.

Process workers re-open the store read-only from the database *path*
(one cached connection per worker process — never a connection
inherited across ``fork``, which SQLite forbids).  When a process pool
cannot be used (no ``fork``/spawn support, pickling trouble, a broken
pool), the fan-out runs serially instead and reports itself on the
``collection.fanout`` fallback metric rather than failing the query.
"""

from __future__ import annotations

import os
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from functools import partial

from ..core.node import Element
from ..errors import ServiceError
from ..obs import fallback as _obs_fallback
from ..obs.metrics import metrics
from ..storage.sqlite_backend import SnapshotCache, SqliteStore
from ..storage.schema import ROOT_ID, decode_attributes
from ..streaming.lazy import _row_query, row_answer
from ..xpath.axes import AttributeNode, DocumentNode
from ..xpath.engine import ExtendedXPath

#: One read-only store connection and snapshot cache per (worker
#: process, database path).  Keyed by pid so a connection is never
#: reused across a fork — each worker opens its own on first use.
_process_stores: dict[tuple[int, str], tuple[SqliteStore, SnapshotCache]] = {}


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
) -> list[tuple[str, str, tuple]]:
    """Evaluate ``expression`` per document over one borrowed
    connection and ``snapshots`` (see :meth:`SnapshotCache.get`);
    returns ``(name, generation, rows)`` triples.

    Evaluation runs the classic unindexed engine (``index=False``), which
    builds no plan: the answers are identical by the index contract, and
    a cold per-document manager build would dominate a one-shot visit.  When
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


def row_members(
    backend: SqliteStore, snapshots: SnapshotCache, names: list[str],
) -> list[tuple[str, int, str]]:
    """``(name, doc_id, stamp)`` of the ``names`` that a row query
    answers from element rows: every member but those the cache holds at
    their generation.  The one admission rule behind
    :func:`_answer_from_rows` and
    :meth:`~repro.collection.corpus.Corpus.explain`."""
    return [
        (name, doc_id, stamp)
        for name, doc_id, stamp in backend.member_stamps(names)
        if not snapshots.holds(name, stamp)
    ]


def _answer_from_rows(
    backend: SqliteStore, snapshots: SnapshotCache, names: list[str],
    served: tuple,
) -> dict[str, tuple[str, str, tuple]]:
    """The ``(name, generation, rows)`` answers of the ``names`` that the
    row query ``served`` can answer from element rows, by name.

    One read transaction holds every statement — the members' stamps,
    their hierarchy ranks, all their candidate rows in one ``elements``
    statement, the root columns of the members whose root tag the name
    test names, and any parent probes — so each generation reported is
    exactly the generation of its rows.  The members :func:`row_members`
    does not admit are left to the caller (and the snapshot cache).
    """
    tag, hierarchy, attr, value = served
    with backend.read_transaction():
        members = row_members(backend, snapshots, names)
        doc_ids = [doc_id for _, doc_id, _ in members]
        ranks = backend.hierarchy_ranks(doc_ids)
        rows = backend.element_rows_by_tag_of(doc_ids, tag, hierarchy,
                                              attr, value)
        roots = {} if hierarchy is not None else {
            doc_id: (tag, decode_attributes(attributes, ROOT_ID), length)
            for doc_id, attributes, length
            in backend.root_columns_of(doc_ids, tag)
        }
        answered = {
            name: (name, stamp, row_answer(
                rows.get(doc_id, []), served, ranks.get(doc_id, {}),
                partial(backend.element_row_at, doc_id), {},
                roots.get(doc_id)))
            for name, doc_id, stamp in members
        }
    metrics.incr("collection.rows.served", len(answered))
    return answered


def _worker_chunk(
    path: str, names: list[str], expression: str, install: bool
) -> list[tuple[str, str, tuple]]:
    """Process-pool entry point: evaluate one chunk against a
    per-worker read-only connection (module-level so it pickles)."""
    key = (os.getpid(), path)
    if key not in _process_stores:
        _process_stores[key] = (SqliteStore(path, wal=True), SnapshotCache())
    return evaluate_documents(*_process_stores[key], names, expression,
                              install)


def run_fanout(pool, names: list[str], expression: str, *,
               workers: int = 1, process_pool=None
               ) -> list[tuple[str, str, tuple]]:
    """Fan ``expression`` out over ``names`` and merge the answers back
    in the caller's name order (the stable ``(doc, document-order)``
    contract — identical however it ran).

    ``pool`` is the corpus's :class:`SqliteConnectionPool`; ``workers``
    is how many processes the query may use.  One worker, or one name,
    runs serially in the caller's process; more run in chunks on
    ``process_pool``, a reusable executor owned by the caller.  Without
    a usable process pool the fan-out runs serially too.
    """
    if workers < 1:
        raise ServiceError(
            f"a fan-out needs at least one worker: got {workers!r}"
        )
    install = installs(pool.snapshots, len(names))
    if workers > 1 and len(names) > 1:
        if process_pool is None:
            _obs_fallback("collection.fanout", "process-unavailable",
                          "no process pool could be created")
        else:
            chunks = [names[i::workers] for i in range(workers)
                      if names[i::workers]]
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
    with metrics.time("collection.fanout.serial"):
        with pool.connection() as backend:
            return evaluate_documents(backend, pool.snapshots, names,
                                      expression, install)


def _merge(names: list[str], results) -> list:
    by_name = {
        entry[0]: entry for chunk in results for entry in chunk
    }
    return [by_name[name] for name in names]


__all__ = [
    "evaluate_documents", "installs", "node_rows", "row_served",
    "run_fanout",
]
