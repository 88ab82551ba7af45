"""The corpus layer: thousands of named documents in one WAL store.

``Corpus`` is the collection-scale counterpart of
:class:`~repro.storage.GoddagStore`: one file-backed, WAL-mode sqlite
database holding many named GODDAG documents, queried *across*
documents with the ``collection()`` prefix::

    corpus = Corpus("editions.db")
    corpus.add_many((doc, f"play-{i}") for i, doc in enumerate(docs))

    result = corpus.query("collection()//sp[@who='hamlet']")
    for name, row in result.hits:
        ...

    print(corpus.explain("collection()//sp").render())

Cross-document queries are **routed**: the per-document expression is
compiled once, its necessary features extracted
(:mod:`repro.collection.router`), and the persisted collection summary
consulted so only candidate documents are visited — latency scales
with the matching subset, not the corpus.  Routing never changes
answers (pruned documents are exactly those that must return nothing);
``routing=False`` visits every document and produces byte-identical
rows.  Execution fans out per document in serial, threaded, or
process mode (:mod:`repro.collection.fanout`) with identical merged
results.

Every mutation goes through ``GoddagStore.save_indexed``, so documents
are always indexed on arrival and the collection summary is maintained
as a delta — adding or editing one document never rescans the corpus.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from ..core.goddag import GoddagDocument
from ..errors import StorageError
from ..index.manager import IndexManager
from ..obs.metrics import metrics
from ..storage.sqlite_backend import SqliteConnectionPool
from ..xpath.engine import ExtendedXPath
from .fanout import default_workers, installs, row_served, run_fanout
from .router import describe, routing_features

_PREFIX = "collection()"


def split_collection_expression(expression: str) -> str:
    """The per-document remainder of a ``collection()...`` expression.

    ``collection()//sp`` → ``//sp``; the remainder must be an absolute
    path (start with ``/``) so each document is entered from its own
    document node.
    """
    stripped = expression.strip()
    if not stripped.startswith(_PREFIX):
        raise StorageError(
            f"a cross-document query starts with 'collection()': "
            f"got {expression!r}"
        )
    remainder = stripped[len(_PREFIX):]
    if not remainder.startswith("/"):
        raise StorageError(
            f"the per-document part of {expression!r} must be an "
            "absolute path (collection()//tag, collection()/play[...])"
        )
    return remainder


@dataclass(frozen=True)
class CollectionPlan:
    """The routing decision for one cross-document query."""

    expression: str
    per_document: str
    features: tuple[str, ...]
    total: int
    routed: tuple[str, ...]
    #: Members are answered from element rows, not decoded snapshots
    #: (:func:`~repro.collection.fanout.row_served`).
    from_rows: bool

    @property
    def routed_count(self) -> int:
        return len(self.routed)

    @property
    def pruned(self) -> int:
        return self.total - len(self.routed)

    def render(self) -> str:
        """EXPLAIN-style text: the decision and why."""
        lines = [
            f"collection query: {self.expression}",
            f"  per-document:   {self.per_document}",
            f"  routed {self.routed_count} of {self.total} documents"
            f" ({self.pruned} pruned)",
            "  members read " + ("from rows" if self.from_rows
                                 else "from snapshots"),
        ]
        if self.features:
            lines.append("  necessary features:")
            lines.extend(f"    - {label}" for label in self.features)
        else:
            lines.append("  necessary features: none (route everything)")
        return "\n".join(lines)


@dataclass(frozen=True)
class CollectionResult:
    """The merged answer of one cross-document query.

    ``hits`` is the flat, stable ``(document, row)`` sequence — rows
    are :func:`~repro.collection.fanout.node_rows` tuples in document
    order within each document, documents in sorted-name order; this is
    the byte-identity surface across routing and execution modes.
    ``documents`` records each visited document with the generation
    stamp its snapshot carried.
    """

    plan: CollectionPlan
    mode: str
    workers: int
    documents: tuple[tuple[str, str | None], ...]
    rows_by_document: dict[str, tuple] = field(repr=False)

    @property
    def hits(self) -> list[tuple[str, tuple]]:
        return [
            (name, row)
            for name, _generation in self.documents
            for row in self.rows_by_document[name]
        ]

    def __len__(self) -> int:
        return sum(len(rows) for rows in self.rows_by_document.values())


class Corpus:
    """A queryable collection of named documents over one WAL store."""

    def __init__(self, location: str | Path, *, pool_size: int = 8,
                 busy_timeout_ms: int = 5000,
                 pool_timeout_s: float = 30.0) -> None:
        self._bind(SqliteConnectionPool(
            str(location), pool_size, wal=True,
            busy_timeout_ms=busy_timeout_ms,
            acquire_timeout_s=pool_timeout_s,
        ), owns_pool=True)

    @classmethod
    def over(cls, pool: SqliteConnectionPool) -> "Corpus":
        """A corpus view over an *existing* connection pool — typically
        the document service's (see ``DocumentService.corpus``).  The
        pool stays the lender's to close."""
        corpus = cls.__new__(cls)
        corpus._bind(pool, owns_pool=False)
        return corpus

    def _bind(self, pool: SqliteConnectionPool, owns_pool: bool) -> None:
        """Both constructors' one path: the pool, no executors yet."""
        self._pool = pool
        self._owns_pool = owns_pool
        self._thread_pool: ThreadPoolExecutor | None = None
        self._process_pool: ProcessPoolExecutor | None = None
        self._executor_workers = 0

    @property
    def location(self) -> str:
        return self._pool.path

    # -- population ---------------------------------------------------------------

    def add(self, document: GoddagDocument, name: str, *,
            overwrite: bool = False) -> str | None:
        """Store ``document`` under ``name``, indexed, and return its
        generation stamp.  The collection summary rows are written in
        the same transaction as the document rows."""
        with self._pool.connection() as backend:
            return self._add_on(backend, document, name, overwrite)

    def add_many(self, items, *, overwrite: bool = False) -> dict[str, str | None]:
        """Bulk ingest: ``items`` yields ``(document, name)`` pairs;
        one borrowed connection serves the whole batch.  Returns the
        per-document generation stamps.

        ``items`` may be any lazy iterable — a generator materializing
        one document at a time keeps only the current document alive,
        so a corpus larger than memory ingests fine.  Progress is
        observable per document on the ``collection.ingest_docs``
        counter (next to the batch-level ``collection.ingest`` timer).
        """
        stamps: dict[str, str | None] = {}
        with metrics.time("collection.ingest"):
            with self._pool.connection() as backend:
                for document, name in items:
                    stamps[name] = self._add_on(
                        backend, document, name, overwrite
                    )
                    metrics.incr("collection.ingest_docs")
        return stamps

    def add_streams(self, items, *, overwrite: bool = False,
                    chunk_elements: int = 1024,
                    chunk_chars: int = 1 << 16) -> dict[str, str]:
        """Bulk ingest straight from sources, never materializing.

        ``items`` lazily yields ``(sources, name)`` pairs, where
        ``sources`` maps hierarchy names to XML sources as accepted by
        :func:`repro.streaming.ingest.stream_save`; each member is
        stream-parsed into its rows (document, index, and collection
        summary) in chunked transactions over one borrowed connection.
        Returns the per-document generation stamps; progress lands on
        the same ``collection.ingest_docs`` counter as :meth:`add_many`.
        """
        from ..streaming.ingest import stream_save

        stamps: dict[str, str] = {}
        with metrics.time("collection.ingest"):
            with self._pool.connection() as backend:
                for sources, name in items:
                    stamps[name] = stream_save(
                        backend, sources, name, overwrite=overwrite,
                        chunk_elements=chunk_elements,
                        chunk_chars=chunk_chars,
                    )
                    if overwrite:
                        self._pool.snapshots.evict(name)
                    metrics.incr("collection.ingest_docs")
        return stamps

    def _add_on(self, backend, document: GoddagDocument, name: str,
                overwrite: bool) -> str | None:
        manager = document.index_manager
        if manager is None or manager.document is not document:
            manager = IndexManager(document)
        backend.save_indexed(document, name, manager=manager,
                             overwrite=overwrite)
        if overwrite:
            self._pool.snapshots.evict(name)
        return backend.index_stamp(name)

    def remove(self, name: str) -> None:
        with self._pool.connection() as backend:
            backend.delete(name)
        self._pool.snapshots.evict(name)

    # -- introspection ------------------------------------------------------------

    def names(self) -> list[str]:
        with self._pool.connection() as backend:
            return backend.names()

    def has(self, name: str) -> bool:
        with self._pool.connection() as backend:
            return backend.has(name)

    def document(self, name: str) -> GoddagDocument:
        """A materialized snapshot of one member document."""
        with self._pool.connection() as backend:
            return backend.load(name)

    def generation(self, name: str) -> str | None:
        """The document's current generation stamp (its persisted-index
        stamp; ``None`` when it has no index)."""
        with self._pool.connection() as backend:
            return backend.index_stamp(name)

    def __len__(self) -> int:
        return len(self.names())

    def __iter__(self):
        return iter(self.names())

    def __contains__(self, name: str) -> bool:
        return self.has(name)

    def stats(self) -> dict:
        """Corpus-level counts in the ``repro-stats/1`` envelope:
        documents, indexed documents, element rows, and the collection
        summary's size by feature family."""
        from ..obs.stats import stats_dict

        with self._pool.connection() as backend:
            raw = backend.corpus_counts()
        counts = {f"collection.{key}": value for key, value in raw.items()}
        return stats_dict(
            "collection.corpus", counts, location=self.location,
        )

    # -- cross-document queries -----------------------------------------------------

    def explain(self, expression: str, *, routing: bool = True
                ) -> CollectionPlan:
        """The routing decision for ``expression`` — which documents
        would be visited, which necessary features pruned the rest, and
        whether their members are read from rows or from snapshots —
        without running the query."""
        per_document = split_collection_expression(expression)
        compiled = ExtendedXPath(per_document)
        features = routing_features(compiled.ast) if routing else frozenset()
        with self._pool.connection() as backend:
            total = len(backend.names())
            routed = backend.route_documents(features)
        return CollectionPlan(
            expression=expression,
            per_document=per_document,
            features=tuple(describe(features)),
            total=total,
            routed=tuple(routed),
            from_rows=row_served(
                compiled, installs(self._pool.snapshots, len(routed))
            ) is not None,
        )

    def query(self, expression: str, *, routing: bool = True,
              mode: str = "serial", workers: int | None = None
              ) -> CollectionResult:
        """Run a cross-document query and merge the per-document
        answers in stable ``(document, document-order)`` order.

        ``routing=False`` skips the collection summary and visits every
        document; ``mode`` selects the fan-out execution
        (``serial``/``thread``/``process``).  The merged rows are
        byte-identical across every combination.
        """
        with metrics.time("collection.query"):
            plan = self.explain(expression, routing=routing)
            metrics.incr("collection.queries")
            metrics.incr("collection.routed", plan.routed_count)
            metrics.incr("collection.pruned", plan.pruned)
            names = list(plan.routed)
            workers = workers or 0
            thread_pool = process_pool = None
            if mode in ("thread", "process"):
                thread_pool, process_pool = self._executors(workers)
            triples = run_fanout(
                self._pool, names, plan.per_document,
                mode=mode, workers=workers or None,
                process_pool=process_pool,
                thread_pool=thread_pool,
            )
        return CollectionResult(
            plan=plan,
            mode=mode,
            workers=workers,
            documents=tuple(
                (name, generation) for name, generation, _rows in triples
            ),
            rows_by_document={
                name: rows for name, _generation, rows in triples
            },
        )

    def _executors(self, workers: int):
        """Lazily created, reusable thread/process pools (the process
        fallback path needs the thread pool too)."""
        if workers <= 0:
            workers = default_workers()
        if self._executor_workers and workers > self._executor_workers:
            self._shutdown_executors()
        if self._thread_pool is None:
            self._thread_pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="corpus-fanout"
            )
            self._executor_workers = workers
        if self._process_pool is None:
            try:
                self._process_pool = ProcessPoolExecutor(max_workers=workers)
            except (OSError, ValueError):
                self._process_pool = None
        return self._thread_pool, self._process_pool

    def _shutdown_executors(self) -> None:
        if self._thread_pool is not None:
            self._thread_pool.shutdown(wait=True)
            self._thread_pool = None
        if self._process_pool is not None:
            self._process_pool.shutdown(wait=True)
            self._process_pool = None
        self._executor_workers = 0

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        self._shutdown_executors()
        if self._owns_pool:
            self._pool.close()

    def __enter__(self) -> "Corpus":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "CollectionPlan",
    "CollectionResult",
    "Corpus",
    "split_collection_expression",
]
