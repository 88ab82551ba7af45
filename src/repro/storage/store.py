"""The storage facade over the sqlite store.

``GoddagStore`` is what applications use: save/load by name, list, and
storage-level queries answered in SQL without reconstructing the
document.

Stored documents can carry *persisted indexes* (:meth:`GoddagStore.build_index`)
kept in dedicated tables.  Index-aware queries — :meth:`query_spans`,
:meth:`term_occurrences`, :meth:`count_tag` — answer from the persisted
index when one exists (without materializing the document) and fall
back to the unindexed storage paths when it does not, returning the
same answers either way.  A plain :meth:`GoddagStore.save` over (or
delete of) a document drops its index; editing sessions use
:meth:`GoddagStore.save_indexed` instead, which re-saves the document
*and* propagates the index manager's applied deltas as row-level
upserts under a stable ``doc_id``, so the stored index never
invalidates wholesale.
"""

from __future__ import annotations

from pathlib import Path
from uuid import uuid4

from ..core.goddag import GoddagDocument
from ..errors import StorageError
from ..index.manager import IndexManager
from ..obs.metrics import metrics
from ..obs.trace import current_tracer
from ..index.term import TermIndex, find_all
from .sqlite_backend import SqliteStore, StoredElement


class GoddagStore:
    """Persistent storage for GODDAG documents."""

    def __init__(self, location: str | Path = ":memory:") -> None:
        self.location = location
        self._owns_backend = True
        self._sqlite = SqliteStore(str(location))

    @classmethod
    def over(cls, backend: SqliteStore) -> "GoddagStore":
        """The facade over an *existing* sqlite connection — typically
        one on loan from a
        :class:`~repro.storage.sqlite_backend.SqliteConnectionPool`.
        The wrapped connection stays the lender's to close:
        :meth:`close` on the returned store is a no-op, so releasing a
        pooled connection back is always safe afterwards."""
        store = cls.__new__(cls)
        store.location = backend.path
        store._owns_backend = False
        store._sqlite = backend
        return store

    def close(self) -> None:
        if self._owns_backend:
            self._sqlite.close()

    def __enter__(self) -> "GoddagStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def artifact_token(self, name: str, generation: str | None) -> tuple:
        """The identity of one stored artifact *generation* — the token
        an :class:`IndexManager` keys its delta accounting to
        (:meth:`IndexManager.mark_persisted`).  Deltas accumulated
        against another store, another name, or a generation someone
        replaced since never row-apply."""
        return ("sqlite", str(self.location), name, generation)

    # -- save / load / list -----------------------------------------------------------

    def save(self, document: GoddagDocument, name: str,
             overwrite: bool = False) -> None:
        # Overwriting replaces the document row; its index rows die
        # with the old doc_id (ON DELETE CASCADE).
        self._sqlite.save(document, name, overwrite=overwrite)

    def load(self, name: str) -> GoddagDocument:
        return self._sqlite.load(name)

    def delete(self, name: str) -> None:
        self._sqlite.delete(name)

    def names(self) -> list[str]:
        return self._sqlite.names()

    def has(self, name: str) -> bool:
        return self._sqlite.has(name)

    # -- persisted indexes --------------------------------------------------------------

    def build_index(self, name: str) -> dict:
        """Build and persist the index for a stored document.

        Loads the document once, builds the four indexes (structural
        summary, term index, attribute postings, overlap index),
        persists them to the index tables, and returns the size census.
        Subsequent index-aware queries answer without loading the
        document again.
        """
        document = self.load(name)
        manager = IndexManager(document)
        self._sqlite.save_index(name, manager.payload(name))
        return manager.stats()

    def save_indexed(self, document: GoddagDocument, name: str,
                     manager: IndexManager | None = None,
                     overwrite: bool = False,
                     strict_stamp: bool = False) -> dict:
        """Save (or re-save) a document *and* keep its persisted index in
        step — the editing-session alternative to save + :meth:`build_index`.

        ``manager`` defaults to the document's attached index manager;
        it is refreshed (incrementally, when the delta journal allows)
        and its applied deltas propagate to the store instead of
        invalidating the stored index wholesale: one transaction brings
        the stored rows in step under their existing ``doc_id``.  When
        the manager can supply deltas *for this store and name*, the
        journal's coalesced :class:`~repro.core.changes.UpdateElementRow`
        set upserts and deletes exactly the element rows the session
        touched (keyed by persistent ``elem_id`` — an attribute-only
        edit writes O(1) rows) and the index rows are patched likewise;
        anything else (journal overflow, untracked mutations, foreign
        artifacts) takes a full rewrite.  Either way the transaction is
        atomic, so a crash can never pair a newer document with a stale
        index.

        Re-saving the session's own artifact — the exact generation this
        manager wrote last, verified via a stamp stored with the index —
        needs no consent; anything else already stored under ``name``
        (including a replacement some other writer slipped in
        mid-session) requires ``overwrite=True``, like :meth:`save`, and
        always gets a full index write rather than a row-level patch.

        ``strict_stamp=True`` is the document service's publish
        contract: instead of demanding ``overwrite=True`` when the
        stored artifact is not this session's — or silently rewriting a
        racing writer's rows when the in-transaction stamp
        re-verification fails — the save raises the typed
        :class:`~repro.errors.WriteConflictError` and leaves the store
        exactly as the other writer published it.

        Returns the manager's size census, like :meth:`build_index`.
        """
        if manager is None:
            manager = document.index_manager
        if manager is None or manager.document is not document:
            raise StorageError(
                "save_indexed needs an IndexManager for this document "
                "(attach one, or pass manager=)"
            )
        tracer = current_tracer()
        if tracer is None:
            with metrics.time("storage.save"):
                self._save_indexed(document, name, manager, overwrite,
                                   strict_stamp)
        else:
            with tracer.span("save", document=name):
                with metrics.time("storage.save"):
                    self._save_indexed(document, name, manager, overwrite,
                                       strict_stamp)
        return manager.stats()

    def _save_indexed(self, document: GoddagDocument, name: str,
                      manager: IndexManager, overwrite: bool,
                      strict_stamp: bool = False) -> None:
        exists = self._sqlite.has(name)
        generation = self._sqlite.index_stamp(name) if exists else None
        token = self.artifact_token(name, generation)
        deltas = manager.pending_persist(token)  # refreshes the manager
        if exists and not overwrite and not manager.persisted_to(token):
            if strict_stamp:
                from ..errors import WriteConflictError

                metrics.incr("service.conflicts")
                raise WriteConflictError(
                    f"document {name!r} was published by another "
                    "writer during this session; nothing was written",
                    name=name, found=generation or "",
                )
            raise StorageError(
                f"document {name!r} already stored and is not this "
                "session's artifact; pass overwrite=True to replace it"
            )
        stamp = uuid4().hex
        if exists:
            self._sqlite.resave_with_index(
                document, name, deltas,
                lambda hierarchy, path: [
                    (e.start, e.end)
                    for e in manager.structural.partition(hierarchy, path)
                ],
                lambda: manager.payload(name),
                stamp=stamp,
                expected_stamp=generation,
                attr_spans=manager.attrs.spans,
                strict_stamp=strict_stamp,
            )
        else:
            self._sqlite.save(document, name)
            self._sqlite.save_index(name, manager.payload(name), stamp)
        manager.mark_persisted(self.artifact_token(name, stamp))

    def save_stream(self, sources, name: str, *, overwrite: bool = False,
                    chunk_elements: int = 1024,
                    chunk_chars: int = 1 << 16) -> str:
        """Stream-parse a distributed document straight into storage.

        The bounded-memory counterpart of ``parse_concurrent`` +
        :meth:`save_indexed`: ``sources`` maps hierarchy names to XML
        sources (strings, paths, open files, or zero-argument factories
        returning fresh chunk iterators — the scan makes two passes),
        and the stored rows — document, elements, and the full persisted
        index — are byte-identical to the materialized path.  The write
        proceeds in chunked transactions while the SACX merge runs (see
        :func:`repro.streaming.ingest.stream_save`), never holding the
        whole document; readers see nothing under ``name`` until the
        final rename publishes it.

        Returns the index generation stamp.
        """
        from ..streaming.ingest import stream_save

        return stream_save(
            self._sqlite, sources, name, overwrite=overwrite,
            chunk_elements=chunk_elements, chunk_chars=chunk_chars,
        )

    def lazy(self, name: str):
        """An on-demand :class:`~repro.streaming.lazy.LazyDocument` view
        over a stored document — rows hydrate as queries touch them,
        nothing is materialized up front."""
        from ..streaming.lazy import LazyDocument

        return LazyDocument(self._sqlite, name)

    def has_index(self, name: str) -> bool:
        """True when a persisted index exists for ``name``."""
        return self._sqlite.has_index(name)

    def drop_index(self, name: str) -> None:
        """Remove the persisted index (the document itself is untouched)."""
        self._sqlite.drop_index(name)

    # -- storage-level queries -----------------------------------------------------------

    def elements_intersecting(
        self, name: str, start: int, end: int
    ) -> list[tuple[str, str, int, int]]:
        """Solid elements intersecting a span, without reconstruction."""
        return [
            (e.hierarchy, e.tag, e.start, e.end)
            for e in self._sqlite.elements_intersecting(name, start, end)
            if e.start < e.end
        ]

    def element(self, name: str, elem_id: int) -> StoredElement | None:
        """Resolve a cross-session node handle without materializing
        the document.

        ``elem_id`` is the stable persistent identity of an element —
        its birth ordinal, :attr:`repro.core.node.Element.elem_id` —
        which the store preserves across every save → load round trip.
        Returns the element's stored state as a :class:`StoredElement`
        (one keyed SQL probe), or ``None`` when no element with that id
        exists.  To resolve the handle against a materialized document
        instead, use
        :meth:`~repro.core.goddag.GoddagDocument.element_by_ordinal`.
        """
        return self._sqlite.element(name, elem_id)

    def query_spans(
        self, name: str, start: int, end: int
    ) -> list[tuple[str, str, int, int]]:
        """Index-aware span query: solid elements intersecting [start, end).

        With a persisted index the answer comes from an SQL range probe
        of the overlap index, without materializing the document.
        Without one it falls back to :meth:`elements_intersecting`.
        Either way the result is the same set, ordered by
        ``(start, -end, hierarchy, tag)``.
        """
        hits = self._sqlite.index_overlap_query(name, start, end)
        if hits is not None:
            return hits  # the SQL ORDER BY emits this exact order
        # Unindexed fallback: the element rows come in storage order.
        hits = self.elements_intersecting(name, start, end)
        hits.sort(key=lambda hit: (hit[2], -hit[3], hit[0], hit[1]))
        return hits

    def term_occurrences(self, name: str, needle: str) -> list[int]:
        """Start offsets of ``needle`` in the stored text (sorted).

        Alphanumeric needles are answered from the persisted term index
        when one exists; other needles (or unindexed documents) scan the
        stored text — read on its own, never through a document
        reconstruction.
        """
        if TermIndex.is_indexable(needle):
            occurrences = self._sqlite.index_term_occurrences(name, needle)
            if occurrences is not None:
                return occurrences
        return find_all(self._sqlite.text(name), needle)

    def count_tag(self, name: str, tag: str) -> int:
        """Number of elements with ``tag``, via the structural summary
        when indexed (a metadata read) and a storage count otherwise."""
        count = self._sqlite.index_tag_count(name, tag)
        if count is not None:
            return count
        return self.count_elements(name, tag)

    def count_attribute(self, name: str, attr: str, value: str) -> int:
        """Number of elements with attribute ``attr`` = ``value``.

        With a persisted format-2 index the answer comes from the
        attribute posting rows — a metadata read, no document
        materialization.  Older or missing indexes fall back to a scan
        of the element rows' attribute JSON.  The shared root's
        attributes are not counted — attribute postings index elements,
        matching the in-memory :class:`~repro.index.term.AttributeIndex`.
        """
        count = self._sqlite.index_attr_count(name, attr, value)
        if count is not None:
            return count
        return self._sqlite.count_attribute_scan(name, attr, value)

    def count_elements(self, name: str, tag: str | None = None) -> int:
        return self._sqlite.count_elements(name, tag)

    def overlapping_pairs(self, name: str, tag_a: str, tag_b: str):
        """Overlap join in storage."""
        return self._sqlite.overlapping_pairs(name, tag_a, tag_b)

    def stats(self, name: str | None = None) -> dict:
        """Stored-document counts in the unified ``repro-stats/1`` shape
        (see docs/ARCHITECTURE.md, Observability): the element row
        count of document ``name``.

        ``name=None`` reports on the whole store instead: document and
        element-row totals plus the collection summary's size by
        feature family — the corpus-level view
        :meth:`repro.collection.Corpus.stats` serves over its pool.
        """
        from ..obs.stats import stats_dict

        if name is None:
            counts = {
                f"collection.{key}": value
                for key, value in self._sqlite.corpus_counts().items()
            }
            return stats_dict("storage.corpus", counts)
        counts = {"storage.elements": self._sqlite.count_elements(name)}
        return stats_dict("storage.store", counts, name=name)


__all__ = ["GoddagStore", "SqliteStore", "StoredElement"]
