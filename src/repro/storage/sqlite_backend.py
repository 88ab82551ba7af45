"""SQLite-backed persistent store for GODDAG documents.

:class:`SqliteStore` — public name ``GoddagStore`` — is what
applications use: save/load by name, list, and storage-level queries
answered in SQL without reconstructing the document.  It stores the
relational encoding of :mod:`repro.storage.schema` with the indexes
cross-hierarchy queries need, which is what makes selective queries on
large stored editions cheap (experiment E7).

Every stored document carries its *persisted index*: an ``index_meta``
row with a non-empty generation stamp, and the document's
``collection_summary`` counts — elements per tag and per label path,
occurrences per term, elements per attribute value.  Every write that
stores a document writes its index in the same transaction and mints a
fresh stamp: :meth:`SqliteStore.save` counts the index from the
document, :meth:`SqliteStore.save_indexed` (editing sessions)
propagates the index manager's applied deltas as row-level upserts
under a stable ``doc_id``, and :meth:`SqliteStore.build_index`
re-counts a stored document's index.  :meth:`SqliteStore.count_tag`
and :meth:`SqliteStore.count_attribute` each read one summary count.

Every write that replaces a whole document is one transaction, so a
failure leaves the old generation or the new one, never neither.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import NamedTuple
from uuid import uuid4

from ..core.goddag import GoddagDocument
from ..errors import PoolExhaustedError, StorageError, StoreBusyError, \
    WriteConflictError
from ..index.manager import PAYLOAD_FORMAT, IndexManager
from ..index.structural import encode_path
from ..index.term import find_all
from ..obs import fallback as _obs_fallback
from ..obs.metrics import metrics
from ..obs.stats import stats_dict
from ..obs.trace import current_tracer
from .schema import (
    KIND_ATTR,
    KIND_PATH,
    KIND_TAG,
    KIND_TERM,
    DocumentRow,
    ElementRow,
    HierarchyRow,
    ROOT_ID,
    decode_attributes,
    decode_document,
    encode_attributes,
    encode_document,
    element_row,
    summary_rows,
)

_DDL = """
CREATE TABLE IF NOT EXISTS documents (
    doc_id INTEGER PRIMARY KEY,
    name TEXT NOT NULL UNIQUE,
    root_tag TEXT NOT NULL,
    text TEXT NOT NULL,
    root_attributes TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS hierarchies (
    doc_id INTEGER NOT NULL REFERENCES documents(doc_id) ON DELETE CASCADE,
    rank INTEGER NOT NULL,
    name TEXT NOT NULL,
    dtd_source TEXT NOT NULL,
    PRIMARY KEY (doc_id, rank)
);
CREATE TABLE IF NOT EXISTS elements (
    doc_id INTEGER NOT NULL REFERENCES documents(doc_id) ON DELETE CASCADE,
    elem_id INTEGER NOT NULL,
    hierarchy TEXT NOT NULL,
    tag TEXT NOT NULL,
    start INTEGER NOT NULL,
    end INTEGER NOT NULL,
    parent_id INTEGER NOT NULL,
    -- Legacy: sibling order follows from (start, end, elem_id); every
    -- write puts 0 here and nothing reads it.
    child_rank INTEGER NOT NULL,
    attributes TEXT NOT NULL,
    PRIMARY KEY (doc_id, elem_id)
);
CREATE INDEX IF NOT EXISTS idx_elements_tag ON elements(doc_id, tag);
CREATE INDEX IF NOT EXISTS idx_elements_span ON elements(doc_id, start, end);
CREATE INDEX IF NOT EXISTS idx_elements_hierarchy
    ON elements(doc_id, hierarchy);
CREATE TABLE IF NOT EXISTS index_meta (
    doc_id INTEGER PRIMARY KEY REFERENCES documents(doc_id) ON DELETE CASCADE,
    format INTEGER NOT NULL,
    doc_length INTEGER NOT NULL,
    stamp TEXT NOT NULL DEFAULT ''
);
CREATE TABLE IF NOT EXISTS collection_summary (
    doc_id INTEGER NOT NULL REFERENCES documents(doc_id) ON DELETE CASCADE,
    kind INTEGER NOT NULL,
    key TEXT NOT NULL,
    n INTEGER NOT NULL,
    PRIMARY KEY (kind, key, doc_id)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_collection_summary_doc
    ON collection_summary(doc_id, kind);
"""

#: Schema version recorded in ``PRAGMA user_version``.  Version 1 added
#: the ``collection_summary`` table; version 2 gives every document an
#: index at the current format with a non-empty stamp.  Opening an older
#: store counts what it lacks from the rows (see
#: :meth:`SqliteStore._migrate`).
SCHEMA_VERSION = 2

#: The element-row INSERT of full saves and streaming chunks:
#: ``(doc_id, *ElementRow)``, with 0 in the legacy ``child_rank`` column
#: (the row-level upsert writes the same).
_INSERT_ELEMENT = "INSERT INTO elements VALUES (?, ?, ?, ?, ?, ?, ?, 0, ?)"

#: Reserved name prefix for in-flight streaming ingests.  A
#: :class:`StreamIngestSession` accumulates rows under a staging name
#: with this prefix; ``names()`` hides such rows and the next streaming
#: ingest reclaims any left behind by a crash, so a partially-written
#: document is never observable under its real name.
STAGING_PREFIX = "__repro_ingest__"


@dataclass(frozen=True)
class StoredElement:
    """A storage-level query result (no GODDAG node is materialized)."""

    elem_id: int
    hierarchy: str
    tag: str
    start: int
    end: int
    attributes: dict[str, str]


#: SQLITE_BUSY retry budget: total attempts per write transaction.
BUSY_RETRY_ATTEMPTS = 5

#: Base backoff before the first retry; doubles per attempt (so the
#: default schedule waits 10, 20, 40, 80 ms — bounded, never unbounded
#: spinning against a stuck writer).
BUSY_RETRY_BASE_S = 0.01


def _is_busy(exc: sqlite3.OperationalError) -> bool:
    """True for the SQLITE_BUSY / SQLITE_LOCKED family — transient
    contention worth retrying, as opposed to a real statement error."""
    message = str(exc).lower()
    return "locked" in message or "busy" in message


class SqliteStore:
    """Persistent storage for GODDAG documents, on SQLite.

    One instance owns one connection.  The connection is created with
    ``check_same_thread=False`` so a :class:`SqliteConnectionPool` can
    hand it from thread to thread, but an instance is **not** itself
    thread-safe: at most one thread may use it at a time (the pool
    guarantees exclusive use between acquire and release).

    ``wal=True`` puts a file-backed database in write-ahead-log mode —
    the journal mode that lets readers on other connections proceed
    while one writer commits — and is what the concurrent document
    service (:mod:`repro.service`) runs under.  ``busy_timeout_ms``
    sets SQLite's own in-connection wait for a locked database; on top
    of it, every write transaction retries with bounded exponential
    backoff (``BUSY_RETRY_ATTEMPTS`` attempts) before surfacing a
    typed :class:`~repro.errors.StoreBusyError`, counting each retry on
    the ``storage.busy_retries`` metric and its wait on the
    ``storage.busy_backoff`` timer.
    """

    def __init__(self, path: str | Path = ":memory:", *, wal: bool = False,
                 busy_timeout_ms: int = 5000) -> None:
        self.path = str(path)
        self.busy_timeout_ms = busy_timeout_ms
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._conn.execute("PRAGMA foreign_keys = ON")
        self._conn.execute(f"PRAGMA busy_timeout = {int(busy_timeout_ms)}")
        self.journal_mode = "memory" if self.path == ":memory:" else "delete"
        if wal:
            # WAL only takes on file-backed databases (an in-memory
            # database reports 'memory' and keeps working) — and once
            # set it is a property of the *file*, shared by every
            # connection.  synchronous=NORMAL is the documented safe
            # pairing: a crash can lose the tail of the WAL but never
            # corrupt the database.  The switch can fail with
            # SQLITE_BUSY despite the busy timeout while another
            # connection opens the same file, so it retries.
            (self.journal_mode,) = self._busy_retry(
                lambda: self._conn.execute(
                    "PRAGMA journal_mode = WAL").fetchone(),
                "journal_mode = WAL",
            )
            self._conn.execute("PRAGMA synchronous = NORMAL")
        self._conn.executescript(_DDL)
        self._migrate()

    @classmethod
    def over(cls, store: "SqliteStore") -> "SqliteStore":
        """Return ``store`` itself.

        Kept only because the end-to-end benchmark workloads
        (``benchmarks/e2e/workloads.py``), which change only together
        with the benchmark, call ``over(backend)`` before
        ``lazy(name)``; new code uses the connection directly.
        """
        return store

    def _write_retry(self, operation, what: str):
        """Run ``operation`` as one whole write transaction, retrying on
        SQLITE_BUSY.

        The transaction begins (``BEGIN IMMEDIATE``) before
        ``operation`` runs, so its reads — an existence check, a stamp
        probe — see the state its writes will commit over; statements
        the caller left uncommitted on the connection join it.  It commits
        when ``operation`` returns and rolls back when it raises, so a
        failed attempt leaves nothing behind and the next attempt
        replays it from scratch.  Non-busy errors propagate untouched;
        exhausting the budget raises
        :class:`~repro.errors.StoreBusyError` with the attempt count.
        """
        def transaction():
            with self._conn:
                if not self._conn.in_transaction:
                    self._conn.execute("BEGIN IMMEDIATE")
                return operation()

        return self._busy_retry(transaction, what)

    def _busy_retry(self, operation, what: str):
        """Run ``operation``, retrying it on SQLITE_BUSY with the bounded
        backoff of :meth:`_write_retry`."""
        attempt = 1
        while True:
            try:
                return operation()
            except sqlite3.OperationalError as exc:
                if not _is_busy(exc):
                    raise
                if attempt >= BUSY_RETRY_ATTEMPTS:
                    raise StoreBusyError(
                        f"{what}: database still locked after "
                        f"{attempt} attempts ({exc})",
                        attempts=attempt,
                    ) from exc
                metrics.incr("storage.busy_retries")
                delay = BUSY_RETRY_BASE_S * (2 ** (attempt - 1))
                with metrics.time("storage.busy_backoff"):
                    time.sleep(delay)
                attempt += 1

    def _migrate(self) -> None:
        """Bring a store created by an older release up to the current
        schema (CREATE TABLE IF NOT EXISTS never alters existing
        tables).  Additive only: older columns are never dropped, and
        the index tables of older stores are left in place, unread
        (:meth:`_index_every_document` counts from the rows).

        The whole migration — the ``index_meta.stamp`` column, the
        index of every document and the version bump — is one write
        transaction that re-reads the schema inside it, so connections
        opening the same old store at once migrate it exactly once."""
        if self._schema_current():
            return

        def transaction() -> None:
            columns = [
                row[1] for row in
                self._conn.execute("PRAGMA table_info(index_meta)")
            ]
            if "stamp" not in columns:
                self._conn.execute(
                    "ALTER TABLE index_meta"
                    " ADD COLUMN stamp TEXT NOT NULL DEFAULT ''"
                )
            (version,) = self._conn.execute(
                "PRAGMA user_version").fetchone()
            if version < SCHEMA_VERSION:
                self._index_every_document(version)
                self._conn.execute(
                    f"PRAGMA user_version = {int(SCHEMA_VERSION)}"
                )

        self._write_retry(transaction, "schema migration")

    def _schema_current(self) -> bool:
        columns = [
            row[1]
            for row in self._conn.execute("PRAGMA table_info(index_meta)")
        ]
        (version,) = self._conn.execute("PRAGMA user_version").fetchone()
        return "stamp" in columns and version >= SCHEMA_VERSION

    def _index_every_document(self, version: int) -> None:
        """Give every document of a store at schema ``version`` an index
        at :data:`PAYLOAD_FORMAT` with a non-empty stamp.

        A document is counted from its own rows
        (:func:`~repro.storage.schema.summary_rows`) when it has no
        ``index_meta`` row, an index older than format 2, or — below
        version 1 — no summary rows at all; it keeps a stamp it has.
        Any other document with an empty stamp gets a fresh one.  So a
        migrated store routes and counts like a freshly written one.
        Staging rows of an interrupted streaming ingest are left for
        the next ingest to reclaim.  Statements only: :meth:`_migrate`
        owns the transaction."""
        for doc_id, name, fmt, stamp in self._conn.execute(
            "SELECT d.doc_id, d.name, m.format, m.stamp FROM documents d"
            " LEFT JOIN index_meta m USING (doc_id) WHERE d.name NOT GLOB ?",
            (STAGING_PREFIX + "*",),
        ).fetchall():
            if version < 1 or fmt is None or fmt < 2:
                self._write_index_rows(doc_id, self.load(name),
                                       stamp or uuid4().hex)
            elif not stamp:
                self._conn.execute(
                    "UPDATE index_meta SET stamp = ? WHERE doc_id = ?",
                    (uuid4().hex, doc_id),
                )

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "SqliteStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def artifact_token(self, name: str, generation: str | None) -> tuple:
        """The identity of one stored artifact *generation* — the token
        an :class:`~repro.index.manager.IndexManager` keys its delta
        accounting to
        (:meth:`~repro.index.manager.IndexManager.mark_persisted`).
        Deltas accumulated against another store, another name, or a
        generation someone replaced since never row-apply."""
        return ("sqlite", self.path, name, generation)

    # -- save / load ---------------------------------------------------------------

    def save(self, document: GoddagDocument, name: str,
             overwrite: bool = False) -> str:
        """Store ``document`` and its index under ``name`` in one
        transaction; returns the new generation stamp.

        A document already stored under ``name`` raises
        :class:`~repro.errors.StorageError` unless ``overwrite``.  The
        rows are written whole, the index counted from the document
        itself; no :class:`~repro.index.manager.IndexManager` is built
        or consulted, so an attached one keeps its own delta accounting
        (editing sessions use :meth:`save_indexed`).  Replacing a stored
        document is a plain full write, not a fallback, and a failure
        anywhere leaves the old generation in place.
        """
        return self._save_indexed(document, name, None, overwrite, False)

    def _insert_document(self, doc_row: DocumentRow, hierarchy_rows,
                         element_rows) -> int:
        """Insert one document: its document row, then its hierarchy
        and element rows (statements only — the caller owns the
        transaction).  Returns the new doc_id."""
        doc_id = self._conn.execute(
            "INSERT INTO documents (name, root_tag, text, root_attributes)"
            " VALUES (?, ?, ?, ?)",
            (doc_row.name, doc_row.root_tag, doc_row.text,
             doc_row.root_attributes),
        ).lastrowid
        self._insert_rows(doc_id, hierarchy_rows, element_rows)
        return doc_id

    def _insert_rows(self, doc_id: int, hierarchy_rows, element_rows) -> None:
        """The hierarchy and element INSERTs of every full write
        (statements only — the caller owns the transaction and has
        removed any older rows of ``doc_id``)."""
        self._conn.executemany(
            "INSERT INTO hierarchies VALUES (?, ?, ?, ?)",
            [(doc_id, row.rank, row.name, row.dtd_source)
             for row in hierarchy_rows],
        )
        self._conn.executemany(
            _INSERT_ELEMENT, [(doc_id, *row) for row in element_rows]
        )

    def load(self, name: str) -> GoddagDocument:
        """Reconstruct the full GODDAG for ``name``."""
        doc_id, doc_row = self._document_row(name)
        hierarchy_rows = [
            HierarchyRow(rank, hname, dtd)
            for rank, hname, dtd in self._conn.execute(
                "SELECT rank, name, dtd_source FROM hierarchies"
                " WHERE doc_id = ? ORDER BY rank", (doc_id,),
            )
        ]
        element_rows = list(map(ElementRow._make, self._conn.execute(
            f"SELECT {self._ELEMENT_ROW_COLS} FROM elements"
            " WHERE doc_id = ? ORDER BY elem_id", (doc_id,),
        )))
        return decode_document(doc_row, hierarchy_rows, element_rows)

    def load_snapshot(self, name: str) -> tuple[GoddagDocument, str]:
        """``(document, index stamp)`` of ``name``, read in one sqlite
        read transaction, so the stamp names exactly the generation the
        rows belong to.

        A writer that commits between the stamp read and the row reads
        is invisible to both (see :meth:`read_transaction`), so no retry
        is needed.
        """
        with self.read_transaction():
            stamp = self.index_stamp(name)
            document = self.load(name)
        return document, stamp

    @contextmanager
    def read_transaction(self):
        """Run the block's statements in one sqlite read transaction.

        They all see one generation of the database: WAL gives the
        transaction one consistent view, and in rollback-journal mode
        its shared lock holds a writer off until it ends.
        """
        self._conn.execute("BEGIN")
        try:
            yield self
        finally:
            self._conn.execute("COMMIT")

    def delete(self, name: str) -> None:
        doc_id = self._doc_id(name)

        def transaction() -> None:
            self._conn.execute(
                "DELETE FROM documents WHERE doc_id = ?", (doc_id,)
            )

        self._write_retry(transaction, f"delete {name!r}")

    def names(self) -> list[str]:
        """All stored document names (staging rows of in-flight
        streaming ingests excluded)."""
        return [
            name for (name,) in
            self._conn.execute(
                "SELECT name FROM documents WHERE name NOT GLOB ?"
                " ORDER BY name", (STAGING_PREFIX + "*",),
            )
        ]

    def has(self, name: str) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM documents WHERE name = ?", (name,)
        ).fetchone()
        return row is not None

    def _document_row(self, name: str) -> tuple[int, DocumentRow]:
        row = self._conn.execute(
            "SELECT doc_id, name, root_tag, text, root_attributes"
            " FROM documents WHERE name = ?", (name,),
        ).fetchone()
        if row is None:
            raise StorageError(f"no stored document {name!r}")
        doc_id, name, root_tag, text, root_attributes = row
        return doc_id, DocumentRow(name, root_tag, text, root_attributes)

    # -- storage-level queries (no reconstruction) --------------------------------------

    def count_elements(self, name: str, tag: str | None = None) -> int:
        doc_id = self._doc_id(name)
        if tag is None:
            query = "SELECT COUNT(*) FROM elements WHERE doc_id = ?"
            (count,) = self._conn.execute(query, (doc_id,)).fetchone()
        else:
            query = "SELECT COUNT(*) FROM elements WHERE doc_id = ? AND tag = ?"
            (count,) = self._conn.execute(query, (doc_id, tag)).fetchone()
        return count

    def elements_by_tag(self, name: str, tag: str) -> list[StoredElement]:
        doc_id = self._doc_id(name)
        return [
            _stored(row)
            for row in self._conn.execute(
                "SELECT elem_id, hierarchy, tag, start, end, attributes"
                " FROM elements WHERE doc_id = ? AND tag = ?"
                " ORDER BY start, end DESC", (doc_id, tag),
            )
        ]

    def elements_intersecting(
        self, name: str, start: int, end: int
    ) -> list[tuple[str, str, int, int]]:
        """Solid elements sharing at least one character with
        [start, end), as ``(hierarchy, tag, start, end)`` ordered by
        ``(start, -end, hierarchy, tag)`` — read from the element rows,
        without reconstruction, by the ``(doc_id, start, end)`` index.
        Zero-width elements share no character with any window and are
        never returned."""
        doc_id = self._doc_id(name)
        return self._conn.execute(
            "SELECT hierarchy, tag, start, end FROM elements"
            " WHERE doc_id = ? AND start < ? AND end > ? AND start < end"
            " ORDER BY start, end DESC, hierarchy, tag",
            (doc_id, end, start),
        ).fetchall()

    def element(self, name: str, elem_id: int) -> StoredElement | None:
        """The element row with persistent id ``elem_id``, or ``None``.

        One keyed probe of the ``(doc_id, elem_id)`` primary key — the
        storage half of a cross-session node handle: an
        :attr:`~repro.core.node.Element.elem_id` observed in one session
        resolves here (or, materialized, via
        :meth:`~repro.core.goddag.GoddagDocument.element_by_ordinal`)
        in any later one.
        """
        doc_id = self._doc_id(name)
        row = self._conn.execute(
            "SELECT elem_id, hierarchy, tag, start, end, attributes"
            " FROM elements WHERE doc_id = ? AND elem_id = ?",
            (doc_id, elem_id),
        ).fetchone()
        return _stored(row) if row is not None else None

    def overlapping_pairs(
        self, name: str, tag_a: str, tag_b: str
    ) -> list[tuple[StoredElement, StoredElement]]:
        """All properly-overlapping (tag_a, tag_b) pairs, by SQL self-join."""
        doc_id = self._doc_id(name)
        rows = self._conn.execute(
            """
            SELECT a.elem_id, a.hierarchy, a.tag, a.start, a.end, a.attributes,
                   b.elem_id, b.hierarchy, b.tag, b.start, b.end, b.attributes
            FROM elements a JOIN elements b
              ON a.doc_id = b.doc_id
             AND a.start < b.end AND b.start < a.end
             AND NOT (a.start <= b.start AND b.end <= a.end)
             AND NOT (b.start <= a.start AND a.end <= b.end)
            WHERE a.doc_id = ? AND a.tag = ? AND b.tag = ?
              AND a.hierarchy != b.hierarchy
              AND a.start < a.end AND b.start < b.end
            """,
            (doc_id, tag_a, tag_b),
        ).fetchall()
        return [(_stored(row[:6]), _stored(row[6:])) for row in rows]

    def count_tag(self, name: str, tag: str) -> int:
        """Number of elements with ``tag``: the document's tag count in
        ``collection_summary`` (one keyed read)."""
        return self._summary_count(self._doc_id(name), KIND_TAG, tag)

    def _summary_count(self, doc_id: int, kind: int, key: str) -> int:
        """One ``collection_summary`` count; 0 when the row is absent."""
        row = self._conn.execute(
            "SELECT n FROM collection_summary"
            " WHERE kind = ? AND key = ? AND doc_id = ?",
            (kind, key, doc_id),
        ).fetchone()
        return 0 if row is None else row[0]

    def count_attribute(self, name: str, attr: str, value: str) -> int:
        """Number of elements with attribute ``attr`` = ``value``: the
        document's attribute count in ``collection_summary`` — one keyed
        read, no document materialization.  The shared root's
        attributes are not counted — attribute postings index elements,
        matching the in-memory :class:`~repro.index.term.AttributeIndex`.
        """
        return self._summary_count(self._doc_id(name), KIND_ATTR,
                                   encode_path((attr, value)))

    def term_occurrences(self, name: str, needle: str) -> list[int]:
        """Start offsets of ``needle`` in the stored text (sorted,
        overlapping occurrences included): a scan of the stored text,
        read on its own, never through a document reconstruction.
        """
        doc_id = self._doc_id(name)
        (text,) = self._conn.execute(
            "SELECT text FROM documents WHERE doc_id = ?", (doc_id,)
        ).fetchone()
        return find_all(text, needle)

    def stats(self, name: str | None = None) -> dict:
        """Stored-document counts in the unified ``repro-stats/1`` shape
        (see docs/ARCHITECTURE.md, Observability): the element row
        count of document ``name``.

        ``name=None`` reports on the whole store instead: document and
        element-row totals plus the collection summary's size by
        feature family — the corpus-level view
        :meth:`repro.collection.Corpus.stats` serves over its pool.
        """
        if name is None:
            counts = {
                f"collection.{key}": value
                for key, value in self.corpus_counts().items()
            }
            return stats_dict("storage.corpus", counts)
        counts = {"storage.elements": self.count_elements(name)}
        return stats_dict("storage.store", counts, name=name)

    def text(self, name: str) -> str:
        """The full document text, without reconstructing any element."""
        _, row = self._document_row(name)
        return row.text

    def text_of(self, name: str, start: int, end: int) -> str:
        """A text window, served straight from the database.

        An ``end`` past the text is clamped to it.  A negative ``start``
        or an ``end`` before ``start`` raises
        :class:`~repro.errors.StorageError` naming the window (SQL
        ``substr`` would count a negative length backwards).
        """
        if start < 0 or end < start:
            raise StorageError(f"bad text window [{start}, {end}) of "
                               f"{name!r}: need 0 <= start <= end")
        doc_id = self._doc_id(name)
        (fragment,) = self._conn.execute(
            "SELECT substr(text, ?, ?) FROM documents WHERE doc_id = ?",
            (start + 1, end - start, doc_id),
        ).fetchone()
        return fragment

    # -- persisted indexes (see repro.index) ---------------------------------------------
    #
    # A persisted index is one index_meta row plus the document's
    # collection_summary counts, counted from the document itself
    # (schema.summary_rows).  Positions are never stored twice: span
    # queries read the element rows under idx_elements_span, and term
    # queries scan the text.

    def save_index(self, name: str, document: GoddagDocument) -> str:
        """Re-count the index of ``document``, which is what is stored
        under ``name``: its ``index_meta`` row and its
        ``collection_summary`` counts
        (:func:`~repro.storage.schema.summary_rows`), under a fresh
        generation stamp, which it returns."""
        doc_id = self._doc_id(name)
        stamp = uuid4().hex
        self._write_retry(
            lambda: self._write_index_rows(doc_id, document, stamp),
            f"save_index {name!r}",
        )
        return stamp

    def build_index(self, name: str) -> str:
        """Re-count the index of a stored document from its rows, under
        a fresh generation stamp, which it returns; loads the document
        once and builds no :class:`~repro.index.manager.IndexManager`.
        """
        return self.save_index(name, self.load(name))

    def save_indexed(self, document: GoddagDocument, name: str,
                     manager: IndexManager | None = None,
                     overwrite: bool = False,
                     strict_stamp: bool = False) -> dict:
        """Save (or re-save) a document *and* keep its persisted index in
        step — the editing-session form of :meth:`save`.

        ``manager`` defaults to the document's attached index manager;
        it is refreshed (incrementally, when the delta journal allows)
        and its applied deltas propagate to the store instead of
        invalidating the stored index wholesale: one transaction brings
        the stored rows in step under their existing ``doc_id``.  When
        the manager can supply deltas *for this store and name*, the
        journal's coalesced :class:`~repro.core.changes.UpdateElementRow`
        set upserts and deletes exactly the element rows the session
        touched (keyed by persistent ``elem_id`` — an attribute-only
        edit writes O(1) rows) and the summary counts are patched likewise;
        anything else (journal overflow, untracked mutations, foreign
        artifacts) takes a full rewrite.  A document not stored yet is
        written whole, document and index in one transaction.  Either
        way the write is atomic, so a crash can never pair a newer
        document with a stale index, or leave a document without one.

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

        Returns the manager's size census.
        """
        if manager is None:
            manager = document.index_manager
        if manager is None or manager.document is not document:
            raise StorageError(
                "save_indexed needs an IndexManager for this document "
                "(attach one, or pass manager=)"
            )
        self._save_indexed(document, name, manager, overwrite, strict_stamp)
        return manager.stats()

    def _save_indexed(self, document: GoddagDocument, name: str,
                      manager: IndexManager | None, overwrite: bool,
                      strict_stamp: bool) -> str:
        tracer = current_tracer()
        with (tracer.span("save", document=name) if tracer is not None
              else nullcontext()), metrics.time("storage.save"):
            generation = self._stamp_of(name)
            exists = generation is not None
            token = self.artifact_token(name, generation)
            deltas = own = None
            if manager is not None:
                deltas = manager.pending_persist(token)  # refreshes it
                own = manager.persisted_to(token)
            if exists and not overwrite and not own:
                if strict_stamp:
                    metrics.incr("service.conflicts")
                    raise WriteConflictError(
                        f"document {name!r} was published by another "
                        "writer during this session; nothing was written",
                        name=name, found=generation,
                    )
                raise StorageError(
                    f"document {name!r} already stored and is not this "
                    "session's artifact; pass overwrite=True to replace it"
                )
            stamp = uuid4().hex
            self.resave_with_index(
                document, name, deltas, manager,
                stamp=stamp,
                # None tells the transaction that nothing was stored.
                expected_stamp=generation,
                strict_stamp=strict_stamp,
            )
            if manager is not None:
                manager.mark_persisted(self.artifact_token(name, stamp))
        return stamp

    def save_stream(self, sources, name: str, *, overwrite: bool = False,
                    chunk_elements: int = 1024,
                    chunk_chars: int = 1 << 16) -> str:
        """Stream-parse a distributed document straight into storage.

        The bounded-memory counterpart of ``parse_concurrent`` +
        :meth:`save_indexed`: ``sources`` maps hierarchy names to XML
        sources (strings, paths, open files, chunk iterables, or
        zero-argument factories returning one — each is read once, by
        the merge itself), and the stored rows — document, elements,
        and the full persisted index — are byte-identical to the
        materialized path.  The write
        proceeds in chunked transactions while the SACX merge runs (see
        :func:`repro.streaming.ingest.stream_save`), never holding the
        whole document; readers see nothing under ``name`` until the
        final rename publishes it.

        Returns the index generation stamp.
        """
        from ..streaming.ingest import stream_save

        return stream_save(
            self, sources, name, overwrite=overwrite,
            chunk_elements=chunk_elements, chunk_chars=chunk_chars,
        )

    def lazy(self, name: str):
        """An on-demand :class:`~repro.streaming.lazy.LazyDocument` view
        over a stored document — rows hydrate as queries touch them,
        nothing is materialized up front."""
        from ..streaming.lazy import LazyDocument

        return LazyDocument(self, name)

    def begin_stream_ingest(self, name: str, *,
                            overwrite: bool = False) -> "StreamIngestSession":
        """Open a chunked streaming write of one document + its index.

        Reclaims any staging rows a crashed ingest left behind, then
        inserts a placeholder document row, with an empty root, under a
        reserved staging name (see :data:`STAGING_PREFIX`).  The
        returned session accepts element rows, text chunks and index
        counts in chunks; nothing is visible under ``name`` until its
        ``finalize`` renames the staging row in the same transaction
        that writes ``index_meta`` and the root element's tag and
        attributes.
        """
        if self.has(name) and not overwrite:
            raise StorageError(f"document {name!r} already stored")
        stale = [
            stale_name for (stale_name,) in self._conn.execute(
                "SELECT name FROM documents WHERE name GLOB ?",
                (STAGING_PREFIX + "*",),
            )
        ]
        for stale_name in stale:
            self.delete(stale_name)
            metrics.incr("storage.stream_staging_reclaimed")
        staging = STAGING_PREFIX + uuid4().hex

        def transaction() -> int:
            return self._conn.execute(
                "INSERT INTO documents"
                " (name, root_tag, text, root_attributes)"
                " VALUES (?, '', '', '{}')",
                (staging,),
            ).lastrowid

        doc_id = self._write_retry(transaction, f"stream_ingest {name!r}")
        metrics.incr("storage.stream_ingests")
        return StreamIngestSession(self, doc_id, staging, name, overwrite)

    # -- lazy row-level access (see repro.streaming.lazy) -----------------------------

    def document_meta(self, name: str) -> tuple[int, str, str, int]:
        """``(doc_id, root_tag, root_attributes_json, text_length)``
        without pulling the document text — the lazy view's handle."""
        row = self._conn.execute(
            "SELECT doc_id, root_tag, root_attributes, length(text)"
            " FROM documents WHERE name = ?", (name,),
        ).fetchone()
        if row is None:
            raise StorageError(f"no stored document {name!r}")
        return row

    def hierarchy_names_of(self, name: str) -> list[str]:
        """Hierarchy names in rank (declaration) order."""
        doc_id, *_ = self.document_meta(name)
        return [
            hname for (hname,) in self._conn.execute(
                "SELECT name FROM hierarchies WHERE doc_id = ?"
                " ORDER BY rank", (doc_id,),
            )
        ]

    _ELEMENT_ROW_COLS = ("elem_id, hierarchy, tag, start, end,"
                         " parent_id, attributes")

    def element_row_full(self, name: str, elem_id: int) -> ElementRow | None:
        """The full schema row for one element — one keyed probe of the
        ``(doc_id, elem_id)`` primary key — or ``None``."""
        doc_id = self._doc_id(name)
        return self.element_row_at(doc_id, elem_id)

    def element_row_at(self, doc_id: int, elem_id: int) -> ElementRow | None:
        """:meth:`element_row_full` for a ``doc_id`` already resolved."""
        row = self._conn.execute(
            f"SELECT {self._ELEMENT_ROW_COLS} FROM elements"
            " WHERE doc_id = ? AND elem_id = ?", (doc_id, elem_id),
        ).fetchone()
        return ElementRow._make(row) if row is not None else None

    def element_rows_in_span(
        self, name: str, hierarchy: str, start: int, end: int
    ) -> list[ElementRow]:
        """All rows of ``hierarchy`` whose span fits inside
        ``[start, end]`` (zero-width rows at either boundary included),
        by the ``(doc_id, start, end)`` index, ordered by ``elem_id``.

        A candidate superset for subtree hydration: the caller still
        filters by parent-chain reachability, since an overlapping
        hierarchy sibling can share the interval.
        """
        doc_id = self._doc_id(name)
        return list(map(ElementRow._make, self._conn.execute(
            f"SELECT {self._ELEMENT_ROW_COLS} FROM elements"
            " WHERE doc_id = ? AND start >= ? AND end <= ?"
            " AND hierarchy = ? ORDER BY elem_id",
            (doc_id, start, end, hierarchy),
        )))

    def element_rows_by_tag(
        self, name: str, tag: str, hierarchy: str | None = None,
        attr: str | None = None, value: str | None = None,
    ) -> list[ElementRow]:
        """Full rows with ``tag``, by the ``(doc_id, tag)`` index,
        ordered by ``elem_id``.

        With ``attr``/``value``, rows are prefiltered in SQL by the
        :func:`_json_token_prefix` ``instr`` needle — the caller must
        still confirm the match on the decoded attribute dict (the
        needle never false-negatives, but may false-positive).
        """
        doc_id = self._doc_id(name)
        where, params = _tag_filter(tag, hierarchy, attr, value)
        # Sorted here, not by ORDER BY, which would make sqlite scan
        # every row of the document by primary key instead.
        return sorted(map(ElementRow._make, self._conn.execute(
            f"SELECT {self._ELEMENT_ROW_COLS} FROM elements"
            f" WHERE doc_id = ? AND {where}", (doc_id, *params),
        )))

    def element_rows_by_tag_of(
        self, doc_ids: list[int], tag: str, hierarchy: str | None = None,
        attr: str | None = None, value: str | None = None,
    ) -> dict[int, list[ElementRow]]:
        """:meth:`element_rows_by_tag` of many documents in one
        statement, by the ``(doc_id, tag)`` index: ``doc_id`` → its
        rows, in no set order (a document with none is absent)."""
        where, params = _tag_filter(tag, hierarchy, attr, value)
        found: dict[int, list[ElementRow]] = {}
        for doc_id, *row in self._conn.execute(
            f"SELECT doc_id, {self._ELEMENT_ROW_COLS} FROM elements"
            f" WHERE doc_id IN (SELECT value FROM json_each(?)) AND {where}",
            (json.dumps(doc_ids), *params),
        ):
            found.setdefault(doc_id, []).append(ElementRow._make(row))
        return found

    def member_stamps(self, names: list[str]
                      ) -> list[tuple[str, int, str]]:
        """``(name, doc_id, index stamp)`` of every stored name in
        ``names``, in one statement (see :meth:`index_stamp`)."""
        return self._conn.execute(
            "SELECT d.name, d.doc_id, m.stamp FROM documents d"
            " JOIN index_meta m USING (doc_id)"
            " WHERE d.name IN (SELECT value FROM json_each(?))",
            (json.dumps(names),),
        ).fetchall()

    def root_columns_of(self, doc_ids: list[int], tag: str
                        ) -> list[tuple[int, str, int]]:
        """``(doc_id, root_attributes_json, text_length)`` of the
        documents among ``doc_ids`` whose root element is tagged
        ``tag``, in one statement (see :meth:`document_meta`)."""
        return self._conn.execute(
            "SELECT doc_id, root_attributes, length(text) FROM documents"
            " WHERE doc_id IN (SELECT value FROM json_each(?))"
            " AND root_tag = ?", (json.dumps(doc_ids), tag),
        ).fetchall()

    def hierarchy_ranks(self, doc_ids: list[int]
                        ) -> dict[int, dict[str, int]]:
        """``doc_id`` → hierarchy name → rank (declaration order), in
        one statement."""
        ranks: dict[int, dict[str, int]] = {}
        for doc_id, hname in self._conn.execute(
            "SELECT doc_id, name FROM hierarchies"
            " WHERE doc_id IN (SELECT value FROM json_each(?))"
            " ORDER BY doc_id, rank", (json.dumps(doc_ids),),
        ):
            names = ranks.setdefault(doc_id, {})
            names[hname] = len(names)
        return ranks

    def _write_index_rows(self, doc_id: int, document: GoddagDocument,
                          stamp: str) -> None:
        """Replace the index rows of ``doc_id`` with ``document``'s
        ``index_meta`` row and
        :func:`~repro.storage.schema.summary_rows` — the index half of
        every full write (statements only — the caller owns the
        transaction).  ``stamp`` is the generation mark a writer leaves
        so it can later recognize its own artifact."""
        for table in ("index_meta", "collection_summary"):
            self._conn.execute(
                f"DELETE FROM {table} WHERE doc_id = ?", (doc_id,)
            )
        self._conn.execute(
            "INSERT INTO index_meta VALUES (?, ?, ?, ?)",
            (doc_id, PAYLOAD_FORMAT, document.length, stamp),
        )
        self._conn.executemany(
            "INSERT INTO collection_summary VALUES (?, ?, ?, ?)",
            [(doc_id, kind, key, n)
             for kind, key, n in summary_rows(document)],
        )

    def _apply_index_delta_rows(self, doc_id: int, deltas,
                                manager: IndexManager) -> None:
        """Row-level index maintenance from a
        :class:`~repro.index.manager.PersistDeltas` (statements only —
        :meth:`resave_with_index` owns the transaction).

        Re-counts exactly the ``collection_summary`` keys the dirty
        ``deltas.paths`` and ``deltas.attrs`` name — the tag and the
        hierarchy-agnostic label path of each dirty partition, and each
        dirty ``(name, value)`` posting — from ``manager``, which the
        caller has refreshed to the document being written.  A nonzero
        count upserts its row; zero deletes it, so the summary never
        holds a key the document can no longer match.  Term counts
        never change: the text is immutable within a session.
        """
        structural = manager.structural
        counts = [
            (KIND_TAG, tag, structural.tag_count(tag))
            for tag in {path[-1] for _hierarchy, path in deltas.paths}
        ]
        counts.extend(
            (KIND_PATH, encode_path(path), structural.path_count(path))
            for path in {path for _hierarchy, path in deltas.paths}
        )
        counts.extend(
            (KIND_ATTR, encode_path((attr_name, value)),
             manager.attr_count(attr_name, value))
            for attr_name, value in deltas.attrs
        )
        self._conn.executemany(
            "INSERT OR REPLACE INTO collection_summary VALUES (?, ?, ?, ?)",
            [(doc_id, kind, key, n) for kind, key, n in counts if n],
        )
        self._conn.executemany(
            "DELETE FROM collection_summary"
            " WHERE kind = ? AND key = ? AND doc_id = ?",
            [(kind, key, doc_id) for kind, key, n in counts if not n],
        )

    def index_stamp(self, name: str) -> str:
        """The generation stamp of the stored document's index — one
        statement, the probe every session pays."""
        stamp = self._stamp_of(name)
        if stamp is None:
            raise StorageError(f"no stored document {name!r}")
        return stamp

    def _stamp_of(self, name: str) -> str | None:
        """:meth:`index_stamp`, or ``None`` when nothing is stored."""
        row = self._conn.execute(
            "SELECT m.stamp FROM documents d"
            " JOIN index_meta m USING (doc_id) WHERE d.name = ?", (name,),
        ).fetchone()
        return None if row is None else row[0]

    def route_documents(self, features) -> list[str]:
        """The names of every document that *can* match a query with
        the given necessary ``features``, in sorted order.

        ``features`` are the router's conservative necessary conditions
        (:func:`repro.collection.router.routing_features`): tuples of
        ``("root", tag)``, ``("tag", tag)``, ``("term", needle)``,
        ``("attr", name, value)`` or ``("path", encoded)``.  A document
        survives only if *every* feature holds, read from its summary
        rows — but the test errs strictly on the side of keeping
        documents: a tag feature also accepts a matching root tag (the
        shared GODDAG root is reachable by ``//x`` yet is not an element
        row), and an attribute feature also accepts an ``instr``
        prefilter match over the stored root-attribute JSON (root
        attributes are not in the posting index).  False positives cost
        a wasted per-document evaluation; a false negative would change
        answers — so there are none by construction.  The staging rows of an in-flight streaming
        ingest never route, exactly as :meth:`names` hides them.
        """
        conj: list[str] = []
        params: list = []
        for feature in features:
            kind, key = feature[0], feature[1]
            if kind == "root":
                conj.append("d.root_tag = ?")
                params.append(key)
            elif kind == "tag":
                conj.append(
                    "(EXISTS(SELECT 1 FROM collection_summary s"
                    " WHERE s.doc_id = d.doc_id AND s.kind = ?"
                    " AND s.key = ?) OR d.root_tag = ?)"
                )
                params.extend((KIND_TAG, key, key))
            elif kind == "term":
                conj.append(
                    "EXISTS(SELECT 1 FROM collection_summary s"
                    " WHERE s.doc_id = d.doc_id AND s.kind = ?"
                    " AND instr(s.key, ?) > 0)"
                )
                params.extend((KIND_TERM, key))
            elif kind == "attr":
                name, value = key, feature[2]
                conj.append(
                    "(EXISTS(SELECT 1 FROM collection_summary s"
                    " WHERE s.doc_id = d.doc_id AND s.kind = ?"
                    " AND s.key = ?) OR (instr(d.root_attributes, ?) > 0"
                    " AND instr(d.root_attributes, ?) > 0))"
                )
                params.extend((KIND_ATTR, encode_path((name, value)),
                               _json_token_prefix(name),
                               _json_token_prefix(value)))
            elif kind == "path":
                conj.append(
                    "EXISTS(SELECT 1 FROM collection_summary s"
                    " WHERE s.doc_id = d.doc_id AND s.kind = ?"
                    " AND s.key = ?)"
                )
                params.extend((KIND_PATH, key))
            else:
                raise StorageError(f"unknown routing feature kind {kind!r}")
        if not conj:
            # No necessary condition extracted — every document is a
            # candidate.
            return self.names()
        return [
            name for (name,) in self._conn.execute(
                "SELECT d.name FROM documents d"
                f" WHERE d.name NOT GLOB ? AND {' AND '.join(conj)}"
                " ORDER BY d.name",
                [STAGING_PREFIX + "*", *params],
            )
        ]

    def corpus_counts(self) -> dict[str, int]:
        """Raw corpus-level counters for the ``repro-stats/1`` stats
        surfaces (:meth:`stats` and
        :meth:`repro.collection.Corpus.stats`).  The rows of in-flight
        streaming ingests are not counted, as :meth:`names` hides
        them."""
        counts = {
            "documents": 0, "element_rows": 0,
            "summary_rows": 0, "tag_keys": 0, "term_keys": 0,
            "attr_keys": 0, "path_keys": 0,
        }
        live = ("doc_id NOT IN"
                " (SELECT doc_id FROM documents WHERE name GLOB ?)")
        staging = (STAGING_PREFIX + "*",)
        (counts["documents"],) = self._conn.execute(
            f"SELECT COUNT(*) FROM documents WHERE {live}", staging
        ).fetchone()
        (counts["element_rows"],) = self._conn.execute(
            f"SELECT COUNT(*) FROM elements WHERE {live}", staging
        ).fetchone()
        names = {KIND_TAG: "tag_keys", KIND_TERM: "term_keys",
                 KIND_ATTR: "attr_keys", KIND_PATH: "path_keys"}
        for kind, n in self._conn.execute(
            "SELECT kind, COUNT(*) FROM collection_summary"
            f" WHERE {live} GROUP BY kind", staging,
        ):
            counts["summary_rows"] += n
            counts[names[kind]] = n
        return counts

    def resave_with_index(self, document: GoddagDocument, name: str,
                          deltas, manager: IndexManager | None,
                          stamp: str,
                          expected_stamp: str | None = None,
                          strict_stamp: bool = False) -> None:
        """Atomically bring a stored document's rows *and* its index in
        step, in one transaction — a crash can never pair a newer
        document with a stale index.  ``manager`` is ``document``'s
        index manager, already refreshed, or ``None`` (then ``deltas``
        is ``None`` too, and the full write is no fallback).
        ``deltas`` (when applicable and an index is stored) patches
        row-level — element rows through the journal's
        :class:`~repro.core.changes.ElementRowCoalescer`
        (``deltas.rows``), summary counts through
        :meth:`_apply_index_delta_rows` — so an attribute-only edit
        persists in O(1) element-row writes instead of an
        O(document) delete-and-reinsert.  Otherwise every row is
        rewritten from ``document``, its index counted from the document
        itself.  Either way the index generation mark becomes ``stamp``.

        The delta path re-verifies ``expected_stamp`` *inside* the
        transaction (a conditional stamp update): if another writer
        replaced the artifact after the caller's own-artifact check, the
        deltas no longer describe what is stored, and the method falls
        back to the full rewrite — never a row-patch of a stranger's
        artifact.  The same fallback covers journal overflow, untracked
        mutations, and a broken row coalescer (the caller passes
        ``deltas=None`` for the first two — mirroring
        :class:`~repro.index.manager.IndexManager`'s own rebuild rules —
        and ``deltas.rows.broken`` guards the third).

        Every full-rewrite fallback is reason-coded into the
        ``storage.full_rewrites.*`` metrics ('stale-deltas',
        'broken-coalescer', 'stamp-mismatch') and
        warns under ``REPRO_OBS_STRICT=1``.

        ``strict_stamp=True`` turns the stamp-mismatch fallback into a
        typed :class:`~repro.errors.WriteConflictError` instead: the
        transaction rolls back untouched rather than rewriting a
        concurrent writer's rows wholesale.  This is the write-session
        publish contract of :mod:`repro.service` — a second writer
        racing the publish surfaces as a conflict, never as silent
        last-writer-wins corruption of the other session's artifact.

        ``expected_stamp`` is the generation the caller read: ``None``
        when nothing was stored under ``name``.  The document is then
        written whole for the first time — document and index rows in
        the same transaction, and not counted as a fallback — and a
        document that appeared meanwhile raises
        :class:`~repro.errors.StorageError` instead of being replaced.

        The whole transaction sits behind the bounded SQLITE_BUSY retry
        (:meth:`_write_retry`); a retried attempt re-runs the
        in-transaction stamp verification from scratch, so a writer that
        published during the backoff is still detected.
        """
        tracer = current_tracer()
        span_cm = (
            tracer.span("transaction", document=name)
            if tracer is not None else nullcontext(None)
        )
        with span_cm as txn_span:
            row_level, reason = self._write_retry(
                lambda: self._resave_transaction(
                    document, name, deltas, manager, stamp,
                    expected_stamp, strict_stamp,
                ),
                f"resave_with_index {name!r}",
            )
            if txn_span is not None:
                txn_span.set(row_level=row_level, reason=reason)

    def _resave_transaction(self, document: GoddagDocument, name: str,
                            deltas, manager: IndexManager | None,
                            stamp: str,
                            expected_stamp: str | None,
                            strict_stamp: bool) -> tuple[bool, str | None]:
        """The statements of :meth:`resave_with_index`; returns
        ``(row_level, full-rewrite reason)``."""
        doc_id = self._find(name)
        if doc_id is None:
            if expected_stamp is not None:
                raise StorageError(f"no stored document {name!r}")
            doc_id = self._insert_document(*encode_document(document, name))
            self._write_index_rows(doc_id, document, stamp)
            return False, None
        if expected_stamp is None:
            raise StorageError(f"document {name!r} already stored")
        # The document row always rewrites: root attributes may have
        # changed, and it is one row either way.  (The text and the
        # hierarchy set are immutable within a tracked session — a
        # hierarchy addition is an untracked touch, which voids the
        # deltas and lands in the full-rewrite branch below.)
        self._conn.execute(
            "UPDATE documents SET root_tag = ?, text = ?,"
            " root_attributes = ? WHERE doc_id = ?",
            (document.root.tag, document.text,
             encode_attributes(tuple(document.root.attributes.items())),
             doc_id),
        )
        row_level = False
        reason = None
        if deltas is None:
            reason = None if manager is None else "stale-deltas"
        elif deltas.rows.broken:
            reason = "broken-coalescer"
        else:
            # Stamp re-verification, inside the transaction: the
            # conditional UPDATE succeeds only against the exact
            # artifact generation the deltas describe.
            metrics.incr("storage.stamp_checks")
            cursor = self._conn.execute(
                "UPDATE index_meta SET stamp = ?"
                " WHERE doc_id = ? AND stamp = ?",
                (stamp, doc_id, expected_stamp),
            )
            row_level = cursor.rowcount == 1
            if not row_level:
                reason = "stamp-mismatch"
        if reason == "stamp-mismatch" and strict_stamp:
            # Raising inside the transaction rolls everything back
            # (including the document-row update above): the racing
            # writer's artifact stays exactly as it published it.
            metrics.incr("service.conflicts")
            raise WriteConflictError(
                f"document {name!r} was published by another writer "
                "during this session; nothing was written",
                name=name, expected=expected_stamp,
            )
        if row_level:
            tracer = current_tracer()
            if tracer is not None:
                with tracer.span("coalesce") as coalesce_span:
                    updates = deltas.rows.updates()
                coalesce_span.set(
                    records=deltas.rows.records_seen,
                    row_writes=len(updates),
                )
            else:
                updates = deltas.rows.updates()
            deleted = sum(1 for op in updates if op.is_delete)
            metrics.incr("storage.row_level_saves")
            metrics.incr("storage.rows_deleted", deleted)
            metrics.incr("storage.rows_upserted", len(updates) - deleted)
            self._apply_element_row_deltas(doc_id, updates)
            self._apply_index_delta_rows(doc_id, deltas, manager)
        else:
            if reason is not None:
                _obs_fallback(
                    "storage.full_rewrites", reason, f"document {name!r}"
                )
            self._rewrite_rows(doc_id, document, name)
            self._write_index_rows(doc_id, document, stamp)
        return row_level, reason

    def _rewrite_rows(
        self, doc_id: int, document: GoddagDocument, name: str
    ) -> None:
        """Full rewrite of the hierarchy and element rows (statements
        only — the caller owns the transaction and the document row)."""
        _, hierarchy_rows, element_rows = encode_document(document, name)
        metrics.incr("storage.rows_rewritten", len(element_rows))
        self._conn.execute(
            "DELETE FROM hierarchies WHERE doc_id = ?", (doc_id,)
        )
        self._conn.execute(
            "DELETE FROM elements WHERE doc_id = ?", (doc_id,)
        )
        self._insert_rows(doc_id, hierarchy_rows, element_rows)

    def _apply_element_row_deltas(self, doc_id: int, updates) -> None:
        """Journal-driven element-row maintenance (statements only — the
        caller owns the transaction).

        ``updates`` is the coalesced write set of
        :meth:`~repro.core.changes.ElementRowCoalescer.updates`: one
        ``DELETE`` per removed element, one keyed upsert per element
        whose row content or parent changed.  Rows are
        keyed by ``(doc_id, elem_id)`` — the persistent birth ordinal —
        so the result is byte-identical to a full rewrite.
        """
        self._conn.executemany(
            "DELETE FROM elements WHERE doc_id = ? AND elem_id = ?",
            [(doc_id, op.ordinal) for op in updates if op.is_delete],
        )
        self._conn.executemany(
            "INSERT OR REPLACE INTO elements"
            " VALUES (?, ?, ?, ?, ?, ?, ?, 0, ?)",
            [(doc_id, *element_row(op.element))
             for op in updates if not op.is_delete],
        )

    def _find(self, name: str) -> int | None:
        """The doc_id stored under ``name``, or ``None``."""
        row = self._conn.execute(
            "SELECT doc_id FROM documents WHERE name = ?", (name,)
        ).fetchone()
        return None if row is None else row[0]

    def _doc_id(self, name: str) -> int:
        """The doc_id stored under ``name``; raises
        :class:`~repro.errors.StorageError` when there is none."""
        doc_id = self._find(name)
        if doc_id is None:
            raise StorageError(f"no stored document {name!r}")
        return doc_id


class SharedSnapshot(NamedTuple):
    """One generation of one document, frozen, and its manager or None."""

    generation: str
    document: GoddagDocument
    manager: IndexManager | None


class SnapshotCache:
    """At most one frozen :class:`SharedSnapshot` per document name,
    LRU over :attr:`LIMIT` names.  Each :class:`SqliteConnectionPool`
    has one, shared by the service's sessions and the corpus fan-out.

    An entry is reused only while the probed stamp equals its
    generation.  Every :meth:`evict` and hand-off (:meth:`install` without
    an epoch) moves the name's install epoch, and a load installs only
    if the epoch it read at its probe is still current, so a slow load
    never replaces a newer entry.  Only a load in flight can read an
    epoch back, so a name keeps one only while :meth:`get` is loading
    it: the epoch table never outgrows the loads running at once.
    """

    LIMIT = 32

    def __init__(self) -> None:
        self._entries: OrderedDict[str, SharedSnapshot] = OrderedDict()
        self._epochs: dict[str, int] = {}
        self._loads: dict[str, int] = {}  # name -> loads in flight
        self._guard = threading.Lock()

    def get(self, connection, name: str, *, index: bool = True,
            install: bool = True) -> tuple[SharedSnapshot, bool]:
        """``(snapshot of name at its stored generation, shared)``.

        ``connection`` (``pool.connection()``) is held only for the
        stamp probe and, on a miss, :meth:`SqliteStore.load_snapshot`.
        With ``index`` a miss gets an attached :class:`IndexManager`
        and an entry without one is a miss.  A miss is frozen, and
        installed only with ``install`` and an unmoved epoch.
        """
        epoch = None
        try:
            with connection as backend:
                generation = backend.index_stamp(name)
                with self._guard:
                    entry = self._hit(name, generation, index)
                    if entry is not None:
                        self._entries.move_to_end(name)
                        return entry, True
                    epoch = self._epochs.get(name, 0)
                    self._loads[name] = self._loads.get(name, 0) + 1
                document, generation = backend.load_snapshot(name)
            manager = IndexManager(document).attach() if index else None
            document.freeze()
            entry = SharedSnapshot(generation, document, manager)
            if install:
                self.install(name, entry, epoch)
            return entry, False
        finally:
            if epoch is not None:
                with self._guard:
                    if self._loads[name] > 1:
                        self._loads[name] -= 1
                    else:
                        del self._loads[name]
                        self._epochs.pop(name, None)

    def holds(self, name: str, generation: str) -> bool:
        """True when :meth:`get` (``index=False``) at ``generation``
        would be served from the cache; looks without touching."""
        with self._guard:
            return self._hit(name, generation, False) is not None

    def _hit(self, name: str, generation: str,
             index: bool) -> SharedSnapshot | None:
        """The entry :meth:`get` shares, or ``None`` (the caller holds
        the guard)."""
        entry = self._entries.get(name)
        if entry is not None and entry.generation == generation \
                and (entry.manager is not None or not index):
            return entry
        return None

    def install(self, name: str, entry: SharedSnapshot,
                epoch: int | None = None) -> None:
        """Make frozen ``entry`` the snapshot of ``name`` unless the
        ``epoch`` read before loading moved; a hand-off passes none."""
        with self._guard:
            if epoch is None:
                self._move_epoch(name)
            elif self._epochs.get(name, 0) != epoch:
                return
            self._entries[name] = entry
            self._entries.move_to_end(name)
            while len(self._entries) > self.LIMIT:
                self._entries.popitem(last=False)

    def evict(self, name: str) -> None:
        """Drop ``name``'s snapshot and move its install epoch, so no
        load already in flight installs over the change."""
        with self._guard:
            self._entries.pop(name, None)
            self._move_epoch(name)

    def _move_epoch(self, name: str) -> None:
        """Bump ``name``'s epoch if a load of it is in flight (the
        caller holds the guard); with none, no load can read it."""
        if name in self._loads:
            self._epochs[name] = self._epochs.get(name, 0) + 1

    def clear(self) -> None:
        with self._guard:
            self._entries.clear()

    def __iter__(self):
        with self._guard:  # cached names, least recently used first
            return iter(list(self._entries))


class SqliteConnectionPool:
    """A bounded pool of :class:`SqliteStore` connections over one file.

    The concurrency substrate of the document service: every session
    borrows a connection for exactly as long as it touches the database
    (a snapshot load, a stamp probe, a publish transaction) and returns
    it immediately, so ``size`` bounds the *simultaneous* database
    work, not the number of sessions.  All connections share one
    WAL-mode database file — readers on other connections proceed while
    a writer commits — and each carries the per-connection pragmas of
    :class:`SqliteStore` (``busy_timeout``, ``foreign_keys``,
    ``synchronous=NORMAL``).

    Connections are created lazily up to ``size`` and reused
    indefinitely.  :meth:`acquire` past capacity blocks up to
    ``acquire_timeout_s`` and then raises the typed
    :class:`~repro.errors.PoolExhaustedError` — never a silent
    deadlock.  Occupancy lands on the ``storage.pool.in_use`` gauge
    (observed at every acquire), waits on the ``storage.pool.wait``
    timer, and each acquisition on the ``storage.pool.acquires``
    counter.

    An in-memory path is rejected: every ``:memory:`` connection is a
    *different* database, so a pool over one is incoherent by
    construction.  :attr:`snapshots` is the :class:`SnapshotCache` of
    every reader on the pool.
    """

    def __init__(self, path: str, size: int = 8, *, wal: bool = True,
                 busy_timeout_ms: int = 5000,
                 acquire_timeout_s: float = 30.0) -> None:
        if str(path) == ":memory:":
            raise StorageError(
                "a connection pool needs a file-backed database: every "
                "':memory:' connection is a distinct database"
            )
        if size < 1:
            raise StorageError(f"pool size must be >= 1, got {size}")
        self.path = str(path)
        self.size = size
        self.acquire_timeout_s = acquire_timeout_s
        self._wal = wal
        self._busy_timeout_ms = busy_timeout_ms
        self._idle: list[SqliteStore] = []
        self._created = 0
        self._closed = False
        self._available = threading.Condition(threading.Lock())
        self.snapshots = SnapshotCache()

    @property
    def in_use(self) -> int:
        """Connections currently out on loan."""
        with self._available:
            return self._created - len(self._idle)

    def acquire(self, timeout: float | None = None) -> SqliteStore:
        """Borrow a connection (create one lazily under the bound).

        Blocks up to ``timeout`` (default: the pool's
        ``acquire_timeout_s``) when all ``size`` connections are out,
        then raises :class:`~repro.errors.PoolExhaustedError`.
        """
        if timeout is None:
            timeout = self.acquire_timeout_s
        deadline = time.monotonic() + timeout
        with metrics.time("storage.pool.wait"):
            with self._available:
                while True:
                    if self._closed:
                        raise StorageError(
                            f"connection pool over {self.path!r} is closed"
                        )
                    if self._idle:
                        store = self._idle.pop()
                        break
                    if self._created < self.size:
                        # Count the slot before connecting so a slow
                        # connect cannot over-allocate past the bound.
                        self._created += 1
                        store = None
                        break
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._available.wait(remaining):
                        raise PoolExhaustedError(
                            f"all {self.size} pooled connections over "
                            f"{self.path!r} stayed busy for {timeout:.1f}s"
                        )
                metrics.incr("storage.pool.acquires")
                metrics.observe(
                    "storage.pool.in_use", self._created - len(self._idle)
                )
        if store is None:
            try:
                store = SqliteStore(
                    self.path, wal=self._wal,
                    busy_timeout_ms=self._busy_timeout_ms,
                )
            except BaseException:
                with self._available:
                    self._created -= 1
                    self._available.notify()
                raise
        return store

    def release(self, store: SqliteStore) -> None:
        """Return a borrowed connection to the idle set."""
        with self._available:
            if self._closed:
                self._created -= 1
                store.close()
            else:
                self._idle.append(store)
            self._available.notify()

    @contextmanager
    def connection(self, timeout: float | None = None):
        """``with pool.connection() as store:`` — borrow for the block."""
        store = self.acquire(timeout)
        try:
            yield store
        finally:
            self.release(store)

    def close(self) -> None:
        """Close every idle connection and refuse further acquires.
        Connections currently on loan close when released."""
        self.snapshots.clear()
        with self._available:
            self._closed = True
            while self._idle:
                self._created -= 1
                self._idle.pop().close()
            self._available.notify_all()

    def __enter__(self) -> "SqliteConnectionPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class StreamIngestSession:
    """A chunked streaming write of one document and its index.

    Created by :meth:`SqliteStore.begin_stream_ingest`.  Element rows,
    text and per-chunk index counts flushed in the middle of a stream
    each commit in their own bounded transaction against the staging
    document row, so peak memory is the caller's chunk size, not the
    document.  Counts add onto the staging document's
    ``collection_summary`` rows, so they may arrive in any order and any
    split.  ``finalize`` renumbers the element rows, writes the last
    element rows, text and counts, the hierarchies, the attribute
    counts and ``index_meta``, and renames the staging row to the real
    name, in one transaction; ``abort`` deletes the staging rows.
    """

    def __init__(self, store: SqliteStore, doc_id: int, staging: str,
                 name: str, overwrite: bool) -> None:
        self._store = store
        self._doc_id = doc_id
        self._staging = staging
        self.name = name
        self._overwrite = overwrite
        self._done = False

    # -- chunk appends (one bounded transaction each) ----------------------------

    def add_elements(self, rows) -> None:
        """Insert element rows ``(elem_id, hierarchy, tag, start, end,
        parent_id, attributes_json)`` — any order."""
        self._store._write_retry(partial(self._insert_elements, rows),
                                 "stream elements")
        metrics.incr("storage.stream_chunks")

    def _insert_elements(self, rows) -> None:
        doc_id = self._doc_id
        self._store._conn.executemany(
            _INSERT_ELEMENT, [(doc_id, *row) for row in rows]
        )

    def append_text(self, chunk: str) -> None:
        """Append a confirmed text chunk to the document row."""
        if chunk:
            self._store._write_retry(partial(self._append_text, chunk),
                                     "stream text")

    def _append_text(self, chunk: str) -> None:
        self._store._conn.execute(
            "UPDATE documents SET text = text || ? WHERE doc_id = ?",
            (chunk, self._doc_id),
        )

    def append_paths(self, rows) -> None:
        """Add label-path counts: rows of ``(encoded_path, tag, n)``,
        each adding ``n`` to the path's and the tag's summary counts."""
        self._store._write_retry(
            partial(self._add_counts, _path_counts(rows)), "stream paths")

    def append_terms(self, rows) -> None:
        """Add term counts: rows of ``(term, n)``."""
        self._store._write_retry(
            partial(self._add_counts, _term_counts(rows)), "stream terms")

    def _add_counts(self, counts) -> None:
        doc_id = self._doc_id
        self._store._conn.executemany(
            "INSERT INTO collection_summary VALUES (?, ?, ?, ?)"
            " ON CONFLICT(kind, key, doc_id)"
            " DO UPDATE SET n = n + excluded.n",
            [(doc_id, kind, key, n) for kind, key, n in counts],
        )

    # -- closing -----------------------------------------------------------------

    def finalize(self, *, hierarchy_rows, doc_length: int, attr_rows,
                 path_rows, term_rows, text: str, stamp: str, root_tag: str,
                 root_attributes: str, shifts, element_rows) -> str:
        """Publish the document: the element renumbering and last
        element rows, text and path and term counts, the hierarchy
        rows, the attribute counts, the ``index_meta`` visibility gate
        and the staging→real rename with the root element — one
        transaction.

        ``path_rows``, ``term_rows`` and ``text`` are the stream's last
        flushes, as :meth:`append_paths`, :meth:`append_terms` and
        :meth:`append_text` take them.  ``attr_rows`` are
        ``(name, value, n)``: ``n`` elements carry attribute ``name`` =
        ``value``.  ``root_attributes`` is the
        schema layer's encoding (``schema.encode_attributes``).
        ``shifts`` are ``(hierarchy, shift)``: the
        element rows of ``hierarchy`` move ``elem_id`` and a non-root
        ``parent_id`` down by ``shift`` (a parent is always of its
        child's hierarchy); the shifted ids must not meet any other
        row's, before or after its move.  ``element_rows`` are a last
        chunk as :meth:`add_elements` takes it, inserted after the
        shifts, so with final ids.
        """
        conn = self._store._conn
        doc_id = self._doc_id

        def transaction() -> str:
            conn.executemany(
                "UPDATE elements SET elem_id = elem_id - ?1,"
                f" parent_id = CASE parent_id WHEN {ROOT_ID} THEN {ROOT_ID}"
                " ELSE parent_id - ?1 END"
                " WHERE doc_id = ?2 AND hierarchy = ?3",
                [(shift, doc_id, hierarchy) for hierarchy, shift in shifts],
            )
            if element_rows:
                self._insert_elements(element_rows)
            if text:
                self._append_text(text)
            conn.executemany(
                "INSERT INTO hierarchies VALUES (?, ?, ?, ?)",
                [(doc_id, rank, hname, dtd)
                 for rank, hname, dtd in hierarchy_rows],
            )
            conn.execute(
                "INSERT INTO index_meta VALUES (?, ?, ?, ?)",
                (doc_id, PAYLOAD_FORMAT, doc_length, stamp),
            )
            self._add_counts(
                _path_counts(path_rows) + _term_counts(term_rows)
                + [(KIND_ATTR, encode_path((aname, avalue)), n)
                   for aname, avalue, n in attr_rows]
            )
            existing = conn.execute(
                "SELECT doc_id FROM documents WHERE name = ?",
                (self.name,),
            ).fetchone()
            if existing is not None:
                if not self._overwrite:
                    raise StorageError(
                        f"document {self.name!r} already stored"
                    )
                conn.execute(
                    "DELETE FROM documents WHERE doc_id = ?",
                    (existing[0],),
                )
            conn.execute(
                "UPDATE documents SET name = ?, root_tag = ?,"
                " root_attributes = ? WHERE doc_id = ?",
                (self.name, root_tag, root_attributes, doc_id),
            )
            return stamp

        result = self._store._write_retry(
            transaction, f"stream finalize {self.name!r}"
        )
        if element_rows:
            metrics.incr("storage.stream_chunks")
        self._done = True
        return result

    def abort(self) -> None:
        """Best-effort removal of the staging rows after a failure."""
        if self._done:
            return
        self._done = True
        try:
            self._store.delete(self._staging)
        except StorageError:  # already gone (e.g. reclaimed)
            pass


def _path_counts(rows) -> list[tuple[int, str, int]]:
    """Summary ``(kind, key, n)`` rows of label-path count rows
    ``(encoded_path, tag, n)``: each adds to its path and its tag."""
    return ([(KIND_PATH, path, n) for path, _tag, n in rows]
            + [(KIND_TAG, tag, n) for _path, tag, n in rows])


def _term_counts(rows) -> list[tuple[int, str, int]]:
    """Summary ``(kind, key, n)`` rows of term count rows ``(term, n)``."""
    return [(KIND_TERM, term, n) for term, n in rows]


def _stored(row) -> StoredElement:
    elem_id, hierarchy, tag, start, end, attributes = row
    return StoredElement(elem_id, hierarchy, tag, start, end,
                         decode_attributes(attributes, elem_id))


def _tag_filter(tag: str, hierarchy: str | None, attr: str | None,
                value: str | None) -> tuple[str, tuple]:
    """The ``WHERE`` conjuncts (after ``doc_id``) and parameters that
    select rows with ``tag``, optionally of ``hierarchy`` and
    prefiltered for ``[@attr='value']`` by :func:`_json_token_prefix`
    needles (which never false-negative, but may false-positive)."""
    where, params = "tag = ?", [tag]
    if hierarchy is not None:
        # Unary + keeps sqlite on the (doc_id, tag) index rather than
        # the less selective (doc_id, hierarchy) one.
        where += " AND +hierarchy = ?"
        params.append(hierarchy)
    if attr is not None and value is not None:
        where += " AND instr(attributes, ?) > 0 AND instr(attributes, ?) > 0"
        params.extend((_json_token_prefix(attr), _json_token_prefix(value)))
    return where, tuple(params)


def _json_token_prefix(value: str) -> str:
    """An ``instr`` needle matching ``value``'s JSON string token under
    either ``ensure_ascii`` choice.

    ASCII characters encode identically whichever way the writer was
    configured (quotes and backslashes always escape, control characters
    always take their short/``\\uXXXX`` forms), but a non-ASCII character
    is either a raw codepoint or a ``\\uXXXX`` escape depending on the
    writer — so the encoded token is truncated right before the first
    one, keeping the opening quote and dropping the closing quote.  The
    resulting needle is a prefix of every standard JSON encoding of the
    token, so an ``instr`` prefilter built from it can never
    false-negative a row that really holds ``value``.
    """
    token = json.dumps(value, ensure_ascii=False)
    for i, ch in enumerate(token):
        if ord(ch) >= 128:
            return token[:i]
    return token
