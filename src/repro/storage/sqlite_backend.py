"""SQLite-backed persistent store for GODDAG documents.

:class:`SqliteStore` — public name ``GoddagStore`` — is what
applications use: save/load by name, list, and storage-level queries
answered in SQL without reconstructing the document.  It stores the
relational encoding of :mod:`repro.storage.schema` with the indexes
cross-hierarchy queries need, which is what makes selective queries on
large stored editions cheap (experiment E7).

Stored documents can carry *persisted indexes*
(:meth:`SqliteStore.build_index`) kept in dedicated tables.
Index-aware queries — :meth:`SqliteStore.query_spans`,
:meth:`SqliteStore.term_occurrences`, :meth:`SqliteStore.count_tag`,
:meth:`SqliteStore.count_attribute` — probe once for the index and
answer from the index rows when one exists, from the element rows when
it does not, returning the same answers either way.  A plain
:meth:`SqliteStore.save` over (or delete of) a document drops its
index; editing sessions use :meth:`SqliteStore.save_indexed` instead,
which re-saves the document *and* propagates the index manager's
applied deltas as row-level upserts under a stable ``doc_id``, so the
stored index never invalidates wholesale.

Every write that replaces a whole document is one transaction, so a
failure leaves the old generation or the new one, never neither.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from uuid import uuid4

from .._util import pack_u32, unpack_u32
from ..core.goddag import GoddagDocument
from ..errors import PoolExhaustedError, StorageError, StoreBusyError, \
    WriteConflictError
from ..index.manager import PAYLOAD_FORMAT as STREAM_PAYLOAD_FORMAT
from ..index.manager import IndexManager
from ..index.structural import encode_path
from ..index.term import TermIndex, find_all, occurrences_from_terms
from ..obs import fallback as _obs_fallback
from ..obs.metrics import metrics
from ..obs.stats import stats_dict
from ..obs.trace import current_tracer
from .schema import (
    DocumentRow,
    ElementRow,
    HierarchyRow,
    decode_attributes,
    decode_document,
    encode_document,
    element_row,
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
CREATE TABLE IF NOT EXISTS index_paths (
    doc_id INTEGER NOT NULL REFERENCES documents(doc_id) ON DELETE CASCADE,
    hierarchy TEXT NOT NULL,
    path TEXT NOT NULL,
    tag TEXT NOT NULL,
    n INTEGER NOT NULL,
    spans BLOB NOT NULL,
    PRIMARY KEY (doc_id, hierarchy, path)
);
CREATE TABLE IF NOT EXISTS index_terms (
    doc_id INTEGER NOT NULL REFERENCES documents(doc_id) ON DELETE CASCADE,
    term TEXT NOT NULL,
    starts BLOB NOT NULL,
    PRIMARY KEY (doc_id, term)
);
CREATE TABLE IF NOT EXISTS index_attrs (
    doc_id INTEGER NOT NULL REFERENCES documents(doc_id) ON DELETE CASCADE,
    name TEXT NOT NULL,
    value TEXT NOT NULL,
    n INTEGER NOT NULL,
    spans BLOB NOT NULL,
    PRIMARY KEY (doc_id, name, value)
);
CREATE TABLE IF NOT EXISTS index_overlap (
    doc_id INTEGER NOT NULL REFERENCES documents(doc_id) ON DELETE CASCADE,
    hierarchy TEXT NOT NULL,
    tag TEXT NOT NULL,
    start INTEGER NOT NULL,
    end INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_index_overlap_span
    ON index_overlap(doc_id, start, end);
CREATE INDEX IF NOT EXISTS idx_index_paths_tag
    ON index_paths(doc_id, tag);
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
#: the ``collection_summary`` routing table; opening an older store
#: backfills it from the per-document index tables (see :meth:`_migrate`).
SCHEMA_VERSION = 1

#: ``collection_summary.kind`` values — the four feature families the
#: collection router consults (see :mod:`repro.collection.router`).
KIND_TAG = 0      # key = tag; n = elements with that tag
KIND_TERM = 1     # key = term-index token; n = occurrences
KIND_ATTR = 2     # key = encode_path((name, value)); n = posting length
KIND_PATH = 3     # key = encoded label path (hierarchy-agnostic); n = members

#: Reserved name prefix for in-flight streaming ingests.  A
#: :class:`StreamIngestSession` accumulates rows under a staging name
#: with this prefix; ``names()`` hides such rows and the next streaming
#: ingest reclaims any left behind by a crash, so a partially-written
#: document is never observable under its real name.
STAGING_PREFIX = "__repro_ingest__"


def collection_summary_rows(payload: dict) -> list[tuple[int, str, int]]:
    """The ``(kind, key, n)`` collection-summary rows of one document,
    derived from its ``IndexManager.payload()``.

    The same aggregation the row-level delta path recomputes in SQL
    (:meth:`SqliteStore._patch_collection_rows`): tag populations are
    label-path counts summed per tag, path populations are summed
    across hierarchies (routing has no hierarchy context), term rows
    carry posting lengths, and attribute rows the ``(name, value)``
    posting length under the injective :func:`~repro.index.structural.encode_path`
    key.  Keeping both producers aggregation-identical is what makes a
    delta-patched store byte-identical to a rebuilt one.
    """
    tags: dict[str, int] = {}
    paths: dict[str, int] = {}
    for _hierarchy, encoded, tag, count, _spans in payload.get("paths", []):
        tags[tag] = tags.get(tag, 0) + count
        paths[encoded] = paths.get(encoded, 0) + count
    rows = [(KIND_TAG, tag, n) for tag, n in tags.items()]
    rows.extend((KIND_PATH, encoded, n) for encoded, n in paths.items())
    rows.extend(
        (KIND_TERM, term, len(starts))
        for term, starts in payload.get("terms", {}).items()
    )
    rows.extend(
        (KIND_ATTR, encode_path((name, value)), count)
        for name, value, count, _spans in payload.get("attrs", [])
    )
    return rows


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
            # corrupt the database.
            (self.journal_mode,) = self._conn.execute(
                "PRAGMA journal_mode = WAL"
            ).fetchone()
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
        attempt = 1
        while True:
            try:
                with self._conn:
                    if not self._conn.in_transaction:
                        self._conn.execute("BEGIN IMMEDIATE")
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
        tables).  Additive only: older columns are never dropped."""
        columns = [
            row[1]
            for row in self._conn.execute("PRAGMA table_info(index_meta)")
        ]
        if "stamp" not in columns:
            with self._conn:
                self._conn.execute(
                    "ALTER TABLE index_meta"
                    " ADD COLUMN stamp TEXT NOT NULL DEFAULT ''"
                )
        (version,) = self._conn.execute("PRAGMA user_version").fetchone()
        if version < SCHEMA_VERSION:
            self._backfill_collection_summary()

    def _backfill_collection_summary(self) -> None:
        """Populate ``collection_summary`` for a store written before
        schema version 1, from the per-document index tables already on
        disk — same aggregation as :func:`collection_summary_rows`, so a
        migrated store routes identically to a freshly built one.
        Without this, routing would treat every pre-collection indexed
        document as matching nothing and silently prune it."""
        def transaction() -> None:
            self._conn.execute("DELETE FROM collection_summary")
            self._conn.execute(
                "INSERT INTO collection_summary"
                " SELECT doc_id, ?, tag, SUM(n) FROM index_paths"
                " GROUP BY doc_id, tag", (KIND_TAG,),
            )
            self._conn.execute(
                "INSERT INTO collection_summary"
                " SELECT doc_id, ?, path, SUM(n) FROM index_paths"
                " GROUP BY doc_id, path", (KIND_PATH,),
            )
            self._conn.execute(
                "INSERT INTO collection_summary"
                " SELECT doc_id, ?, term, length(starts) / 4"
                " FROM index_terms", (KIND_TERM,),
            )
            # Attribute keys need the injective python-side
            # encoding, so these rows go through a fetch loop.
            attr_rows = self._conn.execute(
                "SELECT doc_id, name, value, n FROM index_attrs"
            ).fetchall()
            self._conn.executemany(
                "INSERT INTO collection_summary VALUES (?, ?, ?, ?)",
                [(doc_id, KIND_ATTR, encode_path((name, value)), n)
                 for doc_id, name, value, n in attr_rows],
            )
            self._conn.execute(
                f"PRAGMA user_version = {int(SCHEMA_VERSION)}"
            )

        self._write_retry(transaction, "collection-summary backfill")

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
             overwrite: bool = False) -> int:
        """Persist ``document`` under ``name``; returns its doc_id.

        One transaction checks for a document already stored under
        ``name`` (a :class:`~repro.errors.StorageError` unless
        ``overwrite``), deletes it — its index rows die with the old
        doc_id (ON DELETE CASCADE) — and inserts the new rows, so a
        failure anywhere leaves the old document in place.
        """
        rows = encode_document(document, name)

        def transaction() -> int:
            found = self._find(name)
            if found is not None:
                if not overwrite:
                    raise StorageError(f"document {name!r} already stored")
                self._conn.execute(
                    "DELETE FROM documents WHERE doc_id = ?", (found[0],)
                )
            return self._insert_document(*rows)

        return self._write_retry(transaction, f"save {name!r}")

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
            "INSERT INTO elements VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            [(doc_id, row.elem_id, row.hierarchy, row.tag, row.start,
              row.end, row.parent_id, row.child_rank, row.attributes)
             for row in element_rows],
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
            "SELECT elem_id, hierarchy, tag, start, end, parent_id,"
            " child_rank, attributes FROM elements"
            " WHERE doc_id = ? ORDER BY elem_id", (doc_id,),
        )))
        return decode_document(doc_row, hierarchy_rows, element_rows)

    def load_snapshot(self, name: str) -> tuple[GoddagDocument, str | None]:
        """``(document, index stamp)`` of ``name``, read in one sqlite
        read transaction, so the stamp names exactly the generation the
        rows belong to.

        A writer that commits between the stamp read and the row reads
        is invisible to both (WAL gives the transaction one consistent
        view; in rollback-journal mode the transaction's shared lock
        holds the writer off until it ends), so no retry is needed.
        """
        self._conn.execute("BEGIN")
        try:
            stamp = self.index_stamp(name)
            document = self.load(name)
        finally:
            self._conn.execute("COMMIT")
        return document, stamp

    def delete(self, name: str) -> None:
        doc_id, _ = self._document_row(name)

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
        doc_id, _ = self._document_row(name)
        if tag is None:
            query = "SELECT COUNT(*) FROM elements WHERE doc_id = ?"
            (count,) = self._conn.execute(query, (doc_id,)).fetchone()
        else:
            query = "SELECT COUNT(*) FROM elements WHERE doc_id = ? AND tag = ?"
            (count,) = self._conn.execute(query, (doc_id, tag)).fetchone()
        return count

    def elements_by_tag(self, name: str, tag: str) -> list[StoredElement]:
        doc_id, _ = self._document_row(name)
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
        without reconstruction.  Zero-width elements share no character
        with any window and are never returned."""
        doc_id, _ = self._doc_index_row(name)
        return self._solid_spans("elements", doc_id, start, end)

    def query_spans(
        self, name: str, start: int, end: int
    ) -> list[tuple[str, str, int, int]]:
        """Index-aware span query: what :meth:`elements_intersecting`
        returns, in the same order.

        With a persisted index the answer comes from an SQL range probe
        of the overlap index (which holds one row per solid element);
        without one, from the element rows.
        """
        doc_id, indexed = self._doc_index_row(name)
        return self._solid_spans(
            "index_overlap" if indexed else "elements", doc_id, start, end
        )

    def _solid_spans(self, table: str, doc_id: int, start: int,
                     end: int) -> list[tuple[str, str, int, int]]:
        return self._conn.execute(
            f"SELECT hierarchy, tag, start, end FROM {table}"
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
        doc_id, _ = self._document_row(name)
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
        doc_id, _ = self._document_row(name)
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
        """Number of elements with ``tag``: the structural summary's
        path counts when indexed (a metadata read), a count of the
        element rows otherwise."""
        doc_id, indexed = self._doc_index_row(name)
        query = (
            "SELECT COALESCE(SUM(n), 0) FROM index_paths" if indexed
            else "SELECT COUNT(*) FROM elements"
        )
        (count,) = self._conn.execute(
            query + " WHERE doc_id = ? AND tag = ?", (doc_id, tag)
        ).fetchone()
        return count

    def count_attribute(self, name: str, attr: str, value: str) -> int:
        """Number of elements with attribute ``attr`` = ``value``.

        With a persisted format-2 index the answer comes from the
        attribute posting rows — a metadata read, no document
        materialization.  Older or missing indexes fall back to a scan
        of the element rows' attribute JSON.  The shared root's
        attributes are not counted — attribute postings index elements,
        matching the in-memory :class:`~repro.index.term.AttributeIndex`.

        The scan streams a dedicated cursor instead of materializing the
        document's attribute blobs, and pushes a cheap prefilter into
        SQL: only rows whose raw JSON contains both the encoded key
        token and the encoded value token are decoded at all.  The
        tokens are matched separately — never joined with a ``": "``
        separator, which is writer-dependent (``separators=(",", ":")``
        emits no space) — and each is truncated at the first non-ASCII
        character, whose escape depends on the writer's ``ensure_ascii``
        choice.  That keeps the prefilter complete for any JSON the
        standard encoder can have produced; it is not exact (a longer
        key shares the same token bytes), so each candidate is confirmed
        by decoding its attributes; a candidate whose attributes are not
        a JSON object raises :class:`~repro.errors.StorageError` naming it.
        """
        doc_id, indexed = self._doc_index_row(name)
        if indexed:
            (fmt,) = self._conn.execute(
                "SELECT format FROM index_meta WHERE doc_id = ?", (doc_id,)
            ).fetchone()
            if fmt >= 2:
                (count,) = self._conn.execute(
                    "SELECT COALESCE(SUM(n), 0) FROM index_attrs"
                    " WHERE doc_id = ? AND name = ? AND value = ?",
                    (doc_id, attr, value),
                ).fetchone()
                return count
        cursor = self._conn.cursor()
        try:
            cursor.execute(
                "SELECT elem_id, attributes FROM elements"
                " WHERE doc_id = ? AND attributes != '{}'"
                " AND instr(attributes, ?) > 0"
                " AND instr(attributes, ?) > 0",
                (doc_id, _json_token_prefix(attr),
                 _json_token_prefix(value)),
            )
            return sum(
                1 for elem_id, encoded in cursor
                if decode_attributes(encoded, elem_id).get(attr) == value
            )
        finally:
            cursor.close()

    def term_occurrences(self, name: str, needle: str) -> list[int]:
        """Start offsets of ``needle`` in the stored text (sorted).

        Alphanumeric needles are answered from the persisted term index
        when one exists; other needles (or unindexed documents) scan the
        stored text — read on its own, never through a document
        reconstruction.
        """
        doc_id, indexed = self._doc_index_row(name)
        if indexed and TermIndex.is_indexable(needle):
            rows = (
                (term, unpack_u32(starts))
                for term, starts in self._conn.execute(
                    "SELECT term, starts FROM index_terms"
                    " WHERE doc_id = ? AND instr(term, ?) > 0",
                    (doc_id, needle),
                )
            )
            try:
                return occurrences_from_terms(rows, needle)
            except ValueError as exc:
                raise self._corrupt(name, exc) from exc
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
        """A text window, served straight from the database."""
        doc_id, _ = self._document_row(name)
        (fragment,) = self._conn.execute(
            "SELECT substr(text, ?, ?) FROM documents WHERE doc_id = ?",
            (start + 1, end - start, doc_id),
        ).fetchone()
        return fragment

    # -- persisted indexes (see repro.index) ---------------------------------------------
    #
    # The index tables mirror the IndexManager payload: label-path
    # partition rows with packed spans, term posting rows, and one
    # overlap row per solid element.  Queries below answer from these
    # tables alone — no document reconstruction.

    def save_index(self, name: str, payload: dict, stamp: str = "") -> None:
        """Persist an ``IndexManager.payload()`` for a stored document."""
        doc_id, _ = self._document_row(name)
        self._write_retry(
            lambda: self._write_index_rows(doc_id, payload, stamp),
            f"save_index {name!r}",
        )

    def build_index(self, name: str) -> dict:
        """Build and persist the index for a stored document.

        Loads the document once, builds the four indexes (structural
        summary, term index, attribute postings, overlap index),
        persists them to the index tables, and returns the size census.
        Subsequent index-aware queries answer without loading the
        document again.
        """
        manager = IndexManager(self.load(name))
        self.save_index(name, manager.payload(name))
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
                      strict_stamp: bool) -> None:
        exists = self.has(name)
        generation = self.index_stamp(name) if exists else None
        token = self.artifact_token(name, generation)
        deltas = manager.pending_persist(token)  # refreshes the manager
        if exists and not overwrite and not manager.persisted_to(token):
            if strict_stamp:
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
        self.resave_with_index(
            document, name, deltas,
            lambda hierarchy, path: [
                (e.start, e.end)
                for e in manager.structural.partition(hierarchy, path)
            ],
            lambda: manager.payload(name),
            stamp=stamp,
            # None tells the transaction that nothing was stored.
            expected_stamp=(generation or "") if exists else None,
            attr_spans=manager.attrs.spans,
            strict_stamp=strict_stamp,
        )
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
            self, sources, name, overwrite=overwrite,
            chunk_elements=chunk_elements, chunk_chars=chunk_chars,
        )

    def lazy(self, name: str):
        """An on-demand :class:`~repro.streaming.lazy.LazyDocument` view
        over a stored document — rows hydrate as queries touch them,
        nothing is materialized up front."""
        from ..streaming.lazy import LazyDocument

        return LazyDocument(self, name)

    def begin_stream_ingest(self, name: str, root_tag: str,
                            root_attributes: str, *,
                            overwrite: bool = False) -> "StreamIngestSession":
        """Open a chunked streaming write of one document + its index.

        Reclaims any staging rows a crashed ingest left behind, then
        inserts a placeholder document row under a reserved staging
        name (see :data:`STAGING_PREFIX`).  The returned session
        accepts element rows, text chunks and index postings in chunks;
        nothing is visible under ``name`` until its ``finalize``
        renames the staging row in the same transaction that writes
        ``index_meta``.  ``root_attributes`` is the JSON encoding the
        schema layer uses (``json.dumps(attrs, sort_keys=True)``).
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
                " VALUES (?, ?, '', ?)",
                (staging, root_tag, root_attributes),
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
                         " parent_id, child_rank, attributes")

    def element_row_full(self, name: str, elem_id: int) -> ElementRow | None:
        """The full schema row for one element — one keyed probe of the
        ``(doc_id, elem_id)`` primary key — or ``None``."""
        doc_id, _ = self._document_row(name)
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
        doc_id, _ = self._document_row(name)
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
        doc_id, _ = self._document_row(name)
        query = (f"SELECT {self._ELEMENT_ROW_COLS} FROM elements"
                 " WHERE doc_id = ? AND tag = ?")
        params: list = [doc_id, tag]
        if hierarchy is not None:
            query += " AND hierarchy = ?"
            params.append(hierarchy)
        if attr is not None and value is not None:
            query += " AND instr(attributes, ?) > 0 AND instr(attributes, ?) > 0"
            params.extend((_json_token_prefix(attr),
                           _json_token_prefix(value)))
        query += " ORDER BY elem_id"
        return list(map(ElementRow._make,
                        self._conn.execute(query, tuple(params))))

    def _write_index_rows(self, doc_id: int, payload: dict,
                          stamp: str) -> None:
        """Replace the index rows of ``doc_id`` with the full payload —
        the index half of every full write (statements only — the
        caller owns the transaction).  ``stamp`` is the session
        generation mark an editing-session writer leaves so it can
        later recognize its own artifact."""
        self._delete_index_rows(doc_id)
        self._conn.execute(
            "INSERT INTO index_meta VALUES (?, ?, ?, ?)",
            (doc_id, payload.get("format", 1),
             payload.get("doc_length", 0), stamp),
        )
        self._conn.executemany(
            "INSERT INTO index_paths VALUES (?, ?, ?, ?, ?, ?)",
            [
                (doc_id, hierarchy, path, tag, count,
                 pack_u32([v for span in spans for v in span]))
                for hierarchy, path, tag, count, spans
                in payload.get("paths", [])
            ],
        )
        self._conn.executemany(
            "INSERT INTO index_terms VALUES (?, ?, ?)",
            [
                (doc_id, term, pack_u32(starts))
                for term, starts in payload.get("terms", {}).items()
            ],
        )
        self._conn.executemany(
            "INSERT INTO index_attrs VALUES (?, ?, ?, ?, ?)",
            [
                (doc_id, name, value, count,
                 pack_u32([v for span in spans for v in span]))
                for name, value, count, spans in payload.get("attrs", [])
            ],
        )
        self._conn.executemany(
            "INSERT INTO index_overlap VALUES (?, ?, ?, ?, ?)",
            [
                (doc_id, hierarchy, tag, start, end)
                for hierarchy, entry in payload.get("overlap", {}).items()
                for start, end, tag in zip(
                    entry["starts"], entry["ends"], entry["tags"]
                )
            ],
        )
        self._conn.executemany(
            "INSERT INTO collection_summary VALUES (?, ?, ?, ?)",
            [(doc_id, kind, key, n)
             for kind, key, n in collection_summary_rows(payload)],
        )

    def _patch_collection_rows(self, doc_id: int, kind: int, key: str,
                               count_sql: str, params: tuple) -> None:
        """Bring one ``collection_summary`` row in step with the index
        tables just patched (statements only — the caller owns the
        transaction).  ``count_sql`` recomputes the population from the
        per-document index rows; zero deletes the summary row, so the
        routing table never holds a key the document can no longer
        match."""
        (n,) = self._conn.execute(count_sql, params).fetchone()
        if n:
            self._conn.execute(
                "INSERT OR REPLACE INTO collection_summary"
                " VALUES (?, ?, ?, ?)",
                (doc_id, kind, key, n),
            )
        else:
            self._conn.execute(
                "DELETE FROM collection_summary"
                " WHERE doc_id = ? AND kind = ? AND key = ?",
                (doc_id, kind, key),
            )

    def _apply_index_delta_rows(self, doc_id: int, deltas,
                                partition_spans, attr_spans) -> None:
        """Row-level index maintenance from a
        :class:`~repro.index.manager.PersistDeltas` (statements only —
        :meth:`resave_with_index` owns the transaction).

        Inserts/deletes the individual ``index_overlap`` rows the edits
        touched, upserts exactly the dirty ``index_paths`` partition
        rows (``partition_spans(hierarchy, path)`` supplies the current
        ``(start, end)`` members; an empty answer deletes the row), and
        likewise upserts the dirty ``index_attrs`` posting rows from
        ``attr_spans(name, value)``.  Term rows never change — the text
        is immutable.
        """
        if deltas.overlap_add:
            self._conn.executemany(
                "INSERT INTO index_overlap VALUES (?, ?, ?, ?, ?)",
                [(doc_id, hierarchy, tag, start, end)
                 for hierarchy, tag, start, end in deltas.overlap_add],
            )
        for hierarchy, tag, start, end in deltas.overlap_remove:
            self._conn.execute(
                "DELETE FROM index_overlap WHERE rowid IN ("
                " SELECT rowid FROM index_overlap"
                " WHERE doc_id = ? AND hierarchy = ? AND tag = ?"
                " AND start = ? AND end = ? LIMIT 1)",
                (doc_id, hierarchy, tag, start, end),
            )
        for hierarchy, path in deltas.paths:
            spans = partition_spans(hierarchy, path)
            encoded = encode_path(path)
            if spans:
                self._conn.execute(
                    "INSERT OR REPLACE INTO index_paths"
                    " VALUES (?, ?, ?, ?, ?, ?)",
                    (doc_id, hierarchy, encoded, path[-1], len(spans),
                     pack_u32([v for span in spans for v in span])),
                )
            else:
                self._conn.execute(
                    "DELETE FROM index_paths WHERE doc_id = ?"
                    " AND hierarchy = ? AND path = ?",
                    (doc_id, hierarchy, encoded),
                )
        for attr_name, value in deltas.attrs:
            spans = attr_spans(attr_name, value)
            if spans:
                self._conn.execute(
                    "INSERT OR REPLACE INTO index_attrs"
                    " VALUES (?, ?, ?, ?, ?)",
                    (doc_id, attr_name, value, len(spans),
                     pack_u32([v for span in spans for v in span])),
                )
            else:
                self._conn.execute(
                    "DELETE FROM index_attrs WHERE doc_id = ?"
                    " AND name = ? AND value = ?",
                    (doc_id, attr_name, value),
                )
        # Collection-summary maintenance: recompute exactly the touched
        # routing keys from the index rows patched above (same
        # transaction, so the SELECTs see the new state).  Aggregating
        # in SQL keeps the result byte-identical to the full-payload
        # derivation of :func:`collection_summary_rows`.  Term rows
        # never change — the text is immutable within a session.
        for tag in {path[-1] for _hierarchy, path in deltas.paths}:
            self._patch_collection_rows(
                doc_id, KIND_TAG, tag,
                "SELECT COALESCE(SUM(n), 0) FROM index_paths"
                " WHERE doc_id = ? AND tag = ?",
                (doc_id, tag),
            )
        for encoded in {encode_path(path)
                        for _hierarchy, path in deltas.paths}:
            self._patch_collection_rows(
                doc_id, KIND_PATH, encoded,
                "SELECT COALESCE(SUM(n), 0) FROM index_paths"
                " WHERE doc_id = ? AND path = ?",
                (doc_id, encoded),
            )
        for attr_name, value in deltas.attrs:
            self._patch_collection_rows(
                doc_id, KIND_ATTR, encode_path((attr_name, value)),
                "SELECT COALESCE(SUM(n), 0) FROM index_attrs"
                " WHERE doc_id = ? AND name = ? AND value = ?",
                (doc_id, attr_name, value),
            )

    def index_stamp(self, name: str) -> str | None:
        """The generation stamp of the persisted index (empty for one
        written outside an editing session), or ``None`` when no index
        is stored."""
        doc_id, _ = self._document_row(name)
        row = self._conn.execute(
            "SELECT stamp FROM index_meta WHERE doc_id = ?", (doc_id,)
        ).fetchone()
        return row[0] if row else None

    def route_documents(self, features) -> list[str]:
        """The names of every document that *can* match a query with
        the given necessary ``features``, in sorted order.

        ``features`` are the router's conservative necessary conditions
        (:func:`repro.collection.router.routing_features`): tuples of
        ``("root", tag)``, ``("tag", tag)``, ``("term", needle)``,
        ``("attr", name, value)`` or ``("path", encoded)``.  A document
        survives only if *every* feature holds — but the test errs
        strictly on the side of keeping documents: unindexed documents
        always route (they have no summary rows to consult), a tag
        feature also accepts a matching root tag (the shared GODDAG
        root is reachable by ``//x`` yet is not an element row), and an
        attribute feature falls back to an ``instr`` prefilter over the
        stored root-attribute JSON (root attributes are not in the
        posting index).  False positives cost a wasted per-document
        evaluation; a false negative would change answers — so there
        are none by construction.
        """
        where = ["m.doc_id IS NULL"]
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
            # candidate, indexed or not.
            return self.names()
        where.append("(" + " AND ".join(conj) + ")")
        return [
            name for (name,) in self._conn.execute(
                "SELECT d.name FROM documents d"
                " LEFT JOIN index_meta m USING (doc_id)"
                f" WHERE {' OR '.join(where)} ORDER BY d.name",
                params,
            )
        ]

    def corpus_counts(self) -> dict[str, int]:
        """Raw corpus-level counters for the ``repro-stats/1`` stats
        surfaces (:meth:`stats` and
        :meth:`repro.collection.Corpus.stats`)."""
        counts = {
            "documents": 0, "indexed_documents": 0, "element_rows": 0,
            "summary_rows": 0, "tag_keys": 0, "term_keys": 0,
            "attr_keys": 0, "path_keys": 0,
        }
        (counts["documents"],) = self._conn.execute(
            "SELECT COUNT(*) FROM documents").fetchone()
        (counts["indexed_documents"],) = self._conn.execute(
            "SELECT COUNT(*) FROM index_meta").fetchone()
        (counts["element_rows"],) = self._conn.execute(
            "SELECT COUNT(*) FROM elements").fetchone()
        names = {KIND_TAG: "tag_keys", KIND_TERM: "term_keys",
                 KIND_ATTR: "attr_keys", KIND_PATH: "path_keys"}
        for kind, n in self._conn.execute(
            "SELECT kind, COUNT(*) FROM collection_summary GROUP BY kind"
        ):
            counts["summary_rows"] += n
            counts[names[kind]] = n
        return counts

    def resave_with_index(self, document: GoddagDocument, name: str,
                          deltas, partition_spans, payload_factory,
                          stamp: str = "",
                          expected_stamp: str | None = None,
                          attr_spans=None,
                          strict_stamp: bool = False) -> None:
        """Atomically bring a stored document's rows *and* its index in
        step, in one transaction — a crash can never pair a newer
        document with a stale index.  ``deltas`` (when applicable and an
        index is stored) patches row-level — element rows through the
        journal's :class:`~repro.core.changes.ElementRowCoalescer`
        (``deltas.rows``), index rows through
        :meth:`_apply_index_delta_rows` — so an attribute-only edit
        persists in O(1) element-row writes instead of an
        O(document) delete-and-reinsert.  Otherwise every row is
        rewritten from ``document`` and ``payload_factory()``.  Either
        way the index generation mark becomes ``stamp``.

        The delta path re-verifies ``expected_stamp`` *inside* the
        transaction (a conditional stamp update): if another writer
        replaced the artifact after the caller's own-artifact check, the
        deltas no longer describe what is stored, and the method falls
        back to the full rewrite — never a row-patch of a stranger's
        artifact.  The same fallback covers journal overflow, untracked
        mutations, and a broken row coalescer (the caller passes
        ``deltas=None`` for the first two — mirroring
        :class:`~repro.index.manager.IndexManager`'s own rebuild rules —
        and ``deltas.rows.broken`` guards the third).  Dirty attribute
        postings likewise need the ``attr_spans(name, value)`` supplier;
        deltas that touched attributes without one take the full-write
        path rather than guessing (a wrong guess would silently delete
        posting rows).

        Every full-rewrite fallback is reason-coded into the
        ``storage.full_rewrites.*`` metrics ('stale-deltas',
        'broken-coalescer', 'missing-attr-spans', 'no-stored-index',
        'stamp-mismatch') and warns under ``REPRO_OBS_STRICT=1``.

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
                    document, name, deltas, partition_spans,
                    payload_factory, stamp, expected_stamp, attr_spans,
                    strict_stamp,
                ),
                f"resave_with_index {name!r}",
            )
            if txn_span is not None:
                txn_span.set(row_level=row_level, reason=reason)

    def _resave_transaction(self, document: GoddagDocument, name: str,
                            deltas, partition_spans, payload_factory,
                            stamp: str, expected_stamp: str | None,
                            attr_spans, strict_stamp: bool
                            ) -> tuple[bool, str | None]:
        """The statements of :meth:`resave_with_index`; returns
        ``(row_level, full-rewrite reason)``."""
        found = self._find(name)
        if found is None:
            if expected_stamp is not None:
                raise StorageError(f"no stored document {name!r}")
            doc_id = self._insert_document(*encode_document(document, name))
            self._write_index_rows(doc_id, payload_factory(), stamp)
            return False, None
        if expected_stamp is None:
            raise StorageError(f"document {name!r} already stored")
        doc_id, indexed = found
        # The document row always rewrites: root attributes may have
        # changed, and it is one row either way.  (The text and the
        # hierarchy set are immutable within a tracked session — a
        # hierarchy addition is an untracked touch, which voids the
        # deltas and lands in the full-rewrite branch below.)
        self._conn.execute(
            "UPDATE documents SET root_tag = ?, text = ?,"
            " root_attributes = ? WHERE doc_id = ?",
            (document.root.tag, document.text,
             json.dumps(document.root.attributes, sort_keys=True), doc_id),
        )
        row_level = False
        reason = None
        if deltas is None:
            reason = "stale-deltas"
        elif deltas.rows.broken:
            reason = "broken-coalescer"
        elif deltas.attrs and attr_spans is None:
            reason = "missing-attr-spans"
        elif not indexed:
            reason = "no-stored-index"
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
                    updates = deltas.rows.updates(document)
                coalesce_span.set(
                    records=deltas.rows.records_seen,
                    row_writes=len(updates),
                )
            else:
                updates = deltas.rows.updates(document)
            deleted = sum(1 for op in updates if op.is_delete)
            metrics.incr("storage.row_level_saves")
            metrics.incr("storage.rows_deleted", deleted)
            metrics.incr("storage.rows_upserted", len(updates) - deleted)
            self._apply_element_row_deltas(doc_id, updates)
            self._apply_index_delta_rows(
                doc_id, deltas, partition_spans,
                attr_spans or (lambda name, value: []),
            )
        else:
            _obs_fallback(
                "storage.full_rewrites", reason, f"document {name!r}"
            )
            self._rewrite_rows(doc_id, document, name)
            self._write_index_rows(doc_id, payload_factory(), stamp)
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
        whose row content, parent, or sibling rank changed.  Rows are
        keyed by ``(doc_id, elem_id)`` — the persistent birth ordinal —
        so the result is byte-identical to a full rewrite.
        """
        self._conn.executemany(
            "DELETE FROM elements WHERE doc_id = ? AND elem_id = ?",
            [(doc_id, op.ordinal) for op in updates if op.is_delete],
        )
        self._conn.executemany(
            "INSERT OR REPLACE INTO elements VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            [
                (doc_id, row.elem_id, row.hierarchy, row.tag, row.start,
                 row.end, row.parent_id, row.child_rank, row.attributes)
                for row in (
                    element_row(op.element, op.parent_id, op.child_rank)
                    for op in updates
                    if not op.is_delete
                )
            ],
        )

    def _delete_index_rows(self, doc_id: int) -> None:
        for table in ("index_meta", "index_paths", "index_terms",
                      "index_overlap", "index_attrs",
                      "collection_summary"):
            self._conn.execute(
                f"DELETE FROM {table} WHERE doc_id = ?", (doc_id,)
            )

    def _find(self, name: str) -> tuple[int, bool] | None:
        """``(doc_id, has_index)`` in one statement, or ``None`` when
        nothing is stored under ``name``."""
        row = self._conn.execute(
            "SELECT d.doc_id, m.doc_id IS NOT NULL"
            " FROM documents d LEFT JOIN index_meta m USING (doc_id)"
            " WHERE d.name = ?", (name,),
        ).fetchone()
        return None if row is None else (row[0], bool(row[1]))

    def _doc_index_row(self, name: str) -> tuple[int, bool]:
        """``(doc_id, has_index)`` — the gate every index-aware query
        pays exactly once."""
        found = self._find(name)
        if found is None:
            raise StorageError(f"no stored document {name!r}")
        return found

    def has_index(self, name: str) -> bool:
        """True when a persisted index exists for ``name``."""
        return self._doc_index_row(name)[1]

    def drop_index(self, name: str) -> None:
        """Remove the persisted index (the document itself is untouched)."""
        doc_id, _ = self._document_row(name)
        self._write_retry(
            lambda: self._delete_index_rows(doc_id), f"drop_index {name!r}"
        )

    def _corrupt(self, name: str, exc: Exception) -> StorageError:
        """Wrap a blob-decoding failure in the module's error contract."""
        return StorageError(
            f"corrupt persisted index for {name!r}: {exc} — "
            f"drop_index({name!r}) removes it and restores unindexed queries"
        )

    def load_index(self, name: str) -> dict | None:
        """The full persisted payload, or None when no index is stored."""
        doc_id, _ = self._document_row(name)
        meta = self._conn.execute(
            "SELECT format, doc_length FROM index_meta WHERE doc_id = ?",
            (doc_id,),
        ).fetchone()
        if meta is None:
            return None
        overlap: dict[str, dict[str, list]] = {}
        for hierarchy, tag, start, end in self._conn.execute(
            "SELECT hierarchy, tag, start, end FROM index_overlap"
            " WHERE doc_id = ? ORDER BY hierarchy, start, end DESC", (doc_id,),
        ):
            entry = overlap.setdefault(
                hierarchy, {"starts": [], "ends": [], "tags": []}
            )
            entry["starts"].append(start)
            entry["ends"].append(end)
            entry["tags"].append(tag)
        try:
            terms = {
                term: unpack_u32(starts)
                for term, starts in self._conn.execute(
                    "SELECT term, starts FROM index_terms WHERE doc_id = ?",
                    (doc_id,),
                )
            }
            paths = []
            for hierarchy, path, tag, count, spans in self._conn.execute(
                "SELECT hierarchy, path, tag, n, spans FROM index_paths"
                " WHERE doc_id = ? ORDER BY hierarchy, path", (doc_id,),
            ):
                flat = unpack_u32(spans)
                paths.append(
                    (hierarchy, path, tag, count,
                     [(flat[2 * i], flat[2 * i + 1]) for i in range(count)])
                )
            attrs = []
            for attr_name, value, count, spans in self._conn.execute(
                "SELECT name, value, n, spans FROM index_attrs"
                " WHERE doc_id = ? ORDER BY name, value", (doc_id,),
            ):
                flat = unpack_u32(spans)
                attrs.append(
                    (attr_name, value, count,
                     [(flat[2 * i], flat[2 * i + 1]) for i in range(count)])
                )
        except (ValueError, IndexError) as exc:
            raise self._corrupt(name, exc) from exc
        return {
            "format": meta[0],
            "name": name,
            "doc_length": meta[1],
            "overlap": overlap,
            "terms": terms,
            "paths": paths,
            "attrs": attrs,
        }


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
    construction.
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
    text and posting appends each commit in their own bounded
    transaction against the staging document row, so peak memory is the
    caller's chunk size, not the document.  Append order is the
    caller's proof obligation: path-partition spans and term posting
    starts are concatenated blob-wise, so they must arrive in the same
    order a materialized ``IndexManager.payload()`` would emit them
    (document order — which streaming close order provides, see
    :mod:`repro.streaming.ingest`).  ``finalize`` writes everything
    order-sensitive-at-once (hierarchies, sorted attribute and overlap
    rows, ``index_meta``, SQL-derived ``collection_summary`` rows) and
    renames the staging row to the real name in one transaction;
    ``abort`` deletes the staging rows.
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
        parent_id, child_rank, attributes_json)`` — any order."""
        conn = self._store._conn
        doc_id = self._doc_id

        def transaction() -> None:
            conn.executemany(
                "INSERT INTO elements VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                [(doc_id, *row) for row in rows],
            )

        self._store._write_retry(transaction, "stream elements")
        metrics.incr("storage.stream_chunks")

    def append_text(self, chunk: str) -> None:
        """Append a confirmed text chunk to the document row."""
        if not chunk:
            return
        conn = self._store._conn

        def transaction() -> None:
            conn.execute(
                "UPDATE documents SET text = text || ?"
                " WHERE doc_id = ?", (chunk, self._doc_id),
            )

        self._store._write_retry(transaction, "stream text")

    def append_paths(self, rows) -> None:
        """Upsert-append label-path partition postings: rows of
        ``(hierarchy, encoded_path, tag, n, spans_blob)`` whose spans
        concatenate onto any prior append for the same partition.

        The blob append happens in Python (read, concat, update) — SQL
        ``||`` converts BLOB operands to TEXT, which would corrupt the
        packed u32 spans as soon as they stop being valid UTF-8.
        """
        conn = self._store._conn
        doc_id = self._doc_id

        def transaction() -> None:
            for hierarchy, path, tag, n, spans in rows:
                prior = conn.execute(
                    "SELECT n, spans FROM index_paths WHERE doc_id = ?"
                    " AND hierarchy = ? AND path = ?",
                    (doc_id, hierarchy, path),
                ).fetchone()
                if prior is None:
                    conn.execute(
                        "INSERT INTO index_paths VALUES"
                        " (?, ?, ?, ?, ?, ?)",
                        (doc_id, hierarchy, path, tag, n, spans),
                    )
                else:
                    conn.execute(
                        "UPDATE index_paths SET n = ?, spans = ?"
                        " WHERE doc_id = ? AND hierarchy = ?"
                        " AND path = ?",
                        (prior[0] + n, prior[1] + spans,
                         doc_id, hierarchy, path),
                    )

        self._store._write_retry(transaction, "stream paths")

    def append_terms(self, rows) -> None:
        """Upsert-append term postings: rows of ``(term, starts_blob)``
        (Python-side blob concat — see :meth:`append_paths`)."""
        conn = self._store._conn
        doc_id = self._doc_id

        def transaction() -> None:
            for term, starts in rows:
                prior = conn.execute(
                    "SELECT starts FROM index_terms WHERE doc_id = ?"
                    " AND term = ?", (doc_id, term),
                ).fetchone()
                if prior is None:
                    conn.execute(
                        "INSERT INTO index_terms VALUES (?, ?, ?)",
                        (doc_id, term, starts),
                    )
                else:
                    conn.execute(
                        "UPDATE index_terms SET starts = ?"
                        " WHERE doc_id = ? AND term = ?",
                        (prior[0] + starts, doc_id, term),
                    )

        self._store._write_retry(transaction, "stream terms")

    # -- closing -----------------------------------------------------------------

    def finalize(self, *, hierarchy_rows, doc_length: int, attr_rows,
                 overlap_rows, stamp: str) -> str:
        """Publish the document: everything order-sensitive, the
        ``index_meta`` visibility gate, the SQL-derived collection
        summary, and the staging→real rename — one transaction.

        ``attr_rows`` are ``(name, value, n, spans_blob)`` sorted by
        key with members in document order; ``overlap_rows`` are
        ``(hierarchy, tag, start, end)`` in the payload's order
        (hierarchy rank, then ``(start, -end, tag, ordinal)``), which
        keeps ``load_index`` tie-breaks byte-identical to a
        materialized save.
        """
        conn = self._store._conn
        doc_id = self._doc_id

        def transaction() -> str:
            conn.executemany(
                "INSERT INTO hierarchies VALUES (?, ?, ?, ?)",
                [(doc_id, rank, hname, dtd)
                 for rank, hname, dtd in hierarchy_rows],
            )
            conn.executemany(
                "INSERT INTO index_attrs VALUES (?, ?, ?, ?, ?)",
                [(doc_id, *row) for row in attr_rows],
            )
            conn.executemany(
                "INSERT INTO index_overlap VALUES (?, ?, ?, ?, ?)",
                [(doc_id, *row) for row in overlap_rows],
            )
            conn.execute(
                "INSERT INTO index_meta VALUES (?, ?, ?, ?)",
                (doc_id, STREAM_PAYLOAD_FORMAT, doc_length, stamp),
            )
            conn.execute(
                "INSERT INTO collection_summary"
                " SELECT doc_id, ?, tag, SUM(n) FROM index_paths"
                " WHERE doc_id = ? GROUP BY tag", (KIND_TAG, doc_id),
            )
            conn.execute(
                "INSERT INTO collection_summary"
                " SELECT doc_id, ?, path, SUM(n) FROM index_paths"
                " WHERE doc_id = ? GROUP BY path", (KIND_PATH, doc_id),
            )
            conn.execute(
                "INSERT INTO collection_summary"
                " SELECT doc_id, ?, term, length(starts) / 4"
                " FROM index_terms WHERE doc_id = ?",
                (KIND_TERM, doc_id),
            )
            conn.executemany(
                "INSERT INTO collection_summary VALUES (?, ?, ?, ?)",
                [(doc_id, KIND_ATTR, encode_path((aname, avalue)), n)
                 for aname, avalue, n, _spans in attr_rows],
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
                "UPDATE documents SET name = ? WHERE doc_id = ?",
                (self.name, doc_id),
            )
            return stamp

        result = self._store._write_retry(
            transaction, f"stream finalize {self.name!r}"
        )
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


def _stored(row) -> StoredElement:
    elem_id, hierarchy, tag, start, end, attributes = row
    return StoredElement(elem_id, hierarchy, tag, start, end,
                         decode_attributes(attributes, elem_id))


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
