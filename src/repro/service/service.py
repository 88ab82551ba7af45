"""The concurrent document service: many readers, one writer per document.

:class:`DocumentService` is the session layer over a WAL-mode
:class:`~repro.storage.GoddagStore`: a process serving one shared
database file to many threads, each of which works through short-lived
*sessions* instead of sharing mutable library objects.

The concurrency contract (the full version lives in
docs/ARCHITECTURE.md, "Service layer & concurrency contract"):

* **Shared snapshots are immutable.**  The service keeps at most one
  decoded document per name, with its warm
  :class:`~repro.index.manager.IndexManager`, for the generation it was
  read at; every read session at that generation shares it, and every
  write session copies it, instead of decoding its own.  A shared
  document is frozen
  (:meth:`~repro.core.goddag.GoddagDocument.freeze`): every mutator
  raises :class:`~repro.errors.EditError`, and the lazy caches a query
  fills are either filled before the snapshot is installed or built
  whole and published with one reference store.  Per-query state lives
  in the evaluator, never in the shared document — the same rule
  lxml's XPath layer follows.  The only cross-thread structures are
  these immutable snapshots, the locked compiled-plan cache, and the
  database file itself (WAL mode: readers on other connections proceed
  while a writer commits).
* **Read sessions are snapshot-isolated.**  :meth:`read_session` opens
  the document at one *generation* (the stored index stamp) — the
  shared snapshot when the stamp matches it, otherwise a fresh load
  read in one database transaction with its stamp — and the snapshot
  never changes afterwards: a writer publishing a new version does not
  disturb open readers.  An empty or missing stamp names no generation,
  so such a document is loaded per session and never shared.
  Staleness is observable, not imposed: :meth:`ReadSession.is_current`
  / :meth:`ReadSession.require_current` surface a newer published
  generation as the typed :class:`~repro.errors.SnapshotSupersededError`;
  re-open to see it.
* **Write sessions serialize per document.**  :meth:`write_session`
  holds the document's write lock (in-process; acquisition waits are
  timed on ``service.lock_wait`` and bounded by the typed
  :class:`~repro.errors.WriteLockTimeoutError`), applies tracked edits
  through an :class:`~repro.editing.Editor`, and publishes atomically
  via the stamped :meth:`~repro.storage.GoddagStore.save_indexed` —
  row-level element and index patches under in-transaction stamp
  re-verification.  A second writer racing the publish from another
  service instance or process surfaces as the typed
  :class:`~repro.errors.WriteConflictError`; nothing is written.  A
  publish with no edit since the session's last publish writes nothing
  and keeps the generation.  A write session starts from the same
  frozen snapshot read sessions use: it edits a mutable copy of that
  document, with the snapshot's warm index carried over to the copy, so
  a shared generation is neither decoded nor re-indexed for a writer.
  Opening a write session then drops the name's shared snapshot;
  closing one that published and has not edited since hands its own
  document and manager over as the new generation's shared snapshot,
  so no reader decodes what the writer already holds.  Every eviction
  and hand-off moves the name's install epoch, and a reader installs
  the snapshot it loaded only if the epoch has not moved since its
  probe, so a slow load never replaces a newer hand-off.  A closed
  write session's document is read-only.
* **Database work is pooled and bounded.**  Sessions borrow a
  connection from a :class:`~repro.storage.SqliteConnectionPool` only
  while they touch the database (snapshot load, stamp probe, publish)
  and return it immediately, so ``pool_size`` bounds concurrent
  database work, not session count.  SQLITE_BUSY is retried with
  bounded backoff at the storage layer and surfaces as the typed
  :class:`~repro.errors.StoreBusyError` past the budget.

Observability: session opens/closes land on the
``service.read_sessions.*`` / ``service.write_sessions.*`` counters,
sessions (read or write) served from a shared snapshot on
``service.snapshots.shared`` and those that loaded on
``service.snapshots.loaded``, a write session's copy of its snapshot
on the ``service.snapshot_copy`` timer, publishes on
``service.publishes`` (those that had nothing to write on
``service.publishes.unchanged``), detected conflicts on
``service.conflicts``, superseded-snapshot checks on
``service.snapshot_checks`` / ``service.snapshots.superseded``, write
lock waits on the ``service.lock_wait`` timer, and the pool reports
``storage.pool.in_use`` / ``storage.pool.wait`` / ``storage.busy_*``
(see :mod:`repro.obs`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path
from typing import NamedTuple

from ..core.goddag import GoddagDocument
from ..core.node import Node
from ..editing import Editor
from ..errors import (
    ServiceError,
    SnapshotSupersededError,
    WriteLockTimeoutError,
)
from ..index.manager import IndexManager
from ..obs.metrics import metrics
from ..storage.sqlite_backend import SqliteConnectionPool
from ..xpath.engine import ExtendedXPath
from ..xpath.evaluator import XPathValue

#: Document names whose shared snapshot the service keeps; the least
#: recently opened beyond this are dropped.
SHARED_SNAPSHOT_LIMIT = 32


class _SharedSnapshot(NamedTuple):
    """One generation of one document, frozen, with its warm index."""

    generation: str
    document: GoddagDocument
    manager: IndexManager


class _Session:
    """State shared by read and write sessions: one snapshot document,
    its index manager, one generation mark.

    A session object is **not** thread-safe — it belongs to the thread
    that opened it (the service itself is thread-safe and cheap to open
    sessions on).  Closing is idempotent; a closed session refuses
    further queries with :class:`~repro.errors.ServiceError`.
    """

    def __init__(self, service: "DocumentService", name: str,
                 document: GoddagDocument, manager: IndexManager,
                 generation: str | None) -> None:
        self._service = service
        self.name = name
        self.document = document
        self.manager = manager
        #: The stored index stamp this session's snapshot corresponds
        #: to (``None`` when the document was stored without an index).
        self.generation = generation
        self._open = True

    def _check_open(self) -> None:
        if not self._open:
            raise ServiceError(
                f"session on {self.name!r} is closed"
            )

    def query(self, expression: str, context: Node | None = None,
              variables: dict | None = None) -> XPathValue:
        """Evaluate an Extended XPath expression against this session's
        snapshot (index-served through the session's own manager; the
        compiled plan comes from the process-wide locked plan cache)."""
        self._check_open()
        return ExtendedXPath(expression).evaluate(
            self.document, context, variables
        )

    def is_current(self) -> bool:
        """True while no writer has published a newer generation."""
        self._check_open()
        metrics.incr("service.snapshot_checks")
        return self._service._generation(self.name) == self.generation

    def require_current(self) -> None:
        """Raise :class:`~repro.errors.SnapshotSupersededError` when a
        newer generation is stored.  The snapshot itself stays fully
        queryable either way — supersession is advice to re-open, not
        an invalidation."""
        self._check_open()
        metrics.incr("service.snapshot_checks")
        current = self._service._generation(self.name)
        if current != self.generation:
            metrics.incr("service.snapshots.superseded")
            raise SnapshotSupersededError(
                f"document {self.name!r} was republished after this "
                "session opened; re-open to see the new version",
                name=self.name, snapshot=self.generation or "",
                current=current or "",
            )

    def close(self) -> None:
        self._open = False

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ReadSession(_Session):
    """A snapshot-isolated read view of one stored document.

    The snapshot is frozen and usually shared: every read session at
    the same :attr:`generation` gets the same :attr:`document` and
    :attr:`manager` objects, and each query keeps its state in its own
    evaluator.  Mutating the document raises
    :class:`~repro.errors.EditError`.  Queries keep answering at the
    session's :attr:`generation` no matter how many writers publish
    after it opened.
    """

    def close(self) -> None:
        if self._open:
            metrics.incr("service.read_sessions.closed")
        super().close()


class WriteSession(_Session):
    """The single writer of one document, edits tracked, publish stamped.

    Holds the service's per-document write lock from open to close.
    The session's private document is a mutable copy of the service's
    frozen snapshot of the stored generation, and its manager is that
    snapshot's warm manager carried over to the copy.  Edits go through
    :attr:`editor` (an :class:`~repro.editing.Editor` over the private
    document, so every mutation lands in the delta journal); a clean
    ``with`` exit publishes via :meth:`publish` — the stamped,
    row-level :meth:`~repro.storage.GoddagStore.save_indexed` — while
    an exception discards the session without writing anything.

    Closing freezes the session's document: it is read-only from then
    on, through :attr:`editor` too.  If the session published and made
    no edit since, closing hands the document and its manager to the
    service as the shared snapshot of the published generation; an
    aborted or unpublished session installs nothing.
    """

    def __init__(self, service: "DocumentService", name: str,
                 document: GoddagDocument, manager: IndexManager,
                 generation: str | None, lock: threading.Lock,
                 prevalidate: bool = True) -> None:
        super().__init__(service, name, document, manager, generation)
        self._lock = lock
        self.editor = Editor(document, prevalidate=prevalidate)
        self.published = False
        # The document version the last publish stored as
        # :attr:`generation` (None: nothing to hand off).
        self._published_version: int | None = None

    def publish(self) -> str | None:
        """Persist the session's edits as one new stored generation.

        Atomic (one transaction brings document rows and index rows in
        step, with in-transaction stamp re-verification) and row-level
        (the delta journal's coalesced write set — an attribute-only
        session writes O(1) rows).  On success :attr:`generation`
        becomes the newly stored stamp and the session may keep
        editing toward another publish.  A racing writer from outside
        this service raises
        :class:`~repro.errors.WriteConflictError`; a database that
        stays locked past the bounded retries raises
        :class:`~repro.errors.StoreBusyError`.  Either way nothing was
        written and the session stays open.

        A publish with no edit since this session's last publish writes
        nothing and returns the same generation, as long as that is
        still the stored one — readers are not superseded by a change
        that changed nothing.
        """
        self._check_open()
        with self._service._pool.connection() as backend:
            if (
                self._published_version == self.document.version
                and backend.index_stamp(self.name) == self.generation
            ):
                metrics.incr("service.publishes.unchanged")
                return self.generation
            with metrics.time("service.publish"):
                backend.save_indexed(
                    self.document, self.name, self.manager,
                    strict_stamp=True,
                )
            self.generation = backend.index_stamp(self.name)
            # Another service may have published after this one: the
            # document is the stored generation only while the stamp is
            # the one this manager wrote.
            ours = self.manager.persisted_to(
                backend.artifact_token(self.name, self.generation)
            )
        self._published_version = self.document.version if ours else None
        metrics.incr("service.publishes")
        self.published = True
        return self.generation

    def close(self) -> None:
        """Release the write lock without publishing (idempotent); the
        document becomes read-only and, when it is exactly the last
        published generation, the service's shared snapshot of it."""
        if self._open:
            metrics.incr("service.write_sessions.closed")
            try:
                self.document.freeze()
                if self._published_version == self.document.version:
                    self._service._install(
                        self.name,
                        _SharedSnapshot(self.generation, self.document,
                                        self.manager),
                        None,
                    )
            finally:
                self._lock.release()
        super().close()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        try:
            if exc_type is None:
                self.publish()
        finally:
            self.close()


class DocumentService:
    """A thread-safe session layer over one WAL-mode document store.

        service = DocumentService("editions.db", pool_size=8)
        service.create(document, "hamlet")

        with service.read_session("hamlet") as session:   # any thread
            lines = session.query("//line")               # snapshot

        with service.write_session("hamlet") as session:  # one writer
            session.editor.insert_markup("physical", "seg", 10, 60)
            # publishes atomically on clean exit

    See the module docstring for the concurrency contract.  The
    ``location`` must be a database *file* (WAL mode and connection
    pooling are per-file by construction; ``:memory:`` is rejected at
    the pool).
    """

    def __init__(self, location: str | Path, *, pool_size: int = 8,
                 busy_timeout_ms: int = 5000,
                 lock_timeout_s: float = 30.0,
                 pool_timeout_s: float = 30.0) -> None:
        self.location = str(location)
        self.lock_timeout_s = lock_timeout_s
        self._pool = SqliteConnectionPool(
            self.location, pool_size, wal=True,
            busy_timeout_ms=busy_timeout_ms,
            acquire_timeout_s=pool_timeout_s,
        )
        self._write_locks: dict[str, threading.Lock] = {}
        self._locks_guard = threading.Lock()
        self._corpus = None
        self._corpus_guard = threading.Lock()
        # name -> the shared snapshot of its last seen generation, in
        # least-recently-opened order.
        self._snapshots: OrderedDict[str, _SharedSnapshot] = OrderedDict()
        # name -> install epoch, moved by every eviction and hand-off: a
        # reader installs its load only if the epoch it read before
        # loading is still current.
        self._epochs: dict[str, int] = {}
        self._snapshots_guard = threading.Lock()

    # -- plumbing ---------------------------------------------------------------

    @property
    def pool(self) -> SqliteConnectionPool:
        """The underlying connection pool (occupancy via ``pool.in_use``)."""
        return self._pool

    @property
    def corpus(self):
        """The collection-scale view over this service's store: a
        :class:`~repro.collection.Corpus` sharing the service's
        connection pool, so cross-document queries
        (``collection()//sp``) run against exactly the documents the
        sessions serve — including their routing summary, which every
        publish maintains as a delta."""
        with self._corpus_guard:
            if self._corpus is None:
                from ..collection import Corpus

                self._corpus = Corpus.over(self._pool)
            return self._corpus

    def collection_query(self, expression: str, *, routing: bool = True,
                         mode: str = "serial",
                         workers: int | None = None):
        """Run a cross-document ``collection()...`` query over every
        stored document (see :meth:`repro.collection.Corpus.query`)."""
        return self.corpus.query(
            expression, routing=routing, mode=mode, workers=workers
        )

    def _write_lock(self, name: str) -> threading.Lock:
        with self._locks_guard:
            lock = self._write_locks.get(name)
            if lock is None:
                lock = self._write_locks[name] = threading.Lock()
            return lock

    def _generation(self, name: str) -> str | None:
        with self._pool.connection() as backend:
            return backend.index_stamp(name)

    def _snapshot(self, name: str) -> _SharedSnapshot:
        """The frozen snapshot of ``name`` at its stored generation.

        The stamp is probed first: when it names the shared snapshot's
        generation, that snapshot is returned
        (``service.snapshots.shared``).  Otherwise the document is
        loaded with its stamp in one read transaction, indexed, frozen
        and installed as the shared snapshot (``service.snapshots.loaded``)
        — unless the name was evicted (a writer opened, or a delete or
        overwrite ran) or a writer handed off since the probe, in which
        case the load may be older than what is stored now and is only
        returned.  The database connection is borrowed only for the
        probe and the load.
        """
        with self._pool.connection() as backend:
            generation = backend.index_stamp(name)
            with self._snapshots_guard:
                epoch = self._epochs.get(name, 0)
                entry = self._snapshots.get(name)
                if generation and entry is not None \
                        and entry.generation == generation:
                    self._snapshots.move_to_end(name)
                else:
                    entry = None
            if entry is None:
                document, generation = backend.load_snapshot(name)
        if entry is not None:
            metrics.incr("service.snapshots.shared")
            return entry
        metrics.incr("service.snapshots.loaded")
        manager = IndexManager(document).attach()
        document.freeze()
        entry = _SharedSnapshot(generation, document, manager)
        self._install(name, entry, epoch)
        return entry

    def _install(self, name: str, entry: _SharedSnapshot,
                 epoch: int | None) -> None:
        """Make ``entry`` — its document frozen by the caller — the
        shared snapshot of ``name``.

        ``epoch`` is the name's install epoch the caller read before it
        loaded; when a writer has moved it since, nothing is installed.
        A writer's hand-off passes ``None``: it moves the epoch and
        installs.  An empty or missing stamp names no generation, so
        nothing is installed for it.
        """
        if not entry.generation:
            return
        with self._snapshots_guard:
            if epoch is None:
                self._epochs[name] = self._epochs.get(name, 0) + 1
            elif self._epochs.get(name, 0) != epoch:
                return
            self._snapshots[name] = entry
            self._snapshots.move_to_end(name)
            while len(self._snapshots) > SHARED_SNAPSHOT_LIMIT:
                self._snapshots.popitem(last=False)

    def _evict(self, name: str) -> None:
        """Drop the shared snapshot of ``name`` and move its install
        epoch, so no load already in flight installs over the change."""
        with self._snapshots_guard:
            self._snapshots.pop(name, None)
            self._epochs[name] = self._epochs.get(name, 0) + 1

    # -- document administration -------------------------------------------------

    def create(self, document: GoddagDocument, name: str,
               overwrite: bool = False) -> str | None:
        """Store and index ``document`` under ``name``; returns the new
        generation stamp.  ``overwrite=True`` replaces an existing
        document wholesale (take the write lock first — via
        :meth:`write_session` — if writers may be active on it)."""
        manager = document.index_manager
        if manager is None or manager.document is not document:
            manager = IndexManager(document)
        self._evict(name)
        with self._pool.connection() as backend:
            backend.save_indexed(
                document, name, manager, overwrite=overwrite
            )
            return backend.index_stamp(name)

    def delete(self, name: str) -> None:
        """Delete a stored document (under its write lock, so an active
        write session finishes first)."""
        lock = self._write_lock(name)
        if not lock.acquire(timeout=self.lock_timeout_s):
            raise WriteLockTimeoutError(
                f"write lock on {name!r} not released within "
                f"{self.lock_timeout_s:.1f}s"
            )
        try:
            self._evict(name)
            with self._pool.connection() as backend:
                backend.delete(name)
        finally:
            lock.release()

    def names(self) -> list[str]:
        with self._pool.connection() as backend:
            return backend.names()

    def has(self, name: str) -> bool:
        with self._pool.connection() as backend:
            return backend.has(name)

    # -- sessions ---------------------------------------------------------------

    def read_session(self, name: str) -> ReadSession:
        """Open a snapshot-isolated read session (see :class:`ReadSession`).

        The session uses the frozen snapshot of the stored generation:
        the shared one when the probed stamp names it, otherwise one
        loaded, indexed, frozen and installed as the new shared
        snapshot.  The database connection is borrowed only for the
        probe and the load; the returned session holds no pooled
        resources, so any number of read sessions may be open at once.
        """
        generation, document, manager = self._snapshot(name)
        metrics.incr("service.read_sessions.opened")
        return ReadSession(self, name, document, manager, generation)

    def write_session(self, name: str, timeout: float | None = None,
                      prevalidate: bool = True) -> WriteSession:
        """Open the (single) write session for ``name``.

        Blocks up to ``timeout`` (default: the service's
        ``lock_timeout_s``) for the per-document write lock — waits are
        timed on ``service.lock_wait`` — then raises the typed
        :class:`~repro.errors.WriteLockTimeoutError`.  The session's
        manager starts delta accounting against the stored artifact at
        open, so its eventual publish is a row-level patch, and the
        publish verifies the artifact generation in-transaction (see
        :meth:`WriteSession.publish`).  The session edits a mutable
        :meth:`~repro.core.goddag.GoddagDocument.copy` of the frozen
        snapshot of the stored generation — the one read sessions get —
        with that snapshot's warm manager carried over to the copy
        (:meth:`~repro.index.manager.IndexManager.carried_to`; the copy
        is timed on ``service.snapshot_copy``), so nothing is decoded
        or rebuilt when the snapshot is shared.  Opening then drops the
        name's shared snapshot instead of keeping it beside the copy.
        """
        lock = self._write_lock(name)
        with metrics.time("service.lock_wait"):
            acquired = lock.acquire(
                timeout=self.lock_timeout_s if timeout is None else timeout
            )
        if not acquired:
            raise WriteLockTimeoutError(
                f"write lock on {name!r} not released within "
                f"{(self.lock_timeout_s if timeout is None else timeout):.1f}s"
            )
        try:
            generation, source, warm = self._snapshot(name)
            with metrics.time("service.snapshot_copy"):
                document = source.copy()
                manager = warm.carried_to(document).attach()
            self._evict(name)
            with self._pool.connection() as backend:
                token = backend.artifact_token(name, generation)
            # The stored artifact is exactly this manager's state (a
            # publish writes document and index in one stamped
            # transaction), so delta accounting can start here: the
            # session's publish row-patches instead of rewriting.
            manager.mark_persisted(token)
            session = WriteSession(
                self, name, document, manager, generation, lock,
                prevalidate=prevalidate,
            )
        except BaseException:
            lock.release()
            raise
        metrics.incr("service.write_sessions.opened")
        return session

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        with self._snapshots_guard:
            self._snapshots.clear()
        with self._corpus_guard:
            if self._corpus is not None:
                self._corpus.close()  # executors only; the pool is ours
                self._corpus = None
        self._pool.close()

    def __enter__(self) -> "DocumentService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["DocumentService", "ReadSession", "WriteSession"]
