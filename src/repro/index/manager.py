"""The index manager: builds, refreshes, and serves the document indexes.

One :class:`IndexManager` owns, for one document, a structural summary
(:mod:`.structural`) plus a term index and attribute-value posting
table (:mod:`.term`).  It is version-stamped against the document: any
mutation bumps ``document.version``, which marks the manager stale.  On
the next index access the manager catches up — preferably by replaying
the document's delta journal (:meth:`GoddagDocument.changes_since`) and
patching the structural summary *in place*, falling back to a full
rebuild when the journal cannot bridge the gap, the backlog exceeds
:attr:`IndexManager.delta_threshold`, or a record turns out
inconsistent with the index state.  The term index is keyed to the
immutable document text and therefore survives everything; the
attribute posting table is patched per record like the summary.

Attach a manager with :meth:`IndexManager.attach` (or the
``for_document`` convenience) and the Extended XPath engine's
cost-based planner (:mod:`repro.xpath.planner`) prices its access
paths from this manager's population statistics; queries fall back to
the unindexed paths whenever the manager cannot serve a step, so
results are always identical with and without an index.

Applied deltas are additionally queued for persistence: a storage layer
calls :meth:`IndexManager.pending_persist` to fetch the row-level
operations (dirty label-path partitions and attribute postings, plus
the coalesced element-row write set) accumulated since the last
:meth:`IndexManager.mark_persisted`,
and ``GoddagStore.save_indexed`` turns them into sqlite upserts instead
of dropping the stored index wholesale.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from array import array

from ..errors import IndexDeltaError
from ..obs import fallback as _obs_fallback
from ..obs.metrics import metrics
from ..obs.stats import stats_dict
from .kernels import CandidateVector, OverlapBounds
from .structural import StructuralSummary, encode_path
from .term import AttributeIndex, TermIndex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..core.goddag import GoddagDocument
    from ..core.node import Element

#: Current persisted payload format.  Format 2 added the attribute-value
#: postings; opening a store migrates a format-1 index to it.
PAYLOAD_FORMAT = 2

#: Default delta backlog beyond which catching up incrementally is
#: assumed slower than one rebuild.
DELTA_REBUILD_THRESHOLD = 128


class PersistDeltas:
    """Row-level index changes accumulated since the last persistence.

    ``paths`` holds the ``(hierarchy, label-path)`` partition keys whose
    membership changed; ``attrs`` holds the ``(name, value)``
    attribute-posting keys whose membership changed (the persistence
    layer re-writes exactly those rows, deleting the ones that
    emptied); ``rows`` is the
    :class:`~repro.core.changes.ElementRowCoalescer` folding the same
    record stream into the minimal *element-row* write set, keyed by
    persistent ``elem_id`` — what lets the sqlite backend upsert only
    the document rows the session touched instead of rewriting the
    table.

    Past :attr:`LIMIT` queued operations the backlog is declared
    :attr:`overflowed` and the owner drops it: one full payload write
    is cheaper than replaying that many single-row statements.
    """

    __slots__ = ("paths", "attrs", "rows")

    #: Queued-operation bound beyond which a full rewrite wins.
    LIMIT = 1024

    def __init__(self) -> None:
        from ..core.changes import ElementRowCoalescer

        self.paths: set[tuple[str, tuple[str, ...]]] = set()
        self.attrs: set[tuple[str, str]] = set()
        self.rows = ElementRowCoalescer()

    def __bool__(self) -> bool:
        return bool(self.paths or self.attrs or self.rows)

    @property
    def overflowed(self) -> bool:
        return (
            len(self.paths) + len(self.attrs) + len(self.rows)
            > self.LIMIT
        )

    def record(self, change, touched_paths, touched_attrs=()) -> None:
        self.paths.update(touched_paths)
        self.attrs.update(touched_attrs)
        self.rows.record(change)


class IndexManager:
    """Query-acceleration indexes over one GODDAG document."""

    def __init__(
        self,
        document: "GoddagDocument",
        build: bool = True,
        incremental: bool = True,
        delta_threshold: int = DELTA_REBUILD_THRESHOLD,
    ) -> None:
        self.document = document
        self.build_count = 0
        self.delta_count = 0
        self.incremental = incremental
        self.delta_threshold = delta_threshold
        #: Reason code of the most recent full rebuild (see REBUILD_REASONS
        #: in the class docstring of the Observability section of
        #: docs/ARCHITECTURE.md): 'first-build', 'forced',
        #: 'incremental-disabled', 'journal-gap', 'backlog', or
        #: 'delta-error'.  None until the first build happens.
        self.last_rebuild_reason: str | None = None
        self._catch_up_reason: str | None = None
        self._built_version = -1
        self._structural: StructuralSummary | None = None
        self._terms: TermIndex | None = None
        self._attrs: AttributeIndex | None = None
        # None: the persisted form (if any) needs a full re-write;
        # a PersistDeltas: row-level changes since mark_persisted().
        # The token identifies *which* persisted artifact the backlog is
        # relative to (backend/location/name); deltas never apply to a
        # different target.
        self._pending: PersistDeltas | None = None
        self._persist_token: object = None
        # Flat-column caches for the batch pipeline: candidate vectors
        # keyed by posting, cached attr-posting ordinal sets and overlap
        # boundary columns.  All snapshot the summary at one built
        # version, so any catch-up or rebuild drops them wholesale (see
        # refresh/_catch_up).  The term-occurrence arrays are text-keyed
        # like the term index and therefore never invalidated.
        self._vectors: dict = {}
        self._occ_arrays: dict[str, array] = {}
        # The planner census of one built version, as one tuple
        # (version, element count, label-path rows) stored at once.
        self._census: tuple | None = None
        if build:
            self.refresh()

    @classmethod
    def for_document(cls, document: "GoddagDocument") -> "IndexManager":
        """Build a manager and attach it to the document in one step."""
        return cls(document).attach()

    def attach(self) -> "IndexManager":
        """Register this manager on the document for engine pickup."""
        self.document.attach_index(self)
        return self

    def detach(self) -> "IndexManager":
        if self.document.index_manager is self:
            self.document.detach_index()
        return self

    def carried_to(self, document: "GoddagDocument") -> "IndexManager":
        """A manager for ``document`` — a
        :meth:`~repro.core.goddag.GoddagDocument.copy` of this manager's
        document at its current version — without a rebuild.

        The structural summary and the attribute postings are remapped
        to the copy's elements by ordinal, in their order, through the
        copy's own ordinal map (which the copy was made with); the term
        index is keyed on the shared immutable text and is shared as-is.
        The new manager is fresh at the copy's version, has no persist
        backlog (call :meth:`mark_persisted`), and is not attached.
        A manager of a frozen document is never stale, so it is only
        read here and may be carried over while other threads query it.
        A ``document`` at another version than this manager's is not a
        copy of its state and raises :class:`ValueError`.
        """
        self.refresh()
        if document.version != self._built_version:
            raise ValueError(
                f"document version {document.version} is not the built "
                f"version {self._built_version}: not a copy of this state"
            )
        by_ordinal = document.elements_by_ordinal()
        manager = IndexManager(document, build=False,
                               incremental=self.incremental,
                               delta_threshold=self.delta_threshold)
        manager._structural = self._structural.remapped(by_ordinal)
        manager._attrs = self._attrs.remapped(by_ordinal)
        manager._terms = self._terms
        manager._occ_arrays = dict(self._occ_arrays)
        manager._built_version = document.version
        return manager

    # -- freshness (the lazy-catch-up contract) -------------------------------

    @property
    def is_stale(self) -> bool:
        """True when the document mutated after the last build."""
        return self._built_version != self.document.version

    @property
    def built_version(self) -> int:
        return self._built_version

    def refresh(self, force: bool = False) -> "IndexManager":
        """Bring the indexes up to the document version.

        Stale managers first try to replay the document's delta journal
        in place; a full rebuild of the structural and attribute
        indexes happens only when forced, on first build, or
        when deltas cannot bridge the gap.  The term index is built
        once: the text is immutable.

        Args:
            force: rebuild even when the manager believes it is fresh.

        Returns:
            ``self``, for chaining (``IndexManager(doc).refresh()``).
        """
        if not (force or self.is_stale or self._structural is None):
            return self
        if (
            not force
            and self.incremental
            and self._structural is not None
            and self._catch_up()
        ):
            return self
        # Name why the cheap path was not taken.  The journal-bridging
        # reasons ('journal-gap', 'backlog', 'delta-error') are silent
        # degradation — an incremental manager doing full work — so they
        # go through the fallback channel (reason-coded metric, plus a
        # RuntimeWarning under REPRO_OBS_STRICT=1); the rest are normal
        # operation and only count.
        if self._structural is None:
            reason = "first-build"
        elif force:
            reason = "forced"
        elif not self.incremental:
            reason = "incremental-disabled"
        else:
            reason = self._catch_up_reason or "delta-error"
        self.last_rebuild_reason = reason
        if reason in ("journal-gap", "backlog", "delta-error"):
            _obs_fallback(
                "index.rebuilds", reason,
                f"document version {self.document.version}, "
                f"built {self._built_version}",
            )
        else:
            metrics.incr("index.rebuilds", reason=reason)
        with metrics.time("index.rebuild"):
            self._structural = StructuralSummary(self.document)
            self._attrs = AttributeIndex.from_document(self.document)
            if self._terms is None:
                self._terms = TermIndex.from_text(self.document.text)
        self._built_version = self.document.version
        self.build_count += 1
        self._pending = None  # a rebuild invalidates any delta backlog
        self._vectors.clear()  # flat-column snapshots of the old summary
        return self

    def _catch_up(self) -> bool:
        """Replay journal deltas onto the live indexes; False → rebuild.

        A False return leaves :attr:`_catch_up_reason` naming why the
        incremental path declined — the journal could not bridge the gap
        ('journal-gap'), the backlog exceeded the threshold ('backlog'),
        or a record contradicted the index state ('delta-error') — for
        :meth:`refresh` to surface through the fallback metrics.
        """
        self._catch_up_reason = None
        changes = self.document.changes_since(self._built_version)
        if changes is None:
            self._catch_up_reason = "journal-gap"
            return False
        if len(changes) > self.delta_threshold:
            self._catch_up_reason = "backlog"
            return False
        try:
            with metrics.time("index.catch_up"):
                for change in changes:
                    touched = self._structural.apply(change)
                    touched_attrs = self._attrs.apply(change)
                    if self._pending is not None:
                        self._pending.record(change, touched, touched_attrs)
        except IndexDeltaError:
            # The summary/tables are now half-patched; the caller's
            # rebuild replaces them outright, so no unwind is needed.
            self._catch_up_reason = "delta-error"
            return False
        if self._pending is not None and self._pending.overflowed:
            # Replaying this many single-row statements would cost more
            # than one full payload write: let the next persistence do
            # the full write instead.
            _obs_fallback(
                "index.pending_dropped", "overflow",
                f"more than {PersistDeltas.LIMIT} queued row operations",
            )
            self._pending = None
        self._built_version = self.document.version
        self.delta_count += len(changes)
        if changes:
            self._vectors.clear()  # flat-column snapshots of the old summary
        metrics.incr("index.patches")
        metrics.incr("index.deltas_applied", len(changes))
        return True

    # -- persistence hand-off ---------------------------------------------------

    def pending_persist(self, token: object = None) -> PersistDeltas | None:
        """Row-level changes since :meth:`mark_persisted`, or ``None``
        when only a full payload write can be correct — never persisted
        through this manager, a rebuild intervened, or ``token`` names a
        different persistence target than the backlog was accumulated
        for.  Refreshes first so the answer covers every mutation up to
        now."""
        self.refresh()
        if token is not None and self._persist_token != token:
            return None
        return self._pending

    def mark_persisted(self, token: object = None) -> None:
        """Start delta accounting: the persisted form identified by
        ``token`` now matches this manager, and future applied deltas
        accumulate for row-level propagation to that target."""
        self._persist_token = token
        self._pending = PersistDeltas()

    def persisted_to(self, token: object) -> bool:
        """True when this manager last persisted to ``token``'s target
        (regardless of whether the current backlog is delta-applicable)."""
        return token is not None and self._persist_token == token

    @property
    def structural(self) -> StructuralSummary:
        """The label-path structural summary (refreshed first)."""
        self.refresh()
        return self._structural

    @property
    def terms(self) -> TermIndex:
        """The term posting lists (text-keyed; never goes stale)."""
        if self._terms is None:
            self._terms = TermIndex.from_text(self.document.text)
        return self._terms

    @property
    def attrs(self) -> AttributeIndex:
        """The attribute-value posting table (refreshed first)."""
        self.refresh()
        return self._attrs

    # -- the engine-facing query surface --------------------------------------
    #
    # These are the primitives the cost-based planner
    # (:mod:`repro.xpath.planner`) prices and serves steps from; every
    # answer is exact, so a served step is byte-identical to a scanned
    # one.

    def name_candidates(
        self, name: str, hierarchy: str | None = None
    ) -> "list[Element] | None":
        """Document-order elements matching a name test, or ``None`` when
        the index cannot prune the step (a bare ``*``).

        Args:
            name: the tag to match, or ``"*"`` for any.
            hierarchy: restrict to one hierarchy (``phys:line`` tests).

        Returns:
            A fresh list in canonical document order, or ``None``.
        """
        return self.structural.candidates(name, hierarchy)

    def contains_span(self, start: int, end: int, needle: str) -> bool:
        """Exactly ``needle in document.text[start:end]``.

        Indexable needles are answered by one binary search over the
        term index's occurrence offsets; non-indexable ones (empty, or
        spanning a token boundary — whitespace/punctuation) route to
        the naive string operation on the document text, never to a
        wrong index answer (the :class:`~repro.index.term.TermIndex`
        itself stays strict and would raise).
        """
        if not TermIndex.is_indexable(needle):
            return needle in self.document.text[start:end]
        return self.terms.span_contains(start, end, needle)

    def starts_with_span(self, start: int, end: int, needle: str) -> bool:
        """Exactly ``document.text[start:end].startswith(needle)``.

        One binary search over the occurrence offsets for indexable
        needles; the naive string operation for non-indexable ones
        (same routing contract as :meth:`contains_span`).
        """
        if not TermIndex.is_indexable(needle):
            return self.document.text[start:end].startswith(needle)
        return self.terms.span_starts_with(start, end, needle)

    def occurrence_count(self, needle: str) -> int:
        """Number of occurrences of an indexable needle in the text (the
        planner's ``contains``/``starts-with`` selectivity statistic)."""
        return self.terms.count(needle)

    def census(self) -> tuple[float, tuple]:
        """The structural census the planner prices plans from: the
        element count and the ``(hierarchy, path, population)``
        label-path rows, as an immutable tuple.

        Taken once per built version and kept in one attribute store,
        so every planner of one version shares it (concurrent readers
        of a frozen snapshot compute the same value), and a catch-up
        prices plans exactly as a fresh manager would.
        """
        self.refresh()
        census = self._census
        if census is None or census[0] != self._built_version:
            structural = self._structural
            census = (self._built_version,
                      float(structural.element_count()),
                      tuple(structural.label_paths()))
            self._census = census
        return census[1], census[2]

    def attr_candidates(self, name: str, value: str) -> "list[Element]":
        """Document-order elements with attribute ``name`` = ``value``."""
        return self.attrs.candidates(name, value)

    def attr_count(self, name: str, value: str) -> int:
        """Posting length of ``(name, value)`` — the planner's
        attribute-predicate selectivity statistic."""
        return self.attrs.posting_length(name, value)

    # -- flat-column batch surface (the batch-program pipeline) ----------------
    #
    # Candidate lists re-surfaced as CandidateVector flat columns, cached
    # per posting until the next catch-up or rebuild drops the cache
    # (any document version bump reaches one of those through refresh),
    # so a compiled BatchProgram touches Python Element objects only
    # when it materializes its final result.

    def candidate_vector(
        self, name: str, hierarchy: str | None = None
    ) -> CandidateVector | None:
        """The name-test candidate list as flat columns, or ``None``
        when the summary cannot prune (a bare ``*``)."""
        self.refresh()  # a stale snapshot must be dropped before probing
        key = ("name", name, hierarchy)
        vector = self._vectors.get(key)
        if vector is None:
            # candidates_view avoids the per-call defensive copy; the
            # vector snapshots the membership into its own columns.
            elements = self._structural.candidates_view(name, hierarchy)
            if elements is None:
                return None
            vector = CandidateVector(elements)
            self._vectors[key] = vector
        return vector

    def attr_vector(self, name: str, value: str) -> CandidateVector:
        """The ``@name='value'`` posting as flat columns."""
        self.refresh()  # a stale snapshot must be dropped before probing
        key = ("attr", name, value)
        vector = self._vectors.get(key)
        if vector is None:
            vector = CandidateVector(self.attr_candidates(name, value))
            self._vectors[key] = vector
        return vector

    def attr_ordinal_set(self, name: str, value: str) -> frozenset[int]:
        """Ordinals of the elements carrying ``name`` = ``value`` — the
        membership set batch attr-eq filters probe instead of touching
        per-element attribute dicts."""
        self.refresh()  # a stale snapshot must be dropped before probing
        key = ("attrset", name, value)
        members = self._vectors.get(key)
        if members is None:
            members = frozenset(
                e.ordinal for e in self.attrs.candidates(name, value)
            )
            self._vectors[key] = members
        return members

    def overlap_bounds(
        self, name: str, hierarchy: str | None = None
    ) -> OverlapBounds | None:
        """The name test's solid, non-root members as boundary columns
        (sorted by start and by end, per hierarchy) — what the overlap
        axes probe instead of stabbing every other hierarchy per
        context — or ``None`` when the summary cannot prune (a bare
        ``*``).  Cached like the candidate vectors, so any catch-up or
        rebuild drops it."""
        self.refresh()  # a stale snapshot must be dropped before probing
        key = ("overlap", name, hierarchy)
        bounds = self._vectors.get(key)
        if bounds is None:
            elements = self._structural.candidates_view(name, hierarchy)
            if elements is None:
                return None
            bounds = OverlapBounds(elements)
            self._vectors[key] = bounds
        return bounds

    def occurrence_array(self, needle: str) -> array:
        """Sorted occurrence offsets of an indexable needle as an
        ``array('q')`` column (text-keyed, cached forever)."""
        occurrences = self._occ_arrays.get(needle)
        if occurrences is None:
            occurrences = array("q", self.terms.occurrences(needle))
            self._occ_arrays[needle] = occurrences
        return occurrences

    def element(self, ordinal: int) -> "Element | None":
        """Keyed element lookup by persistent id (birth ordinal).

        The in-memory half of the cross-session node-handle contract:
        an ``elem_id`` stored with a document resolves to the same
        element after any reload, so consumers — the XPath
        ``element-by-id()`` function among them — never positionally
        re-match spans or document order against a freshly loaded
        document.  Delegates to
        :meth:`~repro.core.goddag.GoddagDocument.element_by_ordinal`
        (which already maintains a per-version identity map, so no
        second map goes stale here).
        """
        return self.document.element_by_ordinal(ordinal)

    # -- persistence ------------------------------------------------------------

    def payload(self, name: str = "") -> dict:
        """The serializable form of the three indexes, positions
        included: the witness that an incrementally maintained manager
        equals a rebuilt one.  No store reads it; stores count a
        document's summary rows from the document itself
        (:func:`~repro.storage.schema.summary_rows`).

        Args:
            name: the stored-document name stamped into the payload.

        Returns:
            A JSON-shaped dict with ``terms`` posting lists, ``paths``
            label-path partition rows, ``attrs`` attribute-value posting
            rows, ``format`` (see ``PAYLOAD_FORMAT``), ``name`` and
            ``doc_length``.
        """
        self.refresh()
        structural = self.structural
        return {
            "terms": {term: list(starts) for term, starts in self.terms.items()},
            "paths": [
                (hierarchy, encode_path(path), path[-1], count,
                 [(e.start, e.end)
                  for e in structural.partition(hierarchy, path)])
                for hierarchy, path, count in structural.label_paths()
            ],
            "attrs": [
                (attr_name, value, len(elements),
                 [(e.start, e.end) for e in elements])
                for attr_name, value, elements in self.attrs.items()
            ],
            "format": PAYLOAD_FORMAT,
            "name": name,
            "doc_length": self.document.length,
        }

    def stats(self) -> dict:
        """Per-index population census — the statistics the query
        planner's cost model consumes (and benchmarks print).

        Reads whatever is currently built — it never triggers a build or
        a catch-up as a side effect, so counting a fresh or stale
        manager is free (callers wanting up-to-date numbers call
        :meth:`refresh` first; the ``index.stale`` flag says which you
        got).

        Returns the unified ``repro-stats/1`` envelope (see
        docs/ARCHITECTURE.md, Observability): ``{"schema":
        "repro-stats/1", "source": "index.manager", "counts": {...},
        "last_rebuild_reason": ...}``.  ``counts`` keys (all
        non-negative ints):

        ========================  ==============================================
        key                       meaning
        ========================  ==============================================
        ``index.elements``        elements in the structural summary's flat
                                  lists
        ``index.label_paths``     label-path partitions in the structural
                                  summary
        ``index.terms``           distinct tokens in the term index vocabulary
        ``index.postings``        total term-index posting entries (sum of all
                                  posting-list lengths — a ``contains``
                                  predicate's selectivity denominator)
        ``index.attr_keys``       distinct ``(name, value)`` attribute posting
                                  keys
        ``index.attr_postings``   total attribute posting entries (an
                                  ``@name='value'`` predicate's cardinality
                                  source)
        ``index.builds``          full rebuilds this manager has paid
        ``index.deltas``          journal records replayed in place
        ``index.stale``           1 when the document mutated after the last
                                  build
        ========================  ==============================================
        """
        built = self._structural is not None
        counts = {
            "index.elements":
                self._structural.element_count() if built else 0,
            "index.label_paths":
                self._structural.partition_count() if built else 0,
            "index.terms": self._terms.term_count if self._terms else 0,
            "index.postings": self._terms.posting_count if self._terms else 0,
            "index.attr_keys": self._attrs.key_count if self._attrs else 0,
            "index.attr_postings":
                self._attrs.posting_count if self._attrs else 0,
            "index.builds": self.build_count,
            "index.deltas": self.delta_count,
            "index.stale": int(self.is_stale),
        }
        return stats_dict(
            "index.manager", counts,
            last_rebuild_reason=self.last_rebuild_reason,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "stale" if self.is_stale else "fresh"
        return (
            f"IndexManager({state}, version={self._built_version}, "
            f"builds={self.build_count}, deltas={self.delta_count})"
        )
