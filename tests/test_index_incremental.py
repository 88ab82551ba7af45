"""Differential property harness for incremental index maintenance.

Drives randomized edit scripts (seeded, reproducible) over the
physical / linguistic / verse synthetic workloads of
``repro.workloads.generator`` against two replicas of the same document:

* ``live`` — an :class:`IndexManager` attached once and kept warm purely
  through the delta journal (incremental maintenance, the tentpole);
* ``plain`` — no index at all (the ground-truth engine).

After **every** step the harness asserts four equivalences:

1. *indexed vs unindexed*: a battery of Extended XPath queries (name
   tests, hierarchy-qualified wildcards, positional predicates,
   ``contains``/``starts-with``, attribute-value predicates,
   descendant steps from non-root contexts, cross-hierarchy axes)
   answers byte-identically on both replicas;
2. *planner on vs planner off*: the same queries on the live replica
   with ``index=False`` (the cost-based planner disabled outright)
   answer byte-identically to the planned, index-served run — and a
   *tracing arm* repeats the indexed run under an installed
   :mod:`repro.obs` tracer (spans, step timing, drift recording all
   live), which must also answer byte-identically: observation never
   changes answers;
3. *incremental vs rebuilt*: the live manager's full persisted payload
   (overlap interval tables, term postings, attribute-value posting
   rows, label-path partition rows — including row order) equals that
   of a freshly built manager;
4. the live document still satisfies the GODDAG structural invariants;
5. *delta-saved vs full-rewritten storage*: the live replica is
   ``save_indexed``-ed into a persistent sqlite store after every step
   (journal-driven element-row upserts keyed by persistent ``elem_id``
   plus index-row patches), and the store's entire row set — document,
   hierarchy, element, and index tables — must be byte-identical to a
   store written from scratch, while the delta store never once falls
   back to a full element-table rewrite;
6. *streamed vs materialized ingest* (checked at session start, every
   tenth step, and session end — a full reparse per check): the live
   replica's distributed serialization, stream-ingested in small
   chunked transactions (``save_stream``), produces a store row-for-row
   identical to parsing it whole and ``save_indexed``-ing it, and a
   :class:`~repro.streaming.lazy.LazyDocument` over the streamed store
   answers an index-served query byte-identically to the unindexed
   engine on the fresh parse.

Scale: 3 workloads × ``REPRO_DIFF_SEEDS`` sessions × ``STEPS`` steps
(≥ 200 steps at the defaults).  The nightly CI job raises
``REPRO_DIFF_SEEDS`` 10×; on failure the offending ``(workload, seed,
step)`` triple is appended to the file named by ``REPRO_DIFF_SEED_LOG``
so the run can be replayed locally with ``run_session`` directly.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.collection.fanout import node_rows
from repro.core.goddag import GoddagDocument
from repro.editing import Editor
from repro.errors import EditError, MarkupConflictError
from repro.index import IndexManager
from repro.obs import tracing
from repro.sacx import parse_concurrent
from repro.serialize.distributed import export_distributed
from repro.storage import GoddagStore
from repro.streaming import LazyDocument
from repro.workloads import WorkloadSpec, generate
from repro.xpath import ExtendedXPath
from repro.xpath.engine import _plan_cache

#: Edit steps per session; 3 workloads x 1 seed x 70 = 210 >= the
#: 200-step acceptance bar at the defaults.
STEPS = 70

SEEDS_PER_WORKLOAD = max(1, int(os.environ.get("REPRO_DIFF_SEEDS", "1")))

WORKLOADS = {
    "physical": WorkloadSpec(words=90, hierarchies=1, seed=11),
    "linguistic": WorkloadSpec(words=110, hierarchies=2,
                               overlap_density=0.3, seed=22),
    "verse": WorkloadSpec(words=130, hierarchies=3,
                          overlap_density=0.4, seed=33),
}

QUERIES = [ExtendedXPath(expression) for expression in (
    "//w",
    "//line",
    "//physical:*",
    "//seg",
    "//anchor",
    "//line[2]",
    "//w[contains(., 'gar')]",
    "//seg[contains(., 'en')]",
    "//line/contained::w",
    "//vline/overlapping::line",
    "//line[@n='2']",
    "count(//w)",
    "count(//seg)",
    # The planner's new step shapes: non-root descendant (label-path
    # containment), starts-with, attribute-value postings, and
    # multi-predicate steps eligible for selectivity reordering.
    "//s/descendant::w",
    "//page/descendant::line",
    "//page/descendant::seg[1]",
    "//w[starts-with(., 'gar')]",
    "//line[@n='2'][contains(., 'en')]",
    "//seg[@resp='5']",
)]

EDIT_TAGS = ("seg", "note", "mark")


def snapshot(value):
    """A comparable, identity-free form of an XPath result."""
    if not isinstance(value, list):
        return value
    out = []
    for node in value:
        if getattr(node, "is_element", False):
            out.append((
                "element", node.hierarchy, node.tag, node.start, node.end,
                tuple(sorted(node.attributes.items())),
            ))
        else:
            out.append((type(node).__name__.lower(), node.start, node.end))
    return out


def _keys(elements):
    return [(e.hierarchy, e.tag, e.start, e.end, e.ordinal)
            for e in elements]


def _store_rows(store: GoddagStore) -> dict[str, list]:
    """Every stored row, doc_id- and stamp-free (stamps are per-writer
    generation marks; everything else must be byte-identical)."""
    conn = store._conn
    tables = {
        "documents": "name, root_tag, text, root_attributes",
        "hierarchies": "rank, name, dtd_source",
        "elements": "elem_id, hierarchy, tag, start, end, parent_id,"
                    " child_rank, attributes",
        "index_meta": "format, doc_length",
        "collection_summary": "kind, key, n",
    }
    return {
        table: sorted(conn.execute(f"SELECT {columns} FROM {table}"))
        for table, columns in tables.items()
    }


def check_equivalence(live: GoddagDocument, plain: GoddagDocument,
                      manager: IndexManager) -> IndexManager:
    for query in QUERIES:
        indexed = snapshot(query.evaluate(live))
        unindexed = snapshot(query.evaluate(plain))
        assert indexed == unindexed, query.expression
        # The cached-plan arm: repeat the indexed run immediately — the
        # second evaluation must serve the compiled plan (and batch
        # program, where the shape compiled) from the process-wide
        # cache and stay byte-identical.
        hits_before = _plan_cache.hits
        cached = snapshot(query.evaluate(live))
        assert _plan_cache.hits == hits_before + 1, query.expression
        assert cached == unindexed, query.expression
        # The planner-off arm: same document, cost-based planner and
        # every index fast path disabled — byte-identical again.
        planner_off = snapshot(query.evaluate(live, index=False))
        assert planner_off == unindexed, query.expression
        # The tracing arm: the indexed evaluation repeated with the
        # observability layer fully live (tracer installed, per-step
        # timing and drift capture on) — still byte-identical.
        with tracing():
            traced = snapshot(query.evaluate(live))
        assert traced == unindexed, query.expression
    # The incrementally maintained payload must be byte-identical to a
    # freshly rebuilt manager's (order of partition rows included), and
    # the flat candidate lists must match element for element — order
    # included, since positional predicates index into them directly.
    rebuilt = IndexManager(plain)
    assert manager.payload("d") == rebuilt.payload("d")
    for tag in ("w", "line", "page", "s", "vline", *EDIT_TAGS, "anchor"):
        assert _keys(manager.structural.candidates(tag)) == \
            _keys(rebuilt.structural.candidates(tag)), tag
    for hierarchy in live.hierarchy_names():
        assert _keys(manager.structural.candidates("*", hierarchy)) == \
            _keys(rebuilt.structural.candidates("*", hierarchy)), hierarchy
    assert not live.check_invariants()
    return rebuilt


class _Session:
    """One scripted random session applied to both replicas in lockstep."""

    def __init__(self, spec: WorkloadSpec, seed: int) -> None:
        self.live = generate(spec)
        self.plain = generate(spec)
        self.manager = IndexManager.for_document(self.live)
        self.editors = (Editor(self.live, prevalidate=False),
                        Editor(self.plain, prevalidate=False))
        self.rng = random.Random(seed)
        # The storage arm: the live replica is delta-saved here after
        # every step; _rewrite_rows is the full-rewrite fallback, which
        # a healthy journal-driven session must never need.
        self.store = GoddagStore(":memory:")
        self.full_rewrites = 0
        backend = self.store
        original = backend._rewrite_rows

        def counting_rewrite(doc_id, document, name):
            self.full_rewrites += 1
            return original(doc_id, document, name)

        backend._rewrite_rows = counting_rewrite
        self.store.save_indexed(self.live, "d", self.manager)

    def close(self) -> None:
        self.store.close()

    # Decisions are drawn once (from the plain replica's state, which is
    # identical to the live one's) and applied positionally to both.

    def _element_index(self) -> int | None:
        count = self.plain.element_count()
        if count == 0:
            return None
        return self.rng.randrange(count)

    def _apply(self, operation) -> None:
        """Run one operation against both editors; failures must agree."""
        outcomes = []
        for editor in self.editors:
            try:
                operation(editor)
                outcomes.append(None)
            except (MarkupConflictError, EditError) as exc:
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1], outcomes

    def step(self) -> None:
        choice = self.rng.random()
        if choice < 0.35:
            hierarchy = self.rng.choice(self.plain.hierarchy_names())
            tag = self.rng.choice(EDIT_TAGS)
            a = self.rng.randrange(self.plain.length + 1)
            b = self.rng.randrange(self.plain.length + 1)
            start, end = min(a, b), max(a, b)
            self._apply(lambda editor: editor.insert_markup(
                hierarchy, tag, start, end))
        elif choice < 0.45:
            hierarchy = self.rng.choice(self.plain.hierarchy_names())
            offset = self.rng.randrange(self.plain.length + 1)
            self._apply(lambda editor: editor.insert_milestone(
                hierarchy, "anchor", offset))
        elif choice < 0.65:
            index = self._element_index()
            if index is None:
                return
            self._apply(lambda editor: editor.remove_markup(
                list(editor.document.elements())[index]))
        elif choice < 0.80:
            index = self._element_index()
            if index is None:
                return
            name = self.rng.choice(("n", "resp"))
            value = str(self.rng.randrange(100))
            self._apply(lambda editor: editor.set_attribute(
                list(editor.document.elements())[index], name, value))
        elif choice < 0.90:
            if self.editors[0].history.can_undo:
                # No exception tolerance here: undoing a recorded
                # command must never fail, on either replica.
                for editor in self.editors:
                    editor.undo()
        else:
            if self.editors[0].history.can_redo:
                for editor in self.editors:
                    editor.redo()

    def check(self) -> None:
        rebuilt = check_equivalence(self.live, self.plain, self.manager)
        # The storage arm: delta-save the live replica, then demand the
        # store is row-for-row identical to one written from scratch
        # (the rebuilt manager saves the plain replica — same ordinals,
        # same rows — through the full encode_document path).
        self.store.save_indexed(self.live, "d", self.manager)
        with GoddagStore(":memory:") as full_store:
            full_store.save_indexed(self.plain, "d", rebuilt)
            assert _store_rows(self.store) == _store_rows(full_store)

    def check_streaming(self) -> None:
        """The streaming arm: serialize the live replica, ingest it
        both ways, and demand row identity plus a byte-identical
        lazy answer (expensive — run at checkpoints, not every step)."""
        sources = export_distributed(self.live)
        fresh = parse_concurrent(sources)
        with GoddagStore(":memory:") as materialized, \
                GoddagStore(":memory:") as streamed:
            materialized.save_indexed(fresh, "d", IndexManager(fresh))
            streamed.save_stream(sources, "d", chunk_elements=16)
            assert _store_rows(streamed) == _store_rows(materialized)
            lazy = LazyDocument(streamed, "d")
            witness = node_rows(
                ExtendedXPath("//w").evaluate(fresh, index=False)
            )
            assert tuple(lazy.xpath("//w")) == witness


def run_session(workload: str, seed: int, steps: int = STEPS) -> IndexManager:
    """Drive one full session; returns the live manager for inspection."""
    session = _Session(WORKLOADS[workload], seed)
    try:
        session.check()
        session.check_streaming()
        for step in range(steps):
            try:
                session.step()
                session.check()
                if step % 10 == 9 or step == steps - 1:
                    session.check_streaming()
            except AssertionError:
                _log_failing_seed(workload, seed, step)
                raise
        # The delta path alone must have carried every save after the
        # first — a single fallback means stable identity broke down.
        assert session.full_rewrites == 0
    finally:
        session.close()
    return session.manager


def _log_failing_seed(workload: str, seed: int, step: int) -> None:
    log = os.environ.get("REPRO_DIFF_SEED_LOG")
    if log:
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"workload={workload} seed={seed} step={step}\n")


def _seed_matrix() -> list[tuple[str, int]]:
    return [
        (workload, 1000 + offset)
        for workload in WORKLOADS
        for offset in range(SEEDS_PER_WORKLOAD)
    ]


@pytest.mark.parametrize("workload,seed", _seed_matrix())
def test_differential_random_session(workload, seed):
    manager = run_session(workload, seed)
    # The harness is vacuous if the manager silently rebuilt each step:
    # assert the delta path actually carried the session.
    assert manager.delta_count > 0
    assert manager.build_count <= 2


def test_sessions_cover_the_acceptance_bar():
    """≥ 200 randomized edit steps across the three workloads (the
    parametrized sessions above execute them)."""
    assert len(_seed_matrix()) * STEPS >= 200


class TestCanonicalOrderEdgeCases:
    def test_milestone_at_ancestor_start(self):
        """A zero-width element anchored exactly at its ancestor's start
        is the tie case where naive merge order and the canonical
        order-key disagree; incremental and rebuilt summaries must still
        agree positionally."""
        from repro.core.goddag import GoddagBuilder

        def build():
            builder = GoddagBuilder("abcdef ghijkl")
            builder.add_hierarchy("physical")
            builder.add_hierarchy("linguistic")
            builder.add_annotation("physical", "line", 0, 6)
            builder.add_annotation("physical", "line", 7, 13)
            builder.add_annotation("linguistic", "s", 0, 13)
            return builder.build()

        live, plain = build(), build()
        manager = IndexManager.for_document(live)
        for document in (live, plain):
            editor = Editor(document)
            editor.insert_milestone("physical", "pb", 0)   # at line 1 start
            editor.insert_milestone("physical", "pb", 7)   # at line 2 start
            editor.insert_markup("physical", "seg", 0, 6)  # same span as line 1
        check_equivalence(live, plain, manager)
        assert manager.delta_count == 3 and manager.build_count == 1

    def test_same_span_nesting_ties(self):
        """Same-span same-tag nesting: ties break ancestor-first, which
        insertion order must reproduce in both directions."""
        from repro.core.goddag import GoddagBuilder

        def build():
            builder = GoddagBuilder("abcdef")
            builder.add_hierarchy("h")
            return builder.build()

        live, plain = build(), build()
        manager = IndexManager.for_document(live)
        for document in (live, plain):
            editor = Editor(document)
            editor.insert_markup("h", "a", 1, 5)
            # The same span again: nests *inside* the existing <a>.
            editor.insert_markup("h", "a", 1, 5)
            # And a wrap over both (adopts the chain wholesale).
            editor.insert_markup("h", "a", 0, 6)
        check_equivalence(live, plain, manager)
        outer, middle, inner = manager.structural.candidates("a")
        assert (outer.start, outer.end) == (0, 6)
        assert [e.depth() for e in (outer, middle, inner)] == [0, 1, 2]


class TestDeltaJournalContract:
    def test_changes_since_bridges_edits(self):
        document = generate(WORKLOADS["linguistic"])
        version = document.version
        editor = Editor(document, prevalidate=False)
        editor.insert_markup("physical", "seg", 0, 9)
        editor.insert_milestone("physical", "anchor", 4)
        changes = document.changes_since(version)
        assert changes is not None and len(changes) == 2
        assert changes[0].signature()[0] == "insert"
        assert changes[1].is_milestone

    def test_journal_overflow_returns_none(self):
        from repro.core.goddag import JOURNAL_LIMIT

        document = generate(WORKLOADS["physical"])
        version = document.version
        editor = Editor(document, prevalidate=False)
        for i in range(JOURNAL_LIMIT + 1):
            editor.insert_milestone("physical", "anchor",
                                    i % (document.length + 1))
        assert document.changes_since(version) is None
        # ... but a recent snapshot is still served.
        assert document.changes_since(document.version - 2) is not None

    def test_untracked_touch_resets_the_floor(self):
        document = generate(WORKLOADS["physical"])
        version = document.version
        Editor(document, prevalidate=False).insert_milestone(
            "physical", "anchor", 0)
        document.touch()
        assert document.changes_since(version) is None
        assert document.changes_since(document.version) == []
