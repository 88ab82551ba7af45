"""Index invalidation after edits.

Every mutation bumps ``document.version``, which marks the
IndexManager stale; the next index access catches up transparently.
These tests drive mutations through the xTagger editing layer
(:mod:`repro.editing.editor`) and assert that queries against the
attached index never serve stale answers.
"""

import pytest

from repro.core.goddag import GoddagBuilder
from repro.editing import Editor
from repro.index import IndexManager
from repro.workloads import WorkloadSpec, generate
from repro.xpath import ExtendedXPath


def build_document():
    builder = GoddagBuilder("the quick brown fox jumps over the lazy dog")
    builder.add_hierarchy("physical")
    builder.add_hierarchy("linguistic")
    builder.add_annotation("physical", "line", 0, 19)
    builder.add_annotation("physical", "line", 20, 43)
    builder.add_annotation("linguistic", "s", 0, 43)
    return builder.build()


class TestStalenessDetection:
    def test_fresh_after_build(self):
        document = build_document()
        manager = IndexManager(document)
        assert not manager.is_stale
        assert manager.build_count == 1

    def test_insert_marks_stale(self):
        document = build_document()
        manager = IndexManager(document)
        editor = Editor(document)
        editor.insert_markup("linguistic", "w", *editor.find_text("quick"))
        assert manager.is_stale

    def test_remove_marks_stale(self):
        document = build_document()
        editor = Editor(document)
        element = editor.insert_markup(
            "linguistic", "w", *editor.find_text("quick")
        )
        manager = IndexManager(document)
        editor.remove_markup(element)
        assert manager.is_stale

    def test_attribute_edit_marks_stale(self):
        document = build_document()
        manager = IndexManager(document)
        line = next(document.elements(tag="line"))
        editor = Editor(document)
        editor.set_attribute(line, "n", "1")
        assert manager.is_stale

    def test_undo_marks_stale(self):
        document = build_document()
        editor = Editor(document)
        editor.insert_markup("linguistic", "w", *editor.find_text("fox"))
        manager = IndexManager(document)
        editor.undo()
        assert manager.is_stale


class TestLazyRebuild:
    def test_catch_up_happens_on_access_not_on_edit(self):
        document = build_document()
        manager = IndexManager(document)
        editor = Editor(document)
        editor.insert_markup("linguistic", "w", *editor.find_text("quick"))
        editor.insert_markup("linguistic", "w", *editor.find_text("brown"))
        assert manager.build_count == 1  # edits alone touch nothing
        assert manager.delta_count == 0
        manager.structural  # first access after the edits
        # The journal bridges the gap: deltas applied, no rebuild.
        assert manager.build_count == 1
        assert manager.delta_count == 2
        assert not manager.is_stale
        manager.structural  # further access: nothing more to do
        assert manager.build_count == 1
        assert manager.delta_count == 2

    def test_rebuild_when_incremental_disabled(self):
        document = build_document()
        manager = IndexManager(document, incremental=False)
        editor = Editor(document)
        editor.insert_markup("linguistic", "w", *editor.find_text("quick"))
        manager.structural
        assert manager.build_count == 2
        assert manager.delta_count == 0

    def test_rebuild_when_backlog_exceeds_threshold(self):
        document = build_document()
        manager = IndexManager(document, delta_threshold=3)
        editor = Editor(document)
        for needle in ("the", "quick", "brown", "fox"):
            editor.insert_markup("linguistic", "w", *editor.find_text(needle))
        manager.structural  # 4 pending deltas > threshold 3
        assert manager.build_count == 2
        assert manager.delta_count == 0

    def test_untracked_mutation_forces_rebuild(self):
        document = build_document()
        manager = IndexManager(document)
        document.touch()  # no change record: the journal cannot bridge
        manager.structural
        assert manager.build_count == 2
        assert manager.delta_count == 0

    def test_term_index_survives_rebuilds(self):
        document = build_document()
        manager = IndexManager(document)
        terms_before = manager.terms
        editor = Editor(document)
        editor.insert_markup("linguistic", "w", *editor.find_text("dog"))
        manager.refresh(force=True)
        # The text is immutable, so the term index is never rebuilt.
        assert manager.terms is terms_before
        assert manager.build_count == 2

    def test_queries_see_edits_through_attached_index(self):
        document = build_document()
        IndexManager.for_document(document)
        words = ExtendedXPath("//w")
        assert words.nodes(document) == []
        editor = Editor(document)
        editor.insert_markup("linguistic", "w", *editor.find_text("quick"))
        result = words.nodes(document)
        assert [w.text for w in result] == ["quick"]
        editor.undo()
        assert words.nodes(document) == []
        editor.redo()
        assert [w.text for w in words.nodes(document)] == ["quick"]

    def test_contains_respects_new_markup(self):
        document = build_document()
        IndexManager.for_document(document)
        query = ExtendedXPath("//w[contains(., 'ick')]")
        assert query.nodes(document) == []
        editor = Editor(document)
        editor.insert_markup("linguistic", "w", *editor.find_text("quick"))
        assert [w.text for w in query.nodes(document)] == ["quick"]

    def test_stats_has_no_build_side_effect(self):
        """stats() only wants counts: it must never force construction
        of the three indexes on a fresh (or stale) manager."""
        document = build_document()
        manager = IndexManager(document, build=False).attach()
        census = manager.stats()["counts"]
        assert manager.build_count == 0
        assert manager._structural is None  # nothing was built
        assert census["index.elements"] == 0 and census["index.builds"] == 0
        assert census["index.stale"] == 1
        manager.refresh()
        fresh = manager.stats()["counts"]
        assert fresh["index.elements"] == 3
        assert fresh["index.stale"] == 0 and fresh["index.builds"] == 1
        # Stale managers report the stale census, flagged as such.
        Editor(document).insert_markup(
            "linguistic", "w", 4, 9
        )
        stale = manager.stats()["counts"]
        assert manager.build_count == 1 and manager.delta_count == 0
        assert stale["index.stale"] == 1 and stale["index.elements"] == 3

    def test_mirrors_interval_index_contract(self):
        """The manager invalidates exactly when the core's lazy interval
        indexes do: on every document version bump."""
        document = build_document()
        manager = IndexManager(document)
        version = document.version
        document.touch()
        assert document.version == version + 1
        assert manager.is_stale
        manager.refresh()
        assert manager.built_version == document.version


class TestEditingSessionEquivalence:
    def test_indexed_session_matches_unindexed(self):
        """Replay one editing session on two equal documents — one with
        an attached index — and compare every query answer along the way."""
        spec = WorkloadSpec(words=200, hierarchies=4, overlap_density=0.3)
        indexed = generate(spec)
        plain = generate(spec)
        IndexManager.for_document(indexed)
        queries = [ExtendedXPath(q) for q in (
            "//w", "//note", "//line/contained::w",
            "//w[contains(., 'gar')]", "count(//dmg)",
        )]

        def check():
            for query in queries:
                left = query.evaluate(indexed)
                right = query.evaluate(plain)
                if isinstance(left, list):
                    left = [(type(n).__name__, getattr(n, "span", None))
                            for n in left]
                    right = [(type(n).__name__, getattr(n, "span", None))
                             for n in right]
                assert left == right, query.expression

        check()
        for document in (indexed, plain):
            editor = Editor(document)
            editor.insert_markup("editorial", "note", 10, 40)
            editor.insert_markup("editorial", "note", 50, 55)
        check()
        for document in (indexed, plain):
            editor = Editor(document)
            note = next(document.elements(tag="note"))
            editor.remove_markup(note)
        check()


class TestStoreLevelInvalidation:
    @pytest.mark.parametrize("backend", ["sqlite"])
    def test_edited_document_resave_invalidates(self, backend, tmp_path):
        from repro.storage import GoddagStore

        document = build_document()
        with GoddagStore(tmp_path / "db.sqlite") as store:
            store.save(document, "ms")
            store.build_index("ms")
            before = store.count_tag("ms", "w")
            assert before == 0
            editor = Editor(document)
            editor.insert_markup("linguistic", "w", *editor.find_text("fox"))
            store.save(document, "ms", overwrite=True)
            # The overwrite re-counted the index; answers are fresh.
            assert store.count_tag("ms", "w") == 1
            store.build_index("ms")
            assert store.count_tag("ms", "w") == 1
