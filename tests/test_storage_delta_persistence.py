"""Storage-side index maintenance: delta-applied partial updates.

``GoddagStore.save_indexed`` must keep a stored document and its
persisted index in step across an editing session — via row-level
upserts under a stable ``doc_id`` — and every index-aware query
afterwards must answer exactly as a from-scratch ``build_index`` would.
"""

import pytest

from repro.core import GoddagBuilder
from repro.editing import Editor
from repro.errors import StorageError
from repro.index import IndexManager
from repro.obs.metrics import metrics
from repro.storage import GoddagStore
from repro.workloads import WorkloadSpec, generate
from repro.xpath import ExtendedXPath


def fresh_answers(document, windows, tags, needles):
    """Ground truth: a throwaway store indexed from scratch."""
    with GoddagStore() as store:
        store.save(document, "truth")
        store.build_index("truth")
        return {
            "spans": [store.elements_intersecting("truth", s, e)
                      for s, e in windows],
            "tags": {tag: store.count_tag("truth", tag) for tag in tags},
            "terms": {needle: store.term_occurrences("truth", needle)
                      for needle in needles},
        }


WINDOWS = [(0, 60), (100, 101), (0, 10_000)]
TAGS = ("w", "line", "seg", "anchor", "nope")
NEEDLES = ("gar", "zz")


def edit_session(document):
    editor = Editor(document, prevalidate=False)
    editor.insert_markup("physical", "seg", 3, 40)
    editor.insert_milestone("physical", "anchor", 12)
    victim = next(document.elements(tag="w"))
    editor.remove_markup(victim)
    editor.set_attribute(next(document.elements(tag="line")), "n", "1")
    editor.undo()  # the attribute again
    word = next(e for e in document.elements(tag="w"))
    editor.insert_markup("linguistic", "seg", word.start, word.end)
    return editor


@pytest.mark.parametrize("backend", ["sqlite"])
class TestDeltaAppliedRoundTrip:
    def test_queries_fresh_after_partial_update(self, backend, tmp_path):
        spec = WorkloadSpec(words=150, hierarchies=2, overlap_density=0.3)
        document = generate(spec)
        manager = IndexManager.for_document(document)
        with GoddagStore(tmp_path / "store.sqlite") as store:
            store.save_indexed(document, "ms", manager)
            first = store.index_stamp("ms")
            edit_session(document)
            store.save_indexed(document, "ms", manager)
            assert store.index_stamp("ms") not in ("", first)
            truth = fresh_answers(document, WINDOWS, TAGS, NEEDLES)
            for (s, e), expected in zip(WINDOWS, truth["spans"]):
                assert store.elements_intersecting("ms", s, e) == expected
            for tag, expected in truth["tags"].items():
                assert store.count_tag("ms", tag) == expected
            for needle, expected in truth["terms"].items():
                assert store.term_occurrences("ms", needle) == expected

    def test_document_round_trips_after_partial_update(self, backend, tmp_path):
        spec = WorkloadSpec(words=120, hierarchies=2)
        document = generate(spec)
        manager = IndexManager.for_document(document)
        with GoddagStore(tmp_path / "store.sqlite") as store:
            store.save_indexed(document, "ms", manager)
            edit_session(document)
            store.save_indexed(document, "ms", manager)
            loaded = store.load(name="ms")
            original = {(e.hierarchy, e.tag, e.start, e.end,
                         tuple(sorted(e.attributes.items())))
                        for e in document.elements()}
            reloaded = {(e.hierarchy, e.tag, e.start, e.end,
                         tuple(sorted(e.attributes.items())))
                        for e in loaded.elements()}
            assert reloaded == original
            assert loaded.text == document.text

    def test_repeated_sessions_stay_consistent(self, backend, tmp_path):
        document = generate(WorkloadSpec(words=100, hierarchies=2))
        manager = IndexManager.for_document(document)
        editor = Editor(document, prevalidate=False)
        query = ExtendedXPath("//seg")
        with GoddagStore(tmp_path / "store.sqlite") as store:
            store.save_indexed(document, "ms", manager)
            lines = list(document.elements(tag="line"))
            for round_number in range(4):
                # The exact span of an existing line: always legal
                # (nests inside it), a fresh <seg> each round.
                line = lines[round_number % len(lines)]
                editor.insert_markup("physical", "seg",
                                     line.start, line.end)
                store.save_indexed(document, "ms", manager)
                expected = len(query.nodes(document))
                assert store.count_tag("ms", "seg") == expected

    def test_attribute_postings_follow_the_delta_path(self, backend, tmp_path):
        """Attribute edits must reach the persisted attribute posting
        rows through save_indexed's row-level upserts, answering
        exactly as a from-scratch build_index."""
        document = generate(WorkloadSpec(words=140, hierarchies=2, seed=8))
        manager = IndexManager.for_document(document)
        editor = Editor(document, prevalidate=False)
        with GoddagStore(tmp_path / "store.sqlite") as store:
            store.save_indexed(document, "ms", manager)
            line = next(document.elements(tag="line"))
            editor.set_attribute(line, "rev", "a")
            editor.set_attribute(line, "rev", "b")   # value move: a empties
            editor.insert_markup("physical", "seg", 0, 9)
            seg = next(document.elements(tag="seg"))
            editor.set_attribute(seg, "resp", "ed")
            editor.remove_markup(seg)                 # posting row must empty
            store.save_indexed(document, "ms", manager)
            keys = [("rev", "a"), ("rev", "b"), ("resp", "ed"),
                    ("n", "2"), ("n", "nope")]
            with GoddagStore() as truth:
                truth.save(document, "t")
                truth.build_index("t")
                for attr, value in keys:
                    assert store.count_attribute("ms", attr, value) == \
                        truth.count_attribute("t", attr, value), (attr, value)


@pytest.fixture
def observed():
    metrics.reset()
    metrics.enable()
    yield metrics
    metrics.disable()
    metrics.reset()


def _full_rewrites(counters) -> dict:
    return {key: n for key, n in counters.items()
            if key.startswith("storage.full_rewrites")}


class TestSqliteRowLevelPath:
    def test_second_save_uses_row_level_upserts(self, tmp_path, observed):
        """After the first save_indexed, a full rewrite must not be
        needed again — the delta path alone keeps the rows fresh."""
        document = generate(WorkloadSpec(words=120, hierarchies=2))
        manager = IndexManager.for_document(document)
        with GoddagStore(tmp_path / "store.sqlite") as store:
            store.save_indexed(document, "ms", manager)
            before = observed.snapshot()["counters"]
            edit_session(document)
            store.save_indexed(document, "ms", manager)
            after = observed.snapshot()["counters"]
            assert after["storage.row_level_saves"] == \
                before.get("storage.row_level_saves", 0) + 1
            assert _full_rewrites(after) == _full_rewrites(before)
            assert store.count_tag("ms", "seg") == 2

    def test_first_save_is_one_transaction(self, tmp_path, observed,
                                           monkeypatch, recwarn):
        """A document saved for the first time gets its index in the
        same transaction: a failure while writing the index rows leaves
        nothing stored, never a document without its index.  A first
        save is not a fallback — no full-rewrite count, no strict-mode
        warning."""
        import repro.storage.sqlite_backend as backend_module

        monkeypatch.setenv("REPRO_OBS_STRICT", "1")
        document = generate(WorkloadSpec(words=80, hierarchies=2))
        manager = IndexManager.for_document(document)
        with GoddagStore(tmp_path / "store.sqlite") as store:
            def failing_summary(doc):
                raise RuntimeError("simulated failure writing the index")

            # The collection-summary rows are the last index rows
            # written: the document and element rows are in by then.
            monkeypatch.setattr(backend_module, "summary_rows",
                                failing_summary)
            with pytest.raises(RuntimeError):
                store.save_indexed(document, "e", manager)
            monkeypatch.undo()
            monkeypatch.setenv("REPRO_OBS_STRICT", "1")
            assert not store.has("e")
            store.save_indexed(document, "e", manager)
            assert store.index_stamp("e")
            assert store.count_elements("e") == document.element_count()
        assert not _full_rewrites(observed.snapshot()["counters"])
        assert not [w for w in recwarn
                    if issubclass(w.category, RuntimeWarning)]

    def test_doc_id_survives_partial_update(self, tmp_path):
        document = generate(WorkloadSpec(words=100, hierarchies=2))
        manager = IndexManager.for_document(document)
        with GoddagStore(tmp_path / "store.sqlite") as store:
            store.save_indexed(document, "ms", manager)
            (doc_id_before,) = store._conn.execute(
                "SELECT doc_id FROM documents WHERE name = 'ms'"
            ).fetchone()
            edit_session(document)
            store.save_indexed(document, "ms", manager)
            (doc_id_after,) = store._conn.execute(
                "SELECT doc_id FROM documents WHERE name = 'ms'"
            ).fetchone()
            assert doc_id_before == doc_id_after

    def test_resave_is_atomic_document_and_index_together(
        self, tmp_path, monkeypatch
    ):
        """A failure mid-resave must roll back the document rewrite too
        — a newer document never pairs with a stale index."""
        import repro.storage.sqlite_backend as backend_module

        document = generate(WorkloadSpec(words=100, hierarchies=2))
        manager = IndexManager.for_document(document)
        with GoddagStore(tmp_path / "store.sqlite") as store:
            store.save_indexed(document, "ms", manager)
            stamp_before = store.index_stamp("ms")
            elements_before = store.count_elements("ms")
            editor = Editor(document, prevalidate=False)
            line = next(document.elements(tag="line"))
            editor.insert_markup("physical", "seg", line.start, line.end)

            def exploding(path):
                raise RuntimeError("simulated crash mid-resave")

            # encode_path runs inside the delta application, after the
            # document rows were already rewritten in the transaction.
            monkeypatch.setattr(backend_module, "encode_path", exploding)
            with pytest.raises(RuntimeError):
                store.save_indexed(document, "ms", manager)
            monkeypatch.undo()
            # Everything rolled back: old document rows, old index rows,
            # and they still agree with each other.
            assert store.count_elements("ms") == elements_before
            assert store.count_tag("ms", "seg") == 0
            assert store.index_stamp("ms") == stamp_before
            # The backlog survives; the retry lands the edit.
            store.save_indexed(document, "ms", manager)
            assert store.count_elements("ms") == elements_before + 1
            assert store.count_tag("ms", "seg") == 1

    def test_generation_mismatch_in_transaction_forces_full_write(
        self, tmp_path
    ):
        """Even if a racing writer changes the artifact *after* the
        caller's own-artifact check, the conditional stamp update inside
        the transaction detects it and the deltas are not row-applied."""
        document = generate(WorkloadSpec(words=100, hierarchies=2))
        manager = IndexManager.for_document(document)
        with GoddagStore(tmp_path / "store.sqlite") as store:
            store.save_indexed(document, "ms", manager)
            editor = Editor(document, prevalidate=False)
            line = next(document.elements(tag="line"))
            editor.insert_markup("physical", "seg", line.start, line.end)
            deltas = manager.pending_persist()
            assert deltas  # the edit is queued for row-level application
            # The race: the stored stamp changes between the caller's
            # check and the write transaction.
            store._conn.execute(
                "UPDATE index_meta SET stamp = 'intruder'")
            store._conn.commit()
            store.resave_with_index(
                document, "ms", deltas, manager,
                stamp="retry", expected_stamp="stamp-read-before-the-race",
            )
            # Full write happened instead: everything consistent.
            assert store.count_tag("ms", "seg") == 1
            assert store.index_stamp("ms") == "retry"

    def test_rebuilt_manager_falls_back_to_full_write(self, tmp_path):
        """An untracked mutation voids the delta backlog; save_indexed
        must notice and re-persist the full payload, still correctly."""
        document = generate(WorkloadSpec(words=100, hierarchies=2))
        manager = IndexManager.for_document(document)
        with GoddagStore(tmp_path / "store.sqlite") as store:
            store.save_indexed(document, "ms", manager)
            Editor(document, prevalidate=False).insert_markup(
                "physical", "seg", 0, 20)
            document.touch()  # untracked: forces a rebuild in the manager
            store.save_indexed(document, "ms", manager)
            assert manager.build_count == 2
            assert store.count_tag("ms", "seg") == 1


class TestElementRowDeltas:
    """save_indexed drives element rows from the change journal: writes
    are keyed by persistent ``elem_id`` and proportional to what the
    session touched, never to the document."""

    def _session(self, tmp_path, words=400):
        document = generate(WorkloadSpec(words=words, hierarchies=2))
        manager = IndexManager.for_document(document)
        store = GoddagStore(tmp_path / "store.sqlite")
        store.save_indexed(document, "ms", manager)
        return document, manager, store

    def test_attribute_only_save_writes_o1_rows(self, tmp_path):
        document, manager, store = self._session(tmp_path)
        with store:
            total = store.count_elements("ms")
            editor = Editor(document, prevalidate=False)
            editor.set_attribute(
                next(document.elements(tag="line")), "rev", "a")
            conn = store._conn
            before = conn.total_changes
            store.save_indexed(document, "ms", manager)
            written = conn.total_changes - before
            # One document row, one stamp, one element upsert, one
            # attribute-posting row (sqlite counts REPLACE as delete +
            # insert) — constant, regardless of document size.
            assert written <= 8, written
            assert total > 100  # the rewrite this replaces was O(total)

    def test_n_edits_to_one_element_collapse_to_one_row_write(
        self, tmp_path
    ):
        document, manager, store = self._session(tmp_path)
        with store:
            editor = Editor(document, prevalidate=False)
            line = next(document.elements(tag="line"))
            for i in range(10):
                editor.set_attribute(line, "rev", str(i))
            conn = store._conn
            before = conn.total_changes
            store.save_indexed(document, "ms", manager)
            # Ten journal records, one element-row write (plus the
            # document row, the stamp, and the dirty posting rows).
            assert conn.total_changes - before <= 26
            assert store.element(
                "ms", line.elem_id).attributes["rev"] == "9"

    def test_removed_element_row_is_deleted_by_key(self, tmp_path):
        document, manager, store = self._session(tmp_path, words=120)
        with store:
            editor = Editor(document, prevalidate=False)
            victim = next(document.elements(tag="w"))
            victim_id = victim.elem_id
            survivors = {
                e.elem_id for e in document.elements()
            } - {victim_id}
            editor.remove_markup(victim)
            store.save_indexed(document, "ms", manager)
            assert store.element("ms", victim_id) is None
            stored = {
                row[0] for row in store._conn.execute(
                    "SELECT elem_id FROM elements")
            }
            assert stored == survivors

    def test_insert_and_undo_nets_out_of_the_row_backlog(self, tmp_path):
        document, manager, store = self._session(tmp_path, words=120)
        with store:
            editor = Editor(document, prevalidate=False)
            line = next(document.elements(tag="line"))
            born = editor.insert_markup("physical", "seg",
                                        line.start, line.end)
            born_id = born.elem_id
            editor.undo()
            store.save_indexed(document, "ms", manager)
            assert store.element("ms", born_id) is None
            assert store.count_tag("ms", "seg") == 0

    def test_delete_all_reinsert_helper_is_gone(self):
        """The pre-identity `_update_document_rows` delete-everything
        helper must not quietly come back: full rewrites are explicit
        (`_rewrite_rows`) and reached only through the documented
        fallbacks."""
        from repro.storage.sqlite_backend import SqliteStore

        assert not hasattr(SqliteStore, "_update_document_rows")
        assert hasattr(SqliteStore, "_rewrite_rows")
        assert hasattr(SqliteStore, "_apply_element_row_deltas")


def flat_document(words=120):
    """``words`` top-level ``w`` elements in hierarchy ``h``, words
    50..53 inside one ``phrase`` (117 top-level siblings), and two
    ``s`` elements in hierarchy ``g``; returns the document and the
    word spans."""
    spans, at = [], 0
    for i in range(words):
        spans.append((at, at + len(f"w{i}")))
        at = spans[-1][1] + 1
    builder = GoddagBuilder(" ".join(f"w{i}" for i in range(words)))
    builder.add_hierarchy("h")
    builder.add_hierarchy("g")
    for start, end in spans:
        builder.add_annotation("h", "w", start, end)
    builder.add_annotation("h", "phrase", spans[50][0], spans[53][1])
    builder.add_annotation("g", "s", 0, spans[60][1])
    builder.add_annotation("g", "s", spans[61][0], spans[-1][1])
    return builder.build(), spans


def element_rows(store, name):
    """Every stored column of ``name``'s element rows, by ``elem_id``."""
    return store._conn.execute(
        "SELECT elem_id, hierarchy, tag, start, end, parent_id, child_rank,"
        " attributes FROM elements JOIN documents USING (doc_id)"
        " WHERE name = ? ORDER BY elem_id", (name,),
    ).fetchall()


class TestStructuralEditsWriteOnlyMovedRows:
    """Sibling order is not stored, so an insertion or removal writes
    its own row and the rows of the children it moved — never the
    following siblings — and the rows still equal a full rewrite's."""

    @pytest.fixture
    def session(self, tmp_path, observed):
        document, spans = flat_document()
        assert len(document.top_level("h")) >= 100
        manager = IndexManager.for_document(document)
        with GoddagStore(tmp_path / "store.sqlite") as store:
            store.save_indexed(document, "ms", manager)
            editor = Editor(document, prevalidate=False)

            def publish():
                """Save the window; ``(rows upserted, rows deleted)``."""
                before = observed.snapshot()["counters"]
                store.save_indexed(document, "ms", manager)
                after = observed.snapshot()["counters"]
                with GoddagStore() as full:
                    full.save(document, "ms")
                    assert element_rows(store, "ms") == \
                        element_rows(full, "ms")
                return tuple(
                    after.get(key, 0) - before.get(key, 0)
                    for key in ("storage.rows_upserted",
                                "storage.rows_deleted"))

            yield document, spans, editor, publish, store

    def test_insert_writes_itself_and_the_adopted_children(self, session):
        document, spans, editor, publish, store = session
        seg = editor.insert_markup("h", "seg", spans[10][0], spans[12][1])
        assert len(seg.element_children) == 3
        assert publish() == (1 + 3, 0)
        assert store.element("ms", seg.elem_id).tag == "seg"

    def test_milestone_insert_writes_one_row(self, session):
        document, spans, editor, publish, _ = session
        editor.insert_milestone("h", "pb", spans[-1][1])
        assert publish() == (1, 0)

    def test_remove_deletes_itself_and_writes_the_spliced_children(
            self, session):
        document, spans, editor, publish, store = session
        (phrase,) = document.elements("h", "phrase")
        assert len(phrase.element_children) == 4
        editor.remove_markup(phrase)
        assert publish() == (4, 1)
        assert store.element("ms", phrase.elem_id) is None

    def test_a_spliced_child_removed_later_is_deleted_not_upserted(
            self, session):
        document, spans, editor, publish, store = session
        (phrase,) = document.elements("h", "phrase")
        first, *rest = phrase.element_children
        editor.remove_markup(phrase)
        editor.remove_markup(first)
        assert publish() == (len(rest), 2)
        assert store.element("ms", first.elem_id) is None
        assert all(store.element_row_full("ms", word.elem_id).parent_id == 0
                   for word in rest)

    def test_insert_then_remove_nets_out(self, session):
        document, spans, editor, publish, store = session
        milestone = editor.insert_milestone("h", "pb", spans[5][0])
        editor.remove_markup(milestone)
        assert publish() == (0, 0)
        # A wrapper nets out too; its adopted children were moved and
        # moved back, so their rows are rewritten unchanged.
        seg = editor.insert_markup("h", "seg", spans[10][0], spans[12][1])
        editor.remove_markup(seg)
        assert publish() == (3, 0)
        assert store.element("ms", seg.elem_id) is None


class TestBackwardCompatibilityAndBacklog:
    def test_old_schema_store_is_migrated(self, tmp_path):
        """A store created before the stamp column existed must keep
        working: the backend migrates additively on open."""
        import sqlite3

        where = tmp_path / "old.sqlite"
        conn = sqlite3.connect(where)
        conn.execute(
            "CREATE TABLE index_meta ("
            " doc_id INTEGER PRIMARY KEY,"
            " format INTEGER NOT NULL,"
            " doc_length INTEGER NOT NULL)"
        )
        conn.commit()
        conn.close()
        document = generate(WorkloadSpec(words=60, hierarchies=2))
        manager = IndexManager.for_document(document)
        with GoddagStore(where) as store:
            store.save_indexed(document, "ms", manager)
            assert store.index_stamp("ms")
            assert store.count_tag("ms", "w") > 0

    def test_undo_churn_cancels_in_the_backlog(self, tmp_path):
        """Insert+undo cycles between saves net out of the persistence
        backlog instead of accumulating add/remove pairs."""
        document = generate(WorkloadSpec(words=80, hierarchies=2))
        manager = IndexManager.for_document(document)
        with GoddagStore(tmp_path / "store.sqlite") as store:
            store.save_indexed(document, "ms", manager)
            editor = Editor(document, prevalidate=False)
            line = next(document.elements(tag="line"))
            for _ in range(20):
                editor.insert_markup("physical", "seg", line.start, line.end)
                editor.undo()
            pending = manager.pending_persist()
            assert pending is not None
            # Forty records, yet the row backlog holds one row: the
            # line's one child, which each insert adopted and each undo
            # spliced back — not a write per record.
            assert pending.rows.records_seen == 40
            assert len(pending.rows) == 1
            store.save_indexed(document, "ms", manager)
            assert store.count_tag("ms", "seg") == 0

    def test_backlog_overflow_falls_back_to_full_write(
        self, tmp_path, monkeypatch
    ):
        from repro.index.manager import PersistDeltas

        monkeypatch.setattr(PersistDeltas, "LIMIT", 5)
        document = generate(WorkloadSpec(words=120, hierarchies=2))
        manager = IndexManager.for_document(document)
        with GoddagStore(tmp_path / "store.sqlite") as store:
            store.save_indexed(document, "ms", manager)
            editor = Editor(document, prevalidate=False)
            for line in list(document.elements(tag="line"))[:8]:
                editor.insert_markup("physical", "seg", line.start, line.end)
            assert manager.pending_persist() is None  # overflowed: dropped
            store.save_indexed(document, "ms", manager)  # full write
            assert store.count_tag("ms", "seg") == 8


class TestSaveIndexedGuards:
    @pytest.mark.parametrize("backend", ["sqlite"])
    def test_needs_a_matching_manager(self, backend, tmp_path):
        document = generate(WorkloadSpec(words=60, hierarchies=1))
        other = generate(WorkloadSpec(words=60, hierarchies=1, seed=7))
        with GoddagStore(tmp_path / "store.sqlite") as store:
            with pytest.raises(StorageError):
                store.save_indexed(document, "ms")  # nothing attached
            foreign = IndexManager(other)
            with pytest.raises(StorageError):
                store.save_indexed(document, "ms", foreign)

    @pytest.mark.parametrize("backend", ["sqlite"])
    def test_clobbering_a_foreign_document_needs_overwrite(
        self, backend, tmp_path
    ):
        precious = generate(WorkloadSpec(words=60, hierarchies=1))
        session = generate(WorkloadSpec(words=60, hierarchies=1, seed=7))
        manager = IndexManager.for_document(session)
        with GoddagStore(tmp_path / "store.sqlite") as store:
            store.save(precious, "keep")
            with pytest.raises(StorageError):
                store.save_indexed(session, "keep", manager)
            store.save_indexed(session, "keep", manager, overwrite=True)
            assert store.index_stamp("keep")
            # From here on it is the session's own document: no consent
            # needed for further saves.
            store.save_indexed(session, "keep", manager)

    @pytest.mark.parametrize("backend", ["sqlite"])
    def test_mid_session_replacement_is_not_silently_patched(
        self, backend, tmp_path
    ):
        """Another actor deletes and re-creates the name between our
        saves: the artifact generation changed, so our next save must
        refuse (no consent) rather than row-patch a stranger's index."""
        session = generate(WorkloadSpec(words=100, hierarchies=2))
        manager = IndexManager.for_document(session)
        with GoddagStore(tmp_path / "store.sqlite") as store:
            store.save_indexed(session, "ms", manager)
            # The interloper replaces the artifact wholesale.
            intruder = generate(WorkloadSpec(words=40, hierarchies=1, seed=5))
            store.delete("ms")
            store.save(intruder, "ms")
            store.build_index("ms")
            # Our session edits and tries to save over it.
            editor = Editor(session, prevalidate=False)
            line = next(session.elements(tag="line"))
            editor.insert_markup("physical", "seg", line.start, line.end)
            with pytest.raises(StorageError):
                store.save_indexed(session, "ms", manager)
            # With consent, the write is full — and fully correct.
            store.save_indexed(session, "ms", manager, overwrite=True)
            assert store.count_tag("ms", "seg") == 1
            assert store.count_tag("ms", "w") == store.count_elements(
                "ms", "w")

    def test_deltas_never_cross_names_or_stores(self, tmp_path):
        """A backlog accumulated against one (store, name) must not be
        row-applied to another stored index — the second target gets a
        full, correct write instead of a silent mis-patch."""
        document = generate(WorkloadSpec(words=100, hierarchies=2))
        manager = IndexManager.for_document(document)
        with GoddagStore(tmp_path / "store.sqlite") as store:
            store.save_indexed(document, "a", manager)
            editor = Editor(document, prevalidate=False)
            line = next(document.elements(tag="line"))
            editor.insert_markup("physical", "seg", line.start, line.end)
            manager.refresh()  # the delta is applied and queued for 'a'
            # Persist to a *different* name: the 'a' backlog is not
            # applicable, so 'b' must be written in full.
            store.save_indexed(document, "b", manager)
            assert store.count_tag("b", "seg") == 1
            assert store.count_tag("b", "w") == store.count_elements(
                "b", "w")
            # And 'a' (now behind by one edit) is still internally
            # consistent with its own stored rows.
            store.save_indexed(document, "a", manager, overwrite=True)
            assert store.count_tag("a", "seg") == 1

