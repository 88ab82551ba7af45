"""Schema migration of pre-``elem_id``-identity sqlite artifacts.

The checked-in fixtures under ``tests/fixtures/`` are sqlite dumps of
stores written by older releases — one per persisted index payload
generation:

* ``sqlite_store_format1.sql`` — PR-1 era: no ``index_meta.stamp``
  column, no ``index_attrs`` table, index payload format 1;
* ``sqlite_store_format2.sql`` — PR-3 era: stamp + attribute postings,
  payload format 2.

Both predate persistent element identity: their ``elem_id`` values are
the per-save preorder numbering old writers emitted.  Opening such a
store must migrate the schema *additively* (missing column/table added,
nothing dropped, every stored row intact), loading must adopt the old
ids verbatim as birth ordinals, and the first ``save_indexed`` must
backfill ``elem_id`` = ordinal without losing a byte of document data.
"""

import threading
from pathlib import Path

import pytest
import sqlite3

from repro.collection.corpus import Corpus
from repro.editing import Editor
from repro.index import IndexManager
from repro.obs.metrics import metrics
from repro.storage import GoddagStore

FIXTURES = Path(__file__).parent / "fixtures"


def materialize(fixture: str, tmp_path) -> Path:
    where = tmp_path / "legacy.sqlite"
    conn = sqlite3.connect(where)
    conn.executescript((FIXTURES / fixture).read_text(encoding="utf-8"))
    conn.close()
    return where


def table_names(conn) -> set[str]:
    return {
        name for (name,) in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        )
    }


def element_payload(conn):
    """Everything the document rows say, keyed by element id."""
    return {
        elem_id: rest
        for elem_id, *rest in conn.execute(
            "SELECT elem_id, hierarchy, tag, start, end, parent_id,"
            " child_rank, attributes FROM elements ORDER BY elem_id"
        )
    }


@pytest.mark.parametrize(
    "fixture", ["sqlite_store_format1.sql", "sqlite_store_format2.sql"]
)
class TestLegacyArtifactMigration:
    def test_migration_is_additive(self, fixture, tmp_path):
        where = materialize(fixture, tmp_path)
        conn = sqlite3.connect(where)
        rows_before = element_payload(conn)
        tables_before = table_names(conn)
        conn.close()
        with GoddagStore(where) as store:
            assert store.names() == ["legacy"]
            conn = store._conn
            # Additive: the stamp column and every current table exist...
            columns = [row[1] for row in
                       conn.execute("PRAGMA table_info(index_meta)")]
            assert "stamp" in columns
            assert {"documents", "hierarchies", "elements", "index_meta",
                    "collection_summary"} <= table_names(conn)
            # ... and nothing was dropped or rewritten.
            assert tables_before <= table_names(conn)
            assert element_payload(conn) == rows_before

    def test_loads_and_queries_through_the_old_index(self, fixture, tmp_path):
        where = materialize(fixture, tmp_path)
        with GoddagStore(where) as store:
            check_old_index_answers(store)

    def test_concurrent_opens_migrate_once(self, fixture, tmp_path):
        """Connections opening one old store at once: each re-reads the
        schema inside the migration transaction, so exactly one adds
        the stamp column and backfills, and none raises."""
        for trial in range(40):
            (tmp_path / str(trial)).mkdir()
            where = materialize(fixture, tmp_path / str(trial))
            barrier = threading.Barrier(4)
            errors: list[BaseException] = []

            def open_store() -> None:
                barrier.wait()
                try:
                    GoddagStore(where, wal=True).close()
                except BaseException as exc:  # noqa: BLE001 - reported
                    errors.append(exc)

            threads = [threading.Thread(target=open_store)
                       for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == [], trial
        with GoddagStore(where) as store:
            check_old_index_answers(store)

    def test_routed_answers_match_unrouted(self, fixture, tmp_path):
        """Format-1 documents have no attribute counts, so an attribute
        feature must not prune them."""
        corpus = Corpus(materialize(fixture, tmp_path), pool_size=2)
        try:
            for expression in ("collection()//*[@n='1']",
                               "collection()//*[@resp='ed']",
                               "collection()//line[@n='1']/w",
                               "collection()//s[contains(., 'world')]",
                               "collection()//*[@n='2']"):
                routed = corpus.query(expression).hits
                assert routed == corpus.query(expression,
                                              routing=False).hits
                assert len(routed) == (expression != "collection()//*[@n='2']")
        finally:
            corpus.close()

    def test_first_save_indexed_backfills_without_data_loss(
        self, fixture, tmp_path
    ):
        where = materialize(fixture, tmp_path)
        with GoddagStore(where) as store:
            before = element_payload(store._conn)
            document = store.load("legacy")
            manager = IndexManager.for_document(document)
            # Not this session's artifact: consent is required, exactly
            # like overwriting any foreign document.
            store.save_indexed(document, "legacy", manager, overwrite=True)
            after = element_payload(store._conn)
            assert after == before  # backfill adopted the stored ids
            assert store.index_stamp("legacy")  # stamped session
            # New elements keep extending the id space past the loaded
            # maximum, and the delta path keys on the backfilled ids.
            editor = Editor(document, prevalidate=False)
            editor.set_attribute(
                document.element_by_ordinal(1), "n", "42")
            editor.insert_markup("linguistic", "seg", 0, 5)
            store.save_indexed(document, "legacy", manager)
            rows = element_payload(store._conn)
            assert set(rows) == {1, 2, 3, 4}
            assert rows[1][-1] == '{"n": "42"}'
            assert tuple(rows[4][:4]) == ("linguistic", "seg", 0, 5)
            assert store.element("legacy", 4).tag == "seg"
            assert store.count_tag("legacy", "seg") == 1


def check_old_index_answers(store) -> None:
    assert store.has_index("legacy")
    assert store.count_tag("legacy", "line") == 1
    assert store.term_occurrences("legacy", "world") == [6]
    assert store.elements_intersecting("legacy", 0, 11) == [
        ("physical", "line", 0, 11),
        ("physical", "w", 0, 5),
        ("linguistic", "s", 6, 11),
    ]
    # Attribute counts answer either way: format-2 summary counts, or
    # the format-1 fallback scan over the element rows.
    assert store.count_attribute("legacy", "n", "1") == 1
    assert store.count_attribute("legacy", "resp", "ed") == 1
    document = store.load("legacy")
    assert not document.check_invariants()
    # Old ids are adopted verbatim as the birth ordinals.
    assert {(e.tag, e.elem_id) for e in document.elements()} == {
        ("line", 1), ("w", 2), ("s", 3)
    }


def test_fresh_store_has_no_overlap_table(tmp_path):
    """Span queries read the element rows, so no current store carries
    a second copy of every solid element's interval."""
    with GoddagStore(tmp_path / "fresh.sqlite") as store:
        assert "index_overlap" not in table_names(store._conn)


def test_fresh_store_keeps_only_counts(tmp_path):
    """Span queries read the element rows and term queries the text, so
    no current store carries a second copy of any element's interval
    or any token's offset: the persisted index is ``index_meta`` plus
    ``collection_summary``."""
    with GoddagStore(tmp_path / "fresh.sqlite") as store:
        assert table_names(store._conn) == {
            "documents", "hierarchies", "elements", "index_meta",
            "collection_summary",
        }


def test_legacy_overlap_rows_are_left_alone_by_a_row_level_publish(tmp_path):
    where = materialize("sqlite_store_format2.sql", tmp_path)
    legacy_rows = "SELECT * FROM index_overlap ORDER BY rowid"
    with GoddagStore(where) as store:
        before = store._conn.execute(legacy_rows).fetchall()
        document = store.load("legacy")
        manager = IndexManager.for_document(document)
        store.save_indexed(document, "legacy", manager, overwrite=True)
        editor = Editor(document, prevalidate=False)
        editor.insert_markup("linguistic", "seg", 0, 5)
        editor.remove_markup(next(document.elements(tag="s")))
        metrics.reset()
        metrics.enable()
        try:
            store.save_indexed(document, "legacy", manager)
            counters = metrics.snapshot()["counters"]
        finally:
            metrics.disable()
            metrics.reset()
        assert counters["storage.row_level_saves"] == 1
        assert store._conn.execute(legacy_rows).fetchall() == before
        stored = store.load("legacy")
        for start, end in ((0, 11), (0, 5), (4, 7), (6, 11), (5, 6)):
            brute = sorted(
                ((e.hierarchy, e.tag, e.start, e.end)
                 for e in stored.elements()
                 if e.start < end and e.end > start and e.start < e.end),
                key=lambda row: (row[2], -row[3], row[0], row[1]),
            )
            assert store.elements_intersecting("legacy", start, end) \
                == brute
