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

Every migrated document is indexed at the current format under a
non-empty stamp, with summary counts equal to the payload-derived
oracle (``tests/_summary_oracle.py``) — the two fixtures, and a
version-1 store holding a document without an index, one at format 1
and one with an empty stamp.
"""

import threading
from pathlib import Path

import pytest
import sqlite3

from repro.collection.corpus import Corpus
from repro.editing import Editor
from repro.index import IndexManager
from repro.index.manager import PAYLOAD_FORMAT
from repro.obs.metrics import metrics
from repro.storage import GoddagStore
from repro.storage.sqlite_backend import SCHEMA_VERSION, SqliteStore
from repro.workloads import WorkloadSpec, generate

from _summary_oracle import collection_summary_rows

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

    def test_concurrent_opens_migrate_once(self, fixture, tmp_path,
                                           monkeypatch):
        """Connections opening one old store at once: each re-reads the
        schema inside the migration transaction, so exactly one adds
        the stamp column and indexes every document, and none raises."""
        for trial in range(40):
            (tmp_path / str(trial)).mkdir()
            where = materialize(fixture, tmp_path / str(trial))
            assert race_opens(where, monkeypatch) == 1, trial
        with GoddagStore(where) as store:
            check_old_index_answers(store)

    def test_routed_answers_match_unrouted(self, fixture, tmp_path):
        """The migration counts a format-1 document's attribute counts
        from its rows, so an attribute feature prunes it correctly."""
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


def race_opens(where, monkeypatch) -> int:
    """Open the store at ``where`` from four threads at once; returns
    how many of them indexed the documents (ran the migration)."""
    migrations = []
    real = SqliteStore._index_every_document

    def counted(self, version):
        migrations.append(version)
        real(self, version)

    monkeypatch.setattr(SqliteStore, "_index_every_document", counted)
    barrier = threading.Barrier(4)
    errors: list[BaseException] = []

    def open_store() -> None:
        try:
            barrier.wait(timeout=30)
            GoddagStore(where, wal=True).close()
        except BaseException as exc:  # noqa: BLE001 - reported
            errors.append(exc)

    threads = [threading.Thread(target=open_store) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    monkeypatch.undo()
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    return len(migrations)


def check_every_document_indexed(store) -> None:
    """Each document has one ``index_meta`` row at the current format
    with a non-empty stamp, and summary rows equal to the oracle's."""
    assert store._conn.execute("PRAGMA user_version").fetchone() == (
        SCHEMA_VERSION,)
    for name in store.names():
        (doc_id,) = store._conn.execute(
            "SELECT doc_id FROM documents WHERE name = ?", (name,)
        ).fetchone()
        meta = store._conn.execute(
            "SELECT format, doc_length, stamp FROM index_meta"
            " WHERE doc_id = ?", (doc_id,)).fetchall()
        document = store.load(name)
        assert len(meta) == 1, name
        assert meta[0][:2] == (PAYLOAD_FORMAT, document.length), name
        assert meta[0][2], name
        stored = set(store._conn.execute(
            "SELECT kind, key, n FROM collection_summary WHERE doc_id = ?",
            (doc_id,)).fetchall())
        assert stored == set(collection_summary_rows(
            IndexManager(document).payload(name))), name


def check_old_index_answers(store) -> None:
    check_every_document_indexed(store)
    assert store.count_tag("legacy", "line") == 1
    assert store.term_occurrences("legacy", "world") == [6]
    assert store.elements_intersecting("legacy", 0, 11) == [
        ("physical", "line", 0, 11),
        ("physical", "w", 0, 5),
        ("linguistic", "s", 6, 11),
    ]
    # Attribute counts are summary counts, format-1 documents included.
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


def version_one_store(where) -> dict[str, list]:
    """A store of schema version 1 holding a document with no index, one
    indexed at format 1 and one whose stamp is empty (plus one current);
    returns each document's element rows."""
    with GoddagStore(where) as store:
        for seed, name in enumerate(("bare", "format1", "unstamped",
                                     "current")):
            store.save(generate(WorkloadSpec(words=40, hierarchies=3,
                                             seed=seed)), name)
        conn = store._conn
        with conn:
            conn.execute(
                "DELETE FROM index_meta WHERE doc_id IN (SELECT doc_id"
                " FROM documents WHERE name = 'bare')")
            conn.execute(
                "DELETE FROM collection_summary WHERE doc_id IN (SELECT"
                " doc_id FROM documents WHERE name IN ('bare', 'format1'))")
            conn.execute(
                "UPDATE index_meta SET format = 1 WHERE doc_id IN (SELECT"
                " doc_id FROM documents WHERE name = 'format1')")
            conn.execute(
                "UPDATE index_meta SET stamp = '' WHERE doc_id IN (SELECT"
                " doc_id FROM documents WHERE name = 'unstamped')")
            conn.execute("PRAGMA user_version = 1")
        return {name: rows_of(store, name) for name in store.names()}


def rows_of(store, name: str) -> list:
    return store._conn.execute(
        "SELECT * FROM elements WHERE doc_id = (SELECT doc_id FROM"
        " documents WHERE name = ?) ORDER BY elem_id", (name,)).fetchall()


def test_version_one_store_gets_every_document_indexed(tmp_path):
    where = tmp_path / "v1.sqlite"
    before = version_one_store(where)
    conn = sqlite3.connect(where)
    current = conn.execute(
        "SELECT stamp FROM index_meta JOIN documents USING (doc_id)"
        " WHERE name = 'current'").fetchone()
    conn.close()
    with GoddagStore(where) as store:
        check_every_document_indexed(store)
        assert {name: rows_of(store, name) for name in store.names()} \
            == before
        # A document that had a stamp keeps it.
        assert store.index_stamp("current") == current[0]
    corpus = Corpus(where, pool_size=2)
    try:
        for expression in ("collection()//line[@n='1']",
                           "collection()//dmg", "collection()//w",
                           "collection()//nosuchtag",
                           "collection()//*[contains(., 'e')]"):
            assert corpus.query(expression).hits == \
                corpus.query(expression, routing=False).hits, expression
    finally:
        corpus.close()


def test_version_one_store_racing_opens_migrate_once(tmp_path, monkeypatch):
    for trial in range(10):
        where = tmp_path / f"v1-{trial}.sqlite"
        before = version_one_store(where)
        assert race_opens(where, monkeypatch) == 1, trial
        with GoddagStore(where) as store:
            check_every_document_indexed(store)
            assert {name: rows_of(store, name)
                    for name in store.names()} == before
