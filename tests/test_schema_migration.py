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

from pathlib import Path

import pytest
import sqlite3

from repro.editing import Editor
from repro.index import IndexManager
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
                    "index_paths", "index_terms", "index_attrs",
                    "index_overlap"} <= table_names(conn)
            # ... and nothing was dropped or rewritten.
            assert tables_before <= table_names(conn)
            assert element_payload(conn) == rows_before

    def test_loads_and_queries_through_the_old_index(self, fixture, tmp_path):
        where = materialize(fixture, tmp_path)
        with GoddagStore(where) as store:
            assert store.has_index("legacy")
            assert store.count_tag("legacy", "line") == 1
            assert store.term_occurrences("legacy", "world") == [6]
            assert store.query_spans("legacy", 0, 11) == [
                ("physical", "line", 0, 11),
                ("physical", "w", 0, 5),
                ("linguistic", "s", 6, 11),
            ]
            # Attribute counts answer either way: format-2 postings, or
            # the format-1 fallback scan over the element rows.
            assert store.count_attribute("legacy", "n", "1") == 1
            assert store.count_attribute("legacy", "resp", "ed") == 1
            document = store.load("legacy")
            assert not document.check_invariants()
            # Old ids are adopted verbatim as the birth ordinals.
            assert {(e.tag, e.elem_id) for e in document.elements()} == {
                ("line", 1), ("w", 2), ("s", 3)
            }

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
