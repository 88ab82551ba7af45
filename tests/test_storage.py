"""Tests for the persistent storage layer."""

import sqlite3

import pytest

from repro.compare import documents_isomorphic
from repro.errors import StorageError
from repro.storage import (
    GoddagStore,
    SqliteStore,
    decode_document,
    encode_document,
)
from repro.storage.schema import decode_attributes
from repro.workloads import WorkloadSpec, figure_one_document, generate


@pytest.fixture()
def doc():
    return figure_one_document()


class TestRelationalEncoding:
    def test_roundtrip(self, doc):
        rows = encode_document(doc, "figure1")
        again = decode_document(*rows)
        assert documents_isomorphic(doc, again)

    def test_roundtrip_preserves_nesting_exactly(self, doc):
        rows = encode_document(doc, "figure1")
        again = decode_document(*rows)
        for original, restored in zip(doc.elements(), again.elements()):
            assert original.tag == restored.tag
            assert original.span == restored.span
            assert original.parent.tag == restored.parent.tag

    def test_dtd_survives(self, doc):
        rows = encode_document(doc, "figure1")
        again = decode_document(*rows)
        assert again.hierarchy("physical").dtd.declares("line")

    def test_element_ids_are_preorder(self, doc):
        _, _, element_rows = encode_document(doc, "figure1")
        for row in element_rows:
            assert row.parent_id < row.elem_id

    def test_synthetic_roundtrip(self):
        document = generate(WorkloadSpec(words=400, seed=99))
        rows = encode_document(document, "syn")
        assert documents_isomorphic(document, decode_document(*rows))


class TestSqliteStore:
    def test_save_load(self, doc):
        with SqliteStore() as store:
            store.save(doc, "figure1")
            again = store.load("figure1")
        assert documents_isomorphic(doc, again)

    def test_duplicate_save_rejected(self, doc):
        with SqliteStore() as store:
            store.save(doc, "x")
            with pytest.raises(StorageError):
                store.save(doc, "x")
            store.save(doc, "x", overwrite=True)

    def test_missing_document(self):
        with SqliteStore() as store:
            with pytest.raises(StorageError):
                store.load("ghost")

    def test_names_and_delete(self, doc):
        with SqliteStore() as store:
            store.save(doc, "a")
            store.save(doc, "b")
            assert store.names() == ["a", "b"]
            store.delete("a")
            assert store.names() == ["b"]

    def test_count_elements(self, doc):
        with SqliteStore() as store:
            store.save(doc, "f")
            assert store.count_elements("f") == doc.element_count()
            assert store.count_elements("f", "w") == 13

    def test_elements_by_tag(self, doc):
        with SqliteStore() as store:
            store.save(doc, "f")
            lines = store.elements_by_tag("f", "line")
            assert [e.attributes["n"] for e in lines] == ["1", "2", "3"]

    def test_elements_intersecting(self, doc):
        res = next(doc.elements(tag="res"))
        with SqliteStore() as store:
            store.save(doc, "f")
            hits = store.elements_intersecting("f", res.start, res.end)
        tags = {tag for _hierarchy, tag, _start, _end in hits}
        assert "res" in tags and "line" in tags and "w" in tags

    def test_elements_intersecting_skips_zero_width(self, doc):
        doc.insert_empty_element("physical", "pb", 5)
        with SqliteStore() as store:
            store.save(doc, "f")
            hits = store.elements_intersecting("f", 2, 8)
            assert hits and all(start < end for _, _, start, end in hits)
            assert "pb" not in {tag for _, tag, _, _ in hits}
            # Indexed or not, the span query answers the same.
            store.build_index("f")
            assert store.elements_intersecting("f", 2, 8) == hits

    def test_duplicate_save_across_connections_is_typed(self, doc, tmp_path):
        """The existence check runs inside the insert transaction: a
        second connection that misses the first one's document in a
        pre-check still gets StorageError, not a raw IntegrityError."""
        path = str(tmp_path / "store.db")
        with SqliteStore(path) as first, SqliteStore(path) as second:
            first.save(doc, "d")
            second.has = lambda name: False  # the pre-check lost the race
            with pytest.raises(StorageError, match="already stored"):
                second.save(doc, "d")
            assert first.names() == ["d"]

    def test_failed_overwrite_keeps_the_old_document(self, doc, monkeypatch):
        """save(overwrite=True) is one transaction: a failure while
        encoding or inserting the new rows leaves the old document."""
        import repro.storage.sqlite_backend as backend_module

        real_encode = backend_module.encode_document
        replacement = generate(WorkloadSpec(words=40, seed=3))

        def failing_encode(document, name):
            raise RuntimeError("simulated failure while encoding")

        def duplicate_rows(document, name):
            doc_row, hierarchy_rows, element_rows = real_encode(document, name)
            return doc_row, hierarchy_rows, element_rows + element_rows[:1]

        with SqliteStore() as store:
            store.save(doc, "d")
            stamp = store.build_index("d")
            for broken, error in ((failing_encode, RuntimeError),
                                  (duplicate_rows, sqlite3.IntegrityError)):
                monkeypatch.setattr(backend_module, "encode_document", broken)
                with pytest.raises(error):
                    store.save(replacement, "d", overwrite=True)
                monkeypatch.undo()
                assert store.index_stamp("d") == stamp
                assert documents_isomorphic(doc, store.load("d"))

    def test_overlap_join_matches_memory(self, doc):
        expected = set()
        for element in doc.elements(tag="res"):
            for other in element.overlapping():
                if other.tag == "line":
                    expected.add((element.start, other.start))
        with SqliteStore() as store:
            store.save(doc, "f")
            pairs = store.overlapping_pairs("f", "res", "line")
        assert {(a.start, b.start) for a, b in pairs} == expected

    def test_text_window(self, doc):
        with SqliteStore() as store:
            store.save(doc, "f")
            assert store.text_of("f", 0, 5) == "Hwaet"
            assert store.text_of("f", 0, len(doc.text) + 10) == doc.text

    @pytest.mark.parametrize("start, end", [(5, 2), (-1, 3)])
    def test_text_window_rejects_a_reversed_or_negative_window(
            self, doc, start, end):
        with SqliteStore() as store:
            store.save(doc, "f")
            with pytest.raises(StorageError, match=rf"\[{start}, {end}\)"):
                store.text_of("f", start, end)

    def test_file_persistence(self, doc, tmp_path):
        path = str(tmp_path / "store.db")
        with SqliteStore(path) as store:
            store.save(doc, "f")
        with SqliteStore(path) as store:
            assert store.has("f")
            assert documents_isomorphic(doc, store.load("f"))


def _matching_rows(store, name: str, tag: str, attr: str, value: str) -> int:
    """Rows ``element_rows_by_tag`` admits for ``[@attr=value]`` that
    really hold it (the lazy view and a wide fan-out confirm alike)."""
    return sum(
        1 for row in store.element_rows_by_tag(name, tag, attr=attr,
                                               value=value)
        if decode_attributes(row.attributes, row.elem_id).get(attr) == value
    )


class TestAttributeScanPrefilter:
    """The instr() prefilter of the element-row scan
    (``element_rows_by_tag``, which the lazy view and a wide fan-out
    read) must never false-negative a row, whatever the attribute values
    contain and however the row's JSON happened to be encoded; the
    summary count of ``count_attribute`` agrees."""

    TRICKY_VALUES = [
        'he said "hi"',
        "back\\slash",
        '\\" both',
        "naïve",
        "日本語",
        "Ωmega leads",
        'mix "q" \\ café',
        "tab\tand\nnewline",
    ]

    def _scan_store(self):
        doc = figure_one_document()
        from repro.editing import Editor

        editor = Editor(doc)
        lines = [e for e in doc.elements(tag="line")]
        for line, value in zip(lines, self.TRICKY_VALUES):
            editor.set_attribute(line, "note", value)
        store = SqliteStore()
        store.save(doc, "tricky")
        expected = {
            value: sum(
                1 for e in doc.elements()
                if e.attributes.get("note") == value
            )
            for value in self.TRICKY_VALUES
        }
        return store, expected

    def test_escaped_and_non_ascii_values_are_counted(self):
        store, expected = self._scan_store()
        with store:
            for value, count in expected.items():
                assert store.count_attribute(
                    "tricky", "note", value
                ) == count, value
                assert _matching_rows(
                    store, "tricky", "line", "note", value) == count, value

    def test_non_ascii_attribute_name(self):
        doc = figure_one_document()
        from repro.editing import Editor

        editor = Editor(doc)
        line = next(iter(doc.elements(tag="line")))
        editor.set_attribute(line, "rôle", "héros")
        with SqliteStore() as store:
            store.save(doc, "accents")
            assert store.count_attribute(
                "accents", "rôle", "héros"
            ) == 1
            assert _matching_rows(
                store, "accents", "line", "rôle", "héros") == 1

    def test_externally_normalized_rows_still_match(self):
        # A legal writer may re-encode the attribute JSON with compact
        # separators and raw (ensure_ascii=False) non-ASCII characters;
        # the prefilter must still admit such rows.
        import json

        store, expected = self._scan_store()
        with store:
            cursor = store._conn.execute(
                "SELECT elem_id, attributes FROM elements"
                " WHERE attributes != '{}'"
            )
            rewrites = [
                (json.dumps(json.loads(encoded), separators=(",", ":"),
                            ensure_ascii=False), elem_id)
                for elem_id, encoded in cursor.fetchall()
            ]
            with store._conn:
                store._conn.executemany(
                    "UPDATE elements SET attributes = ? WHERE elem_id = ?",
                    rewrites,
                )
            for value, count in expected.items():
                assert _matching_rows(
                    store, "tricky", "line", "note", value) == count, value

    def test_prefilter_still_exact_on_near_misses(self):
        doc = figure_one_document()
        from repro.editing import Editor

        editor = Editor(doc)
        lines = list(doc.elements(tag="line"))
        # Same value under a longer key, and a superstring value under
        # the right key: instr() admits both, json.loads must reject.
        editor.set_attribute(lines[0], "note", "target")
        editor.set_attribute(lines[1], "footnote", "target")
        editor.set_attribute(lines[2], "note", "target practice")
        with SqliteStore() as store:
            store.save(doc, "near")
            assert store.count_attribute("near", "note", "target") == 1
            assert _matching_rows(
                store, "near", "line", "note", "target") == 1


class TestGoddagStoreFacade:
    def test_goddag_store_is_the_sqlite_store(self):
        import repro

        assert repro.GoddagStore is GoddagStore is SqliteStore

    def test_sqlite_facade(self, doc):
        with GoddagStore() as store:
            store.save(doc, "f")
            assert store.names() == ["f"]
            assert documents_isomorphic(doc, store.load("f"))

    def test_facade_span_query_agreement(self, doc):
        window = (10, 40)
        expected = {
            (e.hierarchy, e.tag, e.start, e.end)
            for e in doc.elements()
            if not e.is_empty and e.start < window[1] and e.end > window[0]
        }
        with GoddagStore() as store:
            store.save(doc, "f")
            assert set(store.elements_intersecting("f", *window)) == expected
