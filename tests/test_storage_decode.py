"""Corrupt stored rows raise :class:`~repro.errors.StorageError`.

Decoding places every stored element row exactly once, under its stored
parent, or names the row it cannot place: a parent that does not exist,
a parent chain that never reaches the root (two rows naming each other,
a row naming itself), a parent in another hierarchy, a zero-width
parent, an element id stored twice.  Attribute columns that do not hold
a JSON object raise the same typed error, naming the element, on every
path that decodes them: full loads, the document's root attributes, the
lazy row-level view and a wide corpus fan-out answered from rows.
"""

import pytest

from repro.collection import Corpus
from repro.compare import documents_isomorphic
from repro.core import GoddagBuilder
from repro.errors import (
    HierarchyError,
    MarkupConflictError,
    SpanError,
    StorageError,
)
from repro.storage import (
    ElementRow,
    GoddagStore,
    SqliteStore,
    decode_document,
    encode_document,
)
from repro.storage.sqlite_backend import SnapshotCache
from repro.streaming import LazyDocument
from repro.workloads import WorkloadSpec, figure_one_document, generate

FIELDS = ("elem_id", "hierarchy", "tag", "start", "end", "parent_id",
          "attributes")


def changed(row, **changes):
    values = {field: getattr(row, field) for field in FIELDS}
    values.update(changes)
    return ElementRow(**values)


def tampered(document, edit):
    """The document's rows after ``edit`` changed them in a dict keyed by
    ``elem_id``."""
    doc_row, hierarchy_rows, rows = encode_document(document, "d")
    by_id = {row.elem_id: row for row in rows}
    edit(by_id)
    return doc_row, hierarchy_rows, list(by_id.values())


def first(document, tag):
    return next(document.elements(tag=tag))


@pytest.fixture()
def doc():
    return figure_one_document()


# -- placement ---------------------------------------------------------------------


def test_rows_naming_each_other_as_parent(doc):
    a, b = (w.ordinal for w in list(doc.elements(tag="w"))[:2])

    def edit(rows):
        rows[a] = changed(rows[a], parent_id=b)
        rows[b] = changed(rows[b], parent_id=a)

    with pytest.raises(StorageError, match=f"element {a}\\b"):
        decode_document(*tampered(doc, edit))


def test_row_naming_itself_as_parent(doc):
    line = first(doc, "line").ordinal

    def edit(rows):
        rows[line] = changed(rows[line], parent_id=line)

    with pytest.raises(StorageError, match=f"element {line}\\b"):
        decode_document(*tampered(doc, edit))


def test_longer_parent_cycle(doc):
    a, b, c = (w.ordinal for w in list(doc.elements(tag="w"))[:3])

    def edit(rows):
        rows[a] = changed(rows[a], parent_id=b)
        rows[b] = changed(rows[b], parent_id=c)
        rows[c] = changed(rows[c], parent_id=a)

    with pytest.raises(StorageError, match="root"):
        decode_document(*tampered(doc, edit))


def test_child_in_another_hierarchy_than_its_parent(doc):
    w, line = first(doc, "w").ordinal, first(doc, "line").ordinal

    def edit(rows):
        rows[w] = changed(rows[w], parent_id=line)

    with pytest.raises(StorageError, match=f"element {w}\\b.*hierarchy"):
        decode_document(*tampered(doc, edit))


def test_top_level_row_moved_under_another_hierarchy(doc):
    w, line = first(doc, "w").ordinal, first(doc, "line").ordinal

    def edit(rows):
        rows[line] = changed(rows[line], parent_id=w)

    with pytest.raises(StorageError, match=f"element {line}\\b.*hierarchy"):
        decode_document(*tampered(doc, edit))


def test_missing_parent(doc):
    w = first(doc, "w").ordinal

    def edit(rows):
        rows[w] = changed(rows[w], parent_id=9999)

    with pytest.raises(StorageError, match="missing parent 9999"):
        decode_document(*tampered(doc, edit))


def test_zero_width_parent(doc):
    doc.insert_element("linguistic", "gap", 0, 0)
    gap = first(doc, "gap").ordinal
    w = list(doc.elements(tag="w"))[-1].ordinal

    def edit(rows):
        rows[w] = changed(rows[w], parent_id=gap)

    with pytest.raises(StorageError, match=f"zero-width element {gap}"):
        decode_document(*tampered(doc, edit))


def test_element_id_stored_twice(doc):
    doc_row, hierarchy_rows, rows = encode_document(doc, "d")
    rows.append(changed(rows[-1]))
    with pytest.raises(StorageError, match=f"element {rows[-1].elem_id}\\b"):
        decode_document(doc_row, hierarchy_rows, rows)


@pytest.mark.parametrize("changes, error", [
    ({"hierarchy": "nope"}, HierarchyError),
    ({"elem_id": -1}, MarkupConflictError),
    ({"start": 30, "end": 20}, SpanError),
    ({"end": 10_000}, SpanError),
])
def test_row_rejected_with_typed_error(doc, changes, error):
    parents = {e.parent_id for e in encode_document(doc, "d")[2]}
    leaf = next(w.ordinal for w in doc.elements(tag="w")
                if w.ordinal not in parents)

    def edit(rows):
        rows[leaf] = changed(rows[leaf], **changes)

    with pytest.raises(error):
        decode_document(*tampered(doc, edit))


def test_stored_rows_and_annotations_in_one_hierarchy():
    builder = GoddagBuilder("abc")
    builder.add_hierarchy("h")
    builder.add_rows([ElementRow(5, "h", "x", 0, 1, 0, {})])
    builder.add_annotation("h", "y", 1, 2)
    with pytest.raises(MarkupConflictError, match="'h'"):
        builder.build()


def test_new_elements_number_above_stored_rows():
    builder = GoddagBuilder("abc")
    builder.add_hierarchy("h")
    builder.add_hierarchy("g")
    builder.add_rows([ElementRow(5, "h", "x", 0, 1, 0, {}),
                      ElementRow(7, "h", "y", 0, 1, 5, {})])
    builder.add_annotation("g", "z", 1, 3)
    document = builder.build()
    assert [e.ordinal for e in document.elements("h")] == [5, 7]
    assert [e.ordinal for e in document.elements("g")] == [8]


def test_cycle_in_store_raises_instead_of_dropping_rows(tmp_path):
    document = generate(WorkloadSpec(words=40, hierarchies=3, seed=4))
    leaves = [e for e in document.elements(tag="w") if not e.element_children]
    a, b = leaves[0].ordinal, leaves[1].ordinal
    with SqliteStore(str(tmp_path / "s.db")) as store:
        store.save(document, "d")
        assert documents_isomorphic(document, store.load("d"))
        with store._conn:
            store._conn.execute(
                "UPDATE elements SET parent_id = ? WHERE elem_id = ?", (b, a))
            store._conn.execute(
                "UPDATE elements SET parent_id = ? WHERE elem_id = ?", (a, b))
        with pytest.raises(StorageError, match=f"element {min(a, b)}\\b"):
            store.load("d")


# -- attribute columns ----------------------------------------------------------------


@pytest.mark.parametrize("encoded", ["{bad", "[1]", '"text"', "null", "7"])
def test_malformed_element_attributes(doc, encoded):
    line = first(doc, "line").ordinal

    def edit(rows):
        rows[line] = changed(rows[line], attributes=encoded)

    with pytest.raises(StorageError, match=f"element {line}\\b"):
        decode_document(*tampered(doc, edit))


@pytest.mark.parametrize("encoded", ["{bad", "[1]"])
def test_malformed_root_attributes(doc, encoded):
    doc_row, hierarchy_rows, rows = encode_document(doc, "d")
    doc_row = type(doc_row)(doc_row.name, doc_row.root_tag, doc_row.text,
                            encoded)
    with pytest.raises(StorageError, match="element 0\\b"):
        decode_document(doc_row, hierarchy_rows, rows)


def test_decode_attributes_accepts_objects():
    from repro.storage.schema import decode_attributes

    assert decode_attributes("{}", 3) == {}
    assert decode_attributes('{"n": "1", "resp": "ed"}', 3) == {
        "n": "1", "resp": "ed"}


@pytest.fixture()
def indexed_store(doc):
    store = GoddagStore(":memory:")
    store.save(doc, "d")
    store.build_index("d")
    yield store
    store.close()


def test_malformed_attributes_in_store_load(indexed_store, doc):
    line = first(doc, "line").ordinal
    conn = indexed_store._conn
    conn.execute("UPDATE elements SET attributes = '[1]' WHERE elem_id = ?",
                 (line,))
    with pytest.raises(StorageError, match=f"element {line}\\b"):
        indexed_store.load("d")


def test_lazy_root_attributes(indexed_store):
    conn = indexed_store._conn
    conn.execute("UPDATE documents SET root_attributes = '{bad'")
    with pytest.raises(StorageError, match="element 0\\b"):
        LazyDocument(indexed_store, "d")


def test_lazy_predicate_attributes(indexed_store, doc):
    line = next(e for e in doc.elements(tag="line")
                if e.attributes["n"] == "2").ordinal
    conn = indexed_store._conn
    conn.execute("UPDATE elements SET attributes = '{\"n\": \"2\"'"
                 " WHERE elem_id = ?", (line,))
    lazy = LazyDocument(indexed_store, "d")
    with pytest.raises(StorageError, match=f"element {line}\\b"):
        lazy.xpath("//line[@n='2']")


def test_lazy_row_attributes(indexed_store, doc):
    line = first(doc, "line").ordinal
    conn = indexed_store._conn
    conn.execute("UPDATE elements SET attributes = '[1]' WHERE elem_id = ?",
                 (line,))
    lazy = LazyDocument(indexed_store, "d")
    with pytest.raises(StorageError, match=f"element {line}\\b"):
        lazy.xpath("//line")


@pytest.mark.parametrize("encoded", ['{"n": "2"', '["n", "2"]'])
def test_attribute_scan_attributes(doc, encoded, tmp_path, monkeypatch):
    # Both values hold the key and value tokens, so they pass the row
    # scan's SQL prefilter and reach the decoder.  A cache of no entries
    # makes the fan-out wide, so it answers the member from its rows.
    monkeypatch.setattr(SnapshotCache, "LIMIT", 0)
    line = next(e for e in doc.elements(tag="line")
                if e.attributes["n"] == "2").ordinal
    with Corpus(tmp_path / "c.db", pool_size=1) as corpus:
        corpus.add(doc, "d")
        with corpus._pool.connection() as backend, backend._conn as conn:
            conn.execute("UPDATE elements SET attributes = ?"
                         " WHERE elem_id = ?", (encoded, line))
        with pytest.raises(StorageError, match=f"element {line}\\b"):
            corpus.query("collection()//line[@n='2']")
