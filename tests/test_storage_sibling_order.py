"""Stored sibling order follows from the rows' spans and ``elem_id``.

Sibling order is never stored: decoding orders every stored sibling
list by ``(start, zero-width-first, -end, elem_id)``, the same rule the
in-memory document keeps.  Older stores still carry a ``child_rank``
column; every write puts 0 there and no read consults it, so
overwriting it with anything changes nothing a reader sees.
"""

import hashlib
import json
import sqlite3
from pathlib import Path

import pytest

from repro.compare import canonical_form
from repro.core import GoddagBuilder
from repro.editing import Editor
from repro.errors import StorageError
from repro.storage import GoddagStore
from repro.storage.schema import ROOT_ID, element_row

FIXTURES = Path(__file__).parent / "fixtures"

#: The two legacy fixtures hold one document; this is the sha256 of
#: :func:`digest`'s input for it, taken with the decoder that ordered
#: siblings by the stored ``child_rank``.
LEGACY_DIGEST = \
    "312da655b94e0ca145e73f8954329d16a879ff8bd46f095beadbad65a266f3c0"


def structure(document) -> list[tuple]:
    """Every element in preorder, siblings in their list order, as
    ``(hierarchy, parent ordinal, ordinal, tag, start, end, attributes)``."""
    out = []
    for name in document.hierarchy_names():
        stack = [(element, ROOT_ID) for element in
                 reversed(document.top_level(name))]
        while stack:
            element, parent = stack.pop()
            out.append((name, parent, element.ordinal, element.tag,
                        element.start, element.end,
                        sorted(element.attributes.items())))
            stack.extend((child, element.ordinal)
                         for child in reversed(element.element_children))
    return out


def digest(document) -> str:
    payload = json.dumps([canonical_form(document), structure(document)],
                         sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def milestone_document():
    """Co-located milestones at top level and under one parent, equal
    spans nested, and (after edits) ties whose ordinals are not in
    preorder: a late wrapper and a late milestone beside early ones."""
    text = "abcdefghijklmnopqrstuvwxyz"
    builder = GoddagBuilder(text)
    builder.add_hierarchy("h")
    builder.add_hierarchy("g")
    builder.empty_element("h", "pb", 0)
    builder.empty_element("h", "cb", 0, {"n": "1"})
    builder.start_element("h", "line", 0)
    builder.empty_element("h", "anchor", 5)
    builder.empty_element("h", "anchor", 5, {"n": "2"})
    builder.start_element("h", "w", 5)
    builder.end_element("h", "w", 9)
    builder.empty_element("h", "note", 9)
    builder.end_element("h", "line", 13)
    builder.start_element("h", "line", 13)
    builder.end_element("h", "line", 26)
    builder.empty_element("h", "pb", 26)
    builder.empty_element("h", "cb", 26)
    builder.add_annotation("g", "phrase", 3, 17)
    builder.add_annotation("g", "clause", 3, 17)
    builder.add_annotation("g", "s", 17, 20)
    document = builder.build()
    editor = Editor(document, prevalidate=False)
    editor.insert_markup("h", "seg", 5, 13)
    editor.insert_milestone("h", "anchor", 9)
    editor.insert_milestone("h", "pb", 26)
    editor.insert_markup("g", "clause", 3, 17)
    return document


def test_the_stored_rank_column_is_never_read(tmp_path):
    document = milestone_document()
    top = document.top_level("h")
    assert [e.tag for e in top] == \
        ["pb", "cb", "line", "line", "pb", "cb", "pb"]
    (seg,) = top[2].element_children
    assert [(e.tag, e.start) for e in seg.element_children] == \
        [("anchor", 5), ("anchor", 5), ("w", 5), ("note", 9), ("anchor", 9)]
    ordinals = [e.ordinal for e in document.elements("h")]
    assert ordinals != sorted(ordinals)
    with GoddagStore(tmp_path / "s.sqlite") as store:
        store.save(document, "d")
        conn = store._conn
        assert {rank for (rank,) in conn.execute(
            "SELECT child_rank FROM elements")} == {0}
        # A rank that reverses every tie group, then one that scrambles.
        for scramble in ("1000 - elem_id", "(elem_id * 7919) % 13"):
            conn.execute(f"UPDATE elements SET child_rank = {scramble}")
            conn.commit()
            loaded = store.load("d")
            assert structure(loaded) == structure(document)
            assert canonical_form(loaded) == canonical_form(document)
            view = store.lazy("d")
            parents = [e for e in document.elements()
                       if e.element_children]
            assert parents
            for parent in parents:
                rows = view.subtree(parent.ordinal).children(parent.ordinal)
                assert [row.elem_id for row in rows] == \
                    [child.ordinal for child in parent.element_children]


@pytest.mark.parametrize(
    "fixture", ["sqlite_store_format1.sql", "sqlite_store_format2.sql"]
)
def test_legacy_stores_decode_as_before(fixture, tmp_path):
    where = tmp_path / "legacy.sqlite"
    conn = sqlite3.connect(where)
    conn.executescript((FIXTURES / fixture).read_text(encoding="utf-8"))
    conn.close()
    with GoddagStore(where) as store:
        document = store.load("legacy")
        # The decoded order is the one the stored ranks spelled out.
        stored = {}
        for hierarchy, parent, elem_id in store._conn.execute(
                "SELECT hierarchy, parent_id, elem_id FROM elements"
                " ORDER BY child_rank"):
            stored.setdefault((hierarchy, parent), []).append(elem_id)
    decoded = {}
    for hierarchy, parent, ordinal, *_ in structure(document):
        decoded.setdefault((hierarchy, parent), []).append(ordinal)
    assert decoded == stored
    assert digest(document) == LEGACY_DIGEST


def test_element_row_rejects_a_detached_element():
    document = milestone_document()
    (seg,) = document.top_level("h")[2].element_children
    anchor = seg.element_children[0]
    document.remove_element(anchor)
    with pytest.raises(StorageError, match="not attached"):
        element_row(anchor)
