"""Every violation ``GoddagDocument.check_invariants`` can report.

``GoddagBuilder.build`` runs the invariant suite on every document it
makes, so a decoder or builder bug that leaves a malformed tree is
caught there.  Each test below corrupts a freshly built document by hand
in exactly one way and checks that the matching message is reported —
the suite is only a guard if every one of its checks can fire.
"""

import pytest

from repro import GoddagBuilder


@pytest.fixture()
def doc():
    # a: x [0,6) > (y [0,3), z [3,6));  w [6,12)
    # b: v [2,8) — keeps boundaries 2 and 8 in the table.
    builder = GoddagBuilder("abcdefghijkl")
    builder.add_hierarchy("a")
    builder.add_hierarchy("b")
    builder.add_annotation("a", "x", 0, 6)
    builder.add_annotation("a", "y", 0, 3)
    builder.add_annotation("a", "z", 3, 6)
    builder.add_annotation("a", "w", 6, 12)
    builder.add_annotation("b", "v", 2, 8)
    document = builder.build()
    assert document.check_invariants() == []
    return document


def element(document, tag):
    return next(document.elements(tag=tag))


def test_children_not_sorted(doc):
    x = element(doc, "x")
    x._children.reverse()
    assert "a: children of x not sorted" in doc.check_invariants()


def test_top_level_not_sorted(doc):
    doc._h_top["a"].reverse()
    assert "a: children of root not sorted" in doc.check_invariants()


def test_foreign_element(doc):
    y = element(doc, "y")
    y.hierarchy = "b"
    assert f"a: foreign element {y!r} in tree" in doc.check_invariants()


def test_duplicate_ordinal(doc):
    y, z = element(doc, "y"), element(doc, "z")
    z.ordinal = y.ordinal
    assert f"duplicate ordinal {y.ordinal}" in doc.check_invariants()


def test_boundaries_missing(doc):
    z = element(doc, "z")
    doc.spans._boundaries.remove(3)
    assert (f"a: {z!r} boundaries missing from table"
            in doc.check_invariants())


def test_bad_parent_pointer(doc):
    y, w = element(doc, "y"), element(doc, "w")
    y._parent = w
    assert f"a: bad parent pointer on {y!r}" in doc.check_invariants()


def test_child_escapes_parent(doc):
    x, z = element(doc, "x"), element(doc, "z")
    z._end = 8
    problems = doc.check_invariants()
    assert f"a: {z!r} escapes parent {x!r}" in problems


def test_top_level_with_parent_pointer(doc):
    x, w = element(doc, "x"), element(doc, "w")
    w._parent = x
    assert (f"a: top-level {w!r} has a parent pointer"
            in doc.check_invariants())


def test_siblings_overlap(doc):
    x, w = element(doc, "x"), element(doc, "w")
    x._end = 8
    problems = doc.check_invariants()
    assert f"a: siblings {x!r} / {w!r} overlap" in problems


def test_zero_width_siblings_never_overlap(doc):
    doc.insert_element("a", "m", 3, 3)
    assert doc.check_invariants() == []
