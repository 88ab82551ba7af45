"""Containment queries of the GODDAG against a brute-force reference.

``GoddagDocument.contained_elements`` (behind ``Element.contained()``
and the ``contained`` axis) answers from a lazy per-hierarchy cache that
every structural edit drops.  These tests hold it to an exact reference:
for each hierarchy, the solid elements whose span lies inside the
context span, stable-sorted by ``(start, -end)`` over document order —
on random documents with zero-width and equal-span elements, with the
root as context, under the ``hierarchy=`` filter, and with inserts and
removes interleaved between queries.

The span-query methods also reject an unknown ``hierarchy=`` with the
typed :class:`~repro.errors.HierarchyError`, on ordinary, zero-width
and root contexts alike.
"""

import random

import pytest

from repro.core.goddag import GoddagDocument
from repro.errors import HierarchyError, MarkupConflictError
from repro.workloads import WorkloadSpec, generate

HIERARCHIES = ("a", "b", "c")
TAGS = ("x", "y", "z")


def expected_contained(document, element, hierarchy=None):
    if element.is_empty:
        return []
    names = (hierarchy,) if hierarchy else document.hierarchy_names()
    out = []
    for name in names:
        if not element.is_root and name == element.hierarchy:
            continue
        inside = [
            e for e in document.elements(hierarchy=name)
            if not e.is_empty
            and (element.is_root
                 or (element.start <= e.start and e.end <= element.end))
        ]
        out.extend(sorted(inside, key=lambda e: (e.start, -e.end)))
    return out


def try_insert(document, rng):
    """One random insertion; zero-width about one time in five, and
    spans drawn from existing boundaries so equal spans are common."""
    hierarchy = rng.choice(document.hierarchy_names())
    bounds = sorted({0, document.length}
                    | {e.start for e in document.elements()}
                    | {e.end for e in document.elements()})
    if rng.random() < 0.5:
        a, b = rng.choice(bounds), rng.choice(bounds)
    else:
        a = rng.randrange(document.length + 1)
        b = rng.randrange(document.length + 1)
    start, end = min(a, b), max(a, b)
    if rng.random() < 0.2:
        end = start
    try:
        document.insert_element(hierarchy, rng.choice(TAGS), start, end)
    except MarkupConflictError:
        pass


def random_document(rng, length=40, inserts=30):
    text = "".join(rng.choice("ab ") for _ in range(length))
    document = GoddagDocument(text)
    for name in HIERARCHIES:
        document.add_hierarchy(name)
    for _ in range(inserts):
        try_insert(document, rng)
    for name in HIERARCHIES:
        offset = rng.randrange(length + 1)
        document.insert_element(name, "m", offset, offset)
    return document


def check_all(document, rng):
    """Every context (root included), unfiltered and per hierarchy."""
    contexts = [document.root] + list(document.elements())
    filters = (None,) + document.hierarchy_names()
    for element in contexts:
        hierarchy = rng.choice(filters)
        got = document.contained_elements(element, hierarchy)
        assert got == expected_contained(document, element, hierarchy), \
            (element, hierarchy)
        assert element.contained(hierarchy) == got


@pytest.mark.parametrize("seed", range(12))
def test_contained_matches_brute_force_under_edits(seed):
    rng = random.Random(seed)
    document = random_document(rng)
    assert any(e.is_empty for e in document.elements())
    check_all(document, rng)
    for _ in range(25):
        elements = list(document.elements())
        if elements and rng.random() < 0.4:
            document.remove_element(rng.choice(elements))
        else:
            try_insert(document, rng)
        # Query between edits, sometimes twice (the second answer comes
        # from the rebuilt cache), sometimes not at all (an edit must
        # drop the cache even when nobody looked at it).
        if rng.random() < 0.7:
            check_all(document, rng)
            if rng.random() < 0.3:
                check_all(document, rng)
    check_all(document, rng)


@pytest.mark.parametrize("seed", (3, 11))
def test_contained_matches_brute_force_on_generated_documents(seed):
    rng = random.Random(seed)
    document = generate(WorkloadSpec(words=150, hierarchies=4, seed=seed))
    assert any(e.is_empty for e in document.elements())
    check_all(document, rng)
    for _ in range(6):
        try_insert(document, rng)
        document.remove_element(rng.choice(list(document.elements())))
        check_all(document, rng)


def test_equal_spans_keep_nesting_order():
    document = GoddagDocument("abcdefgh")
    document.add_hierarchy("a")
    document.add_hierarchy("b")
    outer = document.insert_element("a", "x", 2, 6)
    inner = document.insert_element("a", "y", 2, 6)  # nests inside outer
    anchor = document.insert_element("a", "m", 4, 4)
    context = document.insert_element("b", "s", 0, 8)
    assert inner.parent is outer
    assert context.contained() == [outer, inner]
    assert anchor not in document.root.contained("a")
    assert document.root.contained("a") == [outer, inner]


# -- unknown hierarchy: typed error, whatever the context ---------------------

QUERIES = ("contained", "containing", "overlapping", "coextensive")


@pytest.fixture
def small():
    document = GoddagDocument("sing a song of sixpence")
    document.add_hierarchy("physical")
    document.add_hierarchy("linguistic")
    document.insert_element("physical", "line", 0, 11)
    document.insert_element("physical", "pb", 12, 12)
    document.insert_element("linguistic", "phrase", 5, 23)
    return document


@pytest.mark.parametrize("query", QUERIES)
@pytest.mark.parametrize("context", ("element", "milestone", "root"))
def test_unknown_hierarchy_raises_hierarchy_error(small, query, context):
    node = {
        "element": next(small.elements(tag="line")),
        "milestone": next(small.elements(tag="pb")),
        "root": small.root,
    }[context]
    with pytest.raises(HierarchyError):
        getattr(node, query)(hierarchy="nope")
    with pytest.raises(HierarchyError):
        getattr(small, f"{query}_elements")(node, "nope")
    getattr(node, query)(hierarchy="linguistic")  # known names still answer


# -- the other span queries: same filter handling, brute-force sets -----------

def expected_related(document, element, query, hierarchy):
    if element.is_root:
        return []
    names = (hierarchy,) if hierarchy else document.hierarchy_names()
    start, end = element.start, element.end
    out = []
    for name in names:
        if name == element.hierarchy:
            continue
        for e in document.elements(hierarchy=name):
            if e.is_empty:
                continue
            if query == "containing":
                hit = e.start <= start and end <= e.end
            elif query == "coextensive":
                hit = start < end and (e.start, e.end) == (start, end)
            else:  # proper overlap, from a solid context only
                hit = start < end and (
                    e.start < start < e.end < end
                    or start < e.start < end < e.end
                )
            if hit:
                out.append(e)
    return out


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("query", ("containing", "overlapping", "coextensive"))
def test_other_span_queries_match_brute_force(seed, query):
    rng = random.Random(100 + seed)
    document = random_document(rng)
    for _ in range(10):
        try_insert(document, rng)
    filters = (None,) + document.hierarchy_names()
    for element in [document.root] + list(document.elements()):
        for hierarchy in filters:
            got = getattr(element, query)(hierarchy)
            expected = expected_related(document, element, query, hierarchy)
            assert sorted(got, key=lambda e: e.ordinal) == \
                sorted(expected, key=lambda e: e.ordinal), \
                (element, query, hierarchy)
