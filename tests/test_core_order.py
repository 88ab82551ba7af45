"""``GoddagDocument.ordered_elements`` against a recomputed order key.

``ordered_elements`` stamps every element's cached order key while it
walks the trees.  The reference here never reads that cache: it
rebuilds the key of :func:`repro.core.navigation.order_key` from
``depth()`` and the hierarchy rank and sorts ``elements()`` by it.  The
random documents always hold a zero-width element anchored at the start
of its own ancestor, the case where the raw ``elements()`` merge and
the canonical order disagree.
"""

import random

import pytest

from repro.core.goddag import GoddagDocument
from repro.core.navigation import order_key
from repro.errors import MarkupConflictError
from repro.workloads import WorkloadSpec, generate

HIERARCHIES = ("a", "b", "c")
TAGS = ("x", "y", "z")


def reference_key(element):
    document = element.document
    return (
        1,
        element.start,
        0 if element.is_empty else 1,
        -element.end,
        0,
        document.hierarchy(element.hierarchy).rank,
        element.depth(),
        element.ordinal,
    )


def check_order(document):
    expected = sorted(document.elements(), key=reference_key)
    got = document.ordered_elements()
    assert got == expected
    assert [order_key(e) for e in got] == [reference_key(e) for e in got]


def anchored_at_ancestor_start(document):
    return [e for e in document.elements()
            if e.is_empty and not e.parent.is_root
            and e.parent.start == e.start]


def try_insert(document, rng):
    hierarchy = rng.choice(document.hierarchy_names())
    bounds = sorted({0, document.length}
                    | {e.start for e in document.elements()}
                    | {e.end for e in document.elements()})
    a, b = rng.choice(bounds), rng.choice(bounds)
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
    # The tricky case first: a zero-width element nested inside the
    # solid element it is anchored at the start of.
    document.insert_element("a", "p", 10, 20)
    document.insert_element("a", "m", 10, 10)
    for _ in range(inserts):
        try_insert(document, rng)
    return document


@pytest.mark.parametrize("seed", range(10))
def test_ordered_elements_matches_recomputed_keys(seed):
    rng = random.Random(seed)
    document = random_document(rng)
    assert anchored_at_ancestor_start(document)
    check_order(document)


@pytest.mark.parametrize("seed", range(10))
def test_ordered_elements_matches_under_edits(seed):
    rng = random.Random(1000 + seed)
    document = random_document(rng)
    check_order(document)
    for _ in range(30):
        elements = list(document.elements())
        if elements and rng.random() < 0.4:
            document.remove_element(rng.choice(elements))
        else:
            try_insert(document, rng)
        if rng.random() < 0.6:
            check_order(document)
    check_order(document)


@pytest.mark.parametrize("seed", (5, 17))
def test_ordered_elements_on_generated_documents(seed):
    document = generate(WorkloadSpec(words=150, hierarchies=4, seed=seed))
    check_order(document)
    offset = next(document.elements(tag="line")).start
    document.insert_element("physical", "m", offset, offset)
    assert anchored_at_ancestor_start(document)
    check_order(document)
