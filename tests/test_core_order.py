"""``GoddagDocument.ordered_elements`` against a recomputed order key.

``ordered_elements`` stamps every element's cached order key, by a
tree walk or, after tracked edits, by patching its list from the delta
journal.  The reference here never reads that cache: it rebuilds the
key of :func:`repro.core.navigation.order_key` from ``depth()`` and the
hierarchy rank and sorts ``elements()`` by it.  The random documents
always hold a zero-width element anchored at the start of its own
ancestor, the case where the raw ``elements()`` merge and the canonical
order disagree.

The patched-vs-fresh differential runs seeded :class:`Editor` sessions
(inserts, milestones, removals, attribute sets, undo/redo, rejected and
speculative prevalidation trials, an untracked ``touch``,
``add_hierarchy`` and a journal overflow) and checks the list and every
cached key after each step, also on a ``copy()`` edited and frozen.
Some steps re-key elements through ``order_key`` between edits, so the
patch meets keys stamped at an intermediate version.
``REPRO_DIFF_SEEDS`` multiplies the number of sessions.
"""

import os
import random

import pytest

from repro.core.goddag import JOURNAL_LIMIT, GoddagDocument
from repro.core.navigation import order_key
from repro.dtd import parse_dtd
from repro.editing import Editor
from repro.errors import MarkupConflictError, ReproError
from repro.obs.metrics import metrics
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
    # Every key is cached, stamped with the current version.
    assert all(e._okey_version == document.version for e in got)


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


# -- patched vs fresh: seeded Editor sessions ---------------------------------

SESSIONS = 8 * max(1, int(os.environ.get("REPRO_DIFF_SEEDS", "1")))
STEPS = 36

#: Hierarchy ``a`` of the random documents gets this DTD, so its
#: inserts are prevalidated: some are rolled back, and the tag menu
#: probes every tag inside a speculation region.
DTD_A = """
    <!ELEMENT r (#PCDATA | x | y | z | p | m | q)*>
    <!ELEMENT p (#PCDATA | x | y | z | m)*>
    <!ELEMENT x (#PCDATA | y | z | m)*>
    <!ELEMENT y (#PCDATA | z | m)*>
    <!ELEMENT z (#PCDATA | m)*>
    <!ELEMENT q (#PCDATA | x | y | z | m)*>
    <!ELEMENT m EMPTY>
"""

EDITS = ("insert", "milestone", "remove", "attr", "undo", "redo", "menu",
         "cancelled")
WEIGHTS = (5, 2, 3, 2, 2, 1, 1, 2)
#: Steps that force the full walk, once per session each.
FORCED = {9: "touch", 18: "overflow", 27: "hierarchy"}


def random_span(document, rng):
    bounds = sorted({0, document.length}
                    | {e.start for e in document.elements()}
                    | {e.end for e in document.elements()})
    a, b = rng.choice(bounds), rng.choice(bounds)
    return min(a, b), max(a, b)


def restamp_some(document, rng):
    """Re-key a few elements through ``order_key`` at this version,
    without bringing the ordered list up to date."""
    elements = list(document.elements())
    for element in rng.sample(elements, min(4, len(elements))):
        order_key(element)


def random_edit(editor, rng, kind=None):
    document = editor.document
    kind = kind or rng.choices(EDITS, WEIGHTS)[0]
    hierarchy = rng.choice(document.hierarchy_names())
    elements = list(document.elements())
    try:
        if kind == "insert":
            start, end = random_span(document, rng)
            inserted = editor.insert_markup(hierarchy, rng.choice(TAGS),
                                            start, end)
            for node in inserted.descendants():
                if rng.random() < 0.5:
                    order_key(node)  # the adopted subtree, re-keyed
        elif kind == "milestone":
            editor.insert_milestone(hierarchy, "m",
                                    rng.randrange(document.length + 1))
        elif kind == "remove" and elements:
            editor.remove_markup(rng.choice(elements))
        elif kind == "attr" and elements:
            editor.set_attribute(rng.choice(elements), "n",
                                 str(rng.randrange(9)))
        elif kind == "undo":
            editor.undo()
        elif kind == "redo":
            editor.redo()
        elif kind == "menu":
            editor.suggest_tags(hierarchy, *random_span(document, rng))
        elif kind == "cancelled" and elements:
            # An insert removed again inside a speculation region leaves
            # no record; order_key saw its adopted subtree one level
            # deeper in between.
            target = rng.choice(elements)
            with document.speculation():
                probe = document.insert_element(
                    target.hierarchy, "q", target.start, target.end)
                for node in probe.descendants():
                    order_key(node)
                document.remove_element(probe)
        elif kind == "touch":
            document.touch()
        elif kind == "hierarchy":
            document.add_hierarchy(f"h{len(document.hierarchy_names())}")
        elif kind == "overflow" and elements:
            element = rng.choice(elements)
            for i in range(JOURNAL_LIMIT + 8):
                document.set_attribute(element, "k", str(i))
    except ReproError:
        pass  # a rejected edit changes nothing the order depends on


def session_document(seed):
    rng = random.Random(5000 + seed)
    if seed % 2:
        document = generate(WorkloadSpec(words=120, hierarchies=3,
                                         overlap_density=0.3,
                                         seed=5000 + seed))
    else:
        document = random_document(rng, length=80, inserts=50)
        document.hierarchy("a").dtd = parse_dtd(DTD_A, name="a")
    return document


def check_copy_edited_and_frozen(document, rng):
    """A copy edited and frozen is ordered and keyed like a fresh sort,
    and its source keeps its list and its key tuples."""
    source = [(element, element._okey)
              for element in document.ordered_elements()]
    copy = document.copy()
    editor = Editor(copy)
    for _ in range(rng.randint(1, 4)):
        random_edit(editor, rng)
        if rng.random() < 0.5:
            restamp_some(copy, rng)
    copy.freeze()
    check_order(copy)
    assert [(element, element._okey)
            for element in document.ordered_elements()] == source
    assert all(element._okey is key for element, key in source)


@pytest.mark.parametrize("seed", range(SESSIONS))
def test_patched_order_matches_a_fresh_sort(seed):
    rng = random.Random(seed)
    document = session_document(seed)
    editor = Editor(document)
    check_order(document)
    for step in range(STEPS):
        for kind in [FORCED.get(step)] + [None] * rng.randint(0, 2):
            random_edit(editor, rng, kind)
            if rng.random() < 0.5:
                restamp_some(document, rng)
        check_order(document)
        if step % 4 == 3:
            check_copy_edited_and_frozen(document, rng)
    assert document.check_invariants() == []


def test_a_cancelled_pair_leaves_no_stale_key():
    """An element re-keyed by ``order_key`` inside a speculation pair the
    journal annihilated is keyed again by the next patch."""
    document = generate(WorkloadSpec(words=150, hierarchies=4, seed=5))
    check_order(document)
    line = next(document.elements(tag="line"))
    children = list(line.descendants())
    assert children
    before = [order_key(child) for child in children]
    with document.speculation():
        probe = document.insert_element(line.hierarchy, "q", line.start,
                                         line.end)
        deeper = [order_key(child) for child in children]
        document.remove_element(probe)
    assert deeper != before
    assert document.changes_since(document.version - 2) == []
    check_order(document)
    assert [order_key(child) for child in children] == before


def test_one_window_inserts_adopts_and_removes():
    """Records about one element meet in one patch: an element born in
    the window and then adopted was never in the cached list, and one
    adopted and then removed must leave it."""
    document = generate(WorkloadSpec(words=150, hierarchies=4, seed=7))
    check_order(document)
    line = next(document.elements(tag="line"))
    hierarchy = line.hierarchy
    inner = document.insert_element(hierarchy, "q", line.start, line.end)
    outer = document.insert_element(hierarchy, "p", line.start, line.end)
    assert inner in outer.descendants() or outer in inner.descendants()
    order_key(inner)
    check_order(document)
    word = next(document.elements(tag="w"))
    wrapper = document.insert_element(word.hierarchy, "q", word.start,
                                      word.end)
    order_key(word)
    document.remove_element(word)
    document.remove_element(wrapper)
    check_order(document)
    assert word not in document.ordered_elements()


def test_a_copy_keeps_sharing_the_keys_its_edits_did_not_move():
    document = generate(WorkloadSpec(words=150, hierarchies=4, seed=9))
    ordered = document.ordered_elements()
    copy = document.copy()
    line = next(copy.elements(tag="line"))
    inserted = copy.insert_element(line.hierarchy, "q", line.start, line.end)
    moved = {inserted, *inserted.descendants()}
    copy.freeze()
    check_order(copy)
    source_keys = {element.ordinal: element._okey for element in ordered}
    for element in copy.ordered_elements():
        if element not in moved:
            assert element._okey is source_keys[element.ordinal]
    assert all(element._okey != source_keys.get(element.ordinal)
               for element in moved)


@pytest.fixture
def observed():
    metrics.reset()
    metrics.enable()
    yield metrics
    metrics.disable()
    metrics.reset()


def test_patches_and_rebuilds_are_counted(observed):
    document = generate(WorkloadSpec(words=150, hierarchies=4, seed=3))
    document.ordered_elements()
    line = next(document.elements(tag="line"))
    document.insert_element(line.hierarchy, "q", line.start, line.end)
    document.ordered_elements()
    document.touch()
    document.ordered_elements()
    document.touch(object())  # a record of no known kind
    document.ordered_elements()
    counters = observed.snapshot()["counters"]
    assert counters["core.order.patched"] == 1
    assert counters["core.order.rebuilt"] == 3
    assert counters["core.order.rebuilt.first-build"] == 1
    assert counters["core.order.rebuilt.journal-gap"] == 1
    assert counters["core.order.rebuilt.unknown-record"] == 1
