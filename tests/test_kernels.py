"""Differential and edge-case tests for the flat-column batch kernels.

The span/ordinal filter kernels must agree with the naive per-element
string and dict probes, the manager's span predicates with plain
string operations on the document text, and the overlap kernel and
partner enumeration with a brute force over :mod:`repro.core.relations`.
"""

import random

import pytest

from repro.core import relations
from repro.core.goddag import GoddagDocument
from repro.errors import MarkupConflictError
from repro.index.kernels import (
    CandidateVector,
    OverlapBounds,
    rows_in_ordinal_set,
    rows_overlapping,
    rows_span_contains,
    rows_span_starts_with,
)
from repro.index.manager import IndexManager
from repro.index.term import TermIndex
from repro.workloads import WorkloadSpec, generate


# -- span filter kernels vs the naive per-row probes ---------------------------

def naive_contains(starts, ends, occurrences, length, rows):
    return [
        r for r in rows
        if any(starts[r] <= o and o + length <= ends[r] for o in occurrences)
    ]


def naive_starts_with(starts, ends, occurrences, length, rows):
    return [
        r for r in rows
        if any(o == starts[r] and o + length <= ends[r] for o in occurrences)
    ]


def test_span_filter_kernels_match_naive():
    rng = random.Random(7)
    for _ in range(200):
        count = rng.randrange(0, 30)
        spans = sorted(
            (min(a, b), max(a, b))
            for a, b in (
                (rng.randrange(100), rng.randrange(100)) for _ in range(count)
            )
        )
        spans.sort(key=lambda p: (p[0], -p[1]))
        starts = [s for s, _ in spans]
        ends = [e for _, e in spans]
        occurrences = sorted(rng.sample(range(100), rng.randrange(0, 12)))
        length = rng.randrange(1, 5)
        full = range(len(spans))
        subset = [r for r in full if rng.random() < 0.6]
        for rows in (full, subset):
            assert rows_span_contains(
                starts, ends, occurrences, length, rows
            ) == naive_contains(starts, ends, occurrences, length, rows)
            assert rows_span_starts_with(
                starts, ends, occurrences, length, rows
            ) == naive_starts_with(starts, ends, occurrences, length, rows)


def test_span_filter_kernels_empty_occurrences():
    assert rows_span_contains([0, 5], [4, 9], [], 3, range(2)) == []
    assert rows_span_starts_with([0, 5], [4, 9], [], 3, range(2)) == []


def test_ordinal_set_kernel():
    ordinals = [10, 11, 12, 13, 14]
    assert rows_in_ordinal_set(ordinals, frozenset({11, 14}), range(5)) == \
        [1, 4]
    assert rows_in_ordinal_set(ordinals, frozenset(), range(5)) == []
    assert rows_in_ordinal_set(ordinals, {12}, [0, 2, 4]) == [2]


# -- candidate vectors ---------------------------------------------------------

def test_candidate_vector_materialize():
    document = generate(WorkloadSpec(words=120, seed=3))
    words = [e for e in document.ordered_elements() if e.tag == "w"]
    vector = CandidateVector(words)
    assert len(vector) == len(words)
    assert vector.ordinals.tolist() == [e.ordinal for e in words]
    everything = vector.materialize(vector.all_rows())
    assert everything == words
    assert everything is not vector.elements  # callers may mutate freely
    subset = vector.materialize([0, 2, 5])
    assert subset == [words[0], words[2], words[5]]
    assert vector.materialize([]) == []


# -- term-span semantics (satellite: boundary/empty needles) -------------------

def test_manager_span_queries_match_naive_strings():
    document = generate(WorkloadSpec(words=200, seed=11))
    manager = IndexManager(document).attach()
    text = document.text
    rng = random.Random(23)
    needles = ["", " ", "a b", ". ", "q", "zz", "-", "gar", "garden "]
    # Harvest needles straight out of the text so token-boundary
    # spanning substrings (word + separator + word prefix) are covered.
    for _ in range(40):
        start = rng.randrange(len(text))
        needles.append(text[start:start + rng.randrange(1, 9)])
    windows = [
        (min(a, b), max(a, b))
        for a, b in (
            (rng.randrange(len(text) + 1), rng.randrange(len(text) + 1))
            for _ in range(60)
        )
    ]
    for needle in needles:
        for start, end in windows:
            window = text[start:end]
            assert manager.contains_span(start, end, needle) == \
                (needle in window), (needle, start, end)
            assert manager.starts_with_span(start, end, needle) == \
                window.startswith(needle), (needle, start, end)


def test_term_index_stays_strict_for_non_indexable_needles():
    index = TermIndex.from_text("alpha beta gamma")
    for needle in ("", " ", "a b", "be ta", "a-b"):
        assert not TermIndex.is_indexable(needle)
        with pytest.raises(ValueError):
            index.span_contains(0, 16, needle)
        with pytest.raises(ValueError):
            index.span_starts_with(0, 16, needle)


def test_non_indexable_predicates_answer_correctly_end_to_end():
    from repro.xpath import ExtendedXPath

    document = generate(WorkloadSpec(words=300, seed=29))
    IndexManager(document).attach()
    for expression in (
        "//line[contains(., 'a b')]",     # spans a token boundary
        "//line[contains(., '')]",        # empty: everything matches
        "//line[starts-with(., '')]",
        "//w[contains(., ' ')]",
    ):
        query = ExtendedXPath(expression)
        indexed = query.nodes(document)
        unindexed = query.nodes(document, index=False)
        assert indexed == unindexed, expression


# -- overlap kernel vs a brute force over core.relations -----------------------

#: axis -> relation(partner, context) the axis realizes.
OVERLAP_RELATIONS = {
    "overlapping": relations.overlaps,
    "overlapping-left": relations.left_overlaps,
    "overlapping-right": relations.right_overlaps,
}
HIERARCHIES = ("a", "b", "c")
TAGS = ("x", "y", "z")
#: (name, hierarchy) partner tests: plain tags (same-tag nesting across
#: and within hierarchies), milestones only, hierarchy-qualified tags
#: and wildcards, and tests with no member at all (empty bounds).
PARTNER_TESTS = (
    ("x", None), ("y", None), ("m", None), ("x", "b"), ("*", "a"),
    ("*", "c"), ("nosuch", None), ("x", "nosuch"),
)


def random_overlap_document(rng, length=48, inserts=40):
    """Random nesting per hierarchy; spans drawn from existing
    boundaries half the time (coextensive spans and shared boundaries),
    zero-width about one insert in five, plus one ``m`` milestone per
    hierarchy."""
    text = "".join(rng.choice("ab ") for _ in range(length))
    document = GoddagDocument(text)
    for name in HIERARCHIES:
        document.add_hierarchy(name)
    for _ in range(inserts):
        bounds = sorted({0, length}
                        | {e.start for e in document.elements()}
                        | {e.end for e in document.elements()})
        if rng.random() < 0.5:
            a, b = rng.choice(bounds), rng.choice(bounds)
        else:
            a, b = rng.randrange(length + 1), rng.randrange(length + 1)
        start, end = min(a, b), max(a, b)
        if rng.random() < 0.2:
            end = start
        try:
            document.insert_element(rng.choice(HIERARCHIES),
                                    rng.choice(TAGS), start, end)
        except MarkupConflictError:
            pass
    for name in HIERARCHIES:
        offset = rng.randrange(length + 1)
        document.insert_element(name, "m", offset, offset)
    return document


def brute_overlap_rows(contexts, members, axis, rows):
    related = OVERLAP_RELATIONS[axis]
    return [
        row for row in rows
        if any(related(member, contexts[row]) for member in members)
    ]


def test_overlap_kernel_matches_brute_force():
    rng = random.Random(31)
    for _ in range(40):
        document = random_overlap_document(rng)
        manager = IndexManager(document)
        # The root and zero-width elements are contexts too: neither
        # ever has a partner.
        contexts = [document.root, *document.ordered_elements()]
        vector = CandidateVector(contexts)
        subset = [row for row in vector.all_rows() if rng.random() < 0.5]
        for name, hierarchy in PARTNER_TESTS:
            bounds = manager.overlap_bounds(name, hierarchy)
            members = manager.name_candidates(name, hierarchy)
            for axis in OVERLAP_RELATIONS:
                for rows in (vector.all_rows(), subset, []):
                    got = rows_overlapping(
                        vector.starts, vector.ends, vector.hierarchies,
                        bounds, axis, rows,
                    )
                    assert got == brute_overlap_rows(
                        contexts, members, axis, rows
                    ), (name, hierarchy, axis)


def test_overlap_partners_match_brute_force_in_document_order():
    rng = random.Random(37)
    related = OVERLAP_RELATIONS
    for _ in range(25):
        document = random_overlap_document(rng)
        manager = IndexManager(document)
        for name, hierarchy in PARTNER_TESTS:
            bounds = manager.overlap_bounds(name, hierarchy)
            members = manager.name_candidates(name, hierarchy)
            for context in document.ordered_elements():
                for axis in related:
                    assert bounds.partners(
                        context.start, context.end, context.hierarchy, axis
                    ) == [m for m in members if related[axis](m, context)], \
                        (name, hierarchy, axis, context)


def test_overlap_kernel_on_empty_inputs():
    empty = OverlapBounds([])
    assert empty.groups == ()
    assert rows_overlapping([0, 2], [5, 9], ["a", "b"], empty,
                            "overlapping", range(2)) == []
    assert empty.partners(0, 5, "a", "overlapping") == []
    document = random_overlap_document(random.Random(5))
    bounds = IndexManager(document).overlap_bounds("x")
    for axis in OVERLAP_RELATIONS:
        assert rows_overlapping([], [], [], bounds, axis, range(0)) == []
        assert rows_overlapping([0], [48], ["a"], bounds, axis, []) == []


def test_overlap_bounds_drop_with_the_snapshot():
    """Bounds are a version snapshot: an edit drops them, and a carried
    manager starts without them."""
    document = random_overlap_document(random.Random(9))
    manager = IndexManager(document)
    before = manager.overlap_bounds("x")
    assert manager.overlap_bounds("x") is before
    assert manager.overlap_bounds("*") is None
    carried = manager.carried_to(document.copy())
    assert carried.overlap_bounds("x") is not before
    document.insert_element("a", "x", 0, document.length)
    after = manager.overlap_bounds("x")
    assert after is not before
    assert len(after.elements) == len(before.elements) + 1
