"""Differential and edge-case tests for the flat-column batch kernels.

The span/ordinal filter kernels must agree with the naive per-element
string and dict probes, the manager's span predicates with plain
string operations on the document text, and the overlap kernel and
partner enumeration with a brute force over :mod:`repro.core.relations`.
"""

import random
from types import SimpleNamespace

import pytest

from repro.core import relations
from repro.core.goddag import GoddagDocument
from repro.errors import MarkupConflictError
from repro.index import kernels
from repro.index.kernels import (
    CandidateVector,
    OverlapBounds,
    probe_span_contains,
    probe_span_starts_with,
    rows_in_ordinal_set,
    rows_overlapping,
    rows_span_contains,
    rows_span_starts_with,
    span_contains_rows,
    span_starts_with_rows,
)
from repro.index.manager import IndexManager
from repro.index.term import TermIndex, find_all
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


# -- the probe and the walk on the same inputs ---------------------------------

def span_vector(spans, hierarchies=None):
    """A candidate vector over stand-in elements with the given spans
    (in the given order), one hierarchy unless ``hierarchies`` says."""
    hierarchies = hierarchies or ["h"] * len(spans)
    return CandidateVector([
        SimpleNamespace(start=start, end=end, ordinal=ordinal,
                        hierarchy=hierarchy)
        for ordinal, ((start, end), hierarchy)
        in enumerate(zip(spans, hierarchies))
    ])


@pytest.fixture
def kernel_calls(monkeypatch):
    """Records which term kernel each filter ran: 'probe' or 'walk'."""
    calls: list[str] = []
    for name, label in (("probe_span_contains", "probe"),
                        ("probe_span_starts_with", "probe"),
                        ("rows_span_contains", "walk"),
                        ("rows_span_starts_with", "walk")):
        kernel = getattr(kernels, name)

        def spy(*args, kernel=kernel, label=label):
            calls.append(label)
            return kernel(*args)

        monkeypatch.setattr(kernels, name, spy)
    return calls


def random_tiling(rng, length):
    """Non-nested spans in document order: consecutive segments of
    ``[0, length)`` with gaps, zero-width rows and equal spans, so both
    columns are non-decreasing."""
    cuts = sorted(rng.randrange(length + 1) for _ in range(rng.randrange(1, 40)))
    spans = []
    for start, end in zip(cuts, cuts[1:]):
        if rng.random() < 0.2:
            continue  # a gap
        spans.append((start, end))
        if rng.random() < 0.1:
            spans.append((start, end))  # an equal span
    return spans


def test_probe_and_walk_agree_on_non_nested_vectors():
    rng = random.Random(41)
    for _ in range(300):
        length = rng.randrange(1, 60)
        text = "".join(rng.choice("aab") for _ in range(length))
        spans = random_tiling(rng, length)
        starts = [s for s, _ in spans]
        ends = [e for _, e in spans]
        full = range(len(spans))
        for needle in ("a", "aa", "ab", "aab", "b", "bb"):
            occurrences = find_all(text, needle)
            size = len(needle)
            contains = naive_contains(starts, ends, occurrences, size, full)
            starting = naive_starts_with(starts, ends, occurrences, size, full)
            assert probe_span_contains(starts, ends, occurrences, size) \
                == rows_span_contains(starts, ends, occurrences, size,
                                      full) == contains, (text, spans, needle)
            assert probe_span_starts_with(starts, ends, occurrences, size) \
                == rows_span_starts_with(starts, ends, occurrences, size,
                                         full) == starting


def test_starts_with_probe_agrees_on_nested_vectors():
    """``starts-with`` probes need only sorted starts: nested vectors in
    document order (equal starts, longer first) agree with the walk."""
    rng = random.Random(43)
    for _ in range(300):
        length = rng.randrange(1, 60)
        text = "".join(rng.choice("aab") for _ in range(length))
        spans = sorted(
            ((min(a, b), max(a, b)) for a, b in (
                (rng.randrange(length + 1), rng.randrange(length + 1))
                for _ in range(rng.randrange(0, 30)))),
            key=lambda span: (span[0], -span[1]),
        )
        starts = [s for s, _ in spans]
        ends = [e for _, e in spans]
        full = range(len(spans))
        for needle in ("a", "aa", "ab", "b"):
            occurrences = find_all(text, needle)
            assert probe_span_starts_with(
                starts, ends, occurrences, len(needle)
            ) == rows_span_starts_with(
                starts, ends, occurrences, len(needle), full
            ) == naive_starts_with(
                starts, ends, occurrences, len(needle), full
            )


def test_probe_edge_cases():
    # Overlapping occurrences: 'aa' occurs at 0, 1 and 2 of 'aaaa'.
    occurrences = find_all("aaaa", "aa")
    assert occurrences == [0, 1, 2]
    starts, ends = [0, 1, 2, 3], [2, 3, 4, 4]
    assert probe_span_contains(starts, ends, occurrences, 2) == [0, 1, 2]
    assert probe_span_starts_with(starts, ends, occurrences, 2) == [0, 1, 2]
    # Zero-width rows never contain or start with a needle.
    starts, ends = [0, 1, 1, 3], [1, 1, 3, 3]
    assert probe_span_contains(starts, ends, [1], 1) == [2]
    assert probe_span_starts_with(starts, ends, [1], 1) == [2]
    # A needle that ends at the end of the text, in the last row.
    text = "xx ab"
    occurrences = find_all(text, "ab")
    starts, ends = [0, 3], [2, len(text)]
    for kernel in (probe_span_contains, probe_span_starts_with):
        assert kernel(starts, ends, occurrences, 2) == [1]
    # Occurrences before, between and after every row.
    starts, ends = [4, 10], [6, 12]
    assert probe_span_contains(starts, ends, [0, 7, 20], 1) == []
    assert probe_span_contains(starts, ends, [0, 5, 11, 20], 1) == [0, 1]
    # An empty occurrence list.
    assert probe_span_contains(starts, ends, [], 1) == []
    assert probe_span_starts_with(starts, ends, [], 1) == []


def test_term_filters_probe_sparse_needles_over_whole_vectors(kernel_calls):
    text = "ab" * 20 + "c" + "ab" * 20
    vector = span_vector([(i, i + 2) for i in range(0, len(text) - 1, 2)])
    occurrences = find_all(text, "c")
    assert vector._ends_sorted is None  # nothing checked yet
    tally: list[int] = []
    got = span_contains_rows(vector, occurrences, 1, vector.all_rows(), tally)
    assert kernel_calls == ["probe"] and vector._ends_sorted is True
    assert got == naive_contains(vector.starts, vector.ends, occurrences, 1,
                                 vector.all_rows())
    assert tally == [len(occurrences) + len(got)]
    del kernel_calls[:]
    got = span_starts_with_rows(vector, occurrences, 1, vector.all_rows())
    assert kernel_calls == ["probe"] and got == [20]


@pytest.mark.parametrize("case", ["subset", "dense", "nested", "hierarchies"])
def test_term_filters_walk_where_the_probe_does_not_apply(kernel_calls,
                                                          case):
    """Row subsets and dense needles walk; so does ``contains`` over a
    vector whose ends are not sorted — nested members, or members of
    two hierarchies — and each answer still matches the naive probe."""
    text = "ab" * 20 + "c" + "ab" * 20
    spans = [(i, i + 2) for i in range(0, len(text) - 1, 2)]
    hierarchies = None
    needle = "c"
    rows = range(len(spans))
    if case == "subset":
        rows = list(range(0, len(spans), 2))
    elif case == "dense":
        needle = "a"
    elif case == "nested":
        spans = sorted(spans + [(0, len(text))],
                       key=lambda span: (span[0], -span[1]))
        rows = range(len(spans))
    else:  # a tag in two hierarchies: one long member, then words
        spans = [(0, 30)] + spans[1:]
        hierarchies = ["a"] + ["b"] * (len(spans) - 1)
    vector = span_vector(spans, hierarchies)
    occurrences = find_all(text, needle)
    tally: list[int] = []
    got = span_contains_rows(vector, occurrences, len(needle), rows, tally)
    assert kernel_calls == ["walk"]
    assert got == naive_contains(vector.starts, vector.ends, occurrences,
                                 len(needle), rows)
    assert 0 < tally[0] <= len(rows)
    if case in ("subset", "dense"):
        assert vector._ends_sorted is None  # no probe, no check
    else:
        assert vector._ends_sorted is False
    del kernel_calls[:]
    got = span_starts_with_rows(vector, occurrences, len(needle), rows)
    assert got == naive_starts_with(vector.starts, vector.ends, occurrences,
                                    len(needle), rows)
    # starts-with probes whole vectors whatever their ends.
    expected = "walk" if case in ("subset", "dense") else "probe"
    assert kernel_calls == [expected]


def test_term_filters_on_an_empty_occurrence_list(kernel_calls):
    vector = span_vector([(0, 2), (2, 4)])
    for rows in (vector.all_rows(), [1]):
        tally: list[int] = []
        assert span_contains_rows(vector, [], 1, rows, tally) == []
        assert span_starts_with_rows(vector, [], 1, rows, tally) == []
        assert tally == [0, 0]


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
