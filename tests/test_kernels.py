"""Differential and edge-case tests for the flat-column batch kernels.

The span/ordinal filter kernels must agree with the naive per-element
string and dict probes, and the manager's span predicates with plain
string operations on the document text.
"""

import random

import pytest

from repro.index.kernels import (
    CandidateVector,
    rows_in_ordinal_set,
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
