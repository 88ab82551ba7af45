"""A document's summary rows, counted from the document itself.

Full writes, ``build_index`` and the schema backfill take their
``collection_summary`` rows from
:func:`repro.storage.schema.summary_rows`, which counts label paths,
tags, attribute pairs and terms in one walk of the document, with no
index built.  Those counts must equal the rows derived from a built
index's payload (``collection_summary_rows(IndexManager(doc).payload())``)
on every document shape, or a stored corpus would route differently
from a rebuilt one.

Scale follows ``test_index_incremental``: ``REPRO_DIFF_SEEDS`` widens
the seeded sweep (10 in the nightly job).
"""

from __future__ import annotations

import json
import os
import random

import pytest

from repro.core.goddag import GoddagBuilder
from repro.editing import Editor
from repro.errors import MarkupConflictError
from repro.index.manager import IndexManager
from repro.storage.schema import encode_attributes, summary_rows
from repro.workloads import WorkloadSpec, generate

from _summary_oracle import collection_summary_rows

SEEDS = max(1, int(os.environ.get("REPRO_DIFF_SEEDS", "1")))


def _payload_rows(document) -> list:
    return sorted(collection_summary_rows(IndexManager(document).payload()))


def _check(document) -> None:
    counted = summary_rows(document)
    assert len(counted) == len(set(counted))
    assert sorted(counted) == _payload_rows(document)


@pytest.mark.parametrize("hierarchies", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("seed", range(SEEDS))
def test_counts_equal_the_payload_rows(hierarchies, seed):
    document = generate(WorkloadSpec(
        words=120 + 40 * seed, hierarchies=hierarchies,
        overlap_density=0.3, seed=1000 * hierarchies + seed,
    ))
    _check(document)


@pytest.mark.parametrize("seed", range(SEEDS))
def test_counts_follow_an_edited_document(seed):
    """Late-born wrappers, removals and attribute edits: the counts of
    the edited document still equal a rebuilt index's."""
    document = generate(WorkloadSpec(words=150, hierarchies=4,
                                     overlap_density=0.3, seed=seed))
    editor = Editor(document, prevalidate=False)
    rng = random.Random(seed)
    words = sorted(document.elements(tag="w"), key=lambda e: e.start)
    for i in range(8):
        first = rng.randrange(len(words) - 3)
        try:
            editor.insert_markup("editorial", f"seg{i % 3}",
                                 words[first].start, words[first + 2].end)
        except MarkupConflictError:  # a conflicting span: skip the step
            continue
    for element in list(document.elements(tag="line"))[:5]:
        editor.set_attribute(element, "rev", f"r{rng.randrange(3)}")
    editor.remove_markup(next(iter(document.elements(tag="s"))))
    _check(document)


def test_tags_with_separators_equal_spans_and_zero_width():
    text = "alpha beta gamma delta"
    builder = GoddagBuilder(text)
    builder.add_hierarchy("a")
    builder.add_hierarchy("b")
    builder.add_annotation("a", "x/y", 0, 10)
    builder.add_annotation("a", "x", 0, 10)          # equal span, nested
    builder.add_annotation("a", "y", 0, 5)
    builder.add_annotation("a", "x\\/y", 11, 22)
    builder.add_annotation("a", "pb", 11, 11)        # zero-width
    builder.add_annotation("a", "pb", 22, 22)
    builder.add_annotation("b", "x", 0, 10)
    builder.add_annotation("b", "y", 6, 10, {"n": "1", "k": "v"})
    builder.add_annotation("b", "pb", 6, 6, {"n": "1"})
    builder.add_annotation("b", "x", 11, 22)         # same path twice
    document = builder.build()
    _check(document)
    paths = {key: n for kind, key, n in summary_rows(document) if kind == 3}
    # ('x/y',) and ('x', 'y') are different paths with different keys.
    assert paths["x\\/y"] == 1 and paths["x/y"] == 1
    assert paths["x"] == 2


def test_a_document_without_elements():
    document = GoddagBuilder("just text, no markup").build()
    _check(document)
    assert {kind for kind, _key, _n in summary_rows(document)} == {1}


def test_an_empty_document():
    document = GoddagBuilder("").build()
    assert summary_rows(document) == []
    _check(document)


def test_underscores_and_non_ascii_tokens():
    text = "foo_bar naïve Straße 東京 x_1 __ é_é 42"
    builder = GoddagBuilder(text)
    builder.add_hierarchy("h")
    builder.add_annotation("h", "wörd", 0, 7, {"lang": "déu", "q": '"\\'})
    builder.add_annotation("h", "w", 8, 13, {"q": '"\\', "lang": "déu"})
    document = builder.build()
    _check(document)
    terms = {key: n for kind, key, n in summary_rows(document) if kind == 1}
    assert terms["foo"] == terms["bar"] == 1 and terms["é"] == 2
    assert "東京" in terms and "Straße" in terms and "_" not in terms


@pytest.mark.parametrize("attributes", [
    {"n": "1", "a": "2", "z": "3"},
    {"z": "3", "n": "1", "a": "2"},
    {"lang": "déu", "name": "東京", "s": "Straße"},
    {"q": '"quoted"', "b": "back\\slash", "both": '\\"'},
    {},
])
def test_one_attribute_encoder(attributes):
    """The schema's encoder writes exactly what ``json.dumps`` of the
    sorted dict writes, whatever the insertion order — full saves,
    row upserts and streaming chunks all go through it."""
    expected = json.dumps(dict(attributes), sort_keys=True)
    assert encode_attributes(tuple(attributes.items())) == expected
    assert encode_attributes(tuple(reversed(attributes.items()))) == expected
