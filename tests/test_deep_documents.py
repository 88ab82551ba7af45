"""A well-formed document nested deeper than the recursion limit.

Building the GODDAG, encoding its element rows, serializing a
hierarchy and the descendant axis from an element are iterative
preorder walks, so a 3000-deep nest parses, indexes, queries (index on
and off), saves, loads, hydrates lazily and serializes back to its
source, and descendant steps from any of its elements answer.
"""

from __future__ import annotations

import sys

import pytest

from repro.collection.fanout import node_rows
from repro.index import IndexManager
from repro.sacx.parser import parse_concurrent
from repro.serialize.distributed import export_distributed
from repro.storage import GoddagStore
from repro.xpath import ExtendedXPath

DEPTH = 3000
DEEP = "<r>" + "<d>" * DEPTH + "x" + "</d>" * DEPTH + "</r>"
FLAT = "<r><w>x</w></r>"


def test_a_deep_document_round_trips(tmp_path):
    assert DEPTH > sys.getrecursionlimit()
    document = parse_concurrent({"deep": DEEP, "flat": FLAT})
    nest = ExtendedXPath("//d")
    unindexed = node_rows(nest.evaluate(document, index=False))
    assert len(unindexed) == DEPTH
    IndexManager.for_document(document)
    assert node_rows(nest.evaluate(document)) == unindexed
    overlap = ExtendedXPath("//d[overlapping::w]")
    assert overlap.evaluate(document) == \
        overlap.evaluate(document, index=False) == []

    with GoddagStore(str(tmp_path / "deep.db")) as store:
        store.save_indexed(document, "deep")
        loaded = store.load("deep")
        assert node_rows(nest.evaluate(loaded)) == unindexed
        assert store.lazy("deep").xpath("//d") == unindexed
    assert export_distributed(loaded) == {"deep": DEEP, "flat": FLAT}
    assert export_distributed(document) == {"deep": DEEP, "flat": FLAT}


#: Deep enough to pass the recursion limit, shallow enough that the
#: descendant steps from every one of its elements (quadratic work)
#: stay quick.
NEST_DEPTH = 1200
NEST = "<r>" + "<d>" * NEST_DEPTH + "x" + "</d>" * NEST_DEPTH + "</r>"


@pytest.mark.parametrize("expression, count", [
    ("/r/d//d", NEST_DEPTH - 1),
    ("//d[1]//d", NEST_DEPTH - 1),
    ("/descendant::d[1]/descendant::d", NEST_DEPTH - 1),
    ("//d[1]/descendant-or-self::node()", NEST_DEPTH + 1),
])
def test_descendant_steps_from_element_contexts(expression, count):
    assert NEST_DEPTH > sys.getrecursionlimit()
    document = parse_concurrent({"deep": NEST, "flat": FLAT})
    query = ExtendedXPath(expression)
    unindexed = node_rows(query.evaluate(document, index=False))
    assert len(unindexed) == count
    IndexManager.for_document(document)
    assert node_rows(query.evaluate(document)) == unindexed
