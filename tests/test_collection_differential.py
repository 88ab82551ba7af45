"""Differential property harness for the collection layer.

Drives randomized multi-document edit scripts (seeded, reproducible)
against one service-managed corpus and, after every publish batch,
asserts three equivalences over a battery of cross-document queries:

1. *routing on vs routing off*: the summary-routed run and the
   visit-everything run are byte-identical — pruning never changes
   answers, whatever state the random edits left the summary in;
2. *worker counts*: the serial and the two-worker process fan-out of
   the routed query merge to byte-identical results;
3. *witness*: an independent per-document loop — load every document,
   evaluate the per-document expression unindexed, flatten — agrees
   with both, so the whole collection pipeline is held to the classic
   engine's ground truth;

plus the maintenance invariant that each document's persisted
``collection_summary`` rows equal a from-scratch derivation of its
rebuilt index payload (the delta patches applied by every publish
never drift from the full computation).

Scale follows ``test_index_incremental``: ``REPRO_DIFF_SEEDS`` widens
the seed matrix 10x in the nightly soak.
"""

from __future__ import annotations

import os
import random

import pytest

from repro import DocumentService
from repro.collection import split_collection_expression
from repro.collection.fanout import node_rows
from repro.errors import EditError, MarkupConflictError
from repro.index.manager import IndexManager
from repro.workloads import WorkloadSpec, generate
from repro.xpath.engine import ExtendedXPath

from _summary_oracle import collection_summary_rows
from test_index_incremental import EDIT_TAGS

SEEDS = max(1, int(os.environ.get("REPRO_DIFF_SEEDS", "1")))
BATCHES = 5
EDITS_PER_BATCH = 4

QUERIES = (
    "collection()//line",
    "collection()//seg",
    "collection()//note",
    "collection()//vline",
    "collection()//anchor",
    "collection()//nosuchtag",
    "collection()/r/page/line",
    "collection()//line[@n='2']",
    "collection()//seg[@resp='5']",
    "collection()//w[contains(., 'gar')]",
    "collection()//line/contained::w",
    "collection()//seg | //note",
    "collection()//line[seg or note]",
)


def _build_corpus(service: DocumentService, rng: random.Random) -> list[str]:
    """A mixed corpus: documents vary in hierarchy count (so tag
    populations differ and routing has something to prune) and size."""
    names = []
    for i in range(6):
        spec = WorkloadSpec(
            words=40 + rng.randrange(40),
            hierarchies=1 + i % 3,
            overlap_density=0.3,
            seed=rng.randrange(10 ** 6),
        )
        name = f"doc-{i}"
        service.create(generate(spec), name)
        names.append(name)
    return names


def _witness(service: DocumentService, expression: str):
    per_document = split_collection_expression(expression)
    query = ExtendedXPath(per_document)
    hits = []
    for name in sorted(service.names()):
        with service.read_session(name) as session:
            rows = node_rows(query.evaluate(session.document, index=False))
        hits.extend((name, row) for row in rows)
    return hits


def _check_batch(service: DocumentService) -> None:
    corpus = service.corpus
    for expression in QUERIES:
        routed = corpus.query(expression, routing=True)
        unrouted = corpus.query(expression, routing=False)
        process = corpus.query(expression, workers=2)
        witness = _witness(service, expression)
        assert routed.hits == unrouted.hits == witness, expression
        assert routed.hits == process.hits, expression
        assert routed.plan.routed_count <= unrouted.plan.routed_count
    # Maintenance invariant: the delta-patched summary rows equal the
    # from-scratch derivation for every document.
    with service.pool.connection() as store:
        for name in service.names():
            document = corpus.document(name)
            rebuilt = set(collection_summary_rows(
                IndexManager(document).payload(name)))
            stored = set(store._conn.execute(
                "SELECT kind, key, n FROM collection_summary WHERE doc_id"
                " = (SELECT doc_id FROM documents WHERE name = ?)",
                (name,),
            ).fetchall())
            assert stored == rebuilt, name


def _random_edits(service: DocumentService, names: list[str],
                  rng: random.Random) -> None:
    """One batch: a handful of edits scattered over random documents,
    each its own published write session.  Conflicting random spans are
    tolerated (the session still publishes whatever landed)."""
    for _ in range(EDITS_PER_BATCH):
        name = rng.choice(names)
        with service.write_session(name) as session:
            document, editor = session.document, session.editor
            choice = rng.random()
            try:
                if choice < 0.40:
                    hierarchy = rng.choice(document.hierarchy_names())
                    a = rng.randrange(document.length + 1)
                    b = rng.randrange(document.length + 1)
                    editor.insert_markup(hierarchy, rng.choice(EDIT_TAGS),
                                         min(a, b), max(a, b))
                elif choice < 0.55:
                    hierarchy = rng.choice(document.hierarchy_names())
                    editor.insert_milestone(
                        hierarchy, "anchor",
                        rng.randrange(document.length + 1))
                elif choice < 0.75:
                    elements = list(document.elements())
                    if elements:
                        editor.remove_markup(rng.choice(elements))
                else:
                    elements = list(document.elements())
                    if elements:
                        editor.set_attribute(
                            rng.choice(elements),
                            rng.choice(("n", "resp")),
                            str(rng.randrange(100)))
            except (MarkupConflictError, EditError):
                pass


@pytest.mark.parametrize("seed", [2000 + i for i in range(SEEDS)])
def test_collection_differential_session(tmp_path, seed):
    rng = random.Random(seed)
    service = DocumentService(tmp_path / "corpus.db", pool_size=4)
    try:
        names = _build_corpus(service, rng)
        _check_batch(service)
        for _batch in range(BATCHES):
            _random_edits(service, names, rng)
            # Membership churn: occasionally drop and re-add a document
            # so the routing view tracks deletes too.
            if rng.random() < 0.3:
                victim = rng.choice(names)
                service.delete(victim)
                service.create(generate(WorkloadSpec(
                    words=30, hierarchies=1 + rng.randrange(3),
                    overlap_density=0.3, seed=rng.randrange(10 ** 6),
                )), victim)
            _check_batch(service)
    finally:
        service.close()
