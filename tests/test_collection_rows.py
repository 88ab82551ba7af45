"""A wide fan-out answers its members from element rows.

A fan-out that routes more members than the
:class:`~repro.storage.sqlite_backend.SnapshotCache` holds installs
nothing, so decoding a member it does not hold would be thrown away.
When the per-document expression is a one-step name test the lazy row
path serves, those members are answered from their element rows
instead (``collection.rows.served``), read with their stamps in one
read transaction.  ``SnapshotCache.LIMIT`` is patched to 3 so a corpus
of six members fans out wide.  Every case runs the fan-out serially,
serially from another thread, and with two workers (an inline executor
runs the worker entry point in this process) and checks:

* answers equal ``routing=False`` and a fresh-load ``index=False``
  witness, and nothing is decoded or installed;
* a query whose name test selects the root element (which has no row)
  is served from rows too, and so is a member stored by
  ``SqliteStore.save``;
* an ``instr`` prefilter false positive is dropped, and tie groups of
  equal and zero-width spans come out in document order;
* overwrite, remove and add, and a service publish are never served
  stale, and a write committed between the stamp statement and the
  row statement is invisible, with each generation matching its rows.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro import Corpus, DocumentService
from repro.collection import fanout
from repro.core.goddag import GoddagDocument
from repro.index.manager import IndexManager
from repro.obs.metrics import metrics
from repro.sacx.parser import parse_concurrent
from repro.storage.sqlite_backend import SnapshotCache, SqliteStore

from test_collection_snapshots import (
    MODES,
    _drop_worker_stores,
    _member,
    _query as _run,
    _witness,
)
from test_docs_architecture import _metric_catalog

BROAD = "collection()//line"
ROW_QUERIES = (BROAD, "collection()//line[@n='1']",
               "collection()//physical:line[@n='2']", "collection()//linguistic:w")


@pytest.fixture(autouse=True)
def wide(monkeypatch):
    monkeypatch.setattr(SnapshotCache, "LIMIT", 3)


@pytest.fixture
def observed():
    metrics.reset()
    metrics.enable()
    yield metrics
    metrics.disable()
    metrics.reset()


@pytest.fixture
def corpus(tmp_path):
    with Corpus(tmp_path / "corpus.db", pool_size=4) as corpus:
        corpus.add_many((_member(i), f"doc-{i}") for i in range(6))
        yield corpus
    _drop_worker_stores()


def _counter(name: str) -> int:
    return metrics.snapshot()["counters"].get(name, 0)


def _caches(corpus: Corpus) -> list[SnapshotCache]:
    """The pool's cache and this process's worker cache, if any."""
    worker = fanout._process_stores.get((os.getpid(), corpus.location))
    return [corpus._pool.snapshots] + ([worker[1]] if worker else [])


# -- answers -------------------------------------------------------------------


@pytest.mark.parametrize("expression", ROW_QUERIES)
@pytest.mark.parametrize("mode", MODES)
def test_rows_answer_like_unrouted_and_witness(corpus, mode, expression):
    plan = corpus.explain(expression)
    assert plan.from_rows and plan.routed_count > SnapshotCache.LIMIT
    hits, documents = _run(corpus, expression, mode)
    assert hits == _witness(corpus.location, expression)
    assert hits == _run(corpus, expression, mode, routing=False)[0]
    assert documents == tuple((name, corpus.generation(name))
                              for name in plan.routed)


@pytest.mark.parametrize("mode", MODES)
def test_wide_fanout_decodes_nothing(corpus, mode, observed):
    _run(corpus, BROAD, mode)
    assert _counter("collection.snapshots.loaded") == 0
    assert _counter("collection.snapshots.shared") == 0
    assert _counter("collection.rows.served") == 6
    assert all(list(cache) == [] for cache in _caches(corpus))


@pytest.mark.parametrize("mode", MODES)
def test_store_saved_member_is_served_from_rows(corpus, mode, observed):
    store = SqliteStore(corpus.location, wal=True)
    stamp = store.save(_member(7), "doc-7")  # stored with its index
    store.close()
    hits, documents = _run(corpus, BROAD, mode)
    assert hits == _witness(corpus.location, BROAD)
    assert dict(documents)["doc-7"] == stamp
    assert _counter("collection.snapshots.loaded") == 0
    assert _counter("collection.rows.served") == 7


def test_explain_names_the_read_path(corpus, monkeypatch):
    assert "members read from rows" in corpus.explain(BROAD).render()
    # Not a one-step name test: decoded.
    assert "members read from snapshots" in \
        corpus.explain("collection()//line/w").render()
    # Routes few enough members to install them: decoded and cached.
    monkeypatch.setattr(SnapshotCache, "LIMIT", 32)
    assert "members read from snapshots" in corpus.explain(BROAD).render()


def test_explain_serves_a_root_tag_query_from_rows(corpus, observed):
    # Every member's root is <r>, which has no element row.
    plan = corpus.explain("collection()//r")
    assert plan.routed_count > SnapshotCache.LIMIT and plan.from_rows
    assert "members read from rows" in plan.render()
    _run(corpus, "collection()//r", "serial")
    assert _counter("collection.rows.served") == 6


def test_rows_served_is_in_the_catalog():
    assert "collection.rows.served" in _metric_catalog()


# -- the root element -----------------------------------------------------------

#: Members whose roots are ``<r a="v">``, ``<r>`` and ``<q a="v">``;
#: one hierarchy also holds an ``<r n="1">``.
ROOTS = ('<r a="v"><r n="1">ab</r><line n="1">cd</line></r>',
         '<r><line n="1">ab</line>cd</r>',
         '<q a="v"><r n="1">a</r><line n="2">bcd</line></q>')


@pytest.fixture
def rooted(tmp_path):
    with Corpus(tmp_path / "rooted.db", pool_size=4) as corpus:
        corpus.add_many((parse_concurrent({"h": ROOTS[i % 3]}), f"root-{i}")
                        for i in range(6))
        yield corpus
    _drop_worker_stores()


@pytest.mark.parametrize("expression", ("collection()//r",
                                        "collection()//r[@n='1']",
                                        "collection()//r[@a='v']"))
@pytest.mark.parametrize("mode", MODES)
def test_root_tag_query_is_served_from_rows(rooted, mode, expression,
                                            observed):
    # The root element has no row: it is answered from its columns.
    plan = rooted.explain(expression)
    assert plan.from_rows and plan.routed_count > SnapshotCache.LIMIT
    hits, documents = _run(rooted, expression, mode)
    assert hits == _witness(rooted.location, expression)
    assert any(row[1] == 0 for _, row in hits) is ("@n" not in expression)
    assert hits == _run(rooted, expression, mode, routing=False)[0]
    assert documents == tuple((name, rooted.generation(name))
                              for name in plan.routed)
    metrics.reset()
    _run(rooted, expression, mode)
    assert _counter("collection.rows.served") == plan.routed_count
    assert _counter("collection.snapshots.loaded") == 0
    assert all(list(cache) == [] for cache in _caches(rooted))


@pytest.mark.parametrize("mode", MODES)
def test_member_without_hierarchies(corpus, mode):
    corpus.add(GoddagDocument("no markup at all"), "doc-bare")
    hits, documents = _run(corpus, BROAD, mode, routing=False)
    assert hits == _witness(corpus.location, BROAD)
    assert "doc-bare" in dict(documents)


# -- hand-built members ---------------------------------------------------------

#: Equal and zero-width spans at one offset, within and across
#: hierarchies.  At offset 4 a zero-width child closing its parent ties
#: with a later zero-width top-level sibling, so depth, not ordinal,
#: orders that tie group.
TIES = {
    "a": '<r><line n="1"/><line n="1"/><line n="1"><line n="1">ab</line>'
         '</line><line n="1">cd<line n="1"/></line><line n="1"/>ef</r>',
    "b": '<r><line n="1"/><line n="1">ab</line><line n="12" m="1">cd</line>'
         'ef</r>',
}


@pytest.fixture
def hand_built(tmp_path):
    with Corpus(tmp_path / "hand.db", pool_size=4) as corpus:
        corpus.add_many((parse_concurrent(TIES), f"ties-{i}")
                        for i in range(5))
        yield corpus
    _drop_worker_stores()


@pytest.mark.parametrize("mode", MODES)
def test_instr_false_positive_is_dropped(hand_built, mode, observed):
    expression = "collection()//line[@n='1']"
    store = SqliteStore(hand_built.location, wal=True)
    try:
        candidates = store.element_rows_by_tag("ties-0", "line", attr="n",
                                               value="1")
    finally:
        store.close()
    # n="12" m="1" passes the instr prefilter but not the predicate.
    assert any('"12"' in row.attributes for row in candidates)
    hits, _ = _run(hand_built, expression, mode)
    assert hits == _witness(hand_built.location, expression)
    assert not any(("n", "12") in row[-1] for _, row in hits)
    assert _counter("collection.rows.served") == 5


@pytest.mark.parametrize("expression", ("collection()//line",
                                        "collection()//line[@n='1']",
                                        "collection()//a:line"))
@pytest.mark.parametrize("mode", MODES)
def test_tie_groups_come_out_in_document_order(hand_built, mode, expression,
                                               observed):
    hits, _ = _run(hand_built, expression, mode)
    assert hits == _witness(hand_built.location, expression)
    assert _counter("collection.rows.served") == 5
    ids = [row[1] for name, row in hits if name == "ties-0"]
    assert ids != sorted(ids)  # not merely ordinal order


# -- never stale -----------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
def test_overwrite_is_never_served_stale(corpus, mode):
    before, documents = _run(corpus, BROAD, mode)
    corpus.add(_member(10, words=70), "doc-1", overwrite=True)
    after, newer = _run(corpus, BROAD, mode)
    assert after == _witness(corpus.location, BROAD)
    assert after != before
    assert dict(newer)["doc-1"] != dict(documents)["doc-1"]


@pytest.mark.parametrize("mode", MODES)
def test_remove_then_add_is_never_served_stale(corpus, mode):
    before, _ = _run(corpus, BROAD, mode)
    corpus.remove("doc-2")
    corpus.add(_member(11, words=70), "doc-2")
    after, _ = _run(corpus, BROAD, mode)
    assert after == _witness(corpus.location, BROAD)
    assert after != before


@pytest.mark.parametrize("mode", MODES)
def test_service_publish_between_queries_is_never_served_stale(tmp_path,
                                                               mode):
    with DocumentService(tmp_path / "svc.db", pool_size=4) as service:
        for i in range(5):
            service.create(_member(i), f"doc-{i}")
        corpus = service.corpus
        before, _ = _run(corpus, BROAD, mode)
        with service.write_session("doc-1") as writer:
            writer.editor.insert_markup(
                writer.document.hierarchy_names()[0], "line", 1, 9)
            writer.publish()
            after, _ = _run(corpus, BROAD, mode)
            assert after == _witness(service.location, BROAD)
            assert len(after) == len(before) + 1
            writer.editor.insert_markup(
                writer.document.hierarchy_names()[0], "line", 2, 8)
        last, _ = _run(corpus, BROAD, mode)
        assert last == _witness(service.location, BROAD)
        assert len(last) == len(before) + 2
    _drop_worker_stores()


@pytest.mark.parametrize("mode", MODES)
def test_write_between_stamp_and_rows_is_invisible(corpus, mode,
                                                   monkeypatch):
    old_hits = _witness(corpus.location, BROAD)
    old_stamp = corpus.generation("doc-1")
    store = SqliteStore(corpus.location, wal=True)
    ((_, doc_id, _),) = store.member_stamps(["doc-1"])
    real_ranks = SqliteStore.hierarchy_ranks
    written = threading.Event()

    def write_then_rank(self, doc_ids):
        # Runs after the stamp statement, before the row statement.
        if doc_id in doc_ids and not written.is_set():
            written.set()
            document = _member(12, words=70)
            store.save_indexed(document, "doc-1",
                               manager=IndexManager(document),
                               overwrite=True)
        return real_ranks(self, doc_ids)

    monkeypatch.setattr(SqliteStore, "hierarchy_ranks", write_then_rank)
    try:
        hits, documents = _run(corpus, BROAD, mode)
    finally:
        store.close()
    assert written.is_set()
    assert hits == old_hits
    assert dict(documents)["doc-1"] == old_stamp
    new_hits, newer = _run(corpus, BROAD, mode)
    assert new_hits == _witness(corpus.location, BROAD) != old_hits
    assert dict(newer)["doc-1"] == corpus.generation("doc-1") != old_stamp
