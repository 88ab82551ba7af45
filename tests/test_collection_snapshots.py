"""The corpus fan-out reads through the pool's snapshot cache.

Every reader on one :class:`~repro.storage.SqliteConnectionPool` — the
document service's sessions and the corpus fan-out — shares the pool's
:class:`~repro.storage.sqlite_backend.SnapshotCache`; each process
worker keeps its own next to its connection.  These tests pin down, in
serial, thread and process modes:

* no stale answers: a member is re-read after ``add(overwrite=True)``,
  after ``remove`` and ``add`` of the same name, and after a
  ``DocumentService`` write session publishes through the same pool
  between two queries;
* scan resistance: a fan-out that routes more members than the cache
  holds installs nothing, and the entries already cached survive it;
* sharing: thread-mode chunks read the same frozen documents, and
  mutating one raises :class:`~repro.errors.EditError`;
* the default worker count where ``os.sched_getaffinity`` is missing.

Process mode runs the worker entry point in this process (an inline
executor), so its per-worker cache can be inspected; one test also runs
a real process pool.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro import Corpus, DocumentService
from repro.collection import split_collection_expression
from repro.collection import fanout
from repro.collection.fanout import default_workers, node_rows, run_fanout
from repro.errors import EditError
from repro.obs.metrics import metrics
from repro.storage.sqlite_backend import SnapshotCache, SqliteStore
from repro.workloads import WorkloadSpec, generate
from repro.workloads.generator import generate_sources
from repro.xpath.engine import ExtendedXPath

from test_docs_architecture import _metric_catalog

MODES = ("serial", "thread", "process")
BROAD = "collection()//line"
SELECTIVE = "collection()//vline"


def _member(i: int, words: int = 40):
    """Every member has ``line``; members 0 and 3 also the verse
    hierarchy (``vline``)."""
    return generate(WorkloadSpec(words=words,
                                 hierarchies=4 if i % 3 == 0 else 2,
                                 overlap_density=0.3, seed=500 + i))


class _InlinePool:
    """A process pool stand-in that runs each chunk in this process."""

    def map(self, function, *iterables):
        return map(function, *iterables)


def _query(corpus: Corpus, expression: str, mode: str):
    """``(hits, documents)`` of a routed query in ``mode``."""
    if mode != "process":
        result = corpus.query(expression, mode=mode, workers=2)
        return result.hits, result.documents
    plan = corpus.explain(expression)
    triples = run_fanout(corpus._pool, list(plan.routed), plan.per_document,
                         mode="process", workers=2,
                         process_pool=_InlinePool())
    hits = [(name, row) for name, _, rows in triples for row in rows]
    return hits, tuple((name, generation) for name, generation, _ in triples)


def _witness(path, expression: str) -> list:
    """Every member freshly loaded and evaluated unindexed."""
    query = ExtendedXPath(split_collection_expression(expression))
    store = SqliteStore(str(path), wal=True)
    try:
        return [(name, row) for name in store.names()
                for row in node_rows(query.evaluate(store.load(name),
                                                    index=False))]
    finally:
        store.close()


def _cache(corpus: Corpus, mode: str) -> SnapshotCache:
    """The cache ``mode`` reads through: the pool's, or this process's
    worker cache."""
    if mode == "process":
        return fanout._process_stores[(os.getpid(), corpus.location)][1]
    return corpus._pool.snapshots


@pytest.fixture
def observed():
    metrics.reset()
    metrics.enable()
    yield metrics
    metrics.disable()
    metrics.reset()


def _drop_worker_stores():
    for key in [key for key in fanout._process_stores
                if key[0] == os.getpid()]:
        fanout._process_stores.pop(key)[0].close()


@pytest.fixture
def corpus(tmp_path):
    with Corpus(tmp_path / "corpus.db", pool_size=4) as corpus:
        corpus.add_many((_member(i), f"doc-{i}") for i in range(6))
        yield corpus
    _drop_worker_stores()


# -- never stale ---------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
def test_overwrite_is_never_served_stale(corpus, mode):
    before, documents = _query(corpus, BROAD, mode)
    assert before == _witness(corpus.location, BROAD)
    corpus.add(_member(10, words=70), "doc-1", overwrite=True)
    assert "doc-1" not in corpus._pool.snapshots
    after, newer = _query(corpus, BROAD, mode)
    assert after == _witness(corpus.location, BROAD)
    assert after != before
    assert dict(newer)["doc-1"] != dict(documents)["doc-1"]


@pytest.mark.parametrize("mode", MODES)
def test_remove_then_add_is_never_served_stale(corpus, mode):
    before, _ = _query(corpus, BROAD, mode)
    corpus.remove("doc-2")
    assert "doc-2" not in corpus._pool.snapshots
    corpus.add(_member(11, words=70), "doc-2")
    after, _ = _query(corpus, BROAD, mode)
    assert after == _witness(corpus.location, BROAD)
    assert after != before


@pytest.mark.parametrize("mode", MODES)
def test_service_publish_between_queries_is_never_served_stale(tmp_path,
                                                               mode):
    with DocumentService(tmp_path / "svc.db", pool_size=4) as service:
        for i in range(4):
            service.create(_member(i), f"doc-{i}")
        corpus = service.corpus
        with service.write_session("doc-1") as writer:
            # The writer's open evicted doc-1; this query caches the
            # stored generation again.
            before, _ = _query(corpus, BROAD, mode)
            writer.editor.insert_markup(
                writer.document.hierarchy_names()[0], "line", 1, 9)
            writer.publish()
            after, _ = _query(corpus, BROAD, mode)
            assert after == _witness(service.location, BROAD)
            assert len(after) == len(before) + 1
            writer.editor.insert_markup(
                writer.document.hierarchy_names()[0], "line", 2, 8)
        # The clean exit published again and handed its document off.
        last, _ = _query(corpus, BROAD, mode)
        assert last == _witness(service.location, BROAD)
        assert len(last) == len(before) + 2
    _drop_worker_stores()


def test_stream_overwrite_evicts(corpus):
    corpus.query(BROAD)
    assert "doc-1" in corpus._pool.snapshots
    sources = generate_sources(WorkloadSpec(words=70, hierarchies=2,
                                            seed=14))
    corpus.add_streams([(sources, "doc-1")], overwrite=True)
    assert "doc-1" not in corpus._pool.snapshots
    assert corpus.query(BROAD).hits == _witness(corpus.location, BROAD)


def test_real_process_workers_are_never_served_stale(corpus):
    for _ in range(3):  # let every worker cache every member
        assert corpus.query(BROAD, mode="process", workers=2).hits == \
            _witness(corpus.location, BROAD)
    corpus.add(_member(12, words=70), "doc-4", overwrite=True)
    corpus.remove("doc-5")
    corpus.add(_member(13, words=70), "doc-5")
    assert corpus.query(BROAD, mode="process", workers=2).hits == \
        _witness(corpus.location, BROAD)


# -- scan resistance ----------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
def test_broad_query_installs_nothing(corpus, mode, monkeypatch, observed):
    monkeypatch.setattr(SnapshotCache, "LIMIT", 3)
    assert corpus.explain(SELECTIVE).routed == ("doc-0", "doc-3")
    _query(corpus, SELECTIVE, mode)
    cache = _cache(corpus, mode)
    assert sorted(cache) == ["doc-0", "doc-3"]
    # Six routed members, more than the cache holds; each thread chunk
    # of three alone would fit.
    broad, _ = _query(corpus, BROAD, mode)
    assert broad == _witness(corpus.location, BROAD)
    assert sorted(cache) == ["doc-0", "doc-3"]
    # The four members the cache does not hold are answered from rows.
    counters = observed.snapshot()["counters"]
    assert counters["collection.snapshots.loaded"] == 2
    assert counters["collection.rows.served"] == 4
    assert counters["collection.snapshots.shared"] == 2
    _query(corpus, SELECTIVE, mode)
    counters = observed.snapshot()["counters"]
    assert counters["collection.snapshots.loaded"] == 2
    assert counters["collection.snapshots.shared"] == 4


def test_selective_query_installs_what_it_loads(corpus, observed):
    corpus.query(BROAD)
    assert sorted(corpus._pool.snapshots) == [f"doc-{i}" for i in range(6)]
    corpus.query(BROAD, mode="thread", workers=2)
    counters = observed.snapshot()["counters"]
    assert counters["collection.snapshots.loaded"] == 6
    assert counters["collection.snapshots.shared"] == 6


# -- sharing ------------------------------------------------------------------


def test_thread_chunks_share_one_frozen_document(corpus, monkeypatch):
    real_evaluate = ExtendedXPath.evaluate
    seen: list[tuple[int, object]] = []

    def recording(self, document, *args, **kwargs):
        seen.append((threading.get_ident(), document))
        return real_evaluate(self, document, *args, **kwargs)

    monkeypatch.setattr(ExtendedXPath, "evaluate", recording)
    corpus.query(BROAD, mode="thread", workers=2)
    first = [document for _, document in seen]
    seen.clear()
    corpus.query(BROAD, mode="thread", workers=2)
    assert threading.get_ident() not in {thread for thread, _ in seen}
    assert {id(document) for _, document in seen} == \
        {id(document) for document in first}
    for document in first:
        element = document.ordered_elements()[0]
        with pytest.raises(EditError):
            document.set_attribute(element, "n", "changed")
        assert element.attributes.get("n") != "changed"


def test_service_treats_a_manager_less_entry_as_a_miss(tmp_path):
    with DocumentService(tmp_path / "svc.db", pool_size=2) as service:
        service.create(_member(0), "doc-0")
        service.corpus.query(BROAD)  # caches doc-0 without a manager
        cache = service.pool.snapshots
        cached, shared = cache.get(service.pool.connection(), "doc-0",
                                   index=False)
        assert shared and cached.manager is None
        with service.read_session("doc-0") as session:
            assert session.manager is not None
            assert session.document is not cached.document
        # The session's snapshot replaced it; the fan-out reads that one.
        entry, shared = cache.get(service.pool.connection(), "doc-0",
                                  index=False)
        assert shared and entry.document is session.document


# -- workers and counters -------------------------------------------------------


@pytest.mark.parametrize("mode", ("thread", "process"))
def test_default_workers_without_sched_getaffinity(corpus, mode,
                                                   monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert default_workers() == min(4, os.cpu_count() or 1)
    assert corpus.query(BROAD, mode=mode).hits == corpus.query(BROAD).hits


def test_collection_snapshot_counters_are_in_the_catalog():
    assert {"collection.snapshots.shared",
            "collection.snapshots.loaded"} <= _metric_catalog()
