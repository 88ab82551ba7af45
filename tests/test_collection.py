"""The collection layer: corpus API, summary routing, fan-out.

Routing soundness is the load-bearing property: every query in the
battery runs routing-on, routing-off, and as an unindexed per-document
witness loop, and the three must agree byte-for-byte — a pruned
document is always one that could not have matched.  The random-script
arm of the same property lives in ``test_collection_differential.py``.
"""

from __future__ import annotations

from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import Corpus, DocumentService, GoddagStore
from repro.collection import corpus as corpus_module
from repro.collection import routing_features, split_collection_expression
from repro.collection.fanout import node_rows
from repro.errors import ServiceError, StorageError
from repro.index.manager import IndexManager
from repro.obs.metrics import metrics
from repro.storage.sqlite_backend import (
    KIND_ATTR,
    KIND_PATH,
    KIND_TAG,
    KIND_TERM,
    SCHEMA_VERSION,
    SqliteStore,
)
from repro.workloads import generate
from repro.workloads.generator import WorkloadSpec
from repro.xpath.engine import ExtendedXPath
from repro.xpath.planner import Planner

from _summary_oracle import collection_summary_rows

QUERIES = (
    "collection()//line",
    "collection()//vline",
    "collection()//dmg",
    "collection()//w[@n='1']",
    "collection()//line[@n='2']",
    "collection()/r/page/line",
    "collection()/r/line",
    "collection()//s[contains(., 'tha')]",
    "collection()//line/@n",
    "collection()//vline/overlapping::line",
    "collection()//nosuchtag",
)


def _mixed_docs(count: int, words: int = 30):
    """A corpus mix with varying tag populations: most documents carry
    two hierarchies, some add the verse hierarchy (vline), a few the
    editorial one (dmg/res)."""
    docs = []
    for i in range(count):
        hierarchies = 4 if i % 7 == 0 else (3 if i % 3 == 0 else 2)
        docs.append((
            generate(WorkloadSpec(words=words, hierarchies=hierarchies,
                                  seed=100 + i)),
            f"doc-{i:03d}",
        ))
    return docs


def _witness(path, expression: str) -> list[tuple[str, tuple]]:
    """The ground truth: load every stored document and evaluate the
    per-document expression unindexed, no routing, no fan-out."""
    per_document = split_collection_expression(expression)
    query = ExtendedXPath(per_document)
    hits = []
    store = SqliteStore(str(path), wal=True)
    try:
        for name in store.names():
            document = store.load(name)
            for row in node_rows(query.evaluate(document, index=False)):
                hits.append((name, row))
    finally:
        store.close()
    return hits


@pytest.fixture
def corpus(tmp_path):
    with Corpus(tmp_path / "corpus.db", pool_size=4) as corpus:
        corpus.add_many(_mixed_docs(8))
        yield corpus


# -- corpus API ------------------------------------------------------------------


def test_corpus_population_and_introspection(tmp_path):
    corpus = Corpus(tmp_path / "c.db")
    docs = _mixed_docs(3)
    stamps = corpus.add_many(docs)
    assert sorted(stamps) == [name for _doc, name in docs]
    assert all(stamps.values())
    assert len(corpus) == 3
    assert sorted(corpus) == sorted(stamps)
    assert "doc-001" in corpus
    assert "missing" not in corpus
    assert corpus.generation("doc-001") == stamps["doc-001"]
    loaded = corpus.document("doc-002")
    assert loaded.element_count() == docs[2][0].element_count()
    corpus.remove("doc-001")
    assert len(corpus) == 2 and "doc-001" not in corpus
    corpus.close()


def test_corpus_add_requires_overwrite_consent(tmp_path):
    corpus = Corpus(tmp_path / "c.db")
    doc = generate(WorkloadSpec(words=20, hierarchies=2, seed=1))
    corpus.add(doc, "d")
    replacement = generate(WorkloadSpec(words=25, hierarchies=2, seed=2))
    with pytest.raises(StorageError):
        corpus.add(replacement, "d")
    stamp = corpus.add(replacement, "d", overwrite=True)
    assert stamp and corpus.generation("d") == stamp
    corpus.close()


def _stored_rows(path) -> dict[str, list]:
    """Every row of the five live tables, in a fixed order, with the
    generation stamp reduced to whether it is set."""
    store = SqliteStore(str(path), wal=True)
    try:
        rows = {
            table: store._conn.execute(
                f"SELECT * FROM {table} ORDER BY {order}").fetchall()
            for table, order in (
                ("documents", "doc_id"),
                ("hierarchies", "doc_id, rank"),
                ("elements", "doc_id, elem_id"),
                ("collection_summary", "kind, key, doc_id"),
            )
        }
        rows["index_meta"] = store._conn.execute(
            "SELECT doc_id, format, doc_length, stamp != ''"
            " FROM index_meta ORDER BY doc_id").fetchall()
    finally:
        store.close()
    return rows


def test_corpus_add_builds_no_index_manager(tmp_path, monkeypatch):
    """Adding unmanaged members counts their summary rows from the
    documents themselves: no IndexManager is constructed, and the rows
    equal what save_indexed writes with a manager, stamps aside."""
    built = []
    real_init = IndexManager.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(IndexManager, "__init__", spy)
    docs = _mixed_docs(5)
    replacement = generate(WorkloadSpec(words=25, hierarchies=3, seed=2))
    with Corpus(tmp_path / "corpus.db") as corpus:
        stamps = {docs[0][1]: corpus.add(*docs[0])}
        stamps.update(corpus.add_many(docs[1:]))
        stamps["doc-002"] = corpus.add(replacement, "doc-002",
                                       overwrite=True)
        for name, stamp in stamps.items():
            assert corpus.generation(name) == stamp
    assert built == []
    monkeypatch.undo()

    with SqliteStore(str(tmp_path / "witness.db"), wal=True) as witness:
        for document, name in _mixed_docs(5):
            witness.save_indexed(document, name, IndexManager(document))
        replacement = generate(WorkloadSpec(words=25, hierarchies=3, seed=2))
        witness.save_indexed(replacement, "doc-002",
                             IndexManager(replacement), overwrite=True)
    assert _stored_rows(tmp_path / "corpus.db") == \
        _stored_rows(tmp_path / "witness.db")


def test_replacing_a_member_is_no_fallback(tmp_path, monkeypatch, recwarn):
    """A replacement with no manager is a plain full write: no
    ``storage.full_rewrites`` count, no strict-mode warning."""
    from repro.obs.metrics import metrics

    monkeypatch.setenv("REPRO_OBS_STRICT", "1")
    metrics.reset()
    metrics.enable()
    try:
        with Corpus(tmp_path / "c.db") as corpus:
            corpus.add(generate(WorkloadSpec(words=20, seed=1)), "d")
            stamp = corpus.add(generate(WorkloadSpec(words=30, seed=2)), "d",
                               overwrite=True)
            assert corpus.generation("d") == stamp
            assert corpus.document("d").length == \
                generate(WorkloadSpec(words=30, seed=2)).length
        counters = metrics.snapshot()["counters"]
    finally:
        metrics.disable()
        metrics.reset()
    assert not [key for key in counters
                if key.startswith("storage.full_rewrites")]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_collection_expression_validation(corpus):
    for bad in ("//sp", "collection()", "collection()sp", "document()//a"):
        with pytest.raises(StorageError):
            split_collection_expression(bad)
    with pytest.raises(StorageError):
        corpus.query("//sp")


# -- routing features -------------------------------------------------------------


def _features(expression: str) -> frozenset:
    return routing_features(ExtendedXPath(expression).ast)


def test_routing_feature_extraction():
    assert _features("//sp") == {("tag", "sp")}
    assert _features("//sp/w") == {("tag", "sp"), ("tag", "w")}
    # The first step of an absolute path names the shared root, not an
    # element tag; the unbroken child chain below it is a label path.
    assert _features("/play/act/scene") == {
        ("root", "play"), ("tag", "act"), ("tag", "scene"),
        ("path", "act/scene"),
    }
    assert _features("//a[@n='1']") == {("tag", "a"), ("attr", "n", "1")}
    assert _features("//a[contains(., 'tha')]") == {
        ("tag", "a"), ("term", "tha"),
    }
    # Non-indexable literals contribute no term feature.
    assert _features("//a[contains(., 'x y')]") == {("tag", "a")}
    # Unknown functions, negations, and positions are opaque.
    assert _features("//a[not(b)]") == {("tag", "a")}
    assert _features("//a[count(b) = 0]") == {("tag", "a")}
    assert _features("//a[2]") == {("tag", "a")}
    # and widens, or narrows to the intersection of its branches.
    assert _features("//a[b and c]") == {
        ("tag", "a"), ("tag", "b"), ("tag", "c"),
    }
    assert _features("//a[b or c]") == {("tag", "a")}
    assert _features("//a[b or b]") == {("tag", "a"), ("tag", "b")}
    # A union routes to documents that can match either side.
    assert _features("//a | //b") == set()
    assert _features("//a/c | //b/c") == {("tag", "c")}
    # Wildcards and text() tests name nothing.
    assert _features("//*") == set()
    assert _features("//a/text()") == {("tag", "a")}


def test_routing_on_off_and_witness_agree(corpus, tmp_path):
    for expression in QUERIES:
        routed = corpus.query(expression, routing=True)
        unrouted = corpus.query(expression, routing=False)
        witness = _witness(tmp_path / "corpus.db", expression)
        assert routed.hits == unrouted.hits == witness, expression
        assert routed.plan.routed_count <= unrouted.plan.routed_count


def test_routing_prunes_selective_queries(corpus):
    plan = corpus.explain("collection()//dmg")
    # Only the i % 7 == 0 documents carry the editorial hierarchy.
    assert plan.total == 8
    assert plan.routed_count < plan.total
    assert plan.pruned == plan.total - plan.routed_count
    rendered = plan.render()
    assert "routed" in rendered and "tag 'dmg'" in rendered


def test_store_saved_documents_route_by_their_summary(corpus, tmp_path):
    """A document stored by ``SqliteStore.save`` outside the corpus has
    its summary rows like any member: it routes exactly when it can
    match, under the stamp ``save`` returned."""
    store = SqliteStore(str(tmp_path / "corpus.db"), wal=True)
    stamp = store.save(
        generate(WorkloadSpec(words=15, hierarchies=4, seed=999)), "plain")
    store.close()
    for expression, routed in (("collection()//vline", True),
                               ("collection()//dmg", False),
                               ("collection()//nosuchtag", False)):
        result = corpus.query(expression)
        assert ("plain" in result.plan.routed) is routed, expression
        if routed:
            assert dict(result.documents)["plain"] == stamp
        assert result.hits == corpus.query(expression, routing=False).hits


# -- summary maintenance -----------------------------------------------------------


def _summary_rows(path, name: str) -> set:
    store = SqliteStore(str(path), wal=True)
    try:
        return set(store._conn.execute(
            "SELECT kind, key, n FROM collection_summary WHERE doc_id ="
            " (SELECT doc_id FROM documents WHERE name = ?)", (name,),
        ).fetchall())
    finally:
        store.close()


def test_summary_rows_delta_maintained_through_publishes(tmp_path):
    path = tmp_path / "service.db"
    service = DocumentService(path)
    service.create(generate(WorkloadSpec(words=50, hierarchies=3, seed=4)),
                   "play")
    with service.write_session("play") as session:
        words = sorted(session.document.elements(tag="w"),
                       key=lambda e: e.start)
        session.editor.insert_markup("linguistic", "phrase",
                                     words[2].start, words[4].end)
        line = next(iter(session.document.elements(tag="line")))
        session.editor.set_attribute(line, "marked", "yes")
    with service.write_session("play") as session:
        phrase = next(iter(session.document.elements(tag="phrase")))
        session.editor.remove_markup(phrase)
    fresh = service.corpus.document("play")
    rebuilt = set(collection_summary_rows(IndexManager(fresh).payload("play")))
    assert _summary_rows(path, "play") == rebuilt
    # The routing view reflects the edits: phrase is gone, marked is on.
    assert service.corpus.query("collection()//phrase").plan.routed == ()
    marked = service.corpus.query("collection()//line[@marked='yes']")
    assert marked.plan.routed == ("play",) and len(marked) == 1
    service.close()


def test_summary_rows_match_payload_derivation(tmp_path):
    doc = generate(WorkloadSpec(words=40, hierarchies=4, seed=6))
    store = SqliteStore(str(tmp_path / "s.db"), wal=True)
    store.save(doc, "d")
    payload = IndexManager(doc).payload("d")
    store.save_index("d", doc)
    rows = set(store._conn.execute(
        "SELECT kind, key, n FROM collection_summary").fetchall())
    assert rows == set(collection_summary_rows(payload))
    kinds = {kind for kind, _key, _n in rows}
    assert kinds == {KIND_TAG, KIND_TERM, KIND_ATTR, KIND_PATH}
    store.close()


def test_migration_backfills_pre_collection_stores(tmp_path):
    path = tmp_path / "old.db"
    corpus = Corpus(path)
    corpus.add_many(_mixed_docs(4, words=20))
    corpus.close()
    store = SqliteStore(str(path), wal=True)
    expected = set(store._conn.execute(
        "SELECT doc_id, kind, key, n FROM collection_summary").fetchall())
    # Simulate a store written before schema version 1.
    with store._conn:
        store._conn.execute("DELETE FROM collection_summary")
        store._conn.execute("PRAGMA user_version = 0")
    store.close()
    reopened = SqliteStore(str(path), wal=True)
    assert set(reopened._conn.execute(
        "SELECT doc_id, kind, key, n FROM collection_summary").fetchall()
    ) == expected
    (version,) = reopened._conn.execute("PRAGMA user_version").fetchone()
    assert version == SCHEMA_VERSION
    reopened.close()


# -- fan-out -----------------------------------------------------------------------


def test_fanout_modes_byte_identical(corpus):
    for expression in ("collection()//line", "collection()//vline",
                       "collection()//line/@n"):
        serial = corpus.query(expression)
        process = corpus.query(expression, workers=2)
        assert serial.hits == process.hits, expression
        assert serial.documents == process.documents
        assert (serial.workers, process.workers) == (1, 2)


@pytest.mark.parametrize("workers", (0, -1))
def test_fanout_rejects_fewer_than_one_worker(corpus, workers):
    with pytest.raises(ServiceError):
        corpus.query("collection()//line", workers=workers)


class _BrokenPool:
    """A process pool whose workers have died."""

    def __init__(self, max_workers: int) -> None:
        pass

    def map(self, *args):
        raise BrokenProcessPool("a worker died")

    def shutdown(self, wait: bool = True) -> None:
        pass


def _uncreatable_pool(max_workers: int):
    raise OSError("no process support")


@pytest.mark.parametrize("executor", (_uncreatable_pool, _BrokenPool),
                         ids=("uncreatable", "broken"))
def test_process_unavailable_runs_serially(corpus, tmp_path, monkeypatch,
                                           executor):
    monkeypatch.setattr(corpus_module, "ProcessPoolExecutor", executor)
    monkeypatch.setenv("REPRO_OBS_STRICT", "1")
    expressions = ("collection()//line", "collection()//vline",
                   "collection()//line/@n")
    metrics.reset()
    metrics.enable()
    try:
        for expression in expressions:
            assert corpus.explain(expression).routed_count > 1
            with pytest.warns(RuntimeWarning, match="process-unavailable"):
                answer = corpus.query(expression, workers=2)
            assert answer.hits == corpus.query(expression,
                                               routing=False).hits
            assert answer.hits == _witness(tmp_path / "corpus.db",
                                           expression)
        observed = metrics.snapshot()
    finally:
        metrics.disable()
        metrics.reset()
    counters = observed["counters"]
    assert counters["collection.fanout.process-unavailable"] == 3
    assert observed["timers"]["collection.fanout.serial"]["count"] == 6


def test_fanout_evaluation_builds_no_plan(corpus, monkeypatch):
    calls = []
    real_plan = Planner.plan

    def spy(self, *args, **kwargs):
        calls.append(args)
        return real_plan(self, *args, **kwargs)

    monkeypatch.setattr(Planner, "plan", spy)
    result = corpus.query("collection()//line[@n='2']", routing=False)
    assert len(result.documents) == 8 and len(result) > 0
    assert calls == []


def test_node_rows_covers_scalars_and_attributes():
    doc = generate(WorkloadSpec(words=20, hierarchies=2, seed=12))
    count = ExtendedXPath("count(//w)").evaluate(doc, index=False)
    assert node_rows(count) == (("value", "float", count),)
    attr_nodes = ExtendedXPath("//line/@n").evaluate(doc, index=False)
    rows = node_rows(attr_nodes)
    assert rows and all(row[0] == "attribute" for row in rows)


# -- stats -------------------------------------------------------------------------


def test_corpus_stats_envelope(corpus):
    stats = corpus.stats()
    assert stats["schema"] == "repro-stats/1"
    assert stats["source"] == "collection.corpus"
    counts = stats["counts"]
    assert counts["collection.documents"] == 8
    assert counts["collection.summary_rows"] == (
        counts["collection.tag_keys"] + counts["collection.term_keys"]
        + counts["collection.attr_keys"] + counts["collection.path_keys"]
    )
    assert counts["collection.summary_rows"] > 0


def test_store_corpus_stats_sqlite(tmp_path):
    store = GoddagStore(tmp_path / "s.db")
    doc = generate(WorkloadSpec(words=20, hierarchies=2, seed=3))
    store.save_indexed(doc, "a", IndexManager.for_document(doc))
    stats = store.stats()
    assert stats["source"] == "storage.corpus"
    assert stats["counts"]["collection.documents"] == 1
    assert stats["counts"]["collection.summary_rows"] > 0
    # The per-document shape is unchanged.
    assert store.stats("a")["counts"]["storage.elements"] > 0
    store.close()


# -- service integration -----------------------------------------------------------


def test_service_collection_query_shares_the_pool(tmp_path):
    service = DocumentService(tmp_path / "svc.db", pool_size=2)
    for doc, name in _mixed_docs(4, words=20):
        service.create(doc, name)
    result = service.corpus.query("collection()//line")
    assert len(result) > 0
    assert service.corpus is service.corpus  # cached view
    assert result.hits == service.corpus.query(
        "collection()//line", routing=False).hits
    service.close()
