"""The streaming subsystem against the materialized ground truth.

Every guarantee in :mod:`repro.streaming` is differential:

* the merged event stream equals the frozen batch merge
  (``tests/_merge_oracle.py``) at any chunk size;
* :func:`parse_concurrent` over chunked sources builds a byte-identical
  document;
* :func:`iterparse` covers every element with the exact storage
  identity (ordinal, parent, child rank, depth) the builder assigns,
  releases fragments incrementally (before the sources are fully
  consumed), and its output is invariant under ``high_water``;
* :func:`stream_save` writes row-for-row what ``save_indexed`` writes —
  including with pathological flush thresholds that force the
  incremental BLOB-append paths on every posting partition;
* staging-name publication: nothing is visible until finalize, aborts
  leave no residue, crashed staging rows are reclaimed;
* :class:`LazyDocument` answers index-served shapes and fallback
  queries byte-identically to the materialized engine while decoding
  only the rows it touches.

``REPRO_STREAM_RLIMIT=1`` additionally runs the hard-cap test: a
forked child ingests a full-size document under an ``RLIMIT_AS``
ceiling a materializing parse has no business fitting in.
"""

from __future__ import annotations

import io
import json
import os
import sqlite3
from collections import Counter

import pytest

import _merge_oracle as oracle
import repro.obs as obs
from repro.collection.corpus import Corpus
from repro.collection.fanout import node_rows
from repro.errors import StorageError
from repro.index.manager import IndexManager
from repro.sacx.parser import parse_concurrent
from repro.serialize.distributed import export_distributed
from repro.storage.sqlite_backend import STAGING_PREFIX, SqliteStore
from repro.storage import GoddagStore
from repro.streaming import (
    EventStream,
    LazyDocument,
    count_content_events,
    iterparse,
    stream_save,
)
from repro.streaming import ingest as ingest_mod
from repro.workloads import WorkloadSpec, generate
from repro.xpath.engine import ExtendedXPath

from test_merge_differential import SINGLE_DEFECTS, fed, outcome
from test_merge_differential import SPECS as SEEDED_SPECS

#: Hand-built torture case: entities, numeric references, CDATA,
#: comments, empty elements, attributes on the root — two hierarchies
#: over the same 16 characters of content.
HAND = {
    "a": '<d x="1">hello &amp; <w>wo</w><w>rld</w><e/> t&#65;il</d>',
    "b": '<d x="1"><s>hello &amp; wo</s><s>rld<![CDATA[ ]]>t<!--c-->Ail</s></d>',
}

SPECS = {
    "one-hierarchy": WorkloadSpec(words=60, hierarchies=1,
                                  overlap_density=0.0, seed=1),
    "two-overlapping": WorkloadSpec(words=160, hierarchies=2,
                                    overlap_density=0.3, seed=3),
    "three-overlapping": WorkloadSpec(words=240, hierarchies=3,
                                      overlap_density=0.5, seed=7),
}

_SOURCE_CACHE: dict[str, dict[str, str]] = {}


def sources_for(case: str) -> dict[str, str]:
    if case not in _SOURCE_CACHE:
        if case == "hand":
            _SOURCE_CACHE[case] = HAND
        else:
            _SOURCE_CACHE[case] = export_distributed(generate(SPECS[case]))
    return _SOURCE_CACHE[case]


CASES = ["hand", *SPECS]


def chunked(sources, chunk_chars: int) -> dict[str, list[str]]:
    """Each part as a list of ``chunk_chars``-sized pieces: a ``str``
    part is scanned whole, so chunk boundaries need a chunk iterable."""
    return {
        name: [text[at:at + chunk_chars]
               for at in range(0, len(text), chunk_chars)]
        for name, text in sources.items()
    }


def census(document):
    return [
        (e.ordinal, e.hierarchy, e.tag, e.start, e.end,
         tuple(sorted(e.attributes.items())), e.depth())
        for e in document.ordered_elements()
    ]


def counted_bases(sources) -> dict[str, int]:
    bases, base = {}, 1
    for hierarchy, source in sources.items():
        count, _, _ = count_content_events(source)
        bases[hierarchy] = base
        base += count
    return bases


def stored_rows(path: str) -> dict[str, list]:
    """Every row of every table, ``doc_id``- and ``stamp``-free."""
    tables = [
        ("documents", "name, root_tag, text, root_attributes"),
        ("hierarchies", "rank"),
        ("elements", "elem_id"),
        ("index_meta", "format"),
        ("collection_summary", "kind, key"),
    ]
    conn = sqlite3.connect(path)
    out = {}
    for table, order in tables:
        cols = [c[1] for c in conn.execute(f"PRAGMA table_info({table})")
                if c[1] not in ("doc_id", "stamp")]
        out[table] = conn.execute(
            f"SELECT {', '.join(cols)} FROM {table} ORDER BY {order}"
        ).fetchall()
    conn.close()
    return out


def save_materialized(sources, path: str) -> None:
    document = parse_concurrent(sources)
    with GoddagStore(path) as store:
        store.save_indexed(document, "doc", manager=IndexManager(document))


def save_streaming(sources, path: str, **kwargs) -> None:
    backend = SqliteStore(path)
    try:
        stream_save(backend, sources, "doc", **kwargs)
    finally:
        backend.close()


# -- parse layer ----------------------------------------------------------------


class TestEventStream:
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("chunk_chars", [7, 64, 1 << 16])
    def test_matches_batch_merge(self, case, chunk_chars):
        sources = sources_for(case)
        want = [
            (h, ev.kind, ev.tag, ev.offset, ev.attributes)
            for h, ev in oracle.merged_events(sources)
        ]
        for fed in (sources, chunked(sources, chunk_chars)):
            got = [
                (h, ev.kind, ev.tag, ev.offset, ev.attributes)
                for h, ev in EventStream(fed, chunk_chars=chunk_chars)
            ]
            assert got == want

    @pytest.mark.parametrize("case", CASES)
    def test_text_sink_reassembles_document_text(self, case):
        sources = sources_for(case)
        chunks: list[str] = []
        stream = EventStream(chunked(sources, 11), text_sink=chunks.append)
        for _ in stream:
            pass
        reference = oracle.parse_concurrent(sources)
        assert "".join(chunks) == reference.text
        assert stream.length == len(reference.text)

    def test_text_mismatch_detected_across_chunks(self):
        from repro.errors import TextMismatchError

        bad = dict(HAND)
        bad["b"] = bad["b"].replace("rld", "rlX", 1)
        with pytest.raises(TextMismatchError):
            for _ in EventStream(chunked(bad, 5)):
                pass


class TestParseStreaming:
    """:func:`parse_concurrent` over streamed (chunked) sources."""

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("chunk_chars", [13, 1 << 16])
    def test_document_identity(self, case, chunk_chars):
        sources = sources_for(case)
        reference = oracle.parse_concurrent(sources)
        document = parse_concurrent(chunked(sources, chunk_chars))
        assert document.text == reference.text
        assert census(document) == census(reference)
        assert dict(document.root.attributes) == \
            dict(reference.root.attributes)
        assert export_distributed(document) == export_distributed(reference)


class TestIterparse:
    @pytest.mark.parametrize("case", CASES)
    def test_coverage_and_builder_identity(self, case):
        sources = sources_for(case)
        reference = oracle.parse_concurrent(sources)
        fragments = list(iterparse(chunked(sources, 17), high_water=4,
                                   bases=counted_bases(sources)))
        by_id = {f.ordinal: f for f in fragments}
        assert len(fragments) == len(by_id) == reference.element_count()
        for element in reference.ordered_elements():
            fragment = by_id[element.ordinal]
            assert (fragment.hierarchy, fragment.tag,
                    fragment.start, fragment.end) == \
                (element.hierarchy, element.tag,
                 element.start, element.end)
            assert dict(fragment.attributes) == dict(element.attributes)
            assert fragment.depth == element.depth()
            parent = element.parent
            assert fragment.parent_ordinal == \
                (0 if parent.is_root else parent.ordinal)

    @pytest.mark.parametrize("case", CASES)
    def test_release_order_is_ascending_end(self, case):
        ends = [f.end for f in iterparse(sources_for(case), high_water=4)]
        assert ends == sorted(ends)

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("high_water", [0, 1, 4, 1024])
    def test_output_invariant_under_high_water(self, case, high_water):
        sources = sources_for(case)
        got = list(iterparse(chunked(sources, 23), high_water=high_water))
        want = list(iterparse(sources))
        assert got == want

    def test_fragments_flow_before_sources_are_drained(self):
        """The bounded-memory observable: with a low watermark the
        first fragments must surface while the scanners are still
        mid-source — a batch parse cannot do that."""
        sources = sources_for("one-hierarchy")
        consumed = {name: 0 for name in sources}

        def feeding(name):
            def chunks():
                text = sources[name]
                for at in range(0, len(text), 32):
                    consumed[name] += 1
                    yield text[at:at + 32]
            return chunks

        cursor = iterparse(
            {name: feeding(name)() for name in sources},
            high_water=0, chunk_chars=32,
        )
        next(cursor)
        total = sum(consumed.values())
        full = sum(-(-len(text) // 32) for text in sources.values())
        assert total < full, (
            f"first fragment only after {total}/{full} chunks — "
            "iterparse is buffering the whole document"
        )
        cursor.close()


# -- ingest layer ---------------------------------------------------------------


class TestStreamSave:
    @pytest.mark.parametrize("case", CASES)
    def test_row_identity(self, case, tmp_path):
        sources = sources_for(case)
        save_materialized(sources, str(tmp_path / "ref.db"))
        save_streaming(sources, str(tmp_path / "stream.db"),
                       chunk_elements=7)
        ref = stored_rows(str(tmp_path / "ref.db"))
        got = stored_rows(str(tmp_path / "stream.db"))
        for table in ref:
            assert got[table] == ref[table], table

    def test_row_identity_under_tiny_flush_thresholds(self, tmp_path,
                                                      monkeypatch):
        """Force every posting partition through the incremental
        read-concat-update append path (the SQL ``||`` operator would
        corrupt these BLOBs — this pins the Python-side concat)."""
        monkeypatch.setattr(ingest_mod, "_POSTING_FLUSH", 4)
        monkeypatch.setattr(ingest_mod, "_TEXT_FLUSH", 16)
        sources = sources_for("three-overlapping")
        save_materialized(sources, str(tmp_path / "ref.db"))
        save_streaming(sources, str(tmp_path / "stream.db"),
                       chunk_elements=3)
        assert stored_rows(str(tmp_path / "stream.db")) == \
            stored_rows(str(tmp_path / "ref.db"))

    @pytest.mark.parametrize("spec", SEEDED_SPECS,
                             ids=lambda spec: f"seed{spec.seed}")
    @pytest.mark.parametrize("chunk_elements", [3, 1024])
    def test_row_identity_on_seeded_documents(self, spec, chunk_elements,
                                              tmp_path):
        sources = export_distributed(generate(spec))
        save_materialized(sources, str(tmp_path / "ref.db"))
        save_streaming(sources, str(tmp_path / "stream.db"),
                       chunk_elements=chunk_elements)
        assert stored_rows(str(tmp_path / "stream.db")) == \
            stored_rows(str(tmp_path / "ref.db"))

    @pytest.mark.parametrize("chunk_elements", [1024, 200])
    def test_write_transactions(self, chunk_elements, tmp_path):
        """A one-chunk document commits in two write transactions, the
        staging row and finalize: the tail element rows, text, path and
        term counts all join finalize.  Each full element chunk before
        the tail adds one."""
        sources = export_distributed(generate(WorkloadSpec(
            words=600, hierarchies=4, overlap_density=0.25, seed=5)))
        elements = sum(1 for _ in parse_concurrent(sources).elements())
        statements: list[str] = []
        with GoddagStore(str(tmp_path / "doc.db")) as store:
            store._conn.set_trace_callback(statements.append)
            store.save_stream(sources, "doc", chunk_elements=chunk_elements)
            store._conn.set_trace_callback(None)
            assert store.count_elements("doc") == elements
        begun = [s for s in statements if s.startswith("BEGIN IMMEDIATE")]
        assert len(begun) == 2 + elements // chunk_elements
        if chunk_elements == 1024:
            assert elements < chunk_elements and len(begun) == 2

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("kind", ["file", "generator"])
    def test_one_shot_sources(self, case, kind, tmp_path):
        """An open file or a chunk generator can be read only once."""
        sources = sources_for(case)
        if kind == "file":
            one_shot = {h: io.StringIO(text) for h, text in sources.items()}
        else:
            one_shot = {h: (chunk for chunk in chunks)
                        for h, chunks in chunked(sources, 29).items()}
        save_materialized(sources, str(tmp_path / "ref.db"))
        save_streaming(one_shot, str(tmp_path / "stream.db"),
                       chunk_elements=7, chunk_chars=29)
        assert stored_rows(str(tmp_path / "stream.db")) == \
            stored_rows(str(tmp_path / "ref.db"))

    def test_reads_each_source_once(self, tmp_path):
        sources = sources_for("three-overlapping")
        reads: Counter[str] = Counter()

        def factory(hierarchy):
            def chunks():
                reads[hierarchy] += 1
                return iter(chunked(sources, 64)[hierarchy])
            return chunks

        save_streaming({h: factory(h) for h in sources},
                       str(tmp_path / "stream.db"), chunk_elements=7)
        assert reads == {h: 1 for h in sources}
        save_materialized(sources, str(tmp_path / "ref.db"))
        assert stored_rows(str(tmp_path / "stream.db")) == \
            stored_rows(str(tmp_path / "ref.db"))

    @pytest.mark.parametrize("case", sorted(SINGLE_DEFECTS))
    def test_defect_raises_like_parse_concurrent(self, case, tmp_path):
        """A defect found mid-merge, after element rows were flushed,
        raises what ``parse_concurrent`` raises and leaves no rows."""
        path = str(tmp_path / "doc.db")
        backend = SqliteStore(path)

        def save(sources):
            stream_save(backend, sources, "doc", chunk_elements=1)

        try:
            for label, sources in fed(SINGLE_DEFECTS[case]):
                want = outcome(parse_concurrent, sources)
                assert want is not None, label
                assert outcome(save, sources) == want, label
                assert backend.names() == [], label
        finally:
            backend.close()
        conn = sqlite3.connect(path)
        try:
            for table in ("documents", "elements", "collection_summary"):
                assert conn.execute(
                    f"SELECT count(*) FROM {table}"
                ).fetchone() == (0,), table
        finally:
            conn.close()

    def test_refuses_existing_name_then_overwrites(self, tmp_path):
        path = str(tmp_path / "doc.db")
        backend = SqliteStore(path)
        try:
            stream_save(backend, HAND, "doc")
            with pytest.raises(StorageError):
                stream_save(backend, HAND, "doc")
            stamp = stream_save(backend, HAND, "doc", overwrite=True)
            assert stamp
            assert backend.names() == ["doc"]
        finally:
            backend.close()

    def test_nothing_visible_until_finalize_and_abort_is_clean(
            self, tmp_path):
        path = str(tmp_path / "doc.db")
        backend = SqliteStore(path)
        try:
            session = backend.begin_stream_ingest("doc")
            session.add_elements(
                [(1, "a", "w", 0, 2, 0, "{}")]
            )
            session.append_text("hi")
            assert backend.names() == []
            session.abort()
            assert backend.names() == []
            conn = sqlite3.connect(path)
            assert conn.execute(
                "SELECT count(*) FROM documents"
            ).fetchone() == (0,)
            assert conn.execute(
                "SELECT count(*) FROM elements"
            ).fetchone() == (0,)
            conn.close()
        finally:
            backend.close()

    def test_failing_source_aborts_the_staging_row(self, tmp_path):
        def poisoned():
            yield HAND["a"][:20]
            raise RuntimeError("disk gone")

        path = str(tmp_path / "doc.db")
        backend = SqliteStore(path)
        try:
            with pytest.raises(RuntimeError, match="disk gone"):
                stream_save(
                    backend,
                    {"a": lambda: poisoned(), "b": HAND["b"]},
                    "doc",
                )
            assert backend.names() == []
        finally:
            backend.close()

    def test_crashed_staging_rows_are_reclaimed(self, tmp_path):
        path = str(tmp_path / "doc.db")
        backend = SqliteStore(path)
        obs.reset()
        obs.enable()
        try:
            # A "crashed" ingest: the session is simply never finalized
            # nor aborted (process death leaves exactly this residue).
            backend.begin_stream_ingest("doc").add_elements(
                [(1, "a", "w", 0, 2, 0, "{}")]
            )
            conn = sqlite3.connect(path)
            staged = conn.execute(
                "SELECT name FROM documents WHERE name GLOB ?",
                (STAGING_PREFIX + "*",),
            ).fetchall()
            conn.close()
            assert len(staged) == 1
            stream_save(backend, HAND, "doc")
            counters = obs.metrics.snapshot()["counters"]
            assert counters.get("storage.stream_staging_reclaimed") == 1
            conn = sqlite3.connect(path)
            names = [n for (n,) in conn.execute(
                "SELECT name FROM documents"
            )]
            conn.close()
            assert names == ["doc"]
        finally:
            obs.disable()
            obs.reset()
            backend.close()

    def test_roundtrips_through_the_normal_loader(self, tmp_path):
        sources = sources_for("two-overlapping")
        path = str(tmp_path / "doc.db")
        save_streaming(sources, path)
        with GoddagStore(path) as store:
            document = store.load("doc")
            assert census(document) == census(parse_concurrent(sources))
            assert store.index_stamp("doc")

    def test_store_facade_save_stream(self, tmp_path):
        with GoddagStore(str(tmp_path / "doc.db")) as store:
            stamp = store.save_stream(HAND, "doc")
            assert stamp
            assert store.names() == ["doc"]
            assert store.index_stamp("doc") == stamp


class TestCorpusStreams:
    def test_add_streams_and_lazy_add_many(self, tmp_path):
        corpus = Corpus(tmp_path / "corpus.db", pool_size=2)
        obs.reset()
        obs.enable()
        try:
            stamps = corpus.add_streams(
                (sources_for(case), case)
                for case in ("hand", "one-hierarchy")
            )
            assert sorted(stamps) == ["hand", "one-hierarchy"]

            def lazily():
                yield parse_concurrent(
                    sources_for("two-overlapping")
                ), "materialized"

            corpus.add_many(lazily())
            assert sorted(corpus.names()) == [
                "hand", "materialized", "one-hierarchy",
            ]
            counters = obs.metrics.snapshot()["counters"]
            assert counters.get("collection.ingest_docs") == 3
        finally:
            obs.disable()
            obs.reset()
            corpus.close()

    def test_an_open_ingest_is_invisible_to_collection_queries(
            self, tmp_path):
        """Per-chunk counts reach the staging document's summary rows
        before ``finalize``; routing must skip them, as ``names()``
        does, so a query answers as if the ingest had not begun."""
        path = tmp_path / "corpus.db"
        corpus = Corpus(path, pool_size=2)
        ingest = SqliteStore(str(path), wal=True)
        try:
            corpus.add_streams([(sources_for("hand"), "hand")])
            expressions = ("collection()//w", "collection()//line",
                           "collection()//*[@x='1']",
                           "collection()//w[contains(., 'wo')]")
            before = {e: corpus.query(e).hits for e in expressions}
            before_stats = corpus.stats()["counts"]

            def unchanged() -> None:
                assert ingest.route_documents([("tag", "line")]) == []
                assert ingest.route_documents([("tag", "w")]) == ["hand"]
                for expression in expressions:
                    assert corpus.query(expression).hits \
                        == before[expression]
                    assert corpus.query(expression, routing=False).hits \
                        == before[expression]
                assert corpus.stats()["counts"] == before_stats

            session = ingest.begin_stream_ingest("late")
            session.add_elements(
                [(1, "physical", "line", 0, 2, 0, '{"x": "1"}'),
                 (2, "physical", "w", 0, 2, 1, "{}")])
            session.append_text("wo")
            unchanged()
            session.append_paths([("line", "line", 1), ("line/w", "w", 1)])
            session.append_terms([("wo", 1)])
            unchanged()
            session.abort()
        finally:
            ingest.close()
            corpus.close()


# -- lazy layer -----------------------------------------------------------------


@pytest.fixture(scope="module")
def lazy_fixture(tmp_path_factory):
    sources = sources_for("three-overlapping")
    path = str(tmp_path_factory.mktemp("lazy") / "doc.db")
    save_streaming(sources, path)
    backend = SqliteStore(path)
    yield backend, parse_concurrent(sources)
    backend.close()


class TestLazyDocument:
    SERVED = ["//w", "//line", "//seg", "//page", "//w[@n='3']",
              "//line[@n='2']", "//w['3'=@n]"]
    FALLBACK = ["//seg//w", "//line[2]", "//w[contains(., 'a')]"]

    @pytest.mark.parametrize("query", SERVED)
    def test_served_shapes_match_materialized(self, lazy_fixture, query):
        backend, reference = lazy_fixture
        lazy = LazyDocument(backend, "doc")
        want = node_rows(ExtendedXPath(query).evaluate(reference,
                                                       index=False))
        assert tuple(lazy.xpath(query)) == want
        assert lazy.rows_decoded <= max(len(want) * 4, 16), (
            "an index-served shape should hydrate only candidate rows"
        )

    @pytest.mark.parametrize("query", FALLBACK)
    def test_fallback_shapes_match_materialized(self, lazy_fixture, query):
        backend, reference = lazy_fixture
        lazy = LazyDocument(backend, "doc")
        want = node_rows(ExtendedXPath(query).evaluate(reference,
                                                       index=False))
        assert tuple(lazy.xpath(query)) == want

    def test_fallback_is_observable(self, lazy_fixture):
        backend, _ = lazy_fixture
        obs.reset()
        obs.enable()
        try:
            LazyDocument(backend, "doc").xpath("//seg//w")
            counters = obs.metrics.snapshot()["counters"]
            assert counters.get(
                "streaming.lazy_xpath.unsupported-shape"
            ) == 1
        finally:
            obs.disable()
            obs.reset()

    def test_subtree_identity(self, lazy_fixture):
        backend, reference = lazy_fixture

        def walk(element):
            yield element
            for child in element.element_children:
                yield from walk(child)

        lazy = LazyDocument(backend, "doc")
        parents = [e for e in reference.ordered_elements()
                   if e.element_children][:5]
        assert parents
        for element in parents:
            subtree = lazy.subtree(element.ordinal)
            got = {(r.elem_id, r.tag, r.start, r.end)
                   for r in subtree.rows}
            want = {(x.ordinal, x.tag, x.start, x.end)
                    for x in walk(element)}
            assert got == want
        assert lazy.rows_decoded < reference.element_count()

    def test_text_and_metadata(self, lazy_fixture):
        backend, reference = lazy_fixture
        lazy = LazyDocument(backend, "doc")
        assert lazy.length == len(reference.text)
        assert lazy.text(0, 25) == reference.text[:25]
        assert lazy.text(5, 5) == ""
        assert lazy.text(0, len(reference.text) + 10) == reference.text
        assert lazy.root_tag == reference.root.tag
        assert dict(lazy.root_attributes) == dict(reference.root.attributes)
        assert lazy.hierarchies == list(reference.hierarchy_names())

    @pytest.mark.parametrize("start, end", [(5, 2), (-1, 3)])
    def test_text_rejects_a_reversed_or_negative_window(
            self, lazy_fixture, start, end):
        backend, _ = lazy_fixture
        lazy = LazyDocument(backend, "doc")
        with pytest.raises(StorageError, match=rf"\[{start}, {end}\)"):
            lazy.text(start, end)

    def test_rows_decoded_counts_cache_misses_once(self, lazy_fixture):
        backend, _ = lazy_fixture
        lazy = LazyDocument(backend, "doc")
        lazy.xpath("//page")
        first = lazy.rows_decoded
        assert first > 0
        lazy.xpath("//page")
        assert lazy.rows_decoded == first

    def test_lazy_facade_requires_sqlite(self, tmp_path):
        with GoddagStore(str(tmp_path / "doc.db")) as store:
            store.save_stream(HAND, "doc")
            lazy = store.lazy("doc")
            assert lazy.root_tag == "d"


#: The root is ``<r a="v">``; hierarchy ``h`` also holds an ``<r>``.
ROOTED = {"h": '<r a="v"><r n="1">ab</r><x>cd</x></r>',
          "g": '<r a="v"><y>abc</y>d</r>'}


@pytest.mark.parametrize("query, selects_root", [
    ("//r", True), ("//r[@a='v']", True), ("//h:r", False),
])
def test_lazy_name_test_selecting_the_root(query, selects_root):
    """The root element has no element row: a name test that selects it
    is answered from the root columns the view holds, with no fallback
    and no row decoded for it; a hierarchy-qualified test never selects
    it."""
    document = parse_concurrent(ROOTED)
    backend = SqliteStore(":memory:")
    backend.save_indexed(document, "d", manager=IndexManager(document))
    want = node_rows(ExtendedXPath(query).evaluate(backend.load("d"),
                                                   index=False))
    obs.reset()
    obs.enable()
    try:
        lazy = LazyDocument(backend, "d")
        assert lazy.xpath(query) == want
        counters = obs.metrics.snapshot()["counters"]
    finally:
        obs.disable()
        obs.reset()
        backend.close()
    assert not any(name.startswith("streaming.lazy_xpath")
                   for name in counters)
    assert lazy.rows_decoded == len(want) - selects_root
    assert ("r" in {row[3] for row in want if row[2] == ""}) == selects_root


def test_lazy_root_only_query_decodes_nothing():
    document = parse_concurrent({"g": ROOTED["g"]})
    backend = SqliteStore(":memory:")
    backend.save(document, "d")
    lazy = LazyDocument(backend, "d")
    try:
        want = node_rows(ExtendedXPath("//r").evaluate(backend.load("d"),
                                                       index=False))
        assert lazy.xpath("//r") == want == (
            ("element", 0, "", "r", 0, 4, (("a", "v"),)),)
        assert lazy.rows_decoded == 0
    finally:
        backend.close()


# -- hard memory cap (CI's memory-bounded step) ---------------------------------


def _capped_ingest(pipe, sources, path, headroom_bytes):
    import resource

    try:
        with open("/proc/self/statm") as fh:
            vm_pages = int(fh.read().split()[0])
        cap = vm_pages * os.sysconf("SC_PAGE_SIZE") + headroom_bytes
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        backend = SqliteStore(path)
        stream_save(backend, sources, "doc")
        backend.close()
        pipe.send(("ok", cap))
    except BaseException as exc:
        pipe.send(("err", repr(exc)))
    finally:
        pipe.close()


@pytest.mark.skipif(
    not os.environ.get("REPRO_STREAM_RLIMIT"),
    reason="hard-RSS-cap run is opt-in (REPRO_STREAM_RLIMIT=1)",
)
def test_stream_ingest_under_hard_address_space_cap(tmp_path):
    """CI's memory-bounded streaming step: a full-size document must
    stream-ingest inside a hard ``RLIMIT_AS`` ceiling set just above
    the interpreter's own footprint.  The default 8 MiB headroom is a
    discriminating cap — the materializing parse-then-save path dies
    with ``MemoryError`` under it (measured: it needs >12 MiB), while
    the streaming arm fits with 2x margin."""
    import multiprocessing

    spec = WorkloadSpec(words=8000, hierarchies=4,
                        overlap_density=0.15, seed=2005)
    sources = export_distributed(generate(spec))
    headroom = int(os.environ.get("REPRO_STREAM_RLIMIT_HEADROOM",
                                  8 * 1024 * 1024))
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_capped_ingest,
        args=(child, sources, str(tmp_path / "doc.db"), headroom),
    )
    proc.start()
    child.close()
    status, detail = parent.recv()
    proc.join()
    assert status == "ok", f"capped streaming ingest failed: {detail}"
    rows = stored_rows(str(tmp_path / "doc.db"))
    assert rows["documents"] and rows["elements"]
