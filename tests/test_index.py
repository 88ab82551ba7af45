"""Tests for the index subsystem (repro.index).

Covers the three indexes and the manager in isolation, the engine
equivalence guarantee (indexed query results byte-identical to the
unindexed engine), and index persistence in the sqlite store.
"""

import pytest

from repro.core.goddag import GoddagBuilder
from repro.index import (
    IndexManager,
    StructuralSummary,
    TermIndex,
    tokenize,
)
from repro.storage import GoddagStore
from repro.workloads import WorkloadSpec, generate
from repro.xpath import ExtendedXPath

from _summary_oracle import collection_summary_rows


def small_document():
    builder = GoddagBuilder("sing a song of sixpence")
    builder.add_hierarchy("physical")
    builder.add_hierarchy("linguistic")
    builder.add_annotation("physical", "line", 0, 11)
    builder.add_annotation("physical", "line", 12, 23)
    builder.add_annotation("physical", "pb", 12, 12)
    builder.add_annotation("linguistic", "phrase", 5, 23)
    builder.add_annotation("linguistic", "w", 0, 4)
    builder.add_annotation("linguistic", "w", 7, 11)
    return builder.build()


@pytest.fixture(scope="module")
def corpus():
    return generate(WorkloadSpec(words=600, hierarchies=5, overlap_density=0.3))


# -- tokenizer & term index ----------------------------------------------------

class TestTokenize:
    def test_offsets_and_tokens(self):
        assert list(tokenize("sing a song")) == [
            (0, "sing"), (5, "a"), (7, "song"),
        ]

    def test_punctuation_splits(self):
        assert [t for _, t in tokenize("ab,cd--ef")] == ["ab", "cd", "ef"]

    def test_trailing_token_and_empty(self):
        assert list(tokenize("end")) == [(0, "end")]
        assert list(tokenize("")) == []
        assert list(tokenize("  ,; ")) == []


class TestTermIndex:
    def test_postings(self):
        index = TermIndex.from_text("a song of song")
        assert index.postings("song") == [2, 10]
        assert index.postings("missing") == []

    def test_occurrences_inside_tokens(self):
        index = TermIndex.from_text("singing rings")
        # "ing" occurs twice inside "singing" and once inside "rings".
        assert index.occurrences("ing") == [1, 4, 9]

    def test_overlapping_occurrences(self):
        index = TermIndex.from_text("aaaa")
        assert index.occurrences("aa") == [0, 1, 2]

    def test_span_contains_matches_substring(self):
        text = "sing a song of sixpence"
        index = TermIndex.from_text(text)
        for needle in ("si", "song", "xpen", "q"):
            for start in range(len(text)):
                for end in range(start, len(text) + 1):
                    assert index.span_contains(start, end, needle) == (
                        needle in text[start:end]
                    ), (needle, start, end)

    def test_is_indexable_gate(self):
        assert TermIndex.is_indexable("abc")
        assert TermIndex.is_indexable("b12")
        assert not TermIndex.is_indexable("")
        assert not TermIndex.is_indexable("a b")
        assert not TermIndex.is_indexable("a-b")
        with pytest.raises(ValueError):
            TermIndex.from_text("x").occurrences("a b")

    def test_occurrences_result_is_caller_owned(self):
        index = TermIndex.from_text("a song of song")
        first = index.occurrences("song")
        first.append(999)
        assert index.occurrences("song") == [2, 10]  # cache unpoisoned
        assert index.span_contains(9, 14, "song")
        assert not index.span_contains(11, 14, "song")


# -- structural summary --------------------------------------------------------

class TestStructuralSummary:
    def test_candidates_follow_document_order(self, corpus):
        summary = StructuralSummary(corpus)
        for tag in ("w", "line", "s", "vline"):
            expected = [e for e in corpus.ordered_elements() if e.tag == tag]
            assert summary.candidates(tag) == expected

    def test_hierarchy_qualified_candidates(self, corpus):
        summary = StructuralSummary(corpus)
        expected = [
            e for e in corpus.ordered_elements() if e.hierarchy == "physical"
        ]
        assert summary.candidates("*", "physical") == expected
        assert summary.candidates("line", "physical") == [
            e for e in expected if e.tag == "line"
        ]
        assert summary.candidates("line", "linguistic") == []

    def test_bare_wildcard_declines(self, corpus):
        assert StructuralSummary(corpus).candidates("*") is None

    def test_label_paths(self):
        summary = StructuralSummary(small_document())
        paths = {
            (h, path): n for h, path, n in summary.label_paths()
        }
        assert paths[("physical", ("line",))] == 2
        # The pb anchor at offset 12 nests inside the second line.
        assert paths[("physical", ("line", "pb"))] == 1
        assert paths[("linguistic", ("phrase", "w"))] == 1
        assert paths[("linguistic", ("w",))] == 1

    def test_partition_members(self):
        document = small_document()
        summary = StructuralSummary(document)
        nested = summary.partition("linguistic", ("phrase", "w"))
        assert [e.span.start for e in nested] == [7]

    def test_path_encoding_is_injective(self):
        from repro.index.structural import decode_path, encode_path

        tricky = [("a", "b"), ("a/b",), ("a\\", "b"), ("a\\/b",), ("a", "", "b")]
        encoded = [encode_path(p) for p in tricky]
        assert len(set(encoded)) == len(tricky)
        for path, enc in zip(tricky, encoded):
            assert decode_path(enc) == path

    def test_separator_in_tag_does_not_collide(self):
        """Tags are never validated, so 'a/b' as a literal tag must not
        collide with the nested a>b label path in persisted indexes."""
        builder = GoddagBuilder("hello world")
        builder.add_hierarchy("h")
        builder.add_annotation("h", "a", 0, 5)
        builder.add_annotation("h", "b", 0, 5)
        builder.add_annotation("h", "a/b", 6, 11)
        document = builder.build()
        summary = StructuralSummary(document)
        assert [e.start for e in summary.partition("h", ("a", "b"))] == [0]
        assert [e.start for e in summary.partition("h", ("a/b",))] == [6]
        payload = IndexManager(document).payload("d")
        assert len({(h, p) for h, p, *_ in payload["paths"]}) == 3

    def test_tag_count(self, corpus):
        summary = StructuralSummary(corpus)
        assert summary.tag_count("w") == sum(
            1 for e in corpus.elements() if e.tag == "w"
        )
        assert summary.tag_count("w", "physical") == 0

    def test_candidate_lists_are_caller_owned(self, corpus):
        summary = StructuralSummary(corpus)
        first = summary.candidates("w")
        first.clear()
        assert summary.candidates("w")  # internal partition untouched


# -- the manager ---------------------------------------------------------------

class TestIndexManager:
    def test_attach_and_detach(self, corpus):
        manager = IndexManager.for_document(corpus)
        try:
            assert corpus.index_manager is manager
        finally:
            manager.detach()
        assert corpus.index_manager is None

    def test_contains_span_exact(self, corpus):
        manager = IndexManager(corpus)
        text = corpus.text
        for needle in ("gar", "aeth", "zz"):
            for start, end in ((0, 50), (13, 13), (40, 400)):
                assert manager.contains_span(start, end, needle) == (
                    needle in text[start:end]
                )

    def test_payload_shape(self, corpus):
        payload = IndexManager(corpus).payload("ms")
        assert payload["name"] == "ms"
        assert payload["doc_length"] == corpus.length
        assert set(payload) == {"format", "name", "doc_length", "terms",
                                "paths", "attrs"}
        assert payload["terms"]
        assert all(len(row) == 5 for row in payload["paths"])


# -- engine equivalence --------------------------------------------------------

EQUIVALENCE_QUERIES = [
    "//w",
    "//s/w",
    "//line[@n='3']",
    "//physical:line",
    "//physical:*",
    "//r",
    "//pb",
    "/descendant-or-self::page",
    "//vline/overlapping::line",
    "//line/contained::w",
    "//w[contains(., 'gar')]",
    "//s[contains(., 'en')]/w",
    "//w[contains(., 'a b')]",      # non-indexable literal: falls back
    "//line[contains(@n, '1')]",    # non-self subject: falls back
    "//w[2]",                       # positional predicate
    "//page[last()]",
    "count(//w)",
    "string(//s[1])",
]


class TestEngineEquivalence:
    @pytest.mark.parametrize("expression", EQUIVALENCE_QUERIES)
    def test_indexed_results_identical(self, corpus, expression):
        query = ExtendedXPath(expression)
        plain = query.evaluate(corpus)
        manager = IndexManager.for_document(corpus)
        try:
            indexed = query.evaluate(corpus)
            explicit = query.evaluate(corpus, index=manager)
        finally:
            manager.detach()
        assert indexed == plain
        assert explicit == plain

    def test_small_document_equivalence(self):
        document = small_document()
        queries = ["//w", "//line", "//phrase/overlapping::line",
                   "//w[contains(., 'song')]", "//pb"]
        plain = {q: ExtendedXPath(q).nodes(document) for q in queries}
        IndexManager.for_document(document)
        for q in queries:
            assert ExtendedXPath(q).nodes(document) == plain[q]

    def test_foreign_manager_is_ignored(self, corpus):
        other = small_document()
        manager = IndexManager(other)
        query = ExtendedXPath("//w")
        assert query.nodes(corpus, index=manager) == query.nodes(corpus)

    def test_variable_bound_foreign_nodes_fall_back(self):
        """Nodes of another document smuggled in through a variable must
        not be answered from this document's term index."""
        home = small_document()
        foreign = GoddagBuilder("world world")
        foreign.add_hierarchy("h")
        foreign.add_annotation("h", "w", 0, 5)
        foreign_doc = foreign.build()
        bound = list(foreign_doc.elements(tag="w"))
        query = ExtendedXPath("$v[contains(., 'world')]")
        plain = query.evaluate(home, variables={"v": bound})
        IndexManager.for_document(home)  # 'world' is absent from home's text
        indexed = query.evaluate(home, variables={"v": bound})
        home.detach_index()
        assert plain == indexed == bound


# -- storage persistence -------------------------------------------------------

@pytest.mark.parametrize("backend", ["sqlite"])
class TestStoredIndexes:
    def _store(self, tmp_path):
        return GoddagStore(tmp_path / "db.sqlite")

    def test_span_query_is_unchanged_by_an_index(self, backend, tmp_path,
                                                 corpus):
        with self._store(tmp_path) as store:
            saved = store.save(corpus, "ms")
            windows = [(0, 60), (100, 101), (250, 500), (0, corpus.length)]
            plain = [store.elements_intersecting("ms", s, e)
                     for s, e in windows]
            rebuilt = store.build_index("ms")
            assert store.index_stamp("ms") == rebuilt != saved
            for (s, e), expected in zip(windows, plain):
                assert store.elements_intersecting("ms", s, e) == expected

    def test_index_survives_reopen(self, backend, tmp_path, corpus):
        location = tmp_path / "db.sqlite"
        with GoddagStore(location) as store:
            store.save(corpus, "ms")
            stamp = store.build_index("ms")
            expected = store.elements_intersecting("ms", 90, 180)
        with GoddagStore(location) as fresh:
            assert fresh.index_stamp("ms") == stamp
            assert fresh.elements_intersecting("ms", 90, 180) == expected

    def test_term_occurrences(self, backend, tmp_path, corpus):
        with self._store(tmp_path) as store:
            store.save(corpus, "ms")
            store.build_index("ms")
            text = corpus.text
            for needle in ("gar", "aeth", "zzz"):
                brute, position = [], text.find(needle)
                while position != -1:
                    brute.append(position)
                    position = text.find(needle, position + 1)
                assert store.term_occurrences("ms", needle) == brute

    def test_count_tag(self, backend, tmp_path, corpus):
        with self._store(tmp_path) as store:
            store.save(corpus, "ms")
            lines = sum(1 for _ in corpus.elements(tag="line"))
            assert store.count_tag("ms", "line") == lines
            store.build_index("ms")
            assert store.count_tag("ms", "line") == lines
            assert store.count_tag("ms", "nope") == 0

    def test_overwrite_drops_index(self, backend, tmp_path, corpus):
        """An overwrite drops the old document's index with its rows and
        stores the new document's index under a fresh stamp, in the same
        transaction."""
        replacement = GoddagBuilder("one two")
        replacement.add_hierarchy("h")
        replacement.add_annotation("h", "line", 0, 3)
        with self._store(tmp_path) as store:
            store.save(corpus, "ms")
            built = store.build_index("ms")
            stamp = store.save(replacement.build(), "ms", overwrite=True)
            assert store.index_stamp("ms") == stamp != built
            assert store.count_tag("ms", "line") == 1
            assert store.count_tag("ms", "w") == 0
            assert store.elements_intersecting("ms", 0, 80) == [
                ("h", "line", 0, 3)]

    def test_delete_document_removes_index(self, backend, tmp_path, corpus):
        with self._store(tmp_path) as store:
            first = store.save(corpus, "ms")
            store.delete("ms")
            assert not store.has("ms")
            for table in ("index_meta", "collection_summary"):
                assert store._conn.execute(
                    f"SELECT COUNT(*) FROM {table}").fetchone() == (0,)
            assert store.save(corpus, "ms") != first

    def test_separator_tags_index_on_both_backends(self, backend, tmp_path):
        builder = GoddagBuilder("hello world")
        builder.add_hierarchy("h")
        builder.add_annotation("h", "a", 0, 5)
        builder.add_annotation("h", "b", 0, 5)
        builder.add_annotation("h", "a/b", 6, 11)
        document = builder.build()
        with self._store(tmp_path) as store:
            store.save(document, "d")
            store.build_index("d")  # must not collide on the path key
            assert store.count_tag("d", "a/b") == 1
            assert store.count_tag("d", "b") == 1
            assert ("h", "a/b", 6, 11) in store.elements_intersecting(
                "d", 0, 11)

    def test_second_store_rewrite_is_seen(self, backend, tmp_path):
        """Two stores on one location: a rewrite + reindex through store B
        must not leave store A serving the old index from its cache."""
        location = tmp_path / "db.sqlite"

        def doc(tag, text):
            builder = GoddagBuilder(text)
            builder.add_hierarchy("p")
            builder.add_annotation("p", tag, 0, 4)
            return builder.build()

        store_a = GoddagStore(location)
        store_b = GoddagStore(location)
        try:
            store_a.save(doc("x", "abcd efgh"), "d")
            store_a.build_index("d")
            assert store_a.elements_intersecting("d", 0, 4) == [
                ("p", "x", 0, 4)]
            assert store_a.term_occurrences("d", "efgh") == [5]
            store_b.save(doc("y", "abcd wxyz"), "d", overwrite=True)
            store_b.build_index("d")
            assert store_a.elements_intersecting("d", 0, 4) == [
                ("p", "y", 0, 4)]
            assert store_a.term_occurrences("d", "wxyz") == [5]
            assert store_a.term_occurrences("d", "efgh") == []
        finally:
            store_a.close()
            store_b.close()

    def test_summary_rows_are_the_payload_counts(self, backend, tmp_path,
                                                 corpus):
        with self._store(tmp_path) as store:
            store.save(corpus, "ms")
            store.build_index("ms")
            payload = IndexManager(corpus).payload("ms")
            stored = store._conn.execute(
                "SELECT kind, key, n FROM collection_summary").fetchall()
            assert sorted(stored) == sorted(collection_summary_rows(payload))
            assert store._conn.execute(
                "SELECT format, doc_length FROM index_meta").fetchall() \
                == [(payload["format"], payload["doc_length"])]
