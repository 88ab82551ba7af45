"""End-to-end integration: the full demo workflow on one document.

Follows the lifecycle the demonstration walks through: author a
multihierarchical edition with prevalidation, query it with Extended
XPath, filter it, push it through every representation, store it, load
it, and get the same answers everywhere.
"""

import pytest

import repro
from repro import (
    Editor,
    ExtendedXPath,
    GoddagBuilder,
    GoddagStore,
    documents_isomorphic,
    export_fragmentation,
    parse_concurrent,
    parse_dtd,
    parse_fragmentation,
    project,
    validate_document,
    xpath,
)
from repro.workloads import figure_one_document


class TestPublicApiSurface:
    def test_all_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__


class TestAuthorThenQueryThenStore:
    DTD = parse_dtd(
        """
        <!ELEMENT r (line+)>
        <!ELEMENT line (#PCDATA)>
        <!ATTLIST line n NMTOKEN #REQUIRED>
        """
    )

    @pytest.fixture()
    def edition(self):
        text = "hwaet we gardena in geardagum"
        builder = GoddagBuilder(text)
        builder.add_hierarchy("phys", dtd=self.DTD)
        builder.add_hierarchy("ling")
        doc = builder.build()
        editor = Editor(doc)
        editor.insert_markup("phys", "line", 0, 16, {"n": "1"})
        editor.insert_markup("phys", "line", 17, 29, {"n": "2"})
        editor.insert_markup("ling", "np", 9, 29)  # crosses the line break
        for word in ("hwaet", "we", "gardena", "in", "geardagum"):
            start, end = editor.find_text(word)
            editor.insert_markup("ling", "w", start, end)
        return doc

    def test_authored_edition_is_valid(self, edition):
        assert validate_document(edition) == []

    def test_overlap_query(self, edition):
        lines = xpath(edition, "//np/overlapping::line")
        assert [line.get("n") for line in lines] == ["1"]

    def test_same_answers_after_every_hop(self, edition, tmp_path):
        query = ExtendedXPath("//np/overlapping::line/contained::w")
        reference = [(w.start, w.end) for w in query.nodes(edition)]
        assert reference  # non-trivial

        # hop 1: fragmentation round trip
        hop1 = parse_fragmentation(export_fragmentation(edition))
        assert [(w.start, w.end) for w in query.nodes(hop1)] == reference

        # hop 2: sqlite storage round trip
        with GoddagStore(str(tmp_path / "e.db")) as store:
            store.save(hop1, "edition")
            hop2 = store.load("edition")
        assert [(w.start, w.end) for w in query.nodes(hop2)] == reference

        # hop 3: reopen the sqlite store and load again
        with GoddagStore(str(tmp_path / "e.db")) as store:
            store.save(hop2, "edition", overwrite=True)
        with GoddagStore(str(tmp_path / "e.db")) as store:
            hop3 = store.load("edition")
        assert [(w.start, w.end) for w in query.nodes(hop3)] == reference
        assert documents_isomorphic(edition, hop3)

    def test_projection_drops_cross_hierarchy_answers(self, edition):
        phys_only = project(edition, ["phys"])
        assert xpath(phys_only, "//np") == []
        assert len(xpath(phys_only, "//line")) == 2


class TestCorpusEndToEnd:
    def test_figure_one_through_storage_and_back(self, tmp_path):
        doc = figure_one_document()
        with GoddagStore(str(tmp_path / "c.db")) as store:
            store.save(doc, "boethius")
            again = store.load("boethius")
        assert documents_isomorphic(doc, again)
        assert validate_document(again) == []
        # The DTDs survived storage, so prevalidation still works.
        assert again.hierarchy("physical").dtd is not None

    def test_editor_on_reloaded_document(self, tmp_path):
        doc = figure_one_document()
        with GoddagStore(str(tmp_path / "c.db")) as store:
            store.save(doc, "boethius")
            again = store.load("boethius")
        editor = Editor(again)
        pb = editor.insert_markup(
            "physical", "pb", 59, 59, {"facs": "folio"}
        )
        assert pb.is_empty
        assert editor.validate("physical") == []

    def test_distributed_equals_direct_corpus(self):
        from repro.workloads import FRAGMENT_SOURCES

        assert documents_isomorphic(
            figure_one_document(), parse_concurrent(FRAGMENT_SOURCES)
        )
