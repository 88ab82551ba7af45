"""Unit tests for the offset-tracking XML scanner."""

import sqlite3

import pytest

from repro._util import unescape
from repro.errors import WellFormednessError
from repro.sacx.parser import parse_concurrent
from repro.sacx.scanner import (
    COMMENT,
    DEFAULT_CHUNK_CHARS,
    DOCTYPE,
    EMPTY,
    END,
    PI,
    START,
    TEXT,
    StreamingXmlScanner,
    scan,
)
from repro.storage.sqlite_backend import STAGING_PREFIX, SqliteStore
from repro.streaming import stream_save


def kinds(source):
    return [token.kind for token in scan(source)]


def _chunks(source: str, chunk_chars: int) -> list[str]:
    """``source`` in ``chunk_chars`` pieces, as a streamed input arrives."""
    return [source[at:at + chunk_chars]
            for at in range(0, len(source), chunk_chars)]


class TestBasicTokens:
    def test_simple_document(self):
        tokens = list(scan("<r>hello</r>"))
        assert [t.kind for t in tokens] == [START, TEXT, END]
        assert tokens[0].name == "r"
        assert tokens[1].data == "hello"
        assert tokens[2].name == "r"

    def test_empty_element(self):
        tokens = list(scan("<r><pb/></r>"))
        assert [t.kind for t in tokens] == [START, EMPTY, END]
        assert tokens[1].name == "pb"

    def test_attributes(self):
        token = next(scan('<page n="3" rend=\'red\'/>'))
        assert token.attribute_dict == {"n": "3", "rend": "red"}

    def test_attribute_entities(self):
        token = next(scan('<a title="Tom &amp; Jerry &#x41;"/>'))
        assert token.attribute_dict == {"title": "Tom & Jerry A"}

    def test_text_entities(self):
        tokens = list(scan("<r>&lt;tag&gt; &amp; &quot;x&quot; &#65;</r>"))
        assert tokens[1].data == '<tag> & "x" A'

    def test_cdata(self):
        tokens = list(scan("<r><![CDATA[<not> & markup]]></r>"))
        assert tokens[1].kind == TEXT
        assert tokens[1].data == "<not> & markup"

    def test_comment(self):
        tokens = list(scan("<r><!-- note --></r>"))
        assert tokens[1].kind == COMMENT
        assert tokens[1].data == " note "

    def test_pi_and_decl(self):
        tokens = list(scan('<?xml version="1.0"?><r/>'))
        assert tokens[0].kind == PI

    def test_doctype_with_subset(self):
        source = '<!DOCTYPE r [ <!ELEMENT r (a)> ]><r><a/></r>'
        tokens = list(scan(source))
        assert tokens[0].kind == DOCTYPE
        assert "<!ELEMENT" in tokens[0].data

    def test_line_column_tracking(self):
        tokens = list(scan("<r>\n  <a/>\n</r>"))
        a = next(t for t in tokens if t.kind == EMPTY)
        assert a.line == 2
        assert a.column == 3


class TestScannerErrors:
    @pytest.mark.parametrize("bad", [
        "<r><unclosed</r>",
        "<r attr></r>",
        "<r attr=value></r>",
        '<r a="1" a="2"></r>',
        "<r><!-- unterminated </r>",
        "<r><![CDATA[ unterminated </r>",
        "<1tag/>",
        "</>",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(WellFormednessError):
            list(scan(bad))

    def test_error_carries_position(self):
        with pytest.raises(WellFormednessError) as info:
            list(scan("<r>\n<broken</r>"))
        assert info.value.line == 2

    @pytest.mark.parametrize("chunk_chars", [1, 7, 64])
    def test_streaming_error_offset_counts_from_input_start(self, chunk_chars):
        source = "<r>" + "<w>word</w>\n" * 40 + '<w a="1" a="2"/></r>'
        with pytest.raises(WellFormednessError) as batch:
            list(scan(source))
        with pytest.raises(WellFormednessError) as streamed:
            list(StreamingXmlScanner(_chunks(source, chunk_chars)).tokens())
        assert streamed.value.offset == batch.value.offset
        assert source[batch.value.offset - 1] == '"'
        assert str(streamed.value) == str(batch.value)


BAD_REFERENCES = ["&#xZZ;", "&#;", "&#x;", "&#1114112;",
                  "&#99999999999999999999;"]


class TestCharacterReferences:
    """A numeric reference that names no code point is a well-formedness
    error at the token holding it, not a raw ``ValueError`` or
    ``OverflowError`` from decoding."""

    @pytest.mark.parametrize("ref", BAD_REFERENCES)
    def test_bad_reference_in_text(self, ref):
        with pytest.raises(WellFormednessError) as info:
            list(scan(f"<r>\n  <a/>ok {ref} more</r>"))
        assert (info.value.line, info.value.column) == (2, 7)
        assert ref in str(info.value)
        assert str(info.value).endswith("at line 2, column 7")

    @pytest.mark.parametrize("ref", BAD_REFERENCES)
    def test_bad_reference_in_attribute(self, ref):
        with pytest.raises(WellFormednessError) as info:
            list(scan(f'<r>\n <a n="1" v="x{ref}"/></r>'))
        assert (info.value.line, info.value.column) == (2, 2)
        assert ref in str(info.value)

    def test_good_references_still_decode(self):
        tokens = list(scan('<r a="&#x10FFFF;&#0;">&#1114111;&#X41;</r>'))
        assert tokens[0].attribute_dict == {"a": "\U0010ffff\x00"}
        assert tokens[1].data == "\U0010ffffA"

    def test_unknown_entity_passes_through_verbatim(self):
        tokens = list(scan('<r a="&nbsp;">&foo; &a&amp; &amp</r>'))
        assert tokens[0].attribute_dict == {"a": "&nbsp;"}
        assert tokens[1].data == "&foo; &a&amp; &amp"

    def test_unescape_leaves_unknown_entities_alone(self):
        assert unescape("&nbsp;&copy; a & b;") == "&nbsp;&copy; a & b;"
        assert unescape("no reference") == "no reference"

    @pytest.mark.parametrize("ref", BAD_REFERENCES)
    def test_unescape_raises_value_error(self, ref):
        with pytest.raises(ValueError, match="character reference"):
            unescape(ref)

    @pytest.mark.parametrize("ref", BAD_REFERENCES)
    def test_parse_concurrent(self, ref):
        with pytest.raises(WellFormednessError) as info:
            parse_concurrent({"a": f"<d><w>x{ref}</w></d>",
                              "b": "<d>xy</d>"})
        assert (info.value.line, info.value.column) == (1, 7)

    @pytest.mark.parametrize("ref", BAD_REFERENCES)
    @pytest.mark.parametrize("chunk_chars", [3, DEFAULT_CHUNK_CHARS])
    def test_streaming_scanner(self, ref, chunk_chars):
        source = f'<r>\n<a v="{ref}"/></r>'
        with pytest.raises(WellFormednessError) as info:
            list(StreamingXmlScanner(_chunks(source, chunk_chars)).tokens())
        assert (info.value.line, info.value.column) == (2, 1)

    @pytest.mark.parametrize("ref", BAD_REFERENCES)
    def test_stream_save_leaves_no_staging_rows(self, ref, tmp_path):
        path = str(tmp_path / "doc.db")
        reads = []

        def factory():
            # The staging row exists before the merge reads a source,
            # so the error is raised while staging rows exist.
            reads.append(1)
            return f"<d><w>t{ref}il</w></d>"

        backend = SqliteStore(path)
        try:
            for source in ({"a": f"<d><w>t{ref}il</w></d>",
                            "b": "<d>tAil</d>"},
                           {"a": factory, "b": "<d>tAil</d>"}):
                with pytest.raises(WellFormednessError) as info:
                    stream_save(backend, source, "doc")
                assert (info.value.line, info.value.column) == (1, 7)
                assert backend.names() == []
            conn = sqlite3.connect(path)
            try:
                for table in ("documents", "elements"):
                    assert conn.execute(
                        f"SELECT count(*) FROM {table}"
                    ).fetchone() == (0,), table
                assert conn.execute(
                    "SELECT count(*) FROM documents WHERE name GLOB ?",
                    (STAGING_PREFIX + "*",),
                ).fetchone() == (0,)
            finally:
                conn.close()
        finally:
            backend.close()
        assert len(reads) == 1
