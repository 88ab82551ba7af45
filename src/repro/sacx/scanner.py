r"""An offset-tracking XML scanner, written from scratch.

SACX needs to know, for every tag, the *character-content offset* at
which it occurs — the position in the text obtained by stripping all
markup.  Neither ElementTree nor SAX expose this reliably, so the
framework ships its own tokenizer.  It covers the XML subset that
document-centric editions use: elements, attributes, character data,
the five predefined entities plus numeric character references, CDATA
sections, comments, processing instructions and a skipped DOCTYPE.

Markup is recognized by precompiled patterns, not character by
character: one match reads a start/empty tag head, one each attribute,
one the tag close, and one a whole end tag.  Character data runs to the
next ``<`` (one ``str.find``), and comments, CDATA sections and
processing instructions to their closing delimiter.  Line and column
advance once per token.  A construct the fast patterns reject is
re-walked step by step with the same patterns to name the error and its
position; a malformed numeric character reference is reported at the
line and column of the token that holds it.

The patterns agree with the character classes of :mod:`repro._util`
on every code point: ``[\w:.\-]`` is :func:`~repro._util.is_name_char`
and ``\s`` is ``str.isspace``.  ``[\w:]`` admits every name-start
character but also digits and other non-letter alphanumerics, so the
first character of every name is checked with
:func:`~repro._util.is_name_start_char`.

The scanner reports *source* positions (line/column) for diagnostics;
the event layer (:mod:`repro.sacx.events`) converts the token stream
into content-offset events.
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple

from .._util import is_name_start_char, unescape
from ..errors import WellFormednessError

#: Token kinds.
START = "start"
END = "end"
EMPTY = "empty"
TEXT = "text"
COMMENT = "comment"
PI = "pi"
DOCTYPE = "doctype"

_NAME = r"[\w:][\w:.\-]*"

#: An XML name, first character not yet checked (see the module doc).
NAME = re.compile(_NAME)
#: A run of whitespace, possibly empty.
SPACE = re.compile(r"\s*")
_START_HEAD = re.compile(f"<({_NAME})")
_ATTRIBUTE = re.compile(rf"""\s*({_NAME})\s*=\s*(?:"([^"]*)"|'([^']*)')""")
_TAG_CLOSE = re.compile(r"\s*(/?)>")
_END_TAG = re.compile(rf"</({_NAME})\s*>")
_DOCTYPE_MARK = re.compile(r"[\[\]>]")


class Token(NamedTuple):
    """One lexical unit of the XML source."""

    kind: str
    name: str = ""
    data: str = ""
    attributes: tuple[tuple[str, str], ...] = ()
    line: int = 1
    column: int = 1

    @property
    def attribute_dict(self) -> dict[str, str]:
        return dict(self.attributes)


class XmlScanner:
    """Tokenize an XML source string."""

    #: Source offset of ``source[0]``; a streaming window moves it.
    _origin = 0

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1

    # -- error & movement helpers ------------------------------------------------

    def _error(self, message: str) -> WellFormednessError:
        return WellFormednessError(
            f"{message} at line {self.line}, column {self.column}",
            line=self.line, column=self.column, offset=self._origin + self.pos,
        )

    def _error_at(self, message: str, at: int) -> WellFormednessError:
        """Move to window position ``at`` and report ``message`` there."""
        self._advance(at - self.pos)
        return self._error(message)

    def _advance(self, count: int) -> None:
        source, pos = self.source, self.pos
        end = pos + count
        newlines = source.count("\n", pos, end)
        if newlines:
            self.line += newlines
            self.column = end - source.rfind("\n", pos, end)
        else:
            self.column += count
        self.pos = end

    def _find(self, literal: str, label: str) -> int:
        index = self.source.find(literal, self.pos)
        if index == -1:
            raise self._error(f"unterminated {label}")
        return index

    def _unescape(self, raw: str, line: int, column: int, start: int) -> str:
        """Decode ``raw``, blaming a bad reference on the token at ``start``."""
        try:
            return unescape(raw)
        except ValueError as exc:
            raise WellFormednessError(
                f"{exc} at line {line}, column {column}",
                line=line, column=column, offset=self._origin + start,
            ) from None

    # -- tokenization ----------------------------------------------------------------

    def tokens(self) -> Iterator[Token]:
        """Yield tokens until the end of the source."""
        source = self.source
        while self.pos < len(source):
            if source[self.pos] == "<":
                yield self._markup()
            else:
                yield self._text()

    def _text(self, end: int | None = None) -> Token:
        """Character data from here to ``end`` (default: the next ``<``)."""
        source, pos = self.source, self.pos
        line, column = self.line, self.column
        if end is None:
            end = source.find("<", pos)
            if end == -1:
                end = len(source)
        data = source[pos:end]
        self._advance(end - pos)
        if "&" in data:
            data = self._unescape(data, line, column, pos)
        return Token(TEXT, "", data, (), line, column)

    def _markup(self) -> Token:
        source, pos = self.source, self.pos
        second = source[pos + 1 : pos + 2]
        if second == "!":
            if source.startswith("<!--", pos):
                return self._delimited(COMMENT, 4, "-->", "comment")
            if source.startswith("<![CDATA[", pos):
                return self._delimited(TEXT, 9, "]]>", "CDATA section")
            if source[pos : pos + 9].upper() == "<!DOCTYPE":
                return self._doctype()
        elif second == "?":
            return self._delimited(PI, 2, "?>", "processing instruction")
        elif second == "/":
            return self._end_tag()
        return self._start_tag()

    def _delimited(self, kind: str, opener: int, closer: str,
                   label: str) -> Token:
        """A construct running from its opener to the first ``closer``."""
        line, column = self.line, self.column
        end = self._find(closer, label)
        data = self.source[self.pos + opener : end]
        self._advance(end + len(closer) - self.pos)
        return Token(kind, "", data, (), line, column)

    def _doctype(self) -> Token:
        source, start = self.source, self.pos
        line, column = self.line, self.column
        depth = 0
        for mark in _DOCTYPE_MARK.finditer(source, start):
            char = mark[0]
            if char == "[":
                depth += 1
            elif char == "]":
                depth -= 1
            elif depth == 0:
                self._advance(mark.end() - start)
                return Token(DOCTYPE, "", source[start : mark.end()], (),
                             line, column)
        raise self._error_at("unterminated DOCTYPE", len(source))

    def _end_tag(self) -> Token:
        source, pos = self.source, self.pos
        line, column = self.line, self.column
        match = _END_TAG.match(source, pos)
        if match is None or not is_name_start_char(source[pos + 2]):
            name_end = self._name_end(pos + 2)
            raise self._error_at(
                f"malformed end tag </{source[pos + 2 : name_end]}",
                SPACE.match(source, name_end).end(),
            )
        self._advance(match.end() - pos)
        return Token(END, match[1], "", (), line, column)

    def _start_tag(self) -> Token:
        source, pos = self.source, self.pos
        line, column = self.line, self.column
        head = _START_HEAD.match(source, pos)
        if head is None or not is_name_start_char(source[pos + 1]):
            raise self._error_at("expected a name", pos + 1)
        name = head[1]
        at = head.end()
        attributes: list[tuple[str, str]] = []
        seen: set[str] = set()
        while (match := _ATTRIBUTE.match(source, at)) is not None:
            key = match[1]
            if not is_name_start_char(key[0]):
                raise self._error_at("expected a name", match.start(1))
            raw = match[2]
            if raw is None:
                raw = match[3]
            at = match.end()
            if key in seen:
                raise self._error_at(f"duplicate attribute {key!r}", at)
            seen.add(key)
            if "&" in raw:
                raw = self._unescape(raw, line, column, pos)
            attributes.append((key, raw))
        close = _TAG_CLOSE.match(source, at)
        if close is None:
            raise self._start_tag_error(name, at)
        self._advance(close.end() - pos)
        return Token(EMPTY if close[1] else START, name, "",
                     tuple(attributes), line, column)

    # -- diagnosis of rejected markup ------------------------------------------------

    def _name_end(self, at: int) -> int:
        """End of the XML name at ``at``; 'expected a name' if there is none."""
        match = NAME.match(self.source, at)
        if match is None or not is_name_start_char(self.source[at]):
            raise self._error_at("expected a name", at)
        return match.end()

    def _start_tag_error(self, name: str, at: int) -> WellFormednessError:
        """Name what stops the start tag ``<name`` at ``at``, where neither
        a whole attribute nor the tag close matched."""
        source = self.source
        at = SPACE.match(source, at).end()
        if at >= len(source):
            return self._error_at("unterminated start tag", at)
        if source[at] == "/":  # not "/>", which would have closed the tag
            return self._error_at(f"malformed start tag <{name}", at)
        key_end = self._name_end(at)
        key = source[at:key_end]
        at = SPACE.match(source, key_end).end()
        if not source.startswith("=", at):
            return self._error_at(f"attribute {key!r} missing '='", at)
        at = SPACE.match(source, at + 1).end()
        if source[at : at + 1] not in ("'", '"'):
            return self._error_at(f"attribute {key!r} value must be quoted", at)
        return self._error_at(f"unterminated attribute {key!r} value", at + 1)


def scan(source: str) -> Iterator[Token]:
    """Convenience wrapper: tokenize ``source``."""
    return XmlScanner(source).tokens()


#: Minimum lookahead the markup dispatcher needs before it can decide a
#: construct kind: ``<![CDATA[`` and ``<!DOCTYPE`` are both 9 chars.
_DISPATCH_LOOKAHEAD = 9

#: Default incremental read size, in characters.
DEFAULT_CHUNK_CHARS = 1 << 16

#: When a text run fills the buffer past this size with no markup in
#: sight, the streaming scanner emits it in pieces (splitting only at
#: entity-safe points) instead of buffering it whole.
_TEXT_FLUSH_CHARS = 1 << 16


def iter_source_chunks(source, chunk_chars: int = DEFAULT_CHUNK_CHARS):
    """Normalize a source into an iterator of string chunks.

    Accepts an open text-mode file object (anything with ``read(n)``),
    an ``os.PathLike`` (opened and closed here), or any iterable of
    string chunks (passed through).  A whole ``str`` is scanned by
    :class:`XmlScanner` instead; see :func:`source_tokens`.
    """
    read = getattr(source, "read", None)
    if callable(read):
        def _reads() -> Iterator[str]:
            while True:
                chunk = read(chunk_chars)
                if not chunk:
                    return
                yield chunk
        return _reads()
    fspath = getattr(source, "__fspath__", None)
    if callable(fspath):
        def _file() -> Iterator[str]:
            with open(fspath(), "r", encoding="utf-8") as handle:
                while True:
                    chunk = handle.read(chunk_chars)
                    if not chunk:
                        return
                    yield chunk
        return _file()
    return iter(source)


def source_tokens(source, chunk_chars: int = DEFAULT_CHUNK_CHARS
                  ) -> Iterator[Token]:
    """Tokens of one source of any kind.

    A ``str`` is already whole in memory, so :class:`XmlScanner` reads
    it in place; every other kind (path, file object, chunk iterable)
    goes through :class:`StreamingXmlScanner` in ``chunk_chars`` reads.
    """
    if isinstance(source, str):
        return XmlScanner(source).tokens()
    return StreamingXmlScanner(source, chunk_chars).tokens()


class StreamingXmlScanner(XmlScanner):
    """Tokenize XML arriving in chunks, holding only a sliding buffer.

    The batch :class:`XmlScanner` is reused wholesale: its methods see
    ``self.source`` as the *current window* of the input.  Around each
    token this class (1) guarantees enough lookahead for the markup
    dispatcher, (2) snapshots ``(pos, line, column)`` and, when a token
    raises :class:`WellFormednessError` while more input exists, extends
    the window and retries — truncation errors ("unterminated comment",
    "unterminated start tag", …) are indistinguishable from real ones
    until end of input, so every error is retried until the input is
    exhausted; and (3) drops the consumed prefix of the window once it
    is at least as long as the unconsumed rest.  Dropping it after every
    token would copy the whole window per token; with this rule each
    drop copies no more than it discards, so copying costs amortized
    O(1) per character, and the window stays under twice its unconsumed
    part plus one token.  Error offsets count from the start of the
    input, not of the window.

    Character data is only emitted once the following ``<`` (or end of
    input) is in the window, so entities are never split mid-reference —
    except that a pathological markup-free run longer than the flush
    limit is emitted in pieces, split just before the last ``&`` so the
    same guarantee holds piecewise.

    Note the retry rule's memory caveat: input that is *actually*
    malformed keeps the buffer growing until the input ends and the
    error becomes final.  Well-formed input is scanned in bounded
    memory regardless of document size.
    """

    def __init__(self, chunks, chunk_chars: int = DEFAULT_CHUNK_CHARS) -> None:
        super().__init__("")
        self._chunks = iter_source_chunks(chunks, chunk_chars)
        self._eof = False

    def _fill(self) -> bool:
        """Append one more chunk to the window; False once input ends."""
        if self._eof:
            return False
        try:
            chunk = next(self._chunks)
        except StopIteration:
            self._eof = True
            return False
        self.source += chunk
        return True

    def _compact(self) -> None:
        """Drop the consumed window prefix once it is at least as long as
        the rest of the window (line/column keep counting)."""
        if self.pos >= len(self.source) - self.pos:
            self._origin += self.pos
            self.source = self.source[self.pos :]
            self.pos = 0

    def tokens(self) -> Iterator[Token]:
        while True:
            while (not self._eof
                   and len(self.source) - self.pos < _DISPATCH_LOOKAHEAD):
                self._fill()
            if self.pos >= len(self.source):  # the loop stops short only at EOF
                return
            if self.source[self.pos] == "<":
                snapshot = (self.pos, self.line, self.column)
                try:
                    token = self._markup()
                except WellFormednessError:
                    if self._fill():
                        self.pos, self.line, self.column = snapshot
                        continue
                    raise
            else:
                token = self._buffered_text()
                if token is None:
                    continue
            yield token
            self._compact()

    def _buffered_text(self) -> Token | None:
        """Emit character data only once its end is certain.

        Returns ``None`` when more input must be buffered first.
        """
        end = self.source.find("<", self.pos)
        if end != -1:
            return self._text(end)
        if not self._eof:
            if len(self.source) - self.pos > _TEXT_FLUSH_CHARS:
                # No markup in a very long run: flush the entity-safe
                # prefix (up to the last '&', or everything when the
                # window holds no '&') rather than buffer it all.
                split = self.source.rfind("&", self.pos)
                if split == -1:
                    split = len(self.source)
                if split > self.pos:
                    return self._text(split)
            self._fill()
            return None
        return self._text(len(self.source))
