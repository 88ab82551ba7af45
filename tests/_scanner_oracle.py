"""Test-only oracle: a frozen copy of the character-stepping SACX scanner.

This is the scanner that preceded the pattern-driven one in
:mod:`repro.sacx.scanner`, together with the ``unescape`` and name-class
helpers it used.  ``tests/test_scanner_differential.py`` holds the
current scanner to its tokens, source positions and error messages.
Nothing under ``src/`` imports this module; do not edit it to follow
the current scanner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import WellFormednessError

# -- helpers, as they were in repro._util ------------------------------


def unescape(text: str) -> str:
    """Resolve the five predefined XML entities and numeric references."""
    out: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch != "&":
            out.append(ch)
            i += 1
            continue
        semi = text.find(";", i + 1)
        if semi == -1:
            out.append(ch)
            i += 1
            continue
        entity = text[i + 1 : semi]
        if entity == "amp":
            out.append("&")
        elif entity == "lt":
            out.append("<")
        elif entity == "gt":
            out.append(">")
        elif entity == "quot":
            out.append('"')
        elif entity == "apos":
            out.append("'")
        elif entity.startswith("#x") or entity.startswith("#X"):
            out.append(chr(int(entity[2:], 16)))
        elif entity.startswith("#"):
            out.append(chr(int(entity[1:])))
        else:
            # Unknown entity: leave it verbatim, the scanner reports it.
            out.append(text[i : semi + 1])
        i = semi + 1
    return "".join(out)


def is_name_start_char(ch: str) -> bool:
    """True for characters that may start an XML name (ASCII subset + letters)."""
    return ch.isalpha() or ch in (":", "_")


def is_name_char(ch: str) -> bool:
    """True for characters that may continue an XML name."""
    return ch.isalnum() or ch in (":", "_", "-", ".")


#: Token kinds.
START = "start"
END = "end"
EMPTY = "empty"
TEXT = "text"
COMMENT = "comment"
PI = "pi"
DOCTYPE = "doctype"


@dataclass(frozen=True)
class Token:
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

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1

    # -- error & movement helpers ------------------------------------------------

    def _error(self, message: str) -> WellFormednessError:
        return WellFormednessError(
            f"{message} at line {self.line}, column {self.column}",
            line=self.line, column=self.column, offset=self.pos,
        )

    def _advance(self, count: int) -> None:
        chunk = self.source[self.pos : self.pos + count]
        newlines = chunk.count("\n")
        if newlines:
            self.line += newlines
            self.column = count - chunk.rfind("\n")
        else:
            self.column += count
        self.pos += count

    def _at_end(self) -> bool:
        return self.pos >= len(self.source)

    def _peek(self, width: int = 1) -> str:
        return self.source[self.pos : self.pos + width]

    def _find(self, literal: str, label: str) -> int:
        index = self.source.find(literal, self.pos)
        if index == -1:
            raise self._error(f"unterminated {label}")
        return index

    # -- tokenization ----------------------------------------------------------------

    def tokens(self) -> Iterator[Token]:
        """Yield tokens until the end of the source."""
        while not self._at_end():
            if self._peek() == "<":
                yield from self._markup()
            else:
                yield self._text()

    def _text(self) -> Token:
        line, column = self.line, self.column
        end = self.source.find("<", self.pos)
        if end == -1:
            end = len(self.source)
        raw = self.source[self.pos : end]
        self._advance(end - self.pos)
        return Token(TEXT, data=unescape(raw), line=line, column=column)

    def _markup(self) -> Iterator[Token]:
        line, column = self.line, self.column
        if self._peek(4) == "<!--":
            end = self._find("-->", "comment")
            data = self.source[self.pos + 4 : end]
            self._advance(end + 3 - self.pos)
            yield Token(COMMENT, data=data, line=line, column=column)
            return
        if self._peek(9) == "<![CDATA[":
            end = self._find("]]>", "CDATA section")
            data = self.source[self.pos + 9 : end]
            self._advance(end + 3 - self.pos)
            yield Token(TEXT, data=data, line=line, column=column)
            return
        if self._peek(2) == "<?":
            end = self._find("?>", "processing instruction")
            data = self.source[self.pos + 2 : end]
            self._advance(end + 2 - self.pos)
            yield Token(PI, data=data, line=line, column=column)
            return
        if self._peek(9).upper() == "<!DOCTYPE":
            yield self._doctype(line, column)
            return
        if self._peek(2) == "</":
            self._advance(2)
            name = self._name()
            self._skip_ws()
            if self._peek() != ">":
                raise self._error(f"malformed end tag </{name}")
            self._advance(1)
            yield Token(END, name=name, line=line, column=column)
            return
        # start or empty-element tag
        self._advance(1)
        name = self._name()
        attributes = self._attributes()
        if self._peek(2) == "/>":
            self._advance(2)
            yield Token(EMPTY, name=name, attributes=attributes,
                        line=line, column=column)
            return
        if self._peek() == ">":
            self._advance(1)
            yield Token(START, name=name, attributes=attributes,
                        line=line, column=column)
            return
        raise self._error(f"malformed start tag <{name}")

    def _doctype(self, line: int, column: int) -> Token:
        depth = 0
        start = self.pos
        while not self._at_end():
            ch = self._peek()
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            elif ch == ">" and depth == 0:
                data = self.source[start : self.pos + 1]
                self._advance(1)
                return Token(DOCTYPE, data=data, line=line, column=column)
            self._advance(1)
        raise self._error("unterminated DOCTYPE")

    def _name(self) -> str:
        if self._at_end() or not is_name_start_char(self._peek()):
            raise self._error("expected a name")
        start = self.pos
        while not self._at_end() and is_name_char(self._peek()):
            self._advance(1)
        return self.source[start : self.pos]

    def _skip_ws(self) -> None:
        while not self._at_end() and self._peek().isspace():
            self._advance(1)

    def _attributes(self) -> tuple[tuple[str, str], ...]:
        attributes: list[tuple[str, str]] = []
        seen: set[str] = set()
        while True:
            self._skip_ws()
            if self._at_end():
                raise self._error("unterminated start tag")
            if self._peek() in (">", "/"):
                return tuple(attributes)
            name = self._name()
            self._skip_ws()
            if self._peek() != "=":
                raise self._error(f"attribute {name!r} missing '='")
            self._advance(1)
            self._skip_ws()
            quote = self._peek()
            if quote not in ("'", '"'):
                raise self._error(f"attribute {name!r} value must be quoted")
            self._advance(1)
            end = self._find(quote, f"attribute {name!r} value")
            raw = self.source[self.pos : end]
            self._advance(end + 1 - self.pos)
            if name in seen:
                raise self._error(f"duplicate attribute {name!r}")
            seen.add(name)
            attributes.append((name, unescape(raw)))


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

    Accepts a ``str`` (sliced), an open text-mode file object (anything
    with ``read(n)``), an ``os.PathLike`` (opened and closed here), or
    any iterable of string chunks (passed through).
    """
    if isinstance(source, str):
        def _slices() -> Iterator[str]:
            for at in range(0, len(source), chunk_chars):
                yield source[at : at + chunk_chars]
        return _slices()
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
    exhausted; and (3) drops the consumed prefix of the window.

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
        """Drop the consumed window prefix (line/column keep counting)."""
        if self.pos:
            self.source = self.source[self.pos :]
            self.pos = 0

    def tokens(self) -> Iterator[Token]:
        while True:
            while (not self._eof
                   and len(self.source) - self.pos < _DISPATCH_LOOKAHEAD):
                self._fill()
            if self._at_end():
                if self._eof:
                    return
                continue
            if self._peek() == "<":
                snapshot = (self.pos, self.line, self.column)
                try:
                    batch = list(self._markup())
                except WellFormednessError:
                    if self._fill():
                        self.pos, self.line, self.column = snapshot
                        continue
                    raise
                yield from batch
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
        if self.source.find("<", self.pos) == -1 and not self._eof:
            if len(self.source) - self.pos > _TEXT_FLUSH_CHARS:
                # No markup in a very long run: flush the entity-safe
                # prefix (up to the last '&', or everything when the
                # window holds no '&') rather than buffer it all.
                split = self.source.rfind("&", self.pos)
                if split == -1:
                    split = len(self.source)
                if split > self.pos:
                    line, column = self.line, self.column
                    raw = self.source[self.pos : split]
                    self._advance(split - self.pos)
                    return Token(TEXT, data=unescape(raw),
                                 line=line, column=column)
            self._fill()
            return None
        return self._text()
