"""SACX — the simultaneous parser for concurrent XML.

The parser of the paper ("Parsing Concurrent XML", WIDM 2004): given a
*distributed document* — one well-formed XML document per hierarchy, all
carrying the same character content under the same root tag — SACX makes
a single merged pass over all markup, emitting unified events to a
SAX-style handler.  The default handler builds a GODDAG.

The merge order is ``(content offset, hierarchy rank, source sequence)``;
per-hierarchy source order is always preserved, so zero-width elements
and simultaneous opens/closes keep their meaning.

:class:`EventStream` is the one implementation of that merge.  It pulls
each part's events incrementally and checks the shared character
content through a sliding window, so it serves both the materializing
:class:`SACXParser` here and the bounded-memory consumers in
:mod:`repro.streaming`.  A ``str`` part is scanned whole by
:class:`~repro.sacx.scanner.XmlScanner`; paths, file objects and chunk
iterables go through :class:`~repro.sacx.scanner.StreamingXmlScanner`.
"""

from __future__ import annotations

from heapq import heapify, heappop, heapreplace
from typing import Callable, Iterator, Mapping, NoReturn, Sequence

from ..core.goddag import GoddagBuilder, GoddagDocument
from ..errors import TextMismatchError, WellFormednessError
from . import scanner as sc
from .events import (
    EMPTY,
    END,
    EVENT,
    START,
    TEXT,
    MarkupEvent,
    iter_content_events,
)

#: Characters of confirmed text kept behind the confirmation point, so
#: a mismatch diagnostic can show the 10 characters before its offset.
_WINDOW_SLACK = 16


class ConcurrentHandler:
    """SAX-style callback interface for concurrent markup.

    Subclass and override; the default implementations do nothing, so a
    handler can subscribe to only the events it cares about.
    """

    def start_document(self, text: str, root_tag: str,
                       root_attributes: Mapping[str, str]) -> None:
        """Called once, before any markup event."""

    def start_element(self, hierarchy: str, tag: str, offset: int,
                      attributes: Mapping[str, str]) -> None:
        """An opening tag of ``hierarchy`` at content ``offset``."""

    def end_element(self, hierarchy: str, tag: str, offset: int) -> None:
        """A closing tag of ``hierarchy`` at content ``offset``."""

    def empty_element(self, hierarchy: str, tag: str, offset: int,
                      attributes: Mapping[str, str]) -> None:
        """A zero-width element of ``hierarchy`` anchored at ``offset``."""

    def end_document(self) -> None:
        """Called once, after the last markup event."""


class GoddagHandler(ConcurrentHandler):
    """The default handler: builds a :class:`GoddagDocument`."""

    def __init__(self, hierarchies: Sequence[str]) -> None:
        self._hierarchy_names = list(hierarchies)
        self._builder: GoddagBuilder | None = None
        self.document: GoddagDocument | None = None

    def start_document(self, text, root_tag, root_attributes):
        self._builder = GoddagBuilder(text, root_tag)
        for name in self._hierarchy_names:
            self._builder.add_hierarchy(name)
        self._root_attributes = dict(root_attributes)

    def start_element(self, hierarchy, tag, offset, attributes):
        self._builder.start_element(hierarchy, tag, offset, attributes)

    def end_element(self, hierarchy, tag, offset):
        self._builder.end_element(hierarchy, tag, offset)

    def empty_element(self, hierarchy, tag, offset, attributes):
        self._builder.empty_element(hierarchy, tag, offset, attributes)

    def end_document(self):
        self.document = self._builder.build()
        self.document.root.attributes.update(self._root_attributes)


class EventCountingHandler(ConcurrentHandler):
    """A trivial handler used by tests and benchmarks: counts events."""

    def __init__(self) -> None:
        self.starts = 0
        self.ends = 0
        self.empties = 0
        self.text_length = 0

    def start_document(self, text, root_tag, root_attributes):
        self.text_length = len(text)

    def start_element(self, hierarchy, tag, offset, attributes):
        self.starts += 1

    def end_element(self, hierarchy, tag, offset):
        self.ends += 1

    def empty_element(self, hierarchy, tag, offset, attributes):
        self.empties += 1


class _Part:
    """One hierarchy source reduced to an incremental event cursor."""

    __slots__ = ("name", "rank", "items", "offset")

    def __init__(self, name: str, rank: int, source,
                 chunk_chars: int) -> None:
        self.name = name
        self.rank = rank
        self.items = iter_content_events(sc.source_tokens(source, chunk_chars))
        self.offset = 0          # content characters read so far


class EventStream:
    """Merged ``(hierarchy, MarkupEvent)`` pairs of a distributed
    document, produced incrementally.

    Events come in ``(content offset, hierarchy rank, source sequence)``
    order.  ``root_tag`` and ``root_attributes`` (of the first part, the
    reference) are set once iteration starts; ``length`` is set when it
    completes.  Pass ``text_sink`` to receive the shared character
    content as confirmed chunks — confirmed means every part has read
    past them, so the concatenation of all chunks is the document text.

    Only the text between the slowest and the fastest part is held (the
    window).  A part's text is checked against the window as it is
    read; root tags are checked as each part opens; part lengths are
    checked at the end.  Any difference raises
    :class:`~repro.errors.TextMismatchError` with the offset and the
    ±10-character windows a whole-text comparison of the reference
    against the differing part would report.
    """

    def __init__(
        self,
        sources: Mapping[str, object],
        *,
        chunk_chars: int = sc.DEFAULT_CHUNK_CHARS,
        text_sink: Callable[[str], None] | None = None,
    ) -> None:
        if not sources:
            raise WellFormednessError(
                "a distributed document needs at least one part"
            )
        self.hierarchies = list(sources)
        self.root_tag: str | None = None
        self.root_attributes: tuple[tuple[str, str], ...] = ()
        self.length: int | None = None
        self._sink = text_sink
        self._parts = [
            _Part(name, rank, source, chunk_chars)
            for rank, (name, source) in enumerate(sources.items())
        ]
        self._window = ""
        self._window_base = 0
        self._confirmed = 0      # text handed to the sink so far

    def __iter__(self) -> Iterator[tuple[str, MarkupEvent]]:
        parts = self._parts
        pull = self._pull
        heads = []               # (offset, rank, seq, part, event)
        ended = float("inf")     # the shortest finished part's length
        for part in parts:
            event = pull(part)
            if event is None:
                ended = min(ended, part.offset)
            else:
                heads.append((event.offset, part.rank, event.seq, part, event))
        heapify(heads)
        trim_at = 0
        while heads:
            offset, rank, _, part, event = heads[0]
            # Every part has read up to ``floor``: the one with the
            # lowest key is the slowest, unless a part ended before it.
            floor = offset if offset < ended else ended
            if floor > trim_at:
                trim_at = self._confirm(floor)
            yield (part.name, event)
            event = pull(part)
            if event is None:
                heappop(heads)
                ended = min(ended, part.offset)
            else:
                heapreplace(heads,
                            (event.offset, rank, event.seq, part, event))
        reference = parts[0]
        for part in parts[1:]:
            if part.offset != reference.offset:
                self._mismatch(min(reference.offset, part.offset))
        self.length = reference.offset
        self._confirm(self.length, final=True)

    # -- internals ---------------------------------------------------------------

    def _pull(self, part: _Part) -> MarkupEvent | None:
        """Advance ``part`` to its next markup event (None once it is
        exhausted), checking the text it passes against the window and
        extending the window with text no part has read yet."""
        for item in part.items:
            kind = item[0]
            if kind == EVENT:
                return item[1]
            if kind != TEXT:
                self._check_root(part, item[1], item[2])
                continue
            chunk = item[1]
            window = self._window
            rel = part.offset - self._window_base
            known = len(window) - rel    # window text from the part's offset
            if known >= len(chunk):
                if not window.startswith(chunk, rel):
                    self._text_conflict(part, chunk)
            else:
                if not chunk.startswith(window[rel:]):
                    self._text_conflict(part, chunk)
                self._window = window + chunk[known:]
            part.offset += len(chunk)
        return None

    def _check_root(self, part: _Part, tag: str,
                    attributes: tuple[tuple[str, str], ...]) -> None:
        if part.rank == 0:
            self.root_tag = tag
            self.root_attributes = attributes
        elif tag != self.root_tag:
            reference = self._parts[0]
            raise TextMismatchError(
                f"root tags differ: {reference.name!r} has "
                f"<{self.root_tag}>, {part.name!r} has <{tag}>"
            )

    def _confirm(self, floor: int, final: bool = False) -> int:
        """Hand the text before ``floor``, which every part has read, to
        the sink and drop it from the window, keeping ``_WINDOW_SLACK``
        characters for diagnostics.

        Unless ``final``, this happens only once the droppable prefix
        is longer than the rest of the window, so each character is
        copied O(1) times.  Returns the floor past which a call can
        drop something.
        """
        base = self._window_base
        keep_from = floor if final else floor - _WINDOW_SLACK
        if final or 2 * (keep_from - base) > len(self._window):
            if self._sink is not None and floor > self._confirmed:
                self._sink(self._window[self._confirmed - base : floor - base])
            self._confirmed = floor
            self._window = self._window[keep_from - base :]
            self._window_base = base = keep_from
        return base + _WINDOW_SLACK + len(self._window) // 2

    def _text_conflict(self, part: _Part, chunk: str) -> NoReturn:
        known = self._window[part.offset - self._window_base :]
        at = part.offset + next(
            i for i, (a, b) in enumerate(zip(known, chunk)) if a != b
        )
        self._mismatch(at, part, chunk)

    def _mismatch(self, at: int, part: _Part | None = None,
                  chunk: str = "") -> NoReturn:
        """Raise what a whole-text comparison raises at ``at``: the
        reference against the lowest-ranked part whose content differs
        from it there.

        ``chunk`` is text ``part`` read from its offset on, which the
        window contradicts at ``at``; parts behind ``at`` are read ahead.
        """
        lo, hi = max(0, at - 10), at + 10
        reference, *others = self._parts
        expected = self._text(reference, lo, hi,
                              chunk if reference is part else "")
        mark = expected[at - lo : at - lo + 1]
        for other in others:
            found = self._text(other, lo, hi, chunk if other is part else "")
            if found[at - lo : at - lo + 1] != mark:
                break
        raise TextMismatchError(
            f"text content differs between {reference.name!r} and "
            f"{other.name!r} at offset {at}: {expected!r} vs {found!r}",
            offset=at, expected=expected, found=found,
        )

    def _text(self, part: _Part, lo: int, hi: int, chunk: str = "") -> str:
        """``part``'s content over ``[lo, hi)``, cut short where it ends:
        the window up to its offset, then ``chunk`` (its text from
        there), then text read ahead of it (diagnostics only)."""
        start = min(lo, part.offset)
        base = self._window_base
        text = self._window[start - base : part.offset - base] + chunk
        try:
            while start + len(text) < hi:
                item = next(part.items)
                if item[0] == TEXT:
                    text += item[1]
        except (StopIteration, WellFormednessError):
            pass  # a defect further on ends the read-ahead, not the report
        return text[lo - start : hi - start]


class SACXParser:
    """Parse a distributed document through a :class:`ConcurrentHandler`."""

    def __init__(self, handler: ConcurrentHandler | None = None) -> None:
        self.handler = handler

    def parse(
        self,
        sources: Mapping[str, object],
        *,
        chunk_chars: int = sc.DEFAULT_CHUNK_CHARS,
    ) -> GoddagDocument | None:
        """Parse ``{hierarchy_name: source}``.

        A source is an XML string, a path, a text file object or an
        iterable of string chunks; ``chunk_chars`` is the read size for
        all but strings.  The merged events are collected by one
        :class:`EventStream` pass, then replayed into the handler after
        ``start_document`` has the whole text.

        With no explicit handler a :class:`GoddagHandler` is used and
        the built document returned; with a custom handler the return
        value is None and the handler holds the result.

        Errors surface in merge order: of several defects, the one the
        merged pass reaches first wins — a text difference at an early
        offset is reported before a malformed tag later in any part.
        """
        text: list[str] = []
        stream = EventStream(sources, chunk_chars=chunk_chars,
                             text_sink=text.append)
        merged = list(stream)
        handler = self.handler
        owns_handler = handler is None
        if owns_handler:
            handler = GoddagHandler(stream.hierarchies)
        handler.start_document(
            "".join(text), stream.root_tag, dict(stream.root_attributes)
        )
        for hierarchy, event in merged:
            if event.kind == START:
                handler.start_element(
                    hierarchy, event.tag, event.offset, event.attribute_dict
                )
            elif event.kind == END:
                handler.end_element(hierarchy, event.tag, event.offset)
            else:
                handler.empty_element(
                    hierarchy, event.tag, event.offset, event.attribute_dict
                )
        handler.end_document()
        if owns_handler:
            return handler.document
        return None


def parse_concurrent(
    sources: Mapping[str, object],
    *,
    chunk_chars: int = sc.DEFAULT_CHUNK_CHARS,
) -> GoddagDocument:
    """One-call SACX parse of a distributed document into a GODDAG.

    Sources may be strings, paths, text file objects or chunk
    iterables (see :meth:`SACXParser.parse`).
    """
    return SACXParser().parse(sources, chunk_chars=chunk_chars)
