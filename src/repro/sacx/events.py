"""Content-offset markup events — the unit of SACX parsing.

A :class:`MarkupEvent` pins a tag occurrence to the *character-content
offset* at which it happens (the position after stripping all markup).
:func:`content_events` converts one well-formed XML document into its
text plus event list; the SACX parser merges the event lists of many
documents over the same text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from ..errors import WellFormednessError
from . import scanner as sc

#: Event kinds (shared with the scanner's tag kinds on purpose).
START = "start"
END = "end"
EMPTY = "empty"


class MarkupEvent(NamedTuple):
    """A tag occurrence at a content offset.

    ``seq`` preserves source order among events at the same offset —
    essential for zero-width elements and nested tags that open or
    close together.
    """

    kind: str
    tag: str
    offset: int
    attributes: tuple[tuple[str, str], ...] = ()
    seq: int = 0

    @property
    def attribute_dict(self) -> dict[str, str]:
        return dict(self.attributes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        marker = {"start": "<", "end": "</", "empty": "<~"}[self.kind]
        return f"{marker}{self.tag}@{self.offset}>"


@dataclass(frozen=True)
class ParsedDocument:
    """One hierarchy document reduced to text + events.

    ``events`` excludes the root element: the root is shared across the
    distributed document and is represented by ``root_tag``/``root_attributes``.
    """

    text: str
    root_tag: str
    root_attributes: tuple[tuple[str, str], ...]
    events: tuple[MarkupEvent, ...]


#: Item kinds yielded by :func:`iter_content_events`.
ROOT = "root"
TEXT = "text"
EVENT = "event"


def iter_content_events(
    tokens: Iterable[sc.Token],
) -> Iterator[tuple]:
    """Incrementally convert a token stream into content-offset items.

    Yields, in source order:

    - ``(ROOT, tag, attributes)`` exactly once, when the root element
      opens (before any other item);
    - ``(TEXT, chunk)`` for each run of character data inside the root
      (the content offset is the sum of prior chunk lengths);
    - ``(EVENT, MarkupEvent)`` for each non-root start/end/empty tag.

    This is the single source of truth for SACX well-formedness: matched
    tags, single root, no stray non-whitespace text outside the root.
    Comments and processing instructions are discarded; CDATA becomes
    plain text.  Errors surface lazily, when the offending token is
    pulled — which is what lets a streaming caller bound its memory.
    """
    stack: list[str] = []
    root_seen = False
    root_closed = False
    offset = 0
    seq = 0

    for token in tokens:
        if token.kind == sc.TEXT:
            if not stack:
                if token.data.strip():
                    raise WellFormednessError(
                        f"character data outside the root element at line "
                        f"{token.line}",
                        line=token.line, column=token.column,
                    )
                continue
            offset += len(token.data)
            yield (TEXT, token.data)
        elif token.kind == sc.START:
            if root_closed:
                raise WellFormednessError(
                    f"second root element <{token.name}> at line {token.line}",
                    line=token.line, column=token.column,
                )
            if not stack:
                root_seen = True
                yield (ROOT, token.name, token.attributes)
            else:
                seq += 1
                yield (
                    EVENT,
                    MarkupEvent(START, token.name, offset, token.attributes,
                                seq),
                )
            stack.append(token.name)
        elif token.kind == sc.END:
            if not stack:
                raise WellFormednessError(
                    f"stray end tag </{token.name}> at line {token.line}",
                    line=token.line, column=token.column,
                )
            open_tag = stack.pop()
            if open_tag != token.name:
                raise WellFormednessError(
                    f"end tag </{token.name}> does not match open "
                    f"<{open_tag}> at line {token.line}",
                    line=token.line, column=token.column,
                )
            if stack:
                seq += 1
                yield (EVENT, MarkupEvent(END, token.name, offset, (), seq))
            else:
                root_closed = True
        elif token.kind == sc.EMPTY:
            if not stack:
                raise WellFormednessError(
                    f"empty element <{token.name}/> outside the root at "
                    f"line {token.line}",
                    line=token.line, column=token.column,
                )
            seq += 1
            yield (
                EVENT,
                MarkupEvent(EMPTY, token.name, offset, token.attributes, seq),
            )
        # comments, PIs and DOCTYPE are ignored

    if stack:
        raise WellFormednessError(
            "unexpected end of document; unclosed: " + ", ".join(stack)
        )
    if not root_seen:
        raise WellFormednessError("document has no root element")


def content_events(source: str) -> ParsedDocument:
    """Parse one XML document into text + content-offset events.

    Enforces well-formedness (matched tags, single root, no stray
    non-whitespace text outside the root).  Comments and processing
    instructions are discarded; CDATA becomes plain text.  This is the
    materializing counterpart of :func:`iter_content_events`.
    """
    text_parts: list[str] = []
    events: list[MarkupEvent] = []
    root_tag: str | None = None
    root_attributes: tuple[tuple[str, str], ...] = ()

    for item in iter_content_events(sc.scan(source)):
        kind = item[0]
        if kind == TEXT:
            text_parts.append(item[1])
        elif kind == EVENT:
            events.append(item[1])
        else:  # ROOT
            root_tag, root_attributes = item[1], item[2]

    assert root_tag is not None  # iter_content_events raised otherwise
    return ParsedDocument(
        "".join(text_parts), root_tag, root_attributes, tuple(events)
    )


def events_to_spans(
    events: Iterable[MarkupEvent],
) -> list[tuple[str, int, int, dict[str, str]]]:
    """Pair start/end events into ``(tag, start, end, attrs)`` spans.

    Zero-width (EMPTY) events become zero-width spans.  Spans are
    returned in *source open order* (outer before inner), so rebuilding
    a document from them preserves the nesting of equal-span elements.
    Raises :class:`WellFormednessError` on unmatched events.
    """
    spans: list[tuple[int, tuple[str, int, int, dict[str, str]]]] = []
    stack: list[tuple[str, int, dict[str, str], int]] = []
    order = 0
    for event in events:
        if event.kind == START:
            stack.append((event.tag, event.offset, event.attribute_dict, order))
            order += 1
        elif event.kind == END:
            if not stack or stack[-1][0] != event.tag:
                raise WellFormednessError(
                    f"unmatched end event for <{event.tag}> at offset "
                    f"{event.offset}"
                )
            tag, start, attributes, opened = stack.pop()
            spans.append((opened, (tag, start, event.offset, attributes)))
        else:
            spans.append(
                (order,
                 (event.tag, event.offset, event.offset, event.attribute_dict))
            )
            order += 1
    if stack:
        raise WellFormednessError(
            "unclosed events: " + ", ".join(tag for tag, _, _, _ in stack)
        )
    spans.sort(key=lambda item: item[0])
    return [span for (_, span) in spans]
