"""Test-only oracle: a frozen copy of the batch SACX merge.

This is the parser that preceded the single incremental merge in
:mod:`repro.sacx.parser`: every part is scanned whole to a
:class:`~repro.sacx.events.ParsedDocument`, each part's root tag and
text are compared with the first part's, and the event lists are merged
by ``heapq.merge`` on ``(content offset, hierarchy rank, source
sequence)``.  ``tests/test_merge_differential.py`` and
``tests/test_streaming.py`` hold the current merge to its events, its
documents and its errors.  Nothing under ``src/`` imports this module;
do not edit it to follow the current parser.
"""

from __future__ import annotations

from heapq import merge as heap_merge
from typing import Mapping

from repro.core.goddag import GoddagDocument
from repro.errors import TextMismatchError, WellFormednessError
from repro.sacx.events import (
    EMPTY,
    END,
    START,
    MarkupEvent,
    ParsedDocument,
    content_events,
)
from repro.sacx.parser import ConcurrentHandler, GoddagHandler


class SACXParser:
    """Parse a distributed document through a :class:`ConcurrentHandler`."""

    def __init__(self, handler: ConcurrentHandler | None = None) -> None:
        self.handler = handler

    def parse(
        self, sources: Mapping[str, str]
    ) -> GoddagDocument | None:
        """Parse ``{hierarchy_name: xml_source}``.

        With no explicit handler a :class:`GoddagHandler` is used and
        the built document returned; with a custom handler the return
        value is None and the handler holds the result.
        """
        if not sources:
            raise WellFormednessError("a distributed document needs at least one part")
        parsed = self._scan_parts(sources)
        handler = self.handler
        owns_handler = handler is None
        if owns_handler:
            handler = GoddagHandler(list(sources))
        reference = next(iter(parsed.values()))
        handler.start_document(
            reference.text, reference.root_tag, dict(reference.root_attributes)
        )
        for hierarchy, event in self._merged_events(parsed):
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

    # -- internals ---------------------------------------------------------------

    def _scan_parts(self, sources: Mapping[str, str]) -> dict[str, ParsedDocument]:
        parsed: dict[str, ParsedDocument] = {}
        reference: ParsedDocument | None = None
        reference_name = ""
        for name, source in sources.items():
            document = content_events(source)
            if reference is None:
                reference, reference_name = document, name
            else:
                self._check_consistency(reference_name, reference, name, document)
            parsed[name] = document
        return parsed

    @staticmethod
    def _check_consistency(
        ref_name: str, ref: ParsedDocument, name: str, doc: ParsedDocument
    ) -> None:
        if doc.root_tag != ref.root_tag:
            raise TextMismatchError(
                f"root tags differ: {ref_name!r} has <{ref.root_tag}>, "
                f"{name!r} has <{doc.root_tag}>"
            )
        if doc.text != ref.text:
            at = next(
                (i for i, (a, b) in enumerate(zip(ref.text, doc.text)) if a != b),
                min(len(ref.text), len(doc.text)),
            )
            window = slice(max(0, at - 10), at + 10)
            raise TextMismatchError(
                f"text content differs between {ref_name!r} and {name!r} "
                f"at offset {at}: {ref.text[window]!r} vs {doc.text[window]!r}",
                offset=at,
                expected=ref.text[window],
                found=doc.text[window],
            )

    @staticmethod
    def _merged_events(
        parsed: Mapping[str, ParsedDocument],
    ) -> "list[tuple[str, MarkupEvent]]":
        streams = []
        for rank, (name, document) in enumerate(parsed.items()):
            streams.append(
                [(event.offset, rank, event.seq, name, event)
                 for event in document.events]
            )
        merged = heap_merge(*streams)
        return [(name, event) for (_, _, _, name, event) in merged]


def parse_concurrent(sources: Mapping[str, str]) -> GoddagDocument:
    """One-call SACX parse of a distributed document into a GODDAG."""
    return SACXParser().parse(sources)


def merged_events(sources: Mapping[str, str]) -> "list[tuple[str, MarkupEvent]]":
    """The merged ``(hierarchy, event)`` pairs of the batch parser."""
    parser = SACXParser()
    return parser._merged_events(parser._scan_parts(sources))
