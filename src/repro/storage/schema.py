"""The relational encoding of a GODDAG.

The paper lists persistent storage as work underway; this package
builds it.  The encoding is the natural one: the shared text is stored
once, hierarchies are rows, and every element is a row carrying its
span and its parent element id — enough to reconstruct the GODDAG
exactly (including zero-width placement and equal-span nesting, which
spans alone cannot recover).  Sibling order is not stored: it follows
from ``(start, zero-width-first, -end, elem_id)``, the GODDAG's own
order, so an edit rewrites only the rows whose parent it changed.

``elem_id`` is the element's birth ordinal — the *stable persistent
identity* of the GODDAG core.  It round-trips: :func:`decode_document`
reconstructs every element under its stored ordinal (and the fresh
ordinal counter resumes past the loaded maximum), so ``save → load →
save`` re-emits identical ids and row-level delta saves can key element
upserts by ``(doc_id, elem_id)``.  The root is element id 0 by
convention; ``parent_id`` is the parent's ordinal.  For documents that
were never edited, ordinals coincide with the per-hierarchy preorder
numbering older artifacts stored — which is exactly why loading such an
artifact adopts its ids unchanged ("backfill by adoption").  After
edits, ids are *not* preorder (a late-born wrapper has a larger ordinal
than the children it adopted), and nothing here relies on that anymore.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from ..core.goddag import GoddagBuilder, GoddagDocument
from ..core.node import Element
from ..dtd.parser import parse_dtd
from ..errors import StorageError
from ..index.structural import encode_path
from ..index.term import TERM_RUN

#: parent_id of top-level elements.
ROOT_ID = 0


@dataclass(frozen=True)
class DocumentRow:
    name: str
    root_tag: str
    text: str
    root_attributes: str  # JSON object


@dataclass(frozen=True)
class HierarchyRow:
    rank: int
    name: str
    dtd_source: str  # '' when the hierarchy has no DTD


class ElementRow(NamedTuple):
    """One stored element; a plain tuple, so a fetched sqlite row becomes
    one with ``ElementRow._make`` and no per-field work."""

    elem_id: int
    hierarchy: str
    tag: str
    start: int
    end: int
    parent_id: int
    attributes: str  # JSON object


#: ``collection_summary.kind`` values — the four feature families the
#: collection router consults (see :mod:`repro.collection.router`), and
#: the counts ``count_tag`` and ``count_attribute`` read.
KIND_TAG = 0      # key = tag; n = elements with that tag
KIND_TERM = 1     # key = term-index token; n = occurrences
KIND_ATTR = 2     # key = encode_path((name, value)); n = posting length
KIND_PATH = 3     # key = encoded label path (hierarchy-agnostic); n = members


@lru_cache(maxsize=4096)
def encode_attributes(items: tuple[tuple[str, str], ...]) -> str:
    """The stored JSON object of ``(name, value)`` pairs, keys sorted;
    memoized, as most elements carry none or repeat a few."""
    return json.dumps(dict(items), sort_keys=True)


def encode_document(
    document: GoddagDocument, name: str
) -> tuple[DocumentRow, list[HierarchyRow], list[ElementRow]]:
    """Flatten a GODDAG into relational rows."""
    doc_row = DocumentRow(
        name=name,
        root_tag=document.root.tag,
        text=document.text,
        root_attributes=encode_attributes(
            tuple(document.root.attributes.items())),
    )
    hierarchy_rows = []
    for rank, hierarchy_name in enumerate(document.hierarchy_names()):
        hierarchy = document.hierarchy(hierarchy_name)
        dtd_source = hierarchy.dtd.to_source() if hierarchy.dtd else ""
        hierarchy_rows.append(HierarchyRow(rank, hierarchy_name, dtd_source))

    # One iterative preorder walk per hierarchy, so document depth is
    # not bounded by the recursion limit.
    element_rows: list[ElementRow] = []
    for hierarchy_name in document.hierarchy_names():
        stack = [(element, ROOT_ID) for element in
                 reversed(document.top_level(hierarchy_name))]
        while stack:
            element, parent_id = stack.pop()
            element_rows.append(
                ElementRow(
                    elem_id=element.ordinal,
                    hierarchy=element.hierarchy,
                    tag=element.tag,
                    start=element.start,
                    end=element.end,
                    parent_id=parent_id,
                    attributes=encode_attributes(
                        tuple(element.attributes.items())),
                )
            )
            stack.extend((child, element.ordinal)
                         for child in reversed(element.element_children))
    return doc_row, hierarchy_rows, element_rows


def summary_rows(document: GoddagDocument) -> list[tuple[int, str, int]]:
    """The document's ``(kind, key, n)`` collection-summary rows,
    counted from the document itself with no position copied and no
    index built: elements per tag and per label path (summed across
    hierarchies, keyed by the injective
    :func:`~repro.index.structural.encode_path`) and per ``(name,
    value)`` attribute pair, and occurrences per
    :data:`~repro.index.term.TERM_RUN` token.  The root counts nowhere.
    """
    paths: Counter[tuple[str, ...]] = Counter()
    pairs: Counter[tuple[str, str]] = Counter()
    stack = [(element, (element.tag,))
             for hierarchy_name in document.hierarchy_names()
             for element in document.top_level(hierarchy_name)]
    while stack:
        element, path = stack.pop()
        paths[path] += 1
        if element.attributes:
            pairs.update(element.attributes.items())
        stack.extend((child, path + (child.tag,))
                     for child in element.element_children)
    tags: Counter[str] = Counter()
    for path, n in paths.items():
        tags[path[-1]] += n
    terms = Counter(TERM_RUN.findall(document.text))
    return [*((KIND_TAG, tag, n) for tag, n in tags.items()),
            *((KIND_PATH, encode_path(path), n) for path, n in paths.items()),
            *((KIND_TERM, term, n) for term, n in terms.items()),
            *((KIND_ATTR, encode_path(pair), n) for pair, n in pairs.items())]


def element_row(element: Element) -> ElementRow:
    """The relational row of one live element, from its current state.

    The single-element counterpart of :func:`encode_document`, used by
    the journal-driven row upserts: ``elem_id`` is the element's birth
    ordinal and ``parent_id`` the parent's (``ROOT_ID`` at top level).
    An element that is not attached to its document raises
    :class:`~repro.errors.StorageError`.
    """
    if element.document.element_by_ordinal(element.ordinal) is not element:
        raise StorageError(
            f"element {element!r} is not attached to its document"
        )
    parent = element.parent
    return ElementRow(
        elem_id=element.ordinal,
        hierarchy=element.hierarchy,
        tag=element.tag,
        start=element.start,
        end=element.end,
        parent_id=ROOT_ID if parent.is_root else parent.ordinal,
        attributes=encode_attributes(tuple(element.attributes.items())),
    )


def decode_attributes(encoded: str, elem_id: int) -> dict[str, str]:
    """The stored attribute object of element ``elem_id`` (``ROOT_ID``
    for the document root), decoded.

    Anything but a JSON object raises :class:`~repro.errors.StorageError`
    naming the element — never a raw ``json`` or ``TypeError``.
    """
    if encoded == "{}":
        return {}
    try:
        attributes = json.loads(encoded)
    except (TypeError, ValueError, RecursionError) as exc:
        raise StorageError(
            f"element {elem_id} has malformed attributes {encoded!r}: {exc}"
        ) from None
    if not isinstance(attributes, dict):
        raise StorageError(
            f"element {elem_id} has attributes {encoded!r}, not a JSON object"
        )
    return attributes


def decode_document(
    doc_row: DocumentRow,
    hierarchy_rows: list[HierarchyRow],
    element_rows: list[ElementRow],
) -> GoddagDocument:
    """Rebuild a GODDAG from its relational rows.

    The element rows go to :meth:`GoddagBuilder.add_rows` with their
    attributes decoded; the builder places every element under its
    stored parent in sibling order in one walk, so nesting
    (including equal spans and zero-width placement) is restored exactly
    as stored.  Every element is reconstructed under its stored
    ``elem_id`` as its birth ordinal — the persistent-identity half of
    the round-trip contract — and the builder resumes the fresh-ordinal
    counter past the loaded maximum, so post-load edits never collide
    with persisted ids.  A row that cannot be placed exactly once, or
    whose attributes are not a JSON object, raises
    :class:`~repro.errors.StorageError` naming it.
    """
    builder = GoddagBuilder(doc_row.text, doc_row.root_tag)
    for row in sorted(hierarchy_rows, key=lambda r: r.rank):
        dtd = parse_dtd(row.dtd_source, name=row.name) if row.dtd_source else None
        builder.add_hierarchy(row.name, dtd=dtd)
    builder.add_rows([
        (elem_id, hierarchy, tag, start, end, parent_id,
         decode_attributes(attributes, elem_id))
        for elem_id, hierarchy, tag, start, end, parent_id, attributes
        in element_rows
    ])
    document = builder.build()
    document.root.attributes.update(
        decode_attributes(doc_row.root_attributes, ROOT_ID)
    )
    return document
