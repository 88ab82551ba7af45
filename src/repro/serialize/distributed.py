"""Exporter: distributed documents (one XML document per hierarchy).

The inverse of :func:`repro.sacx.distributed.parse_distributed`.  Every
hierarchy serializes to a stand-alone well-formed document carrying the
full text; uncovered text appears directly under the root.
"""

from __future__ import annotations

from ..core.goddag import GoddagDocument
from .writer import XmlWriter


def serialize_hierarchy(document: GoddagDocument, hierarchy: str) -> str:
    """Serialize one hierarchy of the GODDAG as a well-formed document."""
    text = document.text
    writer = XmlWriter()
    writer.start_tag(document.root.tag, document.root.attributes)
    # One frame per open element, the root's first: [children left to
    # write, end offset, text written up to].  An iterative walk, so
    # document depth is not bounded by the recursion limit.
    stack = [[iter(document.top_level(hierarchy)), len(text), 0]]
    while stack:
        frame = stack[-1]
        children, end, position = frame
        child = next(children, None)
        if child is None:
            writer.text(text[position:end])
            writer.end_tag()
            stack.pop()
            continue
        if child.start > position:
            writer.text(text[position : child.start])
        frame[2] = max(position, child.end)
        if child.is_empty:
            writer.empty_tag(child.tag, child.attributes)
        else:
            writer.start_tag(child.tag, child.attributes)
            stack.append([iter(child.element_children), child.end,
                          child.start])
    return writer.getvalue()


def export_distributed(document: GoddagDocument) -> dict[str, str]:
    """Serialize every hierarchy: ``{hierarchy_name: xml_source}``."""
    return {
        name: serialize_hierarchy(document, name)
        for name in document.hierarchy_names()
    }
