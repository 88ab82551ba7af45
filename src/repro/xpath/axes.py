"""Axis implementations of Extended XPath over the GODDAG.

The classical XPath 1.0 axes are re-defined on the GODDAG exactly as the
paper prescribes: ``parent`` may return several nodes (a leaf has one
parent per hierarchy), ``following``/``preceding`` contain only nodes
lying entirely after/before (straddling nodes belong to the extension
axes), and ``descendant`` follows child edges (so it never jumps between
hierarchies).  The extension axes — ``overlapping`` (with its left/right
refinements), ``containing``, ``contained`` and ``coextensive`` — are
the concurrent-markup axes of the demo.

Axis functions return ``(nodes, reverse)``: nodes in axis order, and
whether the axis is a reverse axis (proximity position counts backwards,
as XPath 1.0 specifies for ancestor/preceding axes).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import merge as merge_sorted
from typing import Callable, Iterable

from ..core.goddag import GoddagDocument
from ..core.navigation import document_order, order_key
from ..core.node import Element, Leaf, Node
from ..errors import XPathEvaluationError
from .ast import NodeTest


@dataclass(frozen=True)
class AttributeNode:
    """A lightweight attribute 'node' for the attribute axis."""

    owner: Element
    name: str
    value: str

    @property
    def is_leaf(self) -> bool:
        return False

    @property
    def is_element(self) -> bool:
        return False


class DocumentNode:
    """The invisible document root of XPath ('/').

    The GODDAG's shared root element is its only child; keeping the two
    distinct preserves standard XPath semantics (``/r`` selects the root
    element; ``//w`` reaches everything).
    """

    __slots__ = ("document",)

    def __init__(self, document: GoddagDocument) -> None:
        self.document = document

    @property
    def is_leaf(self) -> bool:
        return False

    @property
    def is_element(self) -> bool:
        return False

    @property
    def text(self) -> str:
        return self.document.text

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DocumentNode) and other.document is self.document

    def __hash__(self) -> int:
        return hash(("#document", id(self.document)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "#document"


#: Anything an Extended XPath node-set may contain.
XNode = object  # Node | AttributeNode | DocumentNode


def xnode_order_key(node: XNode) -> tuple:
    """Document order extended to attribute and document nodes."""
    if isinstance(node, DocumentNode):
        return (-1,)
    if isinstance(node, AttributeNode):
        return order_key(node.owner) + ("attr", node.name)
    return order_key(node)


def sorted_nodes(nodes: Iterable[XNode]) -> list[XNode]:
    """Deduplicate and sort into (extended) document order."""
    seen: set[XNode] = set()
    unique: list[XNode] = []
    for node in nodes:
        if node not in seen:
            seen.add(node)
            unique.append(node)
    unique.sort(key=xnode_order_key)
    return unique


# ---------------------------------------------------------------------------
# classical axes
# ---------------------------------------------------------------------------

def _axis_child(node: XNode, document: GoddagDocument, elements_only=False):
    if isinstance(node, DocumentNode):
        return [document.root], False
    if isinstance(node, Element):
        if elements_only:
            if node.is_root:
                return document.merged_top_level(), False
            return list(node.element_children), False
        return node.child_nodes(), False
    return [], False


def _descend(element: Element, elements_only: bool) -> list[Node]:
    out: list[Node] = []
    children = (
        element.element_children if elements_only else element.child_nodes()
    )
    for child in children:
        out.append(child)
        if isinstance(child, Element):
            out.extend(_descend(child, elements_only))
    return out


def _all_in_order(document: GoddagDocument, elements_only: bool) -> list[Node]:
    """All elements (and leaves) in document order.

    The element stream comes from the document's version-stamped cache;
    leaves merge in by key (both streams are order_key-sorted already,
    so no full sort is paid)."""
    if elements_only:
        return list(document.ordered_elements())
    return list(
        merge_sorted(
            document.ordered_elements(), iter(document.leaves()), key=order_key
        )
    )


def _axis_descendant(node: XNode, document: GoddagDocument, elements_only=False):
    if isinstance(node, DocumentNode):
        nodes: list[XNode] = [document.root]
        nodes.extend(_all_in_order(document, elements_only))
        return nodes, False
    if isinstance(node, Element):
        if node.is_root:
            return _all_in_order(document, elements_only), False
        return _descend(node, elements_only), False
    return [], False


def _axis_descendant_or_self(node: XNode, document: GoddagDocument,
                             elements_only=False):
    nodes, _ = _axis_descendant(node, document, elements_only)
    return [node, *nodes], False


def _axis_parent(node: XNode, document: GoddagDocument):
    if isinstance(node, Leaf):
        return node.parents(), False
    if isinstance(node, AttributeNode):
        return [node.owner], False
    if isinstance(node, Element):
        if node.is_root:
            return [DocumentNode(document)], False
        return [node.parent], False
    return [], False


def _axis_ancestor(node: XNode, document: GoddagDocument):
    out: list[XNode] = []
    seen: set[XNode] = set()

    def push(candidate: XNode) -> None:
        if candidate not in seen:
            seen.add(candidate)
            out.append(candidate)

    if isinstance(node, Leaf):
        for parent in node.parents():
            push(parent)
            if not parent.is_root:
                for ancestor in parent.ancestors():
                    push(ancestor)
    elif isinstance(node, AttributeNode):
        push(node.owner)
        if not node.owner.is_root:
            for ancestor in node.owner.ancestors():
                push(ancestor)
    elif isinstance(node, Element) and not node.is_root:
        for ancestor in node.ancestors():
            push(ancestor)
    if not isinstance(node, DocumentNode):
        push(DocumentNode(document))
    return out, True


def _axis_ancestor_or_self(node: XNode, document: GoddagDocument):
    nodes, _ = _axis_ancestor(node, document)
    return [node, *nodes], True


def _axis_self(node: XNode, document: GoddagDocument):
    return [node], False


def _all_solid_nodes(document: GoddagDocument) -> list[Node]:
    nodes: list[Node] = list(document.elements())
    nodes.extend(document.leaves())
    return nodes


def _axis_following(node: XNode, document: GoddagDocument):
    if isinstance(node, AttributeNode):
        node = node.owner
    if isinstance(node, DocumentNode):
        return [], False
    out = [
        candidate
        for candidate in _all_solid_nodes(document)
        if candidate is not node
        and candidate.start >= node.end
        and not (
            candidate.span.is_empty and node.span.is_empty
            and candidate.start == node.start
        )
    ]
    return sorted_nodes(out), False


def _axis_preceding(node: XNode, document: GoddagDocument):
    if isinstance(node, AttributeNode):
        node = node.owner
    if isinstance(node, DocumentNode):
        return [], True
    out = [
        candidate
        for candidate in _all_solid_nodes(document)
        if candidate is not node
        and candidate.end <= node.start
        and not (
            candidate.span.is_empty and node.span.is_empty
            and candidate.start == node.start
        )
    ]
    return list(reversed(sorted_nodes(out))), True


def _sibling_context(node: XNode, document: GoddagDocument) -> list[list[Node]]:
    """The child lists this node appears in (one per GODDAG parent)."""
    if isinstance(node, Leaf):
        return [parent.child_nodes() for parent in node.parents()]
    if isinstance(node, Element) and not node.is_root:
        return [node.parent.child_nodes()]
    return []


def _axis_following_sibling(node: XNode, document: GoddagDocument):
    out: list[Node] = []
    for siblings in _sibling_context(node, document):
        try:
            where = siblings.index(node)
        except ValueError:  # pragma: no cover - structural guarantee
            continue
        out.extend(siblings[where + 1 :])
    return sorted_nodes(out), False


def _axis_preceding_sibling(node: XNode, document: GoddagDocument):
    out: list[Node] = []
    for siblings in _sibling_context(node, document):
        try:
            where = siblings.index(node)
        except ValueError:  # pragma: no cover - structural guarantee
            continue
        out.extend(siblings[:where])
    return list(reversed(sorted_nodes(out))), True


def _axis_attribute(node: XNode, document: GoddagDocument):
    if isinstance(node, Element):
        return [
            AttributeNode(node, name, value)
            for name, value in sorted(node.attributes.items())
        ], False
    return [], False


# ---------------------------------------------------------------------------
# the concurrent-markup extension axes
# ---------------------------------------------------------------------------

def _axis_overlapping(node: XNode, document: GoddagDocument):
    if not isinstance(node, Element) or node.is_root:
        return [], False
    return sorted_nodes(document.overlapping_elements(node)), False


def _axis_overlapping_left(node: XNode, document: GoddagDocument):
    """Elements straddling the context node's *start* boundary."""
    if not isinstance(node, Element) or node.is_root:
        return [], False
    out = [
        other
        for other in document.overlapping_elements(node)
        if other.span.left_overlaps(node.span)
    ]
    return sorted_nodes(out), False


def _axis_overlapping_right(node: XNode, document: GoddagDocument):
    """Elements straddling the context node's *end* boundary."""
    if not isinstance(node, Element) or node.is_root:
        return [], False
    out = [
        other
        for other in document.overlapping_elements(node)
        if other.span.right_overlaps(node.span)
    ]
    return sorted_nodes(out), False


def _axis_containing(node: XNode, document: GoddagDocument):
    """Elements of *other* hierarchies properly containing the context's
    span (same-hierarchy containers are the ancestor axis)."""
    if not isinstance(node, Element) or node.is_root:
        return [], False
    out = [
        other
        for other in document.containing_elements(node)
        if other.span != node.span
    ]
    return sorted_nodes(out), False


def _axis_contained(node: XNode, document: GoddagDocument):
    """Elements of other hierarchies properly inside the context's span."""
    if not isinstance(node, Element):
        return [], False
    out = [
        other
        for other in document.contained_elements(node)
        if other.span != node.span
    ]
    return sorted_nodes(out), False


def _axis_coextensive(node: XNode, document: GoddagDocument):
    if not isinstance(node, Element) or node.is_root:
        return [], False
    return sorted_nodes(document.coextensive_elements(node)), False


AXES: dict[str, Callable] = {
    "child": _axis_child,
    "descendant": _axis_descendant,
    "descendant-or-self": _axis_descendant_or_self,
    "parent": _axis_parent,
    "ancestor": _axis_ancestor,
    "ancestor-or-self": _axis_ancestor_or_self,
    "self": _axis_self,
    "following": _axis_following,
    "preceding": _axis_preceding,
    "following-sibling": _axis_following_sibling,
    "preceding-sibling": _axis_preceding_sibling,
    "attribute": _axis_attribute,
    "overlapping": _axis_overlapping,
    "overlapping-left": _axis_overlapping_left,
    "overlapping-right": _axis_overlapping_right,
    "containing": _axis_containing,
    "contained": _axis_contained,
    "coextensive": _axis_coextensive,
}


#: Axes that accept the elements-only pruning hint (a name test can
#: never match a leaf, so leaf materialization is skipped).
_PRUNABLE = frozenset({"child", "descendant", "descendant-or-self"})


def node_test_matches(test: NodeTest, node: XNode) -> bool:
    """True when ``node`` passes the step's node test."""
    if test.kind == "node":
        return True
    if test.kind == "text":
        return isinstance(node, Leaf)
    # name test
    if isinstance(node, AttributeNode):
        if test.hierarchy and (
            node.owner.is_root or node.owner.hierarchy != test.hierarchy
        ):
            return False
        return test.name == "*" or node.name == test.name
    if isinstance(node, Element):
        if test.hierarchy:
            if node.is_root or node.hierarchy != test.hierarchy:
                return False
        return test.name == "*" or node.tag == test.name
    return False


def apply_axis(axis: str, node: XNode, document: GoddagDocument,
               elements_only: bool = False):
    """Dispatch to an axis implementation.

    ``elements_only`` is a pruning hint set by the evaluator when the
    step's node test can only match elements; prunable axes then skip
    building leaf nodes entirely.
    """
    try:
        fn = AXES[axis]
    except KeyError:
        raise XPathEvaluationError(f"unknown axis {axis!r}") from None
    if elements_only and axis in _PRUNABLE:
        return fn(node, document, elements_only=True)
    return fn(node, document)
