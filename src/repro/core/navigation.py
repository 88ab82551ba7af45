"""Document order and whole-document traversal over a GODDAG.

The GODDAG generalizes the DOM's document order: within one hierarchy
the order is classical (preorder of the tree); across hierarchies nodes
are interleaved by the canonical key

    ``(start, zero-width-first, -end, element-before-leaf,
       hierarchy rank, depth, ordinal)``

with the shared root first.  Extended XPath's ``following``/``preceding``
axes and node-set sorting are defined on this order.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .goddag import GoddagDocument
from .node import KIND_ELEMENT, KIND_LEAF, Element, Leaf, Node


def element_key(element: Element, rank: int, depth: int) -> tuple:
    """The :func:`order_key` of a non-root ``element`` whose hierarchy has
    ``rank`` and that has ``depth`` proper element ancestors."""
    start, end = element._start, element._end
    return (1, start, 0 if start == end else 1, -end, KIND_ELEMENT, rank,
            depth, element.ordinal)


def order_key(node: Node) -> tuple:
    """Total-order key realizing GODDAG document order.

    Root sorts first; elements sort before the leaf they start with;
    zero-width elements sort at their anchor before solid nodes starting
    there; coextensive same-hierarchy elements sort ancestor-first (by
    depth); cross-hierarchy ties break by hierarchy rank.

    Element keys are cached and stamped with the document version:
    ``depth()`` walks the parent chain, which would otherwise dominate
    large sorts (every structural mutation bumps the version and
    invalidates the cache).  ``GoddagDocument.ordered_elements`` stamps
    the :func:`element_key` of every element, in one tree walk or, after
    tracked edits, by re-keying only the elements the edits moved.
    """
    if isinstance(node, Element):
        if node.is_root:
            return (0,)
        if node._okey_version == node.document.version:
            return node._okey
        rank = node.document.hierarchy(node.hierarchy).rank
        key = element_key(node, rank, node.depth())
        node._okey = key
        node._okey_version = node.document.version
        return key
    if isinstance(node, Leaf):
        return (1, node.start, 1, -node.end, KIND_LEAF, 0, 0, node.index)
    raise TypeError(f"not a GODDAG node: {node!r}")


def document_order(nodes: Iterable[Node]) -> list[Node]:
    """Sort nodes into document order, removing duplicates."""
    seen: set[Node] = set()
    unique: list[Node] = []
    for node in nodes:
        if node not in seen:
            seen.add(node)
            unique.append(node)
    unique.sort(key=order_key)
    return unique


def compare(a: Node, b: Node) -> int:
    """-1, 0, or 1 as ``a`` comes before, equals, or follows ``b``."""
    if a == b:
        return 0
    ka, kb = order_key(a), order_key(b)
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0


def all_nodes(document: GoddagDocument, include_root: bool = True) -> list[Node]:
    """Every node of the document (root, elements, leaves) in document order."""
    nodes: list[Node] = []
    if include_root:
        nodes.append(document.root)
    nodes.extend(document.elements())
    nodes.extend(document.leaves())
    nodes.sort(key=order_key)
    return nodes


def following(node: Node) -> Iterator[Node]:
    """Nodes lying entirely after ``node`` (GODDAG ``following`` axis).

    Overlapping and containing nodes are excluded by definition — they
    belong to the ``overlapping``/``containing`` axes instead.
    """
    document = node.document
    for candidate in all_nodes(document, include_root=False):
        if candidate is node:
            continue
        if candidate.start >= node.end and not (
            candidate.span.is_empty
            and node.span.is_empty
            and candidate.start == node.start
        ):
            yield candidate


def preceding(node: Node) -> Iterator[Node]:
    """Nodes lying entirely before ``node`` (GODDAG ``preceding`` axis)."""
    document = node.document
    for candidate in all_nodes(document, include_root=False):
        if candidate is node:
            continue
        if candidate.end <= node.start and not (
            candidate.span.is_empty
            and node.span.is_empty
            and candidate.start == node.start
        ):
            yield candidate


def preorder(document: GoddagDocument, hierarchy: str) -> Iterator[Node]:
    """Classical single-hierarchy preorder: elements and the leaves they
    reach, exactly the DOM traversal of that hierarchy's extended tree."""
    yield document.root

    def walk(element: Element) -> Iterator[Node]:
        for child in document.child_nodes_of(element):
            yield child
            if isinstance(child, Element):
                yield from walk(child)

    root_children = list(document.top_level(hierarchy))
    position = 0
    for child in root_children:
        if child.start > position:
            for leaf in document.leaves_in_range(position, child.start):
                yield leaf
        yield child
        yield from walk(child)
        position = max(position, child.end)
    if document.length > position:
        for leaf in document.leaves_in_range(position, document.length):
            yield leaf
