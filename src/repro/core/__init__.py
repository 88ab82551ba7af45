"""Core data model: spans, GODDAG nodes, hierarchies, relations.

The public surface of the package mirrors the paper's framework layers:
the :class:`GoddagDocument` (data model + DOM-like API), the
:class:`GoddagBuilder` (construction), the span algebra, and the
concurrent-markup hierarchy schema machinery.
"""

from .changes import ChangeRecord, InsertMarkup, RemoveMarkup, SetAttribute
from .goddag import GoddagBuilder, GoddagDocument
from .hierarchy import (
    ConcurrentSchema,
    Hierarchy,
    conflict_graph,
    greedy_color,
    minimal_hierarchies,
    partition_tags,
)
from .navigation import (
    all_nodes,
    compare,
    document_order,
    following,
    order_key,
    preceding,
    preorder,
)
from .node import Element, Leaf, Node, Root
from .relations import (
    coextensive,
    contains_span,
    dominates,
    follows,
    left_overlaps,
    overlap_text,
    overlaps,
    precedes,
    relation_name,
    right_overlaps,
    shared_leaves,
)
from .spans import Span, SpanTable

__all__ = [
    "ChangeRecord",
    "ConcurrentSchema",
    "Element",
    "InsertMarkup",
    "RemoveMarkup",
    "SetAttribute",
    "GoddagBuilder",
    "GoddagDocument",
    "Hierarchy",
    "Leaf",
    "Node",
    "Root",
    "Span",
    "SpanTable",
    "all_nodes",
    "coextensive",
    "compare",
    "conflict_graph",
    "contains_span",
    "document_order",
    "dominates",
    "following",
    "follows",
    "greedy_color",
    "left_overlaps",
    "minimal_hierarchies",
    "order_key",
    "overlap_text",
    "overlaps",
    "partition_tags",
    "preceding",
    "precedes",
    "preorder",
    "relation_name",
    "right_overlaps",
    "shared_leaves",
]
