"""GODDAG nodes: shared root, element nodes, and shared leaves.

A GODDAG (*Generalized Ordered-Descendant Directed Acyclic Graph*) unites
one extended DOM tree per markup hierarchy at two levels:

* the **root**: a single element, common to every hierarchy;
* the **leaves**: the text fragments delimited by markup boundaries of
  *all* hierarchies together.

Between root and leaves, each hierarchy contributes an ordinary ordered
tree of :class:`Element` nodes.  A leaf therefore has one parent chain per
hierarchy, and an element may relate to elements of other hierarchies only
through span arithmetic (containment, overlap) — exactly the navigation
model of the paper's DOM-style GODDAG API.

Element children lists store only *element* children.  Leaf children are
derived on demand from the document's shared :class:`~repro.core.spans.SpanTable`,
so splitting a leaf (an editing operation) never invalidates stored child
lists.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Mapping

from .spans import Span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .goddag import GoddagDocument


#: Sort rank used by document order: elements precede the leaf they start with.
KIND_ELEMENT = 0
KIND_LEAF = 1


class Node:
    """Common facade of GODDAG nodes (root, elements, leaves)."""

    __slots__ = ()

    document: "GoddagDocument"

    # Geometry -----------------------------------------------------------------

    @property
    def span(self) -> Span:
        raise NotImplementedError

    @property
    def start(self) -> int:
        return self.span.start

    @property
    def end(self) -> int:
        return self.span.end

    # Classification ------------------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        return False

    @property
    def is_element(self) -> bool:
        return False

    @property
    def is_root(self) -> bool:
        return False

    @property
    def text(self) -> str:
        """The document text covered by this node."""
        span = self.span
        return self.document.text[span.start : span.end]


class Leaf(Node):
    """A shared text fragment: one maximal boundary-free segment.

    Leaf objects are lightweight views created on demand; two views of the
    same segment compare equal.  A leaf remembers the span-table version it
    was created under so stale views (outlived by an editing split) can be
    detected.
    """

    __slots__ = ("document", "_index", "_span", "_version")

    def __init__(self, document: "GoddagDocument", index: int) -> None:
        self.document = document
        self._index = index
        self._span = document.spans.leaf_span(index)
        self._version = document.spans.version

    @property
    def index(self) -> int:
        """Position of this leaf in the left-to-right leaf sequence."""
        return self._index

    @property
    def span(self) -> Span:
        return self._span

    @property
    def is_leaf(self) -> bool:
        return True

    @property
    def is_stale(self) -> bool:
        """True when boundaries were added after this view was created and
        this leaf's segment no longer exists as a single leaf."""
        if self._version == self.document.spans.version:
            return False
        table = self.document.spans
        if self._index >= len(table):
            return True
        return table.leaf_span(self._index) != self._span

    # Navigation -----------------------------------------------------------------

    def parents(self, hierarchy: str | None = None) -> list["Element"]:
        """The innermost covering element per hierarchy (root if uncovered).

        With ``hierarchy`` given, the single-element list for that hierarchy.
        The shared root appears at most once even if several hierarchies
        leave this leaf uncovered.
        """
        return self.document.leaf_parents(self, hierarchy)

    def next_leaf(self) -> "Leaf | None":
        """The leaf immediately to the right, or None at the end of text."""
        if self._index + 1 >= len(self.document.spans):
            return None
        return self.document.leaf(self._index + 1)

    def previous_leaf(self) -> "Leaf | None":
        """The leaf immediately to the left, or None at the start of text."""
        if self._index == 0:
            return None
        return self.document.leaf(self._index - 1)

    # Identity ---------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Leaf)
            and other.document is self.document
            and other._span == self._span
        )

    def __hash__(self) -> int:
        return hash((id(self.document), self._span.start, self._span.end))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shown = self.text if len(self.text) <= 18 else self.text[:15] + "..."
        return f"Leaf#{self._index}[{self.start},{self.end}) {shown!r}"


class Element(Node):
    """An element node of one markup hierarchy.

    Elements span a contiguous character range; within their hierarchy the
    ranges properly nest.  ``ordinal`` is a document-unique birth stamp used
    for stable tie-breaking and — as :attr:`elem_id` — for *persistent*
    identity: the store keeps it as the element's row id, and
    reconstruction preserves it, so an ordinal observed in one session
    names the same element after any number of save → load round trips
    (see :meth:`repro.storage.GoddagStore.element`).
    """

    __slots__ = (
        "document",
        "hierarchy",
        "tag",
        "attributes",
        "ordinal",
        "_start",
        "_end",
        "_parent",
        "_children",
        "_okey",
        "_okey_version",
    )

    def __init__(
        self,
        document: "GoddagDocument",
        hierarchy: str,
        tag: str,
        start: int,
        end: int,
        attributes: Mapping[str, str] | None = None,
        ordinal: int = -1,
    ) -> None:
        self.document = document
        self.hierarchy = hierarchy
        self.tag = tag
        self.attributes: dict[str, str] = dict(attributes or {})
        self.ordinal = ordinal
        self._start = start
        self._end = end
        self._parent: Element | None = None
        self._children: list[Element] = []
        # Cached document-order key, stamped with the document version
        # (see repro.core.navigation.order_key).
        self._okey: tuple | None = None
        self._okey_version = -1

    # Geometry ------------------------------------------------------------------

    @property
    def span(self) -> Span:
        return Span(self._start, self._end)

    @property
    def start(self) -> int:
        return self._start

    @property
    def end(self) -> int:
        return self._end

    @property
    def is_element(self) -> bool:
        return True

    @property
    def is_empty(self) -> bool:
        """True for zero-width elements (e.g. surviving milestones)."""
        return self._start == self._end

    # Identity -------------------------------------------------------------------

    @property
    def elem_id(self) -> int:
        """The element's stable persistent identity: its birth ordinal.

        Round-trip stable — ``save → load`` preserves it (the shared
        root is always 0) — so it can be handed
        across sessions and resolved with
        :meth:`~repro.core.goddag.GoddagDocument.element_by_ordinal` or,
        without materializing the document, with
        :meth:`~repro.storage.GoddagStore.element`.
        """
        return self.ordinal

    # Tree structure ---------------------------------------------------------------

    @property
    def parent(self) -> "Element":
        """The parent element within this element's hierarchy (root at top)."""
        if self._parent is None:
            return self.document.root
        return self._parent

    @property
    def element_children(self) -> tuple["Element", ...]:
        """Element children within this hierarchy, in document order."""
        return tuple(self._children)

    def child_nodes(self) -> list[Node]:
        """Ordered children: element children interleaved with gap leaves.

        Text not covered by any element child appears as the leaves that
        tile the gap.  This realizes the paper's "extended DOM tree where
        text nodes have leaves as children" view.
        """
        return self.document.child_nodes_of(self)

    def ancestors(self) -> Iterator["Element"]:
        """Proper ancestors within the hierarchy, nearest first, root last."""
        node = self._parent
        while node is not None:
            yield node
            node = node._parent
        yield self.document.root

    def descendants(self) -> Iterator["Element"]:
        """All element descendants within the hierarchy, preorder."""
        for child in self._children:
            yield child
            yield from child.descendants()

    def depth(self) -> int:
        """Number of proper element ancestors below the root."""
        count = 0
        node = self._parent
        while node is not None:
            count += 1
            node = node._parent
        return count

    def siblings(self) -> tuple["Element", ...]:
        """All children of this element's parent (including this element)."""
        return self.parent.element_children if self._parent is not None else tuple(
            self.document.top_level(self.hierarchy)
        )

    # Cross-hierarchy navigation (span arithmetic; see core.relations) -----------

    def leaves(self) -> list[Leaf]:
        """The leaves this element covers, left to right."""
        return self.document.leaves_in(self.span)

    def overlapping(self, hierarchy: str | None = None) -> list["Element"]:
        """Elements (of any or one other hierarchy) properly overlapping this."""
        return self.document.overlapping_elements(self, hierarchy)

    def containing(self, hierarchy: str | None = None) -> list["Element"]:
        """Elements of other hierarchies whose span contains this element's."""
        return self.document.containing_elements(self, hierarchy)

    def contained(self, hierarchy: str | None = None) -> list["Element"]:
        """Elements of other hierarchies contained in this element's span."""
        return self.document.contained_elements(self, hierarchy)

    def coextensive(self, hierarchy: str | None = None) -> list["Element"]:
        """Elements of other hierarchies covering exactly the same text."""
        return self.document.coextensive_elements(self, hierarchy)

    # Attributes -----------------------------------------------------------------

    def get(self, name: str, default: str | None = None) -> str | None:
        """Attribute value lookup with a default, dict-style."""
        return self.attributes.get(name, default)

    def set(self, name: str, value: str) -> None:
        """Set an attribute value (bumps the document version and emits
        a tracked :class:`~repro.core.changes.SetAttribute` record)."""
        self.document.set_attribute(self, name, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{self.tag} #{self.ordinal} [{self._start},{self._end}) "
            f"h={self.hierarchy}>"
        )


class Root(Element):
    """The single root shared by every hierarchy of the document.

    Its element children are the union of the top-level elements of all
    hierarchies; per-hierarchy views are available through
    :meth:`GoddagDocument.top_level`.
    """

    __slots__ = ()

    def __init__(self, document: "GoddagDocument", tag: str = "r") -> None:
        super().__init__(document, hierarchy="", tag=tag, start=0,
                         end=document.length, ordinal=0)

    @property
    def is_root(self) -> bool:
        return True

    @property
    def span(self) -> Span:
        # The root always covers the whole (possibly grown) text.
        return Span(0, self.document.length)

    @property
    def start(self) -> int:
        return 0

    @property
    def end(self) -> int:
        return self.document.length

    @property
    def parent(self) -> "Element":
        raise AttributeError("the root of a GODDAG has no parent")

    @property
    def element_children(self) -> tuple[Element, ...]:
        return tuple(self.document.merged_top_level())

    def child_nodes(self) -> list[Node]:
        return self.document.child_nodes_of(self)

    def ancestors(self) -> Iterator[Element]:
        return iter(())

    def descendants(self) -> Iterator[Element]:
        """Every element of every hierarchy, in document order."""
        yield from self.document.elements()

    def depth(self) -> int:
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<root {self.tag!r} [0,{self.end})>"
