"""DescribeX-style structural summary of a GODDAG document.

The summary partitions the elements of every hierarchy by their *label
path* — the root-to-element sequence of tags within that hierarchy —
and additionally keeps flat document-order lists per tag, per hierarchy,
and per ``(hierarchy, tag)`` pair.  A name-test step of the query engine
then resolves to a prebuilt candidate list instead of a full document
traversal, and a storage backend can answer "how many ``line`` elements,
and where" from the persisted partition rows without touching the
element table.

The summary is a snapshot the owning :class:`~repro.index.manager.IndexManager`
keeps current in one of two ways: lazily rebuilt when the document
version moves, or — on the editing hot path — patched in
place by :meth:`StructuralSummary.apply` from the typed change records
of :mod:`repro.core.changes`, which is DescribeX-style maintenance
under updates: each insert/remove refines or coarsens exactly the
label-path partitions the mutation touched.

Both maintenance modes produce the same lists in the same order: every
flat list and partition is kept sorted by the canonical document order
(:func:`repro.core.navigation.order_key`), which is also the order
``GoddagDocument.ordered_elements`` — the rebuild source — emits.
"""

from __future__ import annotations

from bisect import insort
from typing import TYPE_CHECKING, Iterable, Iterator

from ..core.navigation import order_key
from ..errors import IndexDeltaError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..core.changes import ChangeRecord, InsertMarkup, RemoveMarkup
    from ..core.goddag import GoddagDocument
    from ..core.node import Element

#: Separator used when a label path is rendered as one string ("page/line").
PATH_SEPARATOR = "/"


def encode_path(path: tuple[str, ...]) -> str:
    """Render a label path as one string, unambiguously.

    Tags are never validated anywhere in the library, so a tag may
    itself contain the separator; escaping keeps the encoding injective
    (``('a/b',)`` and ``('a', 'b')`` encode differently), which the
    persisted forms rely on for their uniqueness keys.
    """
    return PATH_SEPARATOR.join(
        tag.replace("\\", "\\\\").replace(PATH_SEPARATOR, "\\" + PATH_SEPARATOR)
        for tag in path
    )


def decode_path(encoded: str) -> tuple[str, ...]:
    """Inverse of :func:`encode_path`."""
    parts: list[str] = []
    buffer: list[str] = []
    i = 0
    while i < len(encoded):
        ch = encoded[i]
        if ch == "\\" and i + 1 < len(encoded):
            buffer.append(encoded[i + 1])
            i += 2
        elif ch == PATH_SEPARATOR:
            parts.append("".join(buffer))
            buffer = []
            i += 1
        else:
            buffer.append(ch)
            i += 1
    parts.append("".join(buffer))
    return tuple(parts)


class StructuralSummary:
    """Label-path partitioning plus flat per-tag element lists."""

    __slots__ = ("_by_tag", "_by_hierarchy", "_by_pair", "_partitions",
                 "_paths")

    def __init__(self, document: "GoddagDocument") -> None:
        by_tag: dict[str, list["Element"]] = {}
        by_hierarchy: dict[str, list["Element"]] = {}
        by_pair: dict[tuple[str, str], list["Element"]] = {}
        # ordered_elements() is the canonical document order, so every
        # flat list below is a document-order subsequence by construction.
        for element in document.ordered_elements():
            by_tag.setdefault(element.tag, []).append(element)
            by_hierarchy.setdefault(element.hierarchy, []).append(element)
            by_pair.setdefault((element.hierarchy, element.tag), []).append(element)
        self._by_tag = by_tag
        self._by_hierarchy = by_hierarchy
        self._by_pair = by_pair

        # Label-path partitions, per hierarchy, in per-hierarchy preorder
        # (which, within one partition, coincides with canonical document
        # order — same-path elements never nest).  The per-element path
        # map is what lets `apply` re-path adopted/spliced subtrees
        # without re-walking the tree.
        partitions: dict[tuple[str, tuple[str, ...]], list["Element"]] = {}
        paths: dict["Element", tuple[str, ...]] = {}
        for name in document.hierarchy_names():
            stack: list[tuple["Element", tuple[str, ...]]] = [
                (top, (top.tag,))
                for top in reversed(document.top_level(name))
            ]
            while stack:
                element, path = stack.pop()
                partitions.setdefault((name, path), []).append(element)
                paths[element] = path
                stack.extend(
                    (child, path + (child.tag,))
                    for child in reversed(element.element_children)
                )
        self._partitions = partitions
        self._paths = paths

    def remapped(self, by_ordinal: dict[int, "Element"]) -> "StructuralSummary":
        """This summary over a copy of its document
        (:meth:`~repro.core.goddag.GoddagDocument.copy`): every member
        replaced by the copy's element of the same ordinal, every list
        kept in its order, every label path kept.  ``by_ordinal`` maps
        each ordinal to the copy's element."""
        summary = StructuralSummary.__new__(StructuralSummary)
        summary._by_tag = remap_members(self._by_tag, by_ordinal)
        summary._by_hierarchy = remap_members(self._by_hierarchy, by_ordinal)
        summary._by_pair = remap_members(self._by_pair, by_ordinal)
        summary._partitions = remap_members(self._partitions, by_ordinal)
        summary._paths = {by_ordinal[element.ordinal]: path
                          for element, path in self._paths.items()}
        return summary

    # -- incremental maintenance (the delta protocol) --------------------------

    def apply(self, change: "ChangeRecord") -> set[tuple[str, tuple[str, ...]]]:
        """Patch the summary in place for one change record.

        Returns the partition keys ``(hierarchy, path)`` whose membership
        changed (what a persistence layer must re-write).  Attribute
        changes touch nothing — the summary stores no attribute data.
        Raises :class:`~repro.errors.IndexDeltaError` when the record and
        the summary state disagree; callers fall back to a rebuild.
        """
        from ..core.changes import InsertMarkup, RemoveMarkup, SetAttribute

        if isinstance(change, InsertMarkup):
            return self._apply_insert(change)
        if isinstance(change, RemoveMarkup):
            return self._apply_remove(change)
        if isinstance(change, SetAttribute):
            return set()
        raise IndexDeltaError(f"unsupported change record {change!r}")

    def _apply_insert(
        self, change: "InsertMarkup"
    ) -> set[tuple[str, tuple[str, ...]]]:
        element = change.element
        if element in self._paths:
            raise IndexDeltaError(f"{element!r} already indexed")
        insort(self._by_tag.setdefault(element.tag, []),
               element, key=order_key)
        insort(self._by_hierarchy.setdefault(element.hierarchy, []),
               element, key=order_key)
        insort(self._by_pair.setdefault((element.hierarchy, element.tag), []),
               element, key=order_key)
        path = change.parent_path + (element.tag,)
        self._enter_partition(element, path)
        touched = {(element.hierarchy, path)}
        touched.update(
            self._repath(change.hierarchy, change.repathed,
                         len(change.parent_path), insert_tag=element.tag)
        )
        return touched

    def _apply_remove(
        self, change: "RemoveMarkup"
    ) -> set[tuple[str, tuple[str, ...]]]:
        element = change.element
        path = self._paths.get(element)
        if path is None:
            raise IndexDeltaError(f"{element!r} not in the summary")
        _discard(self._by_tag, element.tag, element)
        _discard(self._by_hierarchy, element.hierarchy, element)
        _discard(self._by_pair, (element.hierarchy, element.tag), element)
        self._leave_partition(element, path)
        touched = {(element.hierarchy, path)}
        touched.update(
            self._repath(change.hierarchy, change.repathed,
                         len(change.parent_path), remove_tag=element.tag)
        )
        return touched

    def _repath(
        self,
        hierarchy: str,
        moved: Iterable["Element"],
        position: int,
        insert_tag: str | None = None,
        remove_tag: str | None = None,
    ) -> Iterator[tuple[str, tuple[str, ...]]]:
        """Shift the label paths of an adopted/spliced subtree by one tag
        at ``position``; yields every partition key touched."""
        for node in moved:
            old = self._paths.get(node)
            if old is None or len(old) <= position:
                raise IndexDeltaError(f"no consistent path for {node!r}")
            if insert_tag is not None:
                new = old[:position] + (insert_tag,) + old[position:]
            else:
                if old[position] != remove_tag:
                    raise IndexDeltaError(
                        f"path {old!r} of {node!r} does not pass through "
                        f"the removed <{remove_tag}>"
                    )
                new = old[:position] + old[position + 1:]
            self._leave_partition(node, old)
            self._enter_partition(node, new)
            yield (hierarchy, old)
            yield (hierarchy, new)

    def _enter_partition(
        self, element: "Element", path: tuple[str, ...]
    ) -> None:
        insort(self._partitions.setdefault((element.hierarchy, path), []),
               element, key=order_key)
        self._paths[element] = path

    def _leave_partition(
        self, element: "Element", path: tuple[str, ...]
    ) -> None:
        _discard(self._partitions, (element.hierarchy, path), element)
        del self._paths[element]

    # -- candidate resolution (the query-engine entry point) -----------------

    def candidates(
        self, name: str, hierarchy: str | None = None
    ) -> list["Element"] | None:
        """Document-order elements matching a name test.

        Args:
            name: the tag a name test matches, or ``"*"`` for any tag.
            hierarchy: restrict matches to one hierarchy (the
                ``phys:line`` qualified-test form), or ``None`` for all.

        Returns:
            A fresh list in canonical document order — the caller's to
            keep, mutations never reach the summary's internal
            partitions — or ``None`` when the summary cannot prune (a
            bare ``*`` with no hierarchy matches everything).
        """
        found = self.candidates_view(name, hierarchy)
        return None if found is None else list(found)

    def candidates_view(
        self, name: str, hierarchy: str | None = None
    ) -> list["Element"] | tuple[()] | None:
        """Zero-copy variant of :meth:`candidates` for callers that
        *snapshot* the list immediately (the flat-column candidate
        vectors of :mod:`repro.index.kernels`): the summary's internal
        document-order list itself, an empty tuple for an absent key,
        or ``None`` when the summary cannot prune.  Callers must not
        mutate or retain the returned list — incremental maintenance
        patches it in place.
        """
        if hierarchy is None:
            if name == "*":
                return None
            return self._by_tag.get(name, ())
        if name == "*":
            return self._by_hierarchy.get(hierarchy, ())
        return self._by_pair.get((hierarchy, name), ())

    def tag_count(self, name: str, hierarchy: str | None = None) -> int:
        """Number of elements a name test would match."""
        found = self.candidates(name, hierarchy)
        if found is None:
            return sum(len(elements) for elements in self._by_tag.values())
        return len(found)

    def path_of(self, element: "Element") -> tuple[str, ...] | None:
        """The element's root-to-self label path, or ``None`` when the
        element is not in the summary (foreign or removed)."""
        return self._paths.get(element)

    def is_descendant_of(self, element: "Element", ancestor: "Element") -> bool:
        """Exact subtree membership, in O(path-length difference).

        The label paths give the depth difference; walking that many
        parent hops from ``element`` must land on ``ancestor``.  A span
        pre-check rejects most non-members without hopping (within one
        hierarchy, a descendant's span always lies inside its
        ancestor's).
        """
        element_path = self._paths.get(element)
        ancestor_path = self._paths.get(ancestor)
        if element_path is None or ancestor_path is None:
            return False
        hops = len(element_path) - len(ancestor_path)
        if hops <= 0 or element.hierarchy != ancestor.hierarchy:
            return False
        if element.start < ancestor.start or element.end > ancestor.end:
            return False
        node = element
        for _ in range(hops):
            node = node._parent
            if node is None:
                return False
        return node is ancestor

    def subtree_candidates(
        self, element: "Element", name: str, hierarchy: str | None = None
    ) -> list["Element"] | None:
        """Descendants of ``element`` matching a name test, in canonical
        document order — the label-path containment access path for
        descendant steps from non-root contexts.

        Returns ``None`` when the summary cannot serve (the element is
        unknown, or the test is a bare ``*`` with no hierarchy and the
        flat lists cannot prune anyway — within one subtree the
        hierarchy is fixed, so the element's own hierarchy is used).
        """
        if self._paths.get(element) is None:
            return None
        if hierarchy is not None and hierarchy != element.hierarchy:
            return []  # descendants all live in the element's hierarchy
        base = self.candidates(name, element.hierarchy)
        if base is None:
            return None
        return [
            member
            for member in base
            if member is not element and self.is_descendant_of(member, element)
        ]

    def tags(self, hierarchy: str | None = None) -> frozenset[str]:
        """The tag vocabulary, overall or of one hierarchy."""
        if hierarchy is None:
            return frozenset(self._by_tag)
        return frozenset(
            tag for (h, tag) in self._by_pair if h == hierarchy
        )

    # -- label-path partitions ------------------------------------------------

    def partition(
        self, hierarchy: str, path: tuple[str, ...] | str
    ) -> list["Element"]:
        """Elements whose root-to-element label path is ``path`` (a tag
        tuple, or a string produced by :func:`encode_path`)."""
        if isinstance(path, str):
            path = decode_path(path)
        return list(self._partitions.get((hierarchy, path), ()))

    def label_paths(
        self, hierarchy: str | None = None
    ) -> Iterator[tuple[str, tuple[str, ...], int]]:
        """All ``(hierarchy, path, population)`` partitions."""
        for (name, path), elements in sorted(self._partitions.items()):
            if hierarchy is None or name == hierarchy:
                yield name, path, len(elements)

    def path_count(self, path: tuple[str, ...]) -> int:
        """Elements whose label path is ``path``, in any hierarchy."""
        return sum(
            len(self._partitions.get((hierarchy, path), ()))
            for hierarchy in self._by_hierarchy
        )

    def partition_count(self) -> int:
        return len(self._partitions)

    def element_count(self) -> int:
        return sum(len(elements) for elements in self._by_tag.values())


def remap_members(table: dict, by_ordinal: dict[int, "Element"]) -> dict:
    """A keyed member table with each element replaced by the element
    of the same ordinal in ``by_ordinal``, keys and order kept."""
    return {key: [by_ordinal[element.ordinal] for element in members]
            for key, members in table.items()}


def _discard(table: dict, key, element: "Element") -> None:
    """Remove ``element`` from one keyed member list (flat list or
    partition), dropping emptied keys so the vocabulary and label-path
    views stay identical to a fresh rebuild's."""
    members = table.get(key)
    if members is None:
        raise IndexDeltaError(f"no member list under {key!r}")
    try:
        members.remove(element)
    except ValueError:
        raise IndexDeltaError(f"{element!r} missing from {key!r}") from None
    if not members:
        del table[key]
