"""Typed change records — the delta protocol of the editing hot path.

Every tracked mutation of a :class:`~repro.core.goddag.GoddagDocument`
emits exactly one record describing what changed, into the document's
bounded delta journal (:meth:`GoddagDocument.changes_since`).  Consumers
— most importantly :class:`~repro.index.manager.IndexManager` — replay
the records to update derived structures *in place* instead of
rebuilding them from scratch after every edit.

Three record types cover the whole mutation surface:

* :class:`InsertMarkup` — an element entered a hierarchy (milestone
  insertion is the zero-width case, :attr:`InsertMarkup.is_milestone`);
* :class:`RemoveMarkup` — an element left a hierarchy (children spliced
  up to its parent);
* :class:`SetAttribute` — one attribute set or deleted (``value is
  None`` encodes deletion, ``old is None`` encodes prior absence).

Records are closed under inversion: ``record.inverse()`` describes the
mutation that undoes ``record``, which is exactly what the editing
layer's undo/redo emits when it reverts or replays a command.  Structural
records additionally carry the *re-pathing context* an incremental
structural summary needs: the label path of the parent the element was
attached under (plus the parent element itself, for row-level storage
re-ranking), and the elements whose root-to-self label path changed
because the insertion adopted them (or the removal spliced them up).

The records hold live :class:`~repro.core.node.Element` references on
purpose — the journal is an in-memory, same-process protocol; persisted
deltas travel as the plain-value forms produced by the index manager.

Every record names its element's birth ``ordinal`` — the persistent
``elem_id`` the store keys element rows by — which is what
lets :class:`ElementRowCoalescer` fold a whole journal window into the
minimal set of row-level storage writes (:class:`UpdateElementRow`): N
edits to one element collapse to one upsert, an insert undone by its
remove nets out entirely, and an attribute-only session persists in
O(1) rows instead of a full table rewrite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .node import Element


@dataclass(frozen=True)
class InsertMarkup:
    """An element was inserted into ``hierarchy`` over ``[start, end)``."""

    hierarchy: str
    tag: str
    start: int
    end: int
    attributes: tuple[tuple[str, str], ...]
    ordinal: int
    #: The inserted element itself (live reference, identity-stable).
    element: "Element" = field(repr=False)
    #: Label path of the parent it was attached under (root = ``()``).
    parent_path: tuple[str, ...] = ()
    #: Elements whose label path gained ``tag`` at ``len(parent_path)``
    #: because the insertion adopted their subtree.
    repathed: tuple["Element", ...] = field(default=(), repr=False)
    #: The parent element it was attached under (``None`` = shared root)
    #: — the sibling list whose child ranks the insertion shifted.
    parent: "Element | None" = field(default=None, repr=False)

    @property
    def is_milestone(self) -> bool:
        """True for zero-width (milestone) insertions."""
        return self.start == self.end

    def signature(self) -> tuple:
        """The value identity of the mutation (element refs excluded)."""
        return ("insert", self.hierarchy, self.tag, self.start, self.end)

    def inverse(self) -> "RemoveMarkup":
        return RemoveMarkup(
            hierarchy=self.hierarchy, tag=self.tag,
            start=self.start, end=self.end,
            attributes=self.attributes, ordinal=self.ordinal,
            element=self.element, parent_path=self.parent_path,
            repathed=self.repathed, parent=self.parent,
        )


@dataclass(frozen=True)
class RemoveMarkup:
    """An element was removed; its children were spliced up."""

    hierarchy: str
    tag: str
    start: int
    end: int
    attributes: tuple[tuple[str, str], ...]
    ordinal: int
    #: The removed element (now detached from the document).
    element: "Element" = field(repr=False)
    #: Label path of the parent it was removed from (root = ``()``).
    parent_path: tuple[str, ...] = ()
    #: Elements whose label path lost ``tag`` at ``len(parent_path)``
    #: because the removal spliced their subtree up.
    repathed: tuple["Element", ...] = field(default=(), repr=False)
    #: The parent it was removed from (``None`` = shared root) — the
    #: sibling list the removal re-ranked (spliced children included).
    parent: "Element | None" = field(default=None, repr=False)

    @property
    def is_milestone(self) -> bool:
        return self.start == self.end

    def signature(self) -> tuple:
        return ("remove", self.hierarchy, self.tag, self.start, self.end)

    def inverse(self) -> "InsertMarkup":
        return InsertMarkup(
            hierarchy=self.hierarchy, tag=self.tag,
            start=self.start, end=self.end,
            attributes=self.attributes, ordinal=self.ordinal,
            element=self.element, parent_path=self.parent_path,
            repathed=self.repathed, parent=self.parent,
        )


@dataclass(frozen=True)
class SetAttribute:
    """One attribute changed: set (``value``), or deleted (``value is
    None``); ``old is None`` means the attribute did not exist before."""

    element: "Element" = field(repr=False)
    name: str = ""
    value: str | None = None
    old: str | None = None

    def signature(self) -> tuple:
        return ("attribute", self.name, self.old, self.value)

    def inverse(self) -> "SetAttribute":
        return SetAttribute(
            element=self.element, name=self.name,
            value=self.old, old=self.value,
        )


#: Everything a delta journal may hold.
ChangeRecord = Union[InsertMarkup, RemoveMarkup, SetAttribute]


@dataclass(frozen=True)
class UpdateElementRow:
    """One coalesced row-level storage write, keyed by persistent id.

    ``element`` is the live element whose row must be (re)written —
    the storage layer encodes its *current* state at save time — or
    ``None`` for a row deletion.  ``parent_id``/``child_rank`` are
    placement hints pre-computed by the coalescer's container
    enumeration (which knows both for free); left ``None``, the storage
    layer derives them from the element's sibling list.  Produced only
    by :class:`ElementRowCoalescer`; never enters the delta journal
    itself.
    """

    ordinal: int
    element: "Element | None" = field(default=None, repr=False)
    parent_id: int | None = None
    child_rank: int | None = None

    @property
    def is_delete(self) -> bool:
        return self.element is None


class ElementRowCoalescer:
    """Folds a journal window into the minimal element-row write set.

    Feed every :data:`ChangeRecord` of a window through :meth:`record`
    (in order), then ask :meth:`updates` for the coalesced
    :class:`UpdateElementRow` operations against the document's *final*
    state.  Guarantees:

    * N edits to one element collapse to one row write;
    * an element born and removed inside the window produces nothing;
    * every row whose ``parent_id`` or ``child_rank`` an insertion or
      removal shifted is re-written (the record's ``parent`` names the
      sibling list that re-ranked; the inserted element names the list
      of children it adopted);
    * row *contents* are read from the live elements at
      :meth:`updates` time, so intermediate states are never persisted.

    A record stream that is internally inconsistent (an insert re-using
    a deleted ordinal, an unknown record type) marks the coalescer
    :attr:`broken`; the storage layer then falls back to a full rewrite
    — the same contract as an untracked mutation.
    """

    __slots__ = ("_touched", "_containers", "_deleted", "_born", "broken",
                 "records_seen")

    def __init__(self) -> None:
        #: Journal records folded so far — the numerator of the fold
        #: ratio (records seen / row writes produced) reported by
        #: :meth:`updates` to the ``journal.coalesce.*`` metrics.
        self.records_seen = 0
        # ordinal -> live element whose own row content changed
        self._touched: dict[int, "Element"] = {}
        # container key -> parent element whose child list changed:
        # every current child re-ranks at save time.  Non-root parents
        # key by ordinal; the shared root keys *per hierarchy* (value
        # ``None``) so a top-level edit in one hierarchy never rewrites
        # the top-level rows of the others.
        self._containers: dict[object, "Element | None"] = {}
        # ordinals whose rows must be deleted
        self._deleted: set[int] = set()
        # ordinals born inside this window (their delete is a no-op)
        self._born: set[int] = set()
        self.broken = False

    def __len__(self) -> int:
        return len(self._touched) + len(self._containers) + len(self._deleted)

    def __bool__(self) -> bool:
        return len(self) > 0

    def _dirty_container(self, parent: "Element | None",
                         hierarchy: str) -> None:
        if parent is None:
            self._containers[("root", hierarchy)] = None
        else:
            self._containers[parent.ordinal] = parent

    def record(self, change: ChangeRecord) -> None:
        """Fold one journal record into the pending write set."""
        self.records_seen += 1
        if self.broken:
            return
        if isinstance(change, SetAttribute):
            element = change.element
            if not element.is_root:
                # Root attributes live on the document row, which every
                # save rewrites anyway — element rows only here.
                self._touched[element.ordinal] = element
            return
        if isinstance(change, InsertMarkup):
            element = change.element
            if element.ordinal in self._deleted:
                # Ordinals are birth stamps and never reused; a replayed
                # insert of a deleted ordinal means the records did not
                # come from one document's journal.
                self.broken = True
                return
            self._touched[element.ordinal] = element
            self._born.add(element.ordinal)
            self._dirty_container(change.parent, change.hierarchy)
            # Adopted children re-parent (and re-rank) under the new
            # element; its child list is the second dirtied container.
            self._containers[element.ordinal] = element
            return
        if isinstance(change, RemoveMarkup):
            element = change.element
            self._touched.pop(element.ordinal, None)
            self._containers.pop(element.ordinal, None)
            if element.ordinal in self._born:
                self._born.discard(element.ordinal)
            else:
                self._deleted.add(element.ordinal)
            self._dirty_container(change.parent, change.hierarchy)
            return
        self.broken = True  # unknown record type: cannot coalesce

    def updates(self, document) -> list[UpdateElementRow]:
        """The coalesced write set against ``document``'s final state.

        Returns row deletions first, then one upsert per distinct
        surviving element (deduplicated across all dirty containers).
        Raises :class:`ValueError` when :attr:`broken` — callers must
        check first and fall back to a full rewrite.
        """
        if self.broken:
            raise ValueError("broken coalescer cannot produce row updates")
        from ..obs.metrics import metrics

        ops = [UpdateElementRow(ordinal=ordinal)
               for ordinal in sorted(self._deleted)]
        upserts: dict[int, UpdateElementRow] = {
            ordinal: UpdateElementRow(ordinal=ordinal, element=element)
            for ordinal, element in self._touched.items()
        }
        # Container enumeration overwrites plain upserts with hinted
        # ones: each child's (parent_id, child_rank) falls out of one
        # O(children) pass, so a re-ranked sibling list never pays a
        # per-child index() scan downstream.
        for key, container in self._containers.items():
            if container is None:
                hierarchy = key[1]  # ("root", hierarchy) key
                children = document.top_level(hierarchy)
                parent_id = 0
            elif key not in self._deleted:
                children = container.element_children
                parent_id = container.ordinal
            else:
                continue
            for rank, child in enumerate(children):
                upserts[child.ordinal] = UpdateElementRow(
                    ordinal=child.ordinal, element=child,
                    parent_id=parent_id, child_rank=rank,
                )
        ops.extend(op for _, op in sorted(upserts.items()))
        if metrics.enabled:
            metrics.incr("journal.coalesce.records", self.records_seen)
            metrics.incr("journal.coalesce.row_writes", len(ops))
            # Fold ratio: journal records absorbed per row write emitted
            # (an attribute-churn session folds many records into few
            # rows; 1.0 means no folding happened).
            metrics.observe(
                "journal.coalesce.fold_ratio",
                self.records_seen / max(len(ops), 1),
            )
        return ops


__all__ = [
    "ChangeRecord",
    "ElementRowCoalescer",
    "InsertMarkup",
    "RemoveMarkup",
    "SetAttribute",
    "UpdateElementRow",
]
