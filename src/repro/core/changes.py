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
attached under, and the elements whose root-to-self label path changed
because the insertion adopted them (or the removal spliced them up).
The direct children among those are named apart (``reparented``): their
stored ``parent_id`` changed, so row-level storage rewrites their rows.

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
    #: The adopted children: their parent is now the inserted element.
    reparented: tuple["Element", ...] = field(default=(), repr=False)

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
            repathed=self.repathed, reparented=self.reparented,
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
    #: The spliced-up children: their parent is now the removed
    #: element's parent.
    reparented: tuple["Element", ...] = field(default=(), repr=False)

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
            repathed=self.repathed, reparented=self.reparented,
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
    ``None`` for a row deletion.  Produced only by
    :class:`ElementRowCoalescer`; never enters the delta journal itself.
    """

    ordinal: int
    element: "Element | None" = field(default=None, repr=False)

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
    * every row whose ``parent_id`` an insertion or removal changed
      (the record's ``reparented`` children) is re-written — sibling
      order is not stored, so no other sibling's row changes;
    * row *contents* are read from the live elements at
      :meth:`updates` time, so intermediate states are never persisted.

    A record stream that is internally inconsistent (an insert re-using
    a deleted ordinal, an unknown record type) marks the coalescer
    :attr:`broken`; the storage layer then falls back to a full rewrite
    — the same contract as an untracked mutation.
    """

    __slots__ = ("_touched", "_deleted", "_born", "broken", "records_seen")

    def __init__(self) -> None:
        #: Journal records folded so far — the numerator of the fold
        #: ratio (records seen / row writes produced) reported by
        #: :meth:`updates` to the ``journal.coalesce.*`` metrics.
        self.records_seen = 0
        # ordinal -> live element whose row (content or parent) changed
        self._touched: dict[int, "Element"] = {}
        # ordinals whose rows must be deleted
        self._deleted: set[int] = set()
        # ordinals born inside this window (their delete is a no-op)
        self._born: set[int] = set()
        self.broken = False

    def __len__(self) -> int:
        return len(self._touched) + len(self._deleted)

    def __bool__(self) -> bool:
        return len(self) > 0

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
        elif isinstance(change, RemoveMarkup):
            element = change.element
            self._touched.pop(element.ordinal, None)
            if element.ordinal in self._born:
                self._born.discard(element.ordinal)
            else:
                self._deleted.add(element.ordinal)
        else:
            self.broken = True  # unknown record type: cannot coalesce
            return
        for child in change.reparented:
            self._touched[child.ordinal] = child

    def updates(self) -> list[UpdateElementRow]:
        """The coalesced write set against the document's final state.

        Returns row deletions first, then one upsert per distinct
        surviving element, both in ordinal order.  Raises
        :class:`ValueError` when :attr:`broken` — callers must check
        first and fall back to a full rewrite.
        """
        if self.broken:
            raise ValueError("broken coalescer cannot produce row updates")
        from ..obs.metrics import metrics

        ops = [UpdateElementRow(ordinal=ordinal)
               for ordinal in sorted(self._deleted)]
        ops.extend(UpdateElementRow(ordinal=ordinal, element=element)
                   for ordinal, element in sorted(self._touched.items()))
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
