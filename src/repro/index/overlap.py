"""Persistent overlap index: serializable per-hierarchy interval tables.

The in-memory GODDAG answers cross-hierarchy overlap queries from its
lazily built :class:`~repro.core.intervals.StaticIntervalIndex` per
hierarchy.  Those structures live and die with the document object; this
module is their *persistent* counterpart: per-hierarchy
:class:`~repro.index.kernels.IntervalTable` columns — parallel sorted
``array('q')`` arrays of ``(start, end, ordinal)`` plus a tag list —
that serialize to storage (SQLite rows)
and answer stabbing, intersection and proper-overlap queries on
*stored* documents without materializing a single GODDAG node — the
overlap-index design of Hasibi & Bratsberg applied to the framework's
storage layer.

Queries run through the table's implicit max-end segment tree, so a
reloaded index keeps the ``O(log n + k)`` bound of the in-memory one,
with the same anchored zero-width semantics (shared edge-case fixtures
in ``tests/test_kernels.py`` pin both paths to the
:class:`~repro.core.intervals.StaticIntervalIndex` contract).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..errors import IndexDeltaError
from .kernels import NO_ORDINAL, IntervalTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..core.changes import ChangeRecord
    from ..core.goddag import GoddagDocument

#: A storage-level query answer: no node is materialized.
SpanHit = tuple[str, str, int, int]  # (hierarchy, tag, start, end)


class HierarchyIntervals(IntervalTable):
    """The sorted interval table of one hierarchy's solid elements.

    A named :class:`~repro.index.kernels.IntervalTable`: flat
    ``starts`` / ``ends`` / ``ordinals`` columns (``array('q')``) and a
    parallel ``tags`` list, sorted by ``(start, -end, tag)``.  The
    ordinal column carries each row's element identity for
    delta-maintained tables; tables reloaded from persisted payloads
    (which predate ordinals in this section) carry
    :data:`~repro.index.kernels.NO_ORDINAL`.
    """

    __slots__ = ("hierarchy",)

    def __init__(
        self,
        hierarchy: str,
        starts: list[int],
        ends: list[int],
        tags: list[str],
        ordinals: list[int] | None = None,
    ) -> None:
        try:
            super().__init__(starts, ends, tags, ordinals)
        except ValueError:
            raise ValueError(
                "parallel interval arrays must agree in length"
            ) from None
        self.hierarchy = hierarchy

    def hit(self, row: int) -> SpanHit:
        return (self.hierarchy, self.tags[row], self.starts[row], self.ends[row])

    # -- incremental maintenance ----------------------------------------------

    def remove_row(self, start: int, end: int, tag: str) -> int:
        try:
            return super().remove_row(start, end, tag)
        except ValueError:
            raise IndexDeltaError(
                f"no interval row ({start}, {end}, {tag!r}) in "
                f"hierarchy {self.hierarchy!r}"
            ) from None

    def intersecting(self, start: int, end: int) -> list[int]:
        """Row indices of intervals sharing a position with ``[start, end)``."""
        return self.rows_intersecting(start, end)

    def stabbing(self, offset: int) -> list[int]:
        return self.rows_stabbing(offset)


class OverlapIndex:
    """Per-hierarchy interval tables over one document's solid elements."""

    __slots__ = ("tables",)

    def __init__(self, tables: dict[str, HierarchyIntervals]) -> None:
        self.tables = tables

    @classmethod
    def from_document(cls, document: "GoddagDocument") -> "OverlapIndex":
        tables: dict[str, HierarchyIntervals] = {}
        for name in document.hierarchy_names():
            rows = sorted(
                (
                    (element.start, -element.end, element.tag, element.ordinal)
                    for element in document.elements(hierarchy=name)
                    if not element.is_empty
                ),
            )
            tables[name] = HierarchyIntervals(
                name,
                [start for (start, _, _, _) in rows],
                [-negated for (_, negated, _, _) in rows],
                [tag for (_, _, tag, _) in rows],
                [ordinal for (_, _, _, ordinal) in rows],
            )
        return cls(tables)

    # -- incremental maintenance (the delta protocol) --------------------------

    def apply(self, change: "ChangeRecord") -> None:
        """Patch the interval tables in place for one change record.

        Zero-width insertions/removals and attribute changes are no-ops
        (the tables hold solid elements only).  Raises
        :class:`~repro.errors.IndexDeltaError` on inconsistency; callers
        fall back to a rebuild.
        """
        from ..core.changes import InsertMarkup, RemoveMarkup, SetAttribute

        if isinstance(change, SetAttribute):
            return
        if not isinstance(change, (InsertMarkup, RemoveMarkup)):
            raise IndexDeltaError(f"unsupported change record {change!r}")
        if change.start == change.end:
            return
        table = self.tables.get(change.hierarchy)
        if table is None:
            raise IndexDeltaError(
                f"no interval table for hierarchy {change.hierarchy!r}"
            )
        if isinstance(change, InsertMarkup):
            element = getattr(change, "element", None)
            ordinal = element.ordinal if element is not None else NO_ORDINAL
            table.insert_row(change.start, change.end, change.tag, ordinal)
        else:
            table.remove_row(change.start, change.end, change.tag)

    # -- queries (storage-level answers, no nodes) ----------------------------

    def hierarchy_names(self) -> tuple[str, ...]:
        return tuple(self.tables)

    def element_count(self) -> int:
        return sum(len(table) for table in self.tables.values())

    def _selected(self, hierarchy: str | None) -> Iterator[HierarchyIntervals]:
        if hierarchy is None:
            yield from self.tables.values()
        elif hierarchy in self.tables:
            yield self.tables[hierarchy]

    def intersecting(
        self, start: int, end: int, hierarchy: str | None = None
    ) -> list[SpanHit]:
        """Solid elements sharing at least one position with ``[start, end)``,
        ordered by ``(start, -end, hierarchy)``."""
        out: list[SpanHit] = []
        for table in self._selected(hierarchy):
            out.extend(table.hit(row) for row in table.intersecting(start, end))
        out.sort(key=_hit_key)
        return out

    def stabbing(self, offset: int, hierarchy: str | None = None) -> list[SpanHit]:
        """Solid elements containing the position ``offset``."""
        return self.intersecting(offset, offset + 1, hierarchy)

    def overlapping(
        self, start: int, end: int, hierarchy: str | None = None
    ) -> list[SpanHit]:
        """Elements *properly* overlapping ``[start, end)`` — they intersect
        it and neither side contains the other (the ``overlapping`` axis
        relation, answered in storage)."""
        out: list[SpanHit] = []
        if start >= end:
            return out
        for table in self._selected(hierarchy):
            for row in table.intersecting(start, end):
                other_start, other_end = table.starts[row], table.ends[row]
                contains = other_start <= start and end <= other_end
                contained = start <= other_start and other_end <= end
                if not contains and not contained:
                    out.append(table.hit(row))
        out.sort(key=_hit_key)
        return out

    # -- persistence -----------------------------------------------------------

    def payload(self) -> dict[str, dict[str, list]]:
        """JSON-shaped form: ``{hierarchy: {starts, ends, tags}}`` (the
        ordinal column is in-memory only; reloaded tables answer
        :class:`SpanHit` queries, which never need element identity)."""
        return {
            name: {
                "starts": list(table.starts),
                "ends": list(table.ends),
                "tags": list(table.tags),
            }
            for name, table in self.tables.items()
        }


def _hit_key(hit: SpanHit) -> tuple[int, int, str, str]:
    hierarchy, tag, start, end = hit
    return (start, -end, hierarchy, tag)
