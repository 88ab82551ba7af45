"""Batch kernels: flat ``array('q')`` columns behind the index fast paths.

:class:`CandidateVector` captures a document-order candidate list
(structural-summary posting or attribute posting) once as plain
parallel ``starts`` / ``ends`` / ``ordinals`` columns of signed 64-bit
integers (``array('q')``) next to the element list, instead of per-node
Python objects.  Batch query execution (:mod:`repro.xpath.planner`'s
:class:`~repro.xpath.planner.BatchProgram`) filters *row indices*
through the merge-walk kernels below and materializes ``Element``
objects only for the rows that survive every filter — the
ordinal-vector flow of the batch pipeline.

The filter kernels (:func:`rows_span_contains`,
:func:`rows_span_starts_with`) are single merge walks: candidate rows
arrive in document order, so their start offsets are non-decreasing and
one forward pointer into the (sorted) term-occurrence array serves
every row.  For each row the first occurrence at or after the row's
start is the unique one that can fit before the row's end — exactly the
binary-search argument of :meth:`~repro.index.term.TermIndex.span_contains`,
amortized to O(rows + occurrences) for a whole vector.

Everything here is exact: each kernel ships with a differential test
arm against the object-walking implementation it replaces
(``tests/test_kernels.py``), and the engine falls back to the classic
path whenever a precondition fails, so answers are byte-identical with
and without the kernels.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..core.node import Element

#: Type code of every integer column: signed 64-bit.
COLUMN_TYPECODE = "q"

def column(values: Iterable[int] = ()) -> array:
    """A fresh signed 64-bit column holding ``values``."""
    return array(COLUMN_TYPECODE, values)


class CandidateVector:
    """A document-order candidate list captured as flat columns.

    Built once per (manager build, posting) from a candidate
    ``Element`` list; batch execution then works on row indices over
    the ``starts`` / ``ends`` / ``ordinals`` columns and calls
    :meth:`materialize` only for the surviving rows — the single point
    where ``Element`` objects re-enter the pipeline.
    """

    __slots__ = ("elements", "starts", "ends", "ordinals")

    def __init__(self, elements: Sequence["Element"]) -> None:
        self.elements = list(elements)
        self.starts = column(e.start for e in self.elements)
        self.ends = column(e.end for e in self.elements)
        self.ordinals = column(e.ordinal for e in self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def all_rows(self) -> range:
        return range(len(self.elements))

    def materialize(self, rows: Iterable[int]) -> list["Element"]:
        """The elements of ``rows``, in row (= document) order."""
        elements = self.elements
        if isinstance(rows, range) and len(rows) == len(elements):
            return list(elements)
        return [elements[row] for row in rows]


def rows_span_contains(
    starts: Sequence[int], ends: Sequence[int],
    occurrences: Sequence[int], needle_length: int,
    rows: Iterable[int],
) -> list[int]:
    """Rows whose span contains a needle occurrence — the batch form of
    ``needle in text[start:end]``.

    ``rows`` must arrive with non-decreasing ``starts[row]`` (document
    order guarantees it), so one forward merge pointer into the sorted
    ``occurrences`` serves every row: the first occurrence at or after
    a row's start is the only one that can end before the row's end.
    """
    out: list[int] = []
    n = len(occurrences)
    if not n:
        return out
    append = out.append
    i = 0
    cur = occurrences[0]
    if isinstance(rows, range) and rows == range(len(starts)):
        # Full-vector walk: zip streams both columns without per-row
        # subscripting, and the occurrence pointer advances by bisect so
        # occurrence runs between two row starts cost O(log) not O(run).
        for row, (start, end) in enumerate(zip(starts, ends)):
            if cur < start:
                i = bisect_left(occurrences, start, i + 1)
                if i == n:
                    break
                cur = occurrences[i]
            if cur + needle_length <= end:
                append(row)
        return out
    for row in rows:
        start = starts[row]
        if cur < start:
            i = bisect_left(occurrences, start, i + 1)
            if i == n:
                break
            cur = occurrences[i]
        if cur + needle_length <= ends[row]:
            append(row)
    return out


def rows_span_starts_with(
    starts: Sequence[int], ends: Sequence[int],
    occurrences: Sequence[int], needle_length: int,
    rows: Iterable[int],
) -> list[int]:
    """Rows whose span *begins* with a needle occurrence — the batch
    form of ``text[start:end].startswith(needle)`` (same merge-walk
    contract as :func:`rows_span_contains`)."""
    out: list[int] = []
    n = len(occurrences)
    if not n:
        return out
    append = out.append
    i = 0
    cur = occurrences[0]
    if isinstance(rows, range) and rows == range(len(starts)):
        for row, (start, end) in enumerate(zip(starts, ends)):
            if cur < start:
                i = bisect_left(occurrences, start, i + 1)
                if i == n:
                    break
                cur = occurrences[i]
            if cur == start and start + needle_length <= end:
                append(row)
        return out
    for row in rows:
        start = starts[row]
        if cur < start:
            i = bisect_left(occurrences, start, i + 1)
            if i == n:
                break
            cur = occurrences[i]
        if cur == start and start + needle_length <= ends[row]:
            append(row)
    return out


def rows_in_ordinal_set(
    ordinals: Sequence[int], members: frozenset[int] | set[int],
    rows: Iterable[int],
) -> list[int]:
    """Rows whose element ordinal is in ``members`` — the batch form of
    an index-served ``@name='value'`` predicate (the attribute posting's
    ordinal set stands in for per-element attribute dict probes)."""
    return [row for row in rows if ordinals[row] in members]
