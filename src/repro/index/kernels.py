"""Batch kernels: flat ``array('q')`` columns behind the index fast paths.

:class:`CandidateVector` captures a document-order candidate list
(structural-summary posting or attribute posting) once as plain
parallel ``starts`` / ``ends`` / ``ordinals`` columns of signed 64-bit
integers (``array('q')``) next to the element list, instead of per-node
Python objects.  Batch query execution (:mod:`repro.xpath.planner`'s
:class:`~repro.xpath.planner.BatchProgram`) filters *row indices*
through the kernels below and materializes ``Element`` objects only
for the rows that survive every filter — the ordinal-vector flow of
the batch pipeline.

The term filters (:func:`span_contains_rows`,
:func:`span_starts_with_rows`) pick one of two exact kernels by a size
comparison.  The *walk* (:func:`rows_span_contains`,
:func:`rows_span_starts_with`) is a single merge: candidate rows arrive
in document order, so their start offsets are non-decreasing and one
forward pointer into the (sorted) term-occurrence array serves every
row.  For each row the first occurrence at or after the row's start is
the unique one that can fit before the row's end — exactly the
binary-search argument of :meth:`~repro.index.term.TermIndex.span_contains`,
amortized to O(rows + occurrences) for a whole vector.  The *probe*
(:func:`probe_span_contains`, :func:`probe_span_starts_with`) is
output-sensitive: when a filter sees the whole vector and the needle
occurs far less often than the vector has rows, it loops over the
occurrences and bisects into the ``starts`` column instead — a needle
occurrence is a short interval, and containment is a range predicate
over ``(start, end)`` (Hasibi & Bratsberg), so the cost is
O(occurrences · log rows + output).  ``contains`` also needs the
vector's ends non-decreasing (no member lies inside an earlier one),
which :meth:`CandidateVector.ends_sorted` checks once per vector; row
subsets, dense needles and nested vectors keep the walk.

The overlap kernel (:func:`rows_overlapping`) answers the Extended
XPath overlap axes as range predicates over interval endpoints, after
Hasibi & Bratsberg: :class:`OverlapBounds` holds one tag's solid
members twice per hierarchy, sorted by start and sorted by end, each
with a sparse range-max table over ends (by-start order) and over
negated starts (by-end order).  A context ``[s, t)`` has a
*right* partner when some member starts in ``(s, t)`` and ends after
``t``, and a *left* partner when some member ends in ``(s, t)`` and
starts before ``s`` — two bisections and one O(1) range query per
hierarchy, however many members the context contains.

Everything here is exact: each kernel ships with a differential test
arm against the object-walking implementation it replaces
(``tests/test_kernels.py``), and the engine falls back to the classic
path whenever a precondition fails, so answers are byte-identical with
and without the kernels.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import islice
from operator import le
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

    __slots__ = ("elements", "starts", "ends", "ordinals", "hierarchies",
                 "_ends_sorted")

    def __init__(self, elements: Sequence["Element"]) -> None:
        self.elements = list(elements)
        self.starts = column(e.start for e in self.elements)
        self.ends = column(e.end for e in self.elements)
        self.ordinals = column(e.ordinal for e in self.elements)
        self.hierarchies = [e.hierarchy for e in self.elements]
        self._ends_sorted: bool | None = None

    def __len__(self) -> int:
        return len(self.elements)

    def ends_sorted(self) -> bool:
        """True when the ``ends`` column is non-decreasing: no member
        lies inside an earlier one, so :func:`probe_span_contains` may
        serve the vector.  Checked on first use and kept with one
        store (concurrent readers compute the same flag)."""
        flag = self._ends_sorted
        if flag is None:
            ends = self.ends
            flag = all(map(le, ends, islice(ends, 1, None)))
            self._ends_sorted = flag
        return flag

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


def probe_span_contains(
    starts: Sequence[int], ends: Sequence[int],
    occurrences: Sequence[int], needle_length: int,
) -> list[int]:
    """Every row whose span contains a needle occurrence, driven by the
    occurrences — what :func:`rows_span_contains` answers for the whole
    vector, in O(occurrences · log rows + output).

    Both ``starts`` and ``ends`` must be non-decreasing.  For occurrence
    ``o`` let ``r`` be the last row starting at or before ``o``: the
    rows up to ``r`` that contain ``o`` are exactly those ending at or
    after ``o + needle_length``, a contiguous run ending at ``r``.  A
    row up to ``r`` that fails ``o`` fails every later occurrence too
    (its end is at most ``ends[r]``), so the next search starts after
    ``r``, and no row is emitted twice.
    """
    out: list[int] = []
    extend = out.extend
    floor = 0
    for occurrence in occurrences:
        last = bisect_right(starts, occurrence, floor) - 1
        if last < floor:
            continue
        need = occurrence + needle_length
        if ends[last] >= need:
            extend(range(bisect_left(ends, need, floor, last), last + 1))
        floor = last + 1
    return out


def probe_span_starts_with(
    starts: Sequence[int], ends: Sequence[int],
    occurrences: Sequence[int], needle_length: int,
) -> list[int]:
    """Every row whose span begins with a needle occurrence, driven by
    the occurrences: the rows starting at ``o`` (one bisection from a
    moving floor) that end at or after ``o + needle_length``.  Needs
    only ``starts`` non-decreasing."""
    out: list[int] = []
    append = out.append
    n = len(starts)
    floor = 0
    for occurrence in occurrences:
        row = bisect_left(starts, occurrence, floor)
        need = occurrence + needle_length
        while row < n and starts[row] == occurrence:
            if ends[row] >= need:
                append(row)
            row += 1
        floor = row
    return out


#: A probe costs about as much per occurrence (two bisections into
#: ``array('q')`` columns, about 1 µs) as a walk over this many rows, so
#: the term filters probe only when the vector has more than this many
#: rows per needle occurrence.
PROBE_ROWS_PER_OCCURRENCE = 8


def _probes(vector: CandidateVector, occurrences: Sequence[int],
            rows: Iterable[int]) -> bool:
    """Whether a term filter should probe: it sees the whole vector and
    the needle is sparse against it."""
    return (
        isinstance(rows, range)
        and len(rows) == len(vector)
        and len(occurrences) * PROBE_ROWS_PER_OCCURRENCE < len(rows)
    )


def _walked(starts: Sequence[int], occurrences: Sequence[int],
            rows: Sequence[int]) -> int:
    """Rows a walk reads: up to and including the first row starting
    after the last occurrence, where it stops."""
    if not occurrences:
        return 0
    stop = bisect_right(rows, occurrences[-1], key=starts.__getitem__)
    return min(stop + 1, len(rows))


def span_contains_rows(
    vector: CandidateVector, occurrences: Sequence[int],
    needle_length: int, rows: Iterable[int],
    tally: list[int] | None = None,
) -> list[int]:
    """The rows of ``vector`` among ``rows`` whose span contains a
    needle occurrence: the probe when it pays and the vector's ends are
    sorted, the walk otherwise.  ``tally``, when given, receives the
    work done — occurrences probed plus rows emitted, or rows walked."""
    if _probes(vector, occurrences, rows) and vector.ends_sorted():
        out = probe_span_contains(vector.starts, vector.ends, occurrences,
                                  needle_length)
        if tally is not None:
            tally.append(len(occurrences) + len(out))
        return out
    out = rows_span_contains(vector.starts, vector.ends, occurrences,
                             needle_length, rows)
    if tally is not None:
        tally.append(_walked(vector.starts, occurrences, rows))
    return out


def span_starts_with_rows(
    vector: CandidateVector, occurrences: Sequence[int],
    needle_length: int, rows: Iterable[int],
    tally: list[int] | None = None,
) -> list[int]:
    """The ``starts-with`` twin of :func:`span_contains_rows`; the probe
    needs no condition on the ends."""
    if _probes(vector, occurrences, rows):
        out = probe_span_starts_with(vector.starts, vector.ends,
                                     occurrences, needle_length)
        if tally is not None:
            tally.append(len(occurrences) + len(out))
        return out
    out = rows_span_starts_with(vector.starts, vector.ends, occurrences,
                                needle_length, rows)
    if tally is not None:
        tally.append(_walked(vector.starts, occurrences, rows))
    return out


def rows_in_ordinal_set(
    ordinals: Sequence[int], members: frozenset[int] | set[int],
    rows: Iterable[int],
) -> list[int]:
    """Rows whose element ordinal is in ``members`` — the batch form of
    an index-served ``@name='value'`` predicate (the attribute posting's
    ordinal set stands in for per-element attribute dict probes)."""
    return [row for row in rows if ordinals[row] in members]


# -- overlap: boundary columns and range predicates ---------------------------

#: The overlap axes and which partner sides they accept: (left, right).
OVERLAP_SIDES = {
    "overlapping": (True, True),
    "overlapping-left": (True, False),
    "overlapping-right": (False, True),
}


def _range_max_table(values: Sequence[int]) -> list[array]:
    """Sparse range-max table over ``values``: ``levels[k][i]`` is the
    index of the largest value in ``values[i : i + 2**k]``, so any range
    is two overlapping lookups."""
    levels = [column(range(len(values)))]
    width = 1
    while 2 * width <= len(values):
        prev = levels[-1]
        levels.append(column(
            a if values[a] >= values[b] else b
            for a, b in zip(prev, prev[width:])
        ))
        width *= 2
    return levels


def _collect_above(values: Sequence[int], levels: list[array],
                   ranks: Sequence[int], lo: int, hi: int, bound: int,
                   out: list[int]) -> None:
    """Append ``ranks[i]`` for every ``i`` in ``[lo, hi)`` whose value
    exceeds ``bound``: split the range at its maximum until the maximum
    is at or below ``bound`` — O(1 + k) range queries for k results."""
    pending = [(lo, hi)]
    while pending:
        lo, hi = pending.pop()
        if lo >= hi:
            continue
        k = (hi - lo).bit_length() - 1
        level = levels[k]
        a = level[lo]
        b = level[hi - (1 << k)]
        i = a if values[a] >= values[b] else b
        if values[i] <= bound:
            continue
        out.append(ranks[i])
        pending.append((lo, i))
        pending.append((i + 1, hi))


class BoundaryColumns:
    """One hierarchy's members of an :class:`OverlapBounds`, twice.

    ``starts`` / ``start_ends`` / ``start_ranks``: the members sorted by
    start, with their ends and their rank in the bounds' document-order
    list; ``max_end`` is the range-max table over ``start_ends``.
    ``ends`` / ``end_neg_starts`` / ``end_ranks``: the members sorted by
    end, with their *negated* starts, so ``max_neg_start`` (a range-max
    table) answers "the smallest start in this slice".
    """

    __slots__ = ("hierarchy", "starts", "start_ends", "start_ranks",
                 "max_end", "ends", "end_neg_starts", "end_ranks",
                 "max_neg_start")

    def __init__(self, hierarchy: str, spans: list[tuple[int, int, int]]):
        self.hierarchy = hierarchy
        by_start = sorted(spans)
        self.starts = column(s for s, _e, _r in by_start)
        self.start_ends = column(e for _s, e, _r in by_start)
        self.start_ranks = column(r for _s, _e, r in by_start)
        self.max_end = _range_max_table(self.start_ends)
        by_end = sorted(spans, key=lambda span: (span[1], span[0], span[2]))
        self.ends = column(e for _s, e, _r in by_end)
        self.end_neg_starts = column(-s for s, _e, _r in by_end)
        self.end_ranks = column(r for _s, _e, r in by_end)
        self.max_neg_start = _range_max_table(self.end_neg_starts)

    def right_partners(self, start: int, end: int, out: list[int]) -> None:
        """Append the ranks of members starting in ``(start, end)`` and
        ending after ``end``: O(log n + k)."""
        lo = bisect_right(self.starts, start)
        hi = bisect_left(self.starts, end, lo)
        _collect_above(self.start_ends, self.max_end, self.start_ranks,
                       lo, hi, end, out)

    def left_partners(self, start: int, end: int, out: list[int]) -> None:
        """Append the ranks of members ending in ``(start, end)`` and
        starting before ``start``: O(log n + k)."""
        lo = bisect_right(self.ends, start)
        hi = bisect_left(self.ends, end, lo)
        _collect_above(self.end_neg_starts, self.max_neg_start,
                       self.end_ranks, lo, hi, -start, out)


class OverlapBounds:
    """The boundary columns of one name test's overlap partners.

    ``elements`` is the name test's candidate list in document order;
    its solid, non-root members are grouped by hierarchy into
    :class:`BoundaryColumns` (an element only overlaps elements of
    *other* hierarchies, so a context skips its own group).  Zero-width
    members never overlap anything and are left out.
    """

    __slots__ = ("elements", "groups")

    def __init__(self, elements: Sequence["Element"]) -> None:
        self.elements = list(elements)
        spans: dict[str, list[tuple[int, int, int]]] = {}
        for rank, element in enumerate(self.elements):
            if element.is_root or element.is_empty:
                continue
            spans.setdefault(element.hierarchy, []).append(
                (element.start, element.end, rank)
            )
        self.groups = tuple(
            BoundaryColumns(hierarchy, members)
            for hierarchy, members in spans.items()
        )

    def partners(self, start: int, end: int, hierarchy: str,
                 axis: str) -> list["Element"]:
        """The members ``axis`` reaches from a context ``[start, end)``
        of ``hierarchy``, in document order."""
        left, right = OVERLAP_SIDES[axis]
        ranks: list[int] = []
        for group in self.groups:
            if group.hierarchy == hierarchy:
                continue
            if left:
                group.left_partners(start, end, ranks)
            if right:
                group.right_partners(start, end, ranks)
        ranks.sort()
        elements = self.elements
        return [elements[rank] for rank in ranks]


def rows_overlapping(
    starts: Sequence[int], ends: Sequence[int], hierarchies: Sequence[str],
    bounds: OverlapBounds, axis: str, rows: Iterable[int],
) -> list[int]:
    """Rows with at least one partner on ``axis`` — the batch form of an
    ``[overlapping::B]`` (or ``-left`` / ``-right``) predicate.

    A row ``[s, t)`` has a right partner when some member of another
    hierarchy starts in ``(s, t)`` and ends after ``t`` (the range-max
    of ends over the by-start slice), and a left partner when one ends
    in ``(s, t)`` and starts before ``s`` (the range-max of negated
    starts over the by-end slice).  A row narrower than two characters
    has no boundary strictly inside it, so zero-width rows never match;
    nor does the shared root, which no member can straddle.  Rows are
    kept in input order.  The two range queries are inlined: this loop
    runs once per candidate.
    """
    left, right = OVERLAP_SIDES[axis]
    groups = bounds.groups
    out: list[int] = []
    if not groups:
        return out
    append = out.append
    for row in rows:
        s = starts[row]
        t = ends[row]
        if t - s < 2:
            continue
        hierarchy = hierarchies[row]
        for group in groups:
            if group.hierarchy == hierarchy:
                continue
            if right:
                lo = bisect_right(group.starts, s)
                hi = bisect_left(group.starts, t, lo)
                if lo < hi:
                    values = group.start_ends
                    k = (hi - lo).bit_length() - 1
                    level = group.max_end[k]
                    if (values[level[lo]] > t
                            or values[level[hi - (1 << k)]] > t):
                        append(row)
                        break
            if left:
                lo = bisect_right(group.ends, s)
                hi = bisect_left(group.ends, t, lo)
                if lo < hi:
                    values = group.end_neg_starts
                    k = (hi - lo).bit_length() - 1
                    level = group.max_neg_start[k]
                    if (values[level[lo]] > -s
                            or values[level[hi - (1 << k)]] > -s):
                        append(row)
                        break
    return out
