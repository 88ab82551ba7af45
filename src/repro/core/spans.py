"""Character spans and the shared leaf table of a GODDAG.

The whole framework reduces overlap questions to arithmetic on half-open
character spans ``[start, end)`` over one immutable document text.  The
:class:`SpanTable` records every markup boundary contributed by every
hierarchy; the maximal boundary-free segments are the *leaves* that all
hierarchies of the GODDAG share (Sperberg-McQueen & Huitfeldt 2000).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Iterator

from ..errors import SpanError


@dataclass(frozen=True, order=True)
class Span:
    """A half-open character range ``[start, end)``.

    Zero-width spans (``start == end``) are legal; they anchor empty
    elements such as surviving milestones.
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise SpanError(f"span start must be >= 0, got {self.start}")
        if self.end < self.start:
            raise SpanError(f"span end {self.end} precedes start {self.start}")

    # -- basic geometry ----------------------------------------------------

    def __len__(self) -> int:
        return self.end - self.start

    @property
    def is_empty(self) -> bool:
        """True for a zero-width span."""
        return self.start == self.end

    def contains_point(self, offset: int) -> bool:
        """True if ``offset`` lies inside the half-open range."""
        return self.start <= offset < self.end

    def contains(self, other: "Span") -> bool:
        """True if ``other`` lies fully inside this span (possibly equal)."""
        return self.start <= other.start and other.end <= self.end

    def properly_contains(self, other: "Span") -> bool:
        """True if ``other`` lies inside this span and the spans differ."""
        return self.contains(other) and self != other

    def intersects(self, other: "Span") -> bool:
        """True if the two spans share at least one character position.

        Zero-width spans never intersect anything: they carry no text.
        """
        if self.is_empty or other.is_empty:
            return False
        return self.start < other.end and other.start < self.end

    def intersection(self, other: "Span") -> "Span | None":
        """The common sub-span, or ``None`` when disjoint."""
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        if start >= end:
            return None
        return Span(start, end)

    def union_hull(self, other: "Span") -> "Span":
        """The smallest span covering both operands (even when disjoint)."""
        return Span(min(self.start, other.start), max(self.end, other.end))

    # -- the relations of the concurrent-markup algebra ---------------------

    def overlaps(self, other: "Span") -> bool:
        """Proper overlap: the spans intersect and neither contains the other.

        This is the relation behind the Extended XPath ``overlapping`` axis:
        the elements straddle each other's boundary, which is exactly the
        configuration a single XML hierarchy cannot express.
        """
        if not self.intersects(other):
            return False
        return not self.contains(other) and not other.contains(self)

    def left_overlaps(self, other: "Span") -> bool:
        """True when this span straddles ``other``'s *start* boundary."""
        return self.start < other.start < self.end < other.end

    def right_overlaps(self, other: "Span") -> bool:
        """True when this span straddles ``other``'s *end* boundary."""
        return other.start < self.start < other.end < self.end

    def coextensive(self, other: "Span") -> bool:
        """True when both spans cover exactly the same text."""
        return self.start == other.start and self.end == other.end

    def precedes(self, other: "Span") -> bool:
        """Strictly before: every position here is before every position there."""
        return self.end <= other.start and self != other

    def follows(self, other: "Span") -> bool:
        """Strictly after: mirror of :meth:`precedes`."""
        return other.precedes(self)


class SpanTable:
    """The shared boundary table of a GODDAG document.

    Boundaries are character offsets; consecutive boundaries delimit the
    leaves.  ``0`` and ``length`` are always boundaries, so for a non-empty
    text the leaves partition ``[0, length)`` exactly.
    """

    __slots__ = ("_length", "_boundaries", "_version")

    def __init__(self, length: int) -> None:
        if length < 0:
            raise SpanError(f"text length must be >= 0, got {length}")
        self._length = length
        self._boundaries: list[int] = [0, length] if length > 0 else [0]
        # Version stamps let cached leaf objects detect staleness cheaply.
        self._version = 0

    # -- bookkeeping ---------------------------------------------------------

    @property
    def length(self) -> int:
        """Length of the document text the table partitions."""
        return self._length

    @property
    def version(self) -> int:
        """Monotone counter bumped whenever a boundary is added."""
        return self._version

    @property
    def boundaries(self) -> tuple[int, ...]:
        """All boundaries in ascending order (always includes 0 and length)."""
        return tuple(self._boundaries)

    def __len__(self) -> int:
        """Number of leaves."""
        return max(0, len(self._boundaries) - 1)

    # -- mutation -------------------------------------------------------------

    def add_boundary(self, offset: int) -> bool:
        """Record a markup boundary; returns True if it split a leaf.

        Adding an existing boundary is a no-op, so drivers can feed every
        tag position without pre-deduplicating.
        """
        if offset < 0 or offset > self._length:
            raise SpanError(
                f"boundary {offset} outside document of length {self._length}"
            )
        i = bisect_left(self._boundaries, offset)
        if i < len(self._boundaries) and self._boundaries[i] == offset:
            return False
        insort(self._boundaries, offset)
        self._version += 1
        return True

    def add_boundaries(self, offsets) -> None:
        """Bulk-record boundaries (used by builders for speed)."""
        merged = set(self._boundaries)
        for offset in offsets:
            if offset < 0 or offset > self._length:
                raise SpanError(
                    f"boundary {offset} outside document of length {self._length}"
                )
            merged.add(offset)
        if len(merged) != len(self._boundaries):
            self._boundaries = sorted(merged)
            self._version += 1

    def copy(self) -> "SpanTable":
        """An independent table with the same boundaries and version."""
        table = SpanTable(self._length)
        table._boundaries = list(self._boundaries)
        table._version = self._version
        return table

    def add_span(self, span: Span) -> None:
        """Record both boundaries of ``span``."""
        if span.end > self._length:
            raise SpanError(
                f"span {span} outside document of length {self._length}"
            )
        self.add_boundary(span.start)
        self.add_boundary(span.end)

    # -- leaf geometry ---------------------------------------------------------

    def leaf_span(self, index: int) -> Span:
        """The character span of leaf ``index`` (0-based)."""
        if index < 0 or index >= len(self):
            raise SpanError(f"leaf index {index} out of range (have {len(self)})")
        return Span(self._boundaries[index], self._boundaries[index + 1])

    def leaf_index_at(self, offset: int) -> int:
        """Index of the leaf whose span contains ``offset``."""
        if offset < 0 or offset >= self._length:
            raise SpanError(
                f"offset {offset} outside document of length {self._length}"
            )
        return bisect_right(self._boundaries, offset) - 1

    def leaf_range(self, span: Span) -> tuple[int, int]:
        """Half-open leaf index range ``[first, last)`` covered by ``span``.

        ``span`` boundaries must already be in the table (they are, for any
        span that entered the document through markup).  Zero-width spans
        return an empty range anchored at the insertion point.
        """
        first = bisect_left(self._boundaries, span.start)
        if first >= len(self._boundaries) or self._boundaries[first] != span.start:
            raise SpanError(f"span start {span.start} is not a leaf boundary")
        if span.is_empty:
            return (first, first)
        last = bisect_left(self._boundaries, span.end)
        if last >= len(self._boundaries) or self._boundaries[last] != span.end:
            raise SpanError(f"span end {span.end} is not a leaf boundary")
        return (first, last)

    def spans(self) -> Iterator[Span]:
        """Iterate the spans of all leaves, left to right."""
        for i in range(len(self)):
            yield Span(self._boundaries[i], self._boundaries[i + 1])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanTable(length={self._length}, leaves={len(self)})"
