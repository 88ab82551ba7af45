"""Incremental SACX: fragments and iterparse over the merged stream.

The merge itself is :class:`repro.sacx.parser.EventStream` — the one
``(content offset, hierarchy rank, source sequence)`` merge, shared
with the materializing :func:`~repro.sacx.parser.parse_concurrent`.
Fed paths, file objects or chunk iterables, it scans every part
incrementally and holds only the text between its slowest and fastest
part, so no part's text or event list is ever held whole.

Memory note: a k-way merge must know every part's *next* event before
it can emit anything, so the window spans at most the largest gap
between consecutive markup events among the hierarchies.  For markup-
sparse hierarchies (a page-break layer with events every few thousand
characters) that gap — not the document size — bounds peak memory.

On top of the stream, :class:`FragmentAssembler` replays the per-
hierarchy open stacks of :class:`~repro.core.goddag.GoddagBuilder` and
emits a :class:`Fragment` per closed element carrying the exact
identity the builder would assign (ordinal, parent, depth, label
path) — the proof obligation behind byte-identical streaming
ingest.  :func:`iterparse` is the public cursor: fragments are
released in watermark order under ``high_water`` with overlap-aware
retention (never before every element that could overlap them has
closed).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Iterator, Mapping, NamedTuple

from ..sacx import events as ev
from ..sacx import scanner as sc
from ..sacx.parser import EventStream

#: Default cap on retained closed fragments before a flush attempt.
DEFAULT_HIGH_WATER = 1024

#: ``parent_ordinal`` of top-level fragments — the shared root, which
#: matches :data:`repro.storage.schema.ROOT_ID`.
ROOT_ORDINAL = 0


class Fragment(NamedTuple):
    """A completed element, as emitted by the streaming parse.

    Carries the full storage identity of the element: ``ordinal``
    counts from the assembler's base for the hierarchy — the birth
    ordinal :class:`~repro.core.goddag.GoddagBuilder` would assign (the
    persistent ``elem_id``) under the builder's bases (see
    :class:`FragmentAssembler`), a per-hierarchy ordinal from 1
    without bases; ``parent_ordinal`` is :data:`ROOT_ORDINAL` for
    top-level elements; ``depth`` counts ancestors below the root (0
    for top-level); and ``path`` is the label path the structural
    summary partitions by
    (top-level tag first, own tag last — the root tag excluded).
    """

    hierarchy: str
    tag: str
    start: int
    end: int
    attributes: tuple[tuple[str, str], ...]
    ordinal: int
    parent_ordinal: int
    depth: int
    path: tuple[str, ...]

    @property
    def is_empty(self) -> bool:
        return self.start == self.end


class _OpenFragment:
    __slots__ = ("tag", "start", "attributes", "ordinal", "parent_ordinal",
                 "depth", "path")

    def __init__(self, tag, start, attributes, ordinal, parent_ordinal,
                 depth, path) -> None:
        self.tag = tag
        self.start = start
        self.attributes = attributes
        self.ordinal = ordinal
        self.parent_ordinal = parent_ordinal
        self.depth = depth
        self.path = path


class FragmentAssembler:
    """Replays the builder's per-hierarchy open stacks over a merged
    event stream, closing one :class:`Fragment` per element.

    Each hierarchy numbers its elements in source open order from its
    entry in ``bases`` (``{hierarchy: first ordinal}``), or from 1
    without ``bases``.  The builder materializes hierarchies in
    declaration order and, within one hierarchy, numbers elements in
    source open order (its top-level sort key ``(start, solidity,
    -end, seq)`` provably restores source order for parser input), so
    with each base one past the previous hierarchies' element counts
    fragment ordinals equal :class:`GoddagBuilder` birth ordinals
    exactly.  Those counts are only known once the merge is over:
    :func:`repro.streaming.ingest.stream_save` numbers from bases far
    apart and shifts the stored ordinals by :meth:`counts` afterwards;
    :func:`repro.streaming.ingest.count_content_events` can supply them
    up front at the cost of a scan of its own.
    """

    def __init__(self, hierarchies, bases: Mapping[str, int] | None = None):
        self._stacks: dict[str, list[_OpenFragment]] = {
            name: [] for name in hierarchies
        }
        self._bases = {name: 1 if bases is None else bases[name]
                       for name in hierarchies}
        self._next = dict(self._bases)

    def counts(self) -> dict[str, int]:
        """Elements numbered so far, per hierarchy."""
        return {name: self._next[name] - base
                for name, base in self._bases.items()}

    def feed(self, hierarchy: str, event: ev.MarkupEvent) -> Fragment | None:
        """Apply one merged event; returns the closed fragment, if any."""
        stack = self._stacks[hierarchy]
        if event.kind == ev.START:
            stack.append(self._open(hierarchy, stack, event))
            return None
        if event.kind == ev.END:
            record = stack.pop()
        else:  # EMPTY: opens and closes at one offset, never pushed
            record = self._open(hierarchy, stack, event)
        return Fragment(
            hierarchy, record.tag, record.start, event.offset,
            record.attributes, record.ordinal, record.parent_ordinal,
            record.depth, record.path,
        )

    def _open(self, hierarchy: str, stack: list[_OpenFragment],
              event: ev.MarkupEvent) -> _OpenFragment:
        parent = stack[-1] if stack else None
        if parent is None:
            parent_ordinal = ROOT_ORDINAL
            path = (event.tag,)
        else:
            parent_ordinal = parent.ordinal
            path = parent.path + (event.tag,)
        ordinal = self._next[hierarchy]
        self._next[hierarchy] = ordinal + 1
        return _OpenFragment(
            event.tag, event.offset, event.attributes, ordinal,
            parent_ordinal, len(stack), path,
        )

    def open_frontier(self) -> int | None:
        """The smallest start offset among still-open elements across
        all hierarchies, or ``None`` when nothing is open.

        Per-hierarchy open starts are nondecreasing down the stack, so
        the minimum is the bottom of each stack.
        """
        frontier = None
        for stack in self._stacks.values():
            if stack and (frontier is None or stack[0].start < frontier):
                frontier = stack[0].start
        return frontier

    def open_count(self) -> int:
        return sum(len(stack) for stack in self._stacks.values())


def iterparse(
    sources: Mapping[str, object],
    *,
    high_water: int = DEFAULT_HIGH_WATER,
    chunk_chars: int = sc.DEFAULT_CHUNK_CHARS,
    text_sink: Callable[[str], None] | None = None,
    bases: Mapping[str, int] | None = None,
) -> Iterator[Fragment]:
    """Stream completed fragments of a distributed document.

    The iterparse contract, adapted to overlapping hierarchies: a
    fragment is yielded only once its *overlap context* is complete —
    its span ends at or before the start of every element still open in
    any hierarchy, so nothing yielded can later turn out to overlap an
    unseen element.  Within that rule, fragments are released in
    ascending ``end`` (ties in close order) whenever more than
    ``high_water`` closed fragments are retained, and the rest at end
    of document.  ``high_water=0`` releases eligible fragments after
    every close.

    Elements still open in any hierarchy are *never* evicted, whatever
    ``high_water`` says — a document with a giant open element retains
    its closed children until the overlap context resolves.

    ``bases`` optionally fixes each hierarchy's first ordinal (see
    :class:`FragmentAssembler`).  To get the ids a materialized parse
    would assign, derive them from per-hierarchy counts; the optional
    helper :func:`repro.streaming.ingest.count_content_events` takes
    them with a scan of each part ahead of this one.
    """
    stream = EventStream(sources, chunk_chars=chunk_chars,
                         text_sink=text_sink)
    assembler = FragmentAssembler(stream.hierarchies, bases)
    pending: list[tuple[int, int, Fragment]] = []
    tie = 0
    for hierarchy, event in stream:
        fragment = assembler.feed(hierarchy, event)
        if fragment is None:
            continue
        tie += 1
        heappush(pending, (fragment.end, tie, fragment))
        if len(pending) > high_water:
            frontier = assembler.open_frontier()
            while pending and (
                frontier is None or pending[0][0] <= frontier
            ):
                yield heappop(pending)[2]
    while pending:
        yield heappop(pending)[2]
