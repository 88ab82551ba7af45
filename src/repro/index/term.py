"""Full-text term index over the shared document text.

The document text of a GODDAG is immutable, so the term index is built
once per document and never goes stale — editing only moves markup.
Tokens are the maximal runs of alphanumeric characters (``str.isalnum``
per character), each posted with its start offset.  That choice makes
the index *exact* for the query engine's ``contains(., 'lit')`` fast
path whenever the literal itself is alphanumeric: every occurrence of
such a literal in the text necessarily lies inside a single token, so

    ``lit in text[start:end]``  ⇔  some occurrence span of ``lit``
                                   fits inside ``[start, end)``

and the right-hand side is a binary search over the cached occurrence
offsets.  Literals containing whitespace or punctuation are declared
non-indexable (:meth:`TermIndex.is_indexable`) and evaluated the plain
way, keeping indexed results byte-identical to unindexed ones.

The same occurrence machinery serves ``starts-with(., 'lit')``
(:meth:`TermIndex.span_starts_with`): a node's text starts with an
alphanumeric literal exactly when an occurrence begins at the node's
start offset and fits inside the node's span — one binary search.

This module also hosts the **attribute-value posting table**
(:class:`AttributeIndex`): document-order posting lists keyed by
``(attribute name, value)``.  Unlike the term postings it indexes
*markup*, not text, so it is maintained through the same delta protocol
as the structural summary (:meth:`AttributeIndex.apply`); the store
persists its posting lengths as collection-summary counts.  A
worked example::

    >>> index = TermIndex.from_text("sing a song of sixpence")
    >>> index.span_contains(0, 11, "song")
    True
    >>> index.span_starts_with(7, 11, "song")
    True
    >>> index.span_starts_with(0, 11, "song")
    False
"""

from __future__ import annotations

import re
from bisect import bisect_left, insort
from typing import TYPE_CHECKING, Iterator

from ..errors import IndexDeltaError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..core.changes import ChangeRecord
    from ..core.goddag import GoddagDocument
    from ..core.node import Element


def find_all(haystack: str, needle: str) -> list[int]:
    """Start offsets of every (possibly overlapping) occurrence of
    ``needle`` in ``haystack``, ascending."""
    out: list[int] = []
    position = haystack.find(needle)
    while position != -1:
        out.append(position)
        position = haystack.find(needle, position + 1)
    return out


#: A maximal alphanumeric run: ``[^\W_]`` is exactly ``str.isalnum``.
TERM_RUN = re.compile(r"[^\W_]+")


def tokenize(text: str) -> Iterator[tuple[int, str]]:
    """Yield ``(start_offset, token)`` for each maximal alphanumeric run."""
    for match in TERM_RUN.finditer(text):
        yield match.start(), match[0]


class TermIndex:
    """Posting lists of text tokens, with exact substring acceleration."""

    __slots__ = ("text_length", "posting_count", "_postings", "_occurrences")

    def __init__(self, text_length: int, postings: dict[str, list[int]]) -> None:
        self.text_length = text_length
        self._postings = postings
        #: Total posting entries.  The postings never change (they are
        #: keyed on the immutable text), so this is summed once.
        self.posting_count = sum(len(starts) for starts in postings.values())
        self._occurrences: dict[str, list[int]] = {}

    @classmethod
    def from_text(cls, text: str) -> "TermIndex":
        """Tokenize ``text`` and build the posting lists."""
        postings: dict[str, list[int]] = {}
        for start, token in tokenize(text):
            postings.setdefault(token, []).append(start)
        return cls(len(text), postings)

    # -- vocabulary ------------------------------------------------------------

    @property
    def term_count(self) -> int:
        return len(self._postings)

    def vocabulary(self) -> Iterator[str]:
        return iter(self._postings)

    def postings(self, term: str) -> list[int]:
        """Start offsets of the exact token ``term`` (empty when absent)."""
        return list(self._postings.get(term, ()))

    # -- substring queries -----------------------------------------------------

    @staticmethod
    def is_indexable(needle: str) -> bool:
        """True when the index answers ``contains`` for ``needle`` exactly:
        non-empty and alphanumeric-only (so no occurrence can straddle a
        token boundary)."""
        return bool(needle) and needle.isalnum()

    def _occurrence_list(self, needle: str) -> list[int]:
        """The cached occurrence list itself — internal use only, so the
        binary-search paths never pay a per-call copy."""
        cached = self._occurrences.get(needle)
        if cached is not None:
            return cached
        if not self.is_indexable(needle):
            raise ValueError(f"needle {needle!r} is not indexable")
        out: list[int] = []
        for term, starts in self._postings.items():
            in_term = find_all(term, needle)
            if in_term:
                for start in starts:
                    out.extend(start + offset for offset in in_term)
        out.sort()
        self._occurrences[needle] = out
        return out

    def occurrences(self, needle: str) -> list[int]:
        """Sorted start offsets of every occurrence of ``needle`` in the
        text (overlapping occurrences included).  ``needle`` must satisfy
        :meth:`is_indexable`; results are cached per needle and the
        returned list is the caller's to keep."""
        return list(self._occurrence_list(needle))

    def count(self, needle: str) -> int:
        """Number of occurrences of ``needle`` in the text."""
        return len(self._occurrence_list(needle))

    def span_contains(self, start: int, end: int, needle: str) -> bool:
        """Exactly ``needle in text[start:end]`` for indexable needles.

        Binary-searches the cached occurrence offsets: the smallest
        occurrence at or after ``start`` is the best candidate to fit
        before ``end``.
        """
        occurrences = self._occurrence_list(needle)
        i = bisect_left(occurrences, start)
        return i < len(occurrences) and occurrences[i] + len(needle) <= end

    def span_starts_with(self, start: int, end: int, needle: str) -> bool:
        """Exactly ``text[start:end].startswith(needle)`` for indexable
        needles: an occurrence begins at ``start`` and fits before
        ``end`` — one binary search over the occurrence offsets."""
        occurrences = self._occurrence_list(needle)
        i = bisect_left(occurrences, start)
        return (
            i < len(occurrences)
            and occurrences[i] == start
            and start + len(needle) <= end
        )

    # -- persistence -----------------------------------------------------------

    def items(self) -> Iterator[tuple[str, list[int]]]:
        """``(term, posting starts)`` pairs, sorted by term."""
        for term in sorted(self._postings):
            yield term, self._postings[term]


class AttributeIndex:
    """Attribute-value posting lists: ``(name, value)`` → elements.

    Postings hold live elements in canonical document order (the order
    the structural summary's candidate lists use), so the query planner
    can serve an ``@name='value'`` predicate either as a per-node check
    or as the step's candidate source.  Maintenance mirrors the
    structural summary: rebuilt from :meth:`from_document`, or patched
    in place per change record via :meth:`apply` — attribute edits are
    the one mutation class the (text-keyed) term postings never see.
    """

    __slots__ = ("_postings",)

    def __init__(
        self, postings: "dict[tuple[str, str], list[Element]] | None" = None
    ) -> None:
        self._postings = postings if postings is not None else {}

    @classmethod
    def from_document(cls, document: "GoddagDocument") -> "AttributeIndex":
        """Build the posting table from every element's attributes."""
        postings: dict[tuple[str, str], list] = {}
        for element in document.ordered_elements():
            for name, value in element.attributes.items():
                postings.setdefault((name, value), []).append(element)
        return cls(postings)

    def remapped(self, by_ordinal: "dict[int, Element]") -> "AttributeIndex":
        """This table over a copy of its document, like
        :meth:`~repro.index.structural.StructuralSummary.remapped`."""
        from .structural import remap_members

        return AttributeIndex(remap_members(self._postings, by_ordinal))

    # -- incremental maintenance (the delta protocol) --------------------------

    def apply(self, change: "ChangeRecord") -> set[tuple[str, str]]:
        """Patch the postings in place for one change record.

        Returns the ``(name, value)`` posting keys whose membership
        changed (what a persistence layer must re-write).  Raises
        :class:`~repro.errors.IndexDeltaError` on inconsistency; callers
        fall back to a rebuild.
        """
        from ..core.changes import InsertMarkup, RemoveMarkup, SetAttribute

        if isinstance(change, InsertMarkup):
            for name, value in change.attributes:
                self._add(change.element, name, value)
            return set(change.attributes)
        if isinstance(change, RemoveMarkup):
            for name, value in change.attributes:
                self._remove(change.element, name, value)
            return set(change.attributes)
        if isinstance(change, SetAttribute):
            touched: set[tuple[str, str]] = set()
            if change.element.is_root:
                # The postings index elements only — from_document walks
                # ordered_elements(), which excludes the shared root —
                # so root attribute edits must not enter incrementally
                # either (a rebuild would drop them again).
                return touched
            if change.old == change.value:
                return touched  # idempotent set / removal of an absent name
            if change.old is not None:
                self._remove(change.element, change.name, change.old)
                touched.add((change.name, change.old))
            if change.value is not None:
                self._add(change.element, change.name, change.value)
                touched.add((change.name, change.value))
            return touched
        raise IndexDeltaError(f"unsupported change record {change!r}")

    def _add(self, element: "Element", name: str, value: str) -> None:
        from ..core.navigation import order_key

        insort(self._postings.setdefault((name, value), []),
               element, key=order_key)

    def _remove(self, element: "Element", name: str, value: str) -> None:
        members = self._postings.get((name, value))
        if members is None:
            raise IndexDeltaError(f"no posting for @{name}={value!r}")
        try:
            members.remove(element)
        except ValueError:
            raise IndexDeltaError(
                f"{element!r} missing from the @{name}={value!r} posting"
            ) from None
        if not members:
            del self._postings[(name, value)]

    # -- queries ---------------------------------------------------------------

    def candidates(self, name: str, value: str) -> "list[Element]":
        """Document-order elements with attribute ``name`` = ``value``.
        The list is the caller's to keep."""
        return list(self._postings.get((name, value), ()))

    def posting_length(self, name: str, value: str) -> int:
        """Number of elements carrying ``name`` = ``value`` (the
        planner's selectivity statistic)."""
        return len(self._postings.get((name, value), ()))

    @property
    def key_count(self) -> int:
        return len(self._postings)

    @property
    def posting_count(self) -> int:
        return sum(len(members) for members in self._postings.values())

    def items(self) -> Iterator[tuple[str, str, "list[Element]"]]:
        """``(name, value, elements)`` rows, sorted by key."""
        for name, value in sorted(self._postings):
            yield name, value, self._postings[(name, value)]

