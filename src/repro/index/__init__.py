"""Query-acceleration indexes for GODDAG documents.

Three cooperating indexes plus a manager:

* :class:`StructuralSummary` — DescribeX-style label-path partitioning
  per hierarchy, resolving name tests to candidate element lists (from
  root *and*, via label-path containment, non-root contexts);
* :class:`TermIndex` — tokenized leaf text → posting lists, serving
  exact ``contains()``/``starts-with()`` predicates by binary search;
* :class:`AttributeIndex` — ``(name, value)`` → document-order posting
  lists, serving ``@name='value'`` predicates and attribute-driven
  candidate enumeration;
* :class:`IndexManager` — builds all three, tracks document versions,
  keeps them warm across edits via the delta protocol, and is what the
  Extended XPath planner and the store consult.

Attach to a document and every compiled query runs under a cost-based
access-path plan (:mod:`repro.xpath.planner`)::

    from repro.index import IndexManager

    IndexManager.for_document(doc)          # build + attach
    ExtendedXPath("//w").nodes(doc)         # now index-served
    ExtendedXPath("//w").explain(doc)       # the plan, estimates vs actuals

Results are always byte-identical to the unindexed engine: any step the
indexes cannot serve falls back to the classic evaluation path.

The delta protocol (incremental maintenance)
--------------------------------------------

Every tracked mutation — markup insertion (milestones included), markup
removal, attribute set/delete, and each undo/redo of those — emits one
typed change record (:mod:`repro.core.changes`) into the document's
bounded delta journal (``GoddagDocument.changes_since``).  A stale
manager catches up by replaying the journal: the structural summary
re-paths exactly the partitions the edit touched and the attribute
table patches the affected postings, so an editing session keeps its
indexes warm instead of rebuilding them per edit (the ``bench_e9``
editing scenario measures the difference).  Replay falls back to one
full rebuild when

* the backlog exceeds ``IndexManager.delta_threshold`` (default 128
  records — beyond that a rebuild is assumed cheaper),
* the journal cannot bridge the gap (an untracked mutation reset it, or
  more than ``repro.core.goddag.JOURNAL_LIMIT`` records fell off), or
* a record disagrees with the index state
  (:class:`~repro.errors.IndexDeltaError`).

Applied deltas also queue for persistence: ``GoddagStore.save_indexed``
drains them (``IndexManager.pending_persist``) into row-level sqlite
upserts — only the collection-summary counts of dirty label paths,
tags and attribute values rewritten — so saving an edited document no
longer invalidates its stored index wholesale.  The store keeps counts
only: span queries on *stored* documents read the element rows, which
carry each element's ``(start, end)``, and term queries scan the
stored text.  The differential
harness in ``tests/test_index_incremental.py`` holds all of this to the
byte-identical bar against both a fresh rebuild and the unindexed
engine after every step of randomized edit sessions.
"""

from .manager import IndexManager
from .structural import StructuralSummary
from .term import AttributeIndex, TermIndex, tokenize

__all__ = [
    "AttributeIndex",
    "IndexManager",
    "StructuralSummary",
    "TermIndex",
    "tokenize",
]
