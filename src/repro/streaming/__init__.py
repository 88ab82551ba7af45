"""Streaming ingestion and lazy materialization.

Everything else in the framework materializes:
:func:`repro.sacx.parser.parse_concurrent` builds the whole GODDAG
before returning, and ``decode_document`` rehydrates every stored row
before a query runs.
This package is the bounded-memory counterpart, in three layers:

- :mod:`repro.streaming.parse` — an iterparse-style streaming SACX API.
  :class:`EventStream` (defined in :mod:`repro.sacx.parser`, the one
  SACX merge) merges the markup events of a distributed document's
  parts incrementally, scanning file and chunk sources through
  :class:`repro.sacx.scanner.StreamingXmlScanner` and verifying shared
  text through a sliding window instead of held copies.
  :func:`iterparse` turns the merged events into completed
  :class:`Fragment` values under a configurable high-water mark with
  overlap-aware retention: a closed fragment is released only once no
  element still open — in *any* hierarchy — could overlap it.

- :mod:`repro.streaming.ingest` — streaming ingestion to storage.
  :func:`stream_save` writes element rows and index postings in chunked
  transactions while the parse is still running, never holding the full
  document text or node set; the resulting rows are byte-identical to
  a materialized ``save_indexed``.

- :mod:`repro.streaming.lazy` — :class:`LazyDocument`, an on-demand
  view over a stored document: ``element(...)`` / ``subtree(...)``
  hydrate rows by ``elem_id`` and interval range, and ``xpath(...)``
  serves ``//tag``-shaped queries straight from the element rows,
  decoding only surviving candidates.
"""

from .parse import (
    DEFAULT_HIGH_WATER,
    EventStream,
    Fragment,
    FragmentAssembler,
    iterparse,
)
from .ingest import count_content_events, stream_save
from .lazy import LazyDocument, LazySubtree

__all__ = [
    "DEFAULT_HIGH_WATER",
    "EventStream",
    "Fragment",
    "FragmentAssembler",
    "LazyDocument",
    "LazySubtree",
    "count_content_events",
    "iterparse",
    "stream_save",
]
