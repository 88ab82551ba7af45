"""Streaming ingestion: distributed-document sources → stored rows.

:func:`stream_save` writes a document and its format-2 index payload to
a :class:`~repro.storage.sqlite_backend.SqliteStore` in chunked
transactions while the SACX merge is still running.  The resulting
rows are byte-identical to ``GoddagStore.save_indexed(parse_concurrent
(sources), name)`` — same element rows (including ``elem_id`` birth
ordinals and parent links), same ``index_meta`` row, same
collection-summary counts — without ever materializing the GODDAG, the
full text, or the payload dict.

Each source is read once, in the merge itself.

How identity survives streaming, table by table:

- **elements** — :class:`~repro.streaming.parse.FragmentAssembler`
  numbers hierarchy ``rank`` from a staged base of
  ``1 + rank * 2**32`` while the merge runs; no staged id can equal a
  final id ``1..N``, so the ``(doc_id, elem_id)`` key holds
  throughout.  Once the merge has counted every hierarchy, each
  hierarchy's ``elem_id`` and ``parent_id`` shift down to the
  builder's base: flushed rows in the publishing transaction, the
  last chunk before it is inserted there.  Rows are keyed by
  ``(doc_id, elem_id)`` and read back ordered, so chunk insertion
  order is free.
- **documents** — text is appended per flush, its tail at finalize;
  the root tag and attributes, which the merge reads from the first
  part, are written at finalize.
- **collection_summary** — counts only, so order is free too: label
  path and tag counts (:class:`_PathAccumulator`) and term counts
  (:class:`_TermAccumulator`, which carries a token split by a
  confirmed-text chunk boundary to the next chunk) are added onto the
  staging rows per flush and at finalize; attribute counts are written
  at finalize.  So a one-chunk document commits in two transactions:
  the staging row, then finalize.

Sources may be strings, paths, open files, chunk iterables, or
zero-argument callables returning a chunk iterator or file object.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping
from uuid import uuid4

from ..errors import StorageError
from ..index.structural import encode_path
from ..index.term import TERM_RUN
from ..obs.metrics import metrics
from ..sacx import events as ev
from ..sacx import scanner as sc
from ..sacx.parser import EventStream
from ..storage.schema import encode_attributes
from .parse import ROOT_ORDINAL, Fragment, FragmentAssembler

#: Element rows buffered per chunked transaction.
DEFAULT_CHUNK_ELEMENTS = 1024

#: Index postings (elements, tokens) counted before a flush.
_POSTING_FLUSH = 8192

#: Confirmed text buffered before an append, in characters.
_TEXT_FLUSH = 1 << 16

#: Distance between consecutive hierarchies' staged ordinal bases: far
#: above any final ``elem_id``, so staged and final ids never collide.
_STAGE_STRIDE = 1 << 32


def _fresh(source):
    """A scannable source: call factories, pass the rest."""
    return source() if callable(source) else source


def count_content_events(
    source, chunk_chars: int = sc.DEFAULT_CHUNK_CHARS
) -> tuple[int, str, tuple[tuple[str, str], ...]]:
    """Scan one part and return ``(element count, root tag, root attrs)``.

    The count covers non-root start and empty-element events — exactly
    the elements :class:`~repro.core.goddag.GoddagBuilder` will number
    for this hierarchy, so running counts give the builder's ordinal
    bases for :func:`~repro.streaming.parse.iterparse` ahead of a
    merge.  An optional helper costing a scan of its own:
    :func:`stream_save` does not use it.
    """
    count = 0
    root_tag = ""
    root_attributes: tuple[tuple[str, str], ...] = ()
    for item in ev.iter_content_events(sc.source_tokens(source, chunk_chars)):
        kind = item[0]
        if kind == ev.EVENT:
            if item[1].kind != ev.END:
                count += 1
        elif kind == ev.ROOT:
            root_tag, root_attributes = item[1], item[2]
    return count, root_tag, root_attributes


class _TermAccumulator:
    """Streaming counterpart of :func:`repro.index.term.tokenize`.

    Feeds confirmed text chunks and counts tokens; a trailing
    alphanumeric run is carried to the next chunk so a token split by a
    chunk boundary counts once, whole.
    """

    def __init__(self) -> None:
        self._pending: Counter[str] = Counter()
        self._carry = ""
        self.pending_postings = 0

    def feed(self, chunk: str) -> None:
        if not chunk:
            return
        run = self._carry + chunk
        self._carry = ""
        for match in TERM_RUN.finditer(run):
            if match.end() == len(run):
                # A run touching the chunk end may continue in the next.
                self._carry = match[0]
            else:
                self._post(match[0])

    def finish(self) -> None:
        if self._carry:
            self._post(self._carry)
            self._carry = ""

    def _post(self, token: str) -> None:
        self._pending[token] += 1
        self.pending_postings += 1

    def drain(self) -> list[tuple[str, int]]:
        rows = list(self._pending.items())
        self._pending.clear()
        self.pending_postings = 0
        return rows


class _PathAccumulator:
    """Element counts per label path (summed across hierarchies)."""

    def __init__(self) -> None:
        self._pending: Counter[tuple[str, ...]] = Counter()
        self.pending_postings = 0

    def add(self, fragment: Fragment) -> None:
        self._pending[fragment.path] += 1
        self.pending_postings += 1

    def drain(self) -> list[tuple[str, str, int]]:
        rows = [
            (encode_path(path), path[-1], n)
            for path, n in self._pending.items()
        ]
        self._pending.clear()
        self.pending_postings = 0
        return rows


def stream_save(
    store,
    sources: Mapping[str, object],
    name: str,
    *,
    overwrite: bool = False,
    chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
    chunk_chars: int = sc.DEFAULT_CHUNK_CHARS,
) -> str:
    """Stream-parse ``sources`` and persist document + index rows into
    ``store`` (a :class:`SqliteStore`) under ``name``; returns the
    index stamp, like a materialized ``save_indexed``.
    """
    with metrics.time("storage.stream_save"):
        return _stream_save(store, sources, name, overwrite,
                            chunk_elements, chunk_chars)


def _stream_save(store, sources, name, overwrite, chunk_elements,
                 chunk_chars) -> str:
    hierarchy_names = list(sources)
    if not hierarchy_names:
        raise StorageError("a streaming save needs at least one source")
    session = store.begin_stream_ingest(name, overwrite=overwrite)
    try:
        stamp = _stream_rows(session, sources, hierarchy_names,
                             chunk_elements, chunk_chars)
    except BaseException:
        session.abort()
        raise
    return stamp


def _stream_rows(session, sources, hierarchy_names, chunk_elements,
                 chunk_chars) -> str:
    terms = _TermAccumulator()
    paths = _PathAccumulator()
    element_rows: list[tuple] = []
    text_pending: list[str] = []
    text_pending_chars = 0
    doc_length = 0
    attr_counts: Counter[tuple[str, str]] = Counter()

    def on_text(chunk: str) -> None:
        nonlocal text_pending_chars, doc_length
        text_pending.append(chunk)
        text_pending_chars += len(chunk)
        doc_length += len(chunk)
        terms.feed(chunk)
        if text_pending_chars >= _TEXT_FLUSH:
            flush_text()

    def flush_text() -> None:
        nonlocal text_pending_chars
        if text_pending:
            session.append_text("".join(text_pending))
            text_pending.clear()
            text_pending_chars = 0

    def flush_postings() -> None:
        if paths.pending_postings:
            session.append_paths(paths.drain())
        if terms.pending_postings:
            session.append_terms(terms.drain())

    stream = EventStream(
        {h: _fresh(sources[h]) for h in hierarchy_names},
        chunk_chars=chunk_chars, text_sink=on_text,
    )
    staged = {hname: 1 + rank * _STAGE_STRIDE
              for rank, hname in enumerate(hierarchy_names)}
    assembler = FragmentAssembler(hierarchy_names, staged)
    for hierarchy, event in stream:
        fragment = assembler.feed(hierarchy, event)
        if fragment is None:
            continue
        attributes = fragment.attributes
        element_rows.append((
            fragment.ordinal, fragment.hierarchy, fragment.tag,
            fragment.start, fragment.end, fragment.parent_ordinal,
            encode_attributes(attributes),
        ))
        paths.add(fragment)
        attr_counts.update(attributes)
        if len(element_rows) >= chunk_elements:
            session.add_elements(element_rows)
            element_rows.clear()
            if (paths.pending_postings >= _POSTING_FLUSH
                    or terms.pending_postings >= _POSTING_FLUSH):
                flush_postings()

    terms.finish()

    # The builder's bases: each hierarchy's first ordinal is one past
    # the elements of the hierarchies declared before it.  Flushed rows
    # shift in the finalize transaction; the last chunk shifts here.
    shifts = {}
    base = 1
    for hname, count in assembler.counts().items():
        if staged[hname] != base:
            shifts[hname] = staged[hname] - base
        base += count
    hierarchy_rows = [(rank, hname, "")
                      for rank, hname in enumerate(hierarchy_names)]
    return session.finalize(
        hierarchy_rows=hierarchy_rows,
        doc_length=doc_length,
        attr_rows=[(attr_name, attr_value, n) for (attr_name, attr_value), n
                   in attr_counts.items()],
        path_rows=paths.drain(),
        term_rows=terms.drain(),
        text="".join(text_pending),
        stamp=uuid4().hex,
        root_tag=stream.root_tag,
        root_attributes=encode_attributes(stream.root_attributes),
        shifts=list(shifts.items()),
        element_rows=_shifted(element_rows, shifts),
    )


def _shifted(rows: list[tuple], shifts: dict[str, int]) -> list[tuple]:
    """Element rows with each hierarchy's ``elem_id`` and non-root
    ``parent_id`` moved down by its shift."""
    out = []
    for row in rows:
        shift = shifts.get(row[1])
        if shift:
            elem_id, hierarchy, tag, start, end, parent, attrs = row
            if parent != ROOT_ORDINAL:
                parent -= shift
            row = (elem_id - shift, hierarchy, tag, start, end, parent,
                   attrs)
        out.append(row)
    return out
