"""Streaming ingestion: distributed-document sources → stored rows.

:func:`stream_save` writes a document and its format-2 index payload to
a :class:`~repro.storage.sqlite_backend.SqliteStore` in chunked
transactions while the SACX merge is still running.  The resulting
rows are byte-identical to ``GoddagStore.save_indexed(parse_concurrent
(sources), name)`` — same element rows (including ``elem_id`` birth
ordinals, parent links and child ranks), same ``index_meta`` row, same
collection-summary counts — without ever materializing the GODDAG, the
full text, or the payload dict.

How identity survives streaming, table by table:

- **elements** — :class:`~repro.streaming.parse.FragmentAssembler`
  reproduces builder ordinals given per-hierarchy bases from a cheap
  counting pre-pass (:func:`count_content_events`); rows are keyed by
  ``(doc_id, elem_id)`` and read back ordered, so chunk insertion
  order is free.
- **collection_summary** — counts only, so order is free too: label
  path and tag counts (:class:`_PathAccumulator`) and term counts
  (:class:`_TermAccumulator`, which carries a token split by a
  confirmed-text chunk boundary to the next chunk) are added onto the
  staging rows per flush; attribute counts are written at finalize.

Sources may be strings, paths, or — for true streaming — zero-argument
callables returning a fresh chunk iterator or file object per call
(two passes are made: the ordinal-counting pre-pass and the merge).
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Callable, Mapping
from uuid import uuid4

from ..errors import StorageError
from ..index.structural import encode_path
from ..index.term import TERM_RUN
from ..obs.metrics import metrics
from ..sacx import events as ev
from ..sacx import scanner as sc
from ..sacx.parser import EventStream
from .parse import Fragment, FragmentAssembler

#: Element rows buffered per chunked transaction.
DEFAULT_CHUNK_ELEMENTS = 1024

#: Index postings (elements, tokens) counted before a flush.
_POSTING_FLUSH = 8192

#: Confirmed text buffered before an append, in characters.
_TEXT_FLUSH = 1 << 16


def _fresh(source):
    """A scannable source for one pass: call factories, pass the rest."""
    return source() if callable(source) else source


def count_content_events(
    source, chunk_chars: int = sc.DEFAULT_CHUNK_CHARS
) -> tuple[int, str, tuple[tuple[str, str], ...]]:
    """Scan one part and return ``(element count, root tag, root attrs)``.

    The count covers non-root start and empty-element events — exactly
    the elements :class:`~repro.core.goddag.GoddagBuilder` will number
    for this hierarchy, which is what turns per-hierarchy counts into
    the ordinal bases :class:`FragmentAssembler` needs.
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

    # Pass 1 — ordinal bases and the reference root, without a merge.
    bases: dict[str, int] = {}
    next_base = 1
    root_tag = ""
    root_attributes_json = "{}"
    for rank, hname in enumerate(hierarchy_names):
        count, part_root, part_attrs = count_content_events(
            _fresh(sources[hname]), chunk_chars
        )
        bases[hname] = next_base
        next_base += count
        if rank == 0:
            root_tag = part_root
            root_attributes_json = json.dumps(dict(part_attrs),
                                              sort_keys=True)

    session = store.begin_stream_ingest(
        name, root_tag, root_attributes_json, overwrite=overwrite
    )
    try:
        stamp = _stream_rows(session, sources, hierarchy_names, bases,
                             chunk_elements, chunk_chars)
    except BaseException:
        session.abort()
        raise
    return stamp


def _stream_rows(session, sources, hierarchy_names, bases, chunk_elements,
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
    assembler = FragmentAssembler(hierarchy_names, bases)
    for hierarchy, event in stream:
        fragment = assembler.feed(hierarchy, event)
        if fragment is None:
            continue
        element_rows.append((
            fragment.ordinal, fragment.hierarchy, fragment.tag,
            fragment.start, fragment.end, fragment.parent_ordinal,
            fragment.child_rank,
            json.dumps(dict(fragment.attributes), sort_keys=True),
        ))
        paths.add(fragment)
        attr_counts.update(fragment.attributes)
        if len(element_rows) >= chunk_elements:
            session.add_elements(element_rows)
            element_rows.clear()
            if (paths.pending_postings >= _POSTING_FLUSH
                    or terms.pending_postings >= _POSTING_FLUSH):
                flush_postings()

    terms.finish()
    if element_rows:
        session.add_elements(element_rows)
        element_rows.clear()
    flush_postings()
    flush_text()

    hierarchy_rows = [(rank, hname, "")
                      for rank, hname in enumerate(hierarchy_names)]
    return session.finalize(
        hierarchy_rows=hierarchy_rows,
        doc_length=doc_length,
        attr_rows=[(attr_name, attr_value, n) for (attr_name, attr_value), n
                   in attr_counts.items()],
        stamp=uuid4().hex,
    )
