"""E15 — streaming ingestion and lazy materialization.

The bounded-memory subsystem's experiment, in two halves:

* **Ingest** — parse+store a distributed document (a) materialized
  (``parse_concurrent`` + ``save_indexed``) and (b) streaming
  (``stream_save``, chunked transactions while the SACX merge runs).
  Each arm runs in a freshly spawned interpreter, so its peak RSS is
  its own and does not depend on the heap the test process left
  behind.  The stored databases must digest byte-identically, the
  streaming arm must stay within a fixed budget per source size, and
  the materialized arm must exceed that same budget.  The streaming
  arm reads its sources through counting factories and must read each
  hierarchy's source exactly once.

* **Lazy** — answer a rare-tag query (``//pb``, page-break milestones:
  well under 10% of the element rows) from a
  :class:`~repro.streaming.lazy.LazyDocument`, byte-identical to the
  materialized engine's answer while decoding ≥4× fewer rows than a
  full ``decode_document`` would.

The bars are the asserts: byte-identical digests, one read per
source, the per-size RSS budget and the lazy decode ratio.  Timings
and memory fields (``peak_rss_kb``) are reported in pytest-benchmark's
extra info, not gated; ``benchmarks/e2e/`` times the same ingest path
(``stream-ingest``).
"""

import hashlib
import os
import sqlite3
from collections import Counter

import pytest

from repro.collection.fanout import node_rows
from repro.index.manager import IndexManager
from repro.sacx import parse_concurrent
from repro.storage.sqlite_backend import SqliteStore
from repro.storage import GoddagStore
from repro.streaming import LazyDocument, stream_save
from repro.xpath.engine import ExtendedXPath

from _emit import measure_spawned_peak_rss
from conftest import paper_row, workload_sources

SIZES = [2000, 4000, 8000]
if os.environ.get("REPRO_BENCH_FULL"):
    SIZES.append(16000)

#: Peak-RSS budget of the streaming arm, in kB, per source size (words),
#: set between the arms.  Spawned-child peaks under pytest, x86-64
#: Linux, CPython 3.11, at 2000 / 4000 / 8000 / 16000 words: streaming
#: 2.7-2.9 / 5.3-5.5 / 8.5-8.7 / 14.7-14.8 MB, materialized 5.0-5.2 /
#: 9.4-9.8 / 17.7-17.9 / 34.0-34.1 MB.  At 2000 words, re-measured on
#: a 2-vCPU x86-64 Linux VM over CPython 3.10.13, 3.11.7 and 3.12.1
#: (6-8 spawned runs per arm and version): streaming 1.16-2.14 MB,
#: materialized 3.35-4.86 MB, so the budget sits midway.
RSS_BUDGET_KB = {2000: 2750, 4000: 7200, 8000: 12500, 16000: 22500}

_TABLES = [
    ("documents", "name, root_tag, text, root_attributes"),
    ("hierarchies", "rank"),
    ("elements", "elem_id"),
    ("index_meta", "format"),
    ("collection_summary", "kind, key"),
]


def _db_digest(path: str) -> str:
    """A digest of every stored row, modulo the random generation stamp
    (both arms write fresh single-document databases, so ``doc_id``
    needs no masking)."""
    conn = sqlite3.connect(path)
    digest = hashlib.sha256()
    for table, order in _TABLES:
        cols = [c[1] for c in conn.execute(f"PRAGMA table_info({table})")
                if c[1] != "stamp"]
        for row in conn.execute(
            f"SELECT {', '.join(cols)} FROM {table} ORDER BY {order}"
        ):
            digest.update(repr(row).encode())
    conn.close()
    return digest.hexdigest()


def _ingest_materialized(sources, path: str) -> str:
    document = parse_concurrent(sources)
    store = GoddagStore(path)
    store.save_indexed(document, "doc", manager=IndexManager(document))
    store.close()
    return _db_digest(path)


def _counting(sources):
    """``sources`` behind factories, and the reads of each."""
    reads: Counter[str] = Counter()

    def factory(hierarchy):
        def read():
            reads[hierarchy] += 1
            return sources[hierarchy]
        return read

    return {hierarchy: factory(hierarchy) for hierarchy in sources}, reads


def _stream_once(backend, sources) -> None:
    counted, reads = _counting(sources)
    stream_save(backend, counted, "doc")
    assert reads == {hierarchy: 1 for hierarchy in sources}, (
        f"stream_save read its sources {dict(reads)} times, not once each"
    )


def _ingest_streaming(sources, path: str) -> str:
    backend = SqliteStore(path)
    _stream_once(backend, sources)
    backend.close()
    return _db_digest(path)


@pytest.mark.parametrize("words", SIZES)
def test_e15_stream_ingest(benchmark, tmp_path, words):
    sources = workload_sources(words=words)

    counter = iter(range(1_000_000))

    def run():
        path = tmp_path / f"timed{next(counter)}.db"
        backend = SqliteStore(str(path))
        _stream_once(backend, sources)
        backend.close()
        path.unlink()

    benchmark(run)

    materialized_digest, materialized_rss = measure_spawned_peak_rss(
        _ingest_materialized, sources, str(tmp_path / "materialized.db")
    )
    streaming_digest, streaming_rss = measure_spawned_peak_rss(
        _ingest_streaming, sources, str(tmp_path / "streaming.db")
    )
    assert streaming_digest == materialized_digest, (
        "streaming ingest stored different rows than the "
        "materialized path"
    )
    ratio = (streaming_rss["peak_rss_kb"]
             / max(1, materialized_rss["peak_rss_kb"]))
    if streaming_rss["rss_mode"] == "spawn":
        budget = RSS_BUDGET_KB[words]
        assert streaming_rss["peak_rss_kb"] <= budget, (
            f"streaming peak RSS {streaming_rss['peak_rss_kb']}kB is "
            f"over its {budget}kB budget at {words} words"
        )
        assert materialized_rss["peak_rss_kb"] > budget, (
            f"materialized peak RSS {materialized_rss['peak_rss_kb']}kB "
            f"is within the streaming budget {budget}kB at {words} "
            "words: the budget no longer tells the arms apart"
        )
    paper_row(
        benchmark,
        experiment="E15",
        system="stream_save",
        words=words,
        peak_rss_kb=streaming_rss["peak_rss_kb"],
        rss_mode=streaming_rss["rss_mode"],
        materialized_peak_rss_kb=materialized_rss["peak_rss_kb"],
        rss_ratio=round(ratio, 4),
    )


@pytest.mark.parametrize("words", SIZES)
def test_e15_lazy_hydration(benchmark, tmp_path, words):
    sources = workload_sources(words=words)
    path = str(tmp_path / "doc.db")
    backend = SqliteStore(path)
    stream_save(backend, sources, "doc")

    reference = parse_concurrent(sources)
    total_rows = reference.element_count()
    candidates = sum(1 for e in reference.elements() if e.tag == "pb")
    assert candidates * 10 <= total_rows, (
        "//pb is supposed to touch at most 10% of the rows"
    )

    lazy = LazyDocument(backend, "doc")
    result = benchmark(lazy.xpath, "//pb")
    witness = node_rows(
        ExtendedXPath("//pb").evaluate(reference, index=False)
    )
    assert tuple(result) == witness, (
        "lazy answer differs from the materialized witness"
    )
    assert len(witness) == candidates
    assert lazy.rows_decoded * 4 <= total_rows, (
        f"lazy hydration decoded {lazy.rows_decoded} of {total_rows} "
        "rows — less than the 4x saving the subsystem promises"
    )
    backend.close()
    paper_row(
        benchmark,
        experiment="E15",
        system="lazy_xpath",
        words=words,
        rows_decoded=lazy.rows_decoded,
        total_rows=total_rows,
        result_rows=len(witness),
    )
