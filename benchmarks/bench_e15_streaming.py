"""E15 — streaming ingestion and lazy materialization.

The bounded-memory subsystem's experiment, in two halves:

* **Ingest** — parse+store a distributed document (a) materialized
  (``parse_concurrent`` + ``save_indexed``) and (b) streaming
  (``stream_save``, chunked transactions while the SACX merge runs).
  Each arm runs in a freshly spawned interpreter, so its peak RSS is
  its own and does not depend on the heap the test process left
  behind.  The stored databases must digest byte-identically, the
  streaming arm must stay within a fixed budget per source size, and
  the materialized arm must exceed that same budget.

* **Lazy** — answer a rare-tag query (``//pb``, page-break milestones:
  well under 10% of the element rows) from a
  :class:`~repro.streaming.lazy.LazyDocument`, byte-identical to the
  materialized engine's answer while decoding ≥4× fewer rows than a
  full ``decode_document`` would.

Timings land in ``BENCH_e15_streaming.json`` next to the memory fields
(``peak_rss_kb``), which ``check_regression.py`` holds to the same
20% tolerance as the medians.
"""

import hashlib
import os
import sqlite3

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
#: 9.4-9.8 / 17.7-17.9 / 34.0-34.1 MB.
RSS_BUDGET_KB = {2000: 3700, 4000: 7200, 8000: 12500, 16000: 22500}

_TABLES = [
    ("documents", "name, root_tag, text, root_attributes"),
    ("hierarchies", "rank"),
    ("elements", "elem_id"),
    ("index_meta", "format"),
    ("index_paths", "hierarchy, path"),
    ("index_terms", "term"),
    ("index_attrs", "name, value"),
    ("index_overlap", "rowid"),
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


def _ingest_streaming(sources, path: str) -> str:
    backend = SqliteStore(path)
    stream_save(backend, sources, "doc")
    backend.close()
    return _db_digest(path)


@pytest.mark.parametrize("words", SIZES)
def test_e15_stream_ingest(benchmark, tmp_path, words):
    sources = workload_sources(words=words)

    counter = iter(range(1_000_000))

    def run():
        path = tmp_path / f"timed{next(counter)}.db"
        backend = SqliteStore(str(path))
        stream_save(backend, sources, "doc")
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
