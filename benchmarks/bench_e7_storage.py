"""E7 — persistent storage: save/load cost and storage-level queries.

The paper lists persistent storage as work underway; the repository
builds it, and this bench characterizes it: save and load throughput
of the sqlite store, and the selective-query claim — answering a span
query *in storage* beats loading the document and querying in memory.
"""

import pytest

from repro.storage import GoddagStore

from conftest import paper_row, workload

SIZES = [1000, 8000]


@pytest.mark.parametrize("words", SIZES)
def test_e7_sqlite_save(benchmark, words, tmp_path):
    document = workload(words=words)
    counter = iter(range(10_000))

    def save():
        with GoddagStore(str(tmp_path / f"s{next(counter)}.db")) as store:
            store.save(document, "doc")

    benchmark.pedantic(save, rounds=5, iterations=1)
    paper_row(benchmark, experiment="E7", backend="sqlite", op="save",
              words=words)


@pytest.mark.parametrize("words", SIZES)
def test_e7_sqlite_load(benchmark, words, tmp_path):
    document = workload(words=words)
    path = str(tmp_path / "store.db")
    with GoddagStore(path) as store:
        store.save(document, "doc")
    with GoddagStore(path) as store:
        loaded = benchmark(store.load, "doc")
    assert loaded.element_count() == document.element_count()
    paper_row(benchmark, experiment="E7", backend="sqlite", op="load",
              words=words)


@pytest.mark.parametrize("words", SIZES)
def test_e7_storage_level_span_query(benchmark, words, tmp_path):
    """The selective query, answered without reconstruction."""
    document = workload(words=words)
    path = str(tmp_path / "store.db")
    with GoddagStore(path) as store:
        store.save(document, "doc")
        window = (100, 160)
        hits = benchmark(store.elements_intersecting, "doc", *window)
    expected = sum(
        1
        for e in document.elements()
        if not e.is_empty and e.start < window[1] and e.end > window[0]
    )
    assert len(hits) == expected
    paper_row(benchmark, experiment="E7", backend="sqlite", op="span-query",
              words=words, hits=len(hits))


@pytest.mark.parametrize("words", SIZES)
def test_e7_load_then_query_comparator(benchmark, words, tmp_path):
    """What the span query costs if storage can't answer it: full load
    plus an in-memory sweep."""
    document = workload(words=words)
    path = str(tmp_path / "store.db")
    with GoddagStore(path) as store:
        store.save(document, "doc")

        def load_and_query():
            loaded = store.load("doc")
            return [
                e for e in loaded.elements()
                if not e.is_empty and e.start < 160 and e.end > 100
            ]

        hits = benchmark.pedantic(load_and_query, rounds=3, iterations=1)
    assert hits
    paper_row(benchmark, experiment="E7", backend="sqlite",
              op="load+query", words=words)


def test_e7_storage_query_beats_full_load(tmp_path):
    """Shape assertion: for selective queries the storage-level answer
    must be much cheaper than reconstruction."""
    import time

    document = workload(words=8000)
    path = str(tmp_path / "store.db")
    with GoddagStore(path) as store:
        store.save(document, "doc")

        t0 = time.perf_counter()
        store.elements_intersecting("doc", 100, 160)
        storage_time = time.perf_counter() - t0

        t0 = time.perf_counter()
        store.load("doc")
        load_time = time.perf_counter() - t0

    assert storage_time * 5 < load_time, (storage_time, load_time)
