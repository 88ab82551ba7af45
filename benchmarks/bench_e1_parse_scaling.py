"""E1 — SACX parse time vs document size, against the DOM baseline.

Reconstructs the scaling experiment of "Parsing Concurrent XML"
(WIDM 2004): parse a distributed document of growing size (a) with
SACX into a GODDAG, (b) with k independent DOM parses plus the
offset-recovery merge pass a cross-hierarchy application needs.

Expected shape: both linear in total markup; SACX within a small
constant of the k DOM parses *while already delivering the merged
structure*, whereas the baseline pays the merge pass on top.
"""

import pytest

from repro.baselines import parse_and_merge, parse_dom
from repro.sacx import parse_concurrent

from _emit import measure_peak_rss
from conftest import paper_row, workload_sources

SIZES = [1000, 2000, 4000, 8000]


def _count_elements(sources):
    return parse_concurrent(sources).element_count()


@pytest.mark.parametrize("words", SIZES)
def test_e1_sacx_parse(benchmark, words):
    sources = workload_sources(words=words)
    document = benchmark(parse_concurrent, sources)
    # One fork-isolated parse samples the memory fields (``peak_rss_kb``),
    # reported in the benchmark's extra info next to the timings.
    _, rss = measure_peak_rss(_count_elements, sources)
    paper_row(
        benchmark,
        experiment="E1",
        system="SACX",
        words=words,
        elements=document.element_count(),
        **rss,
    )


@pytest.mark.parametrize("words", SIZES)
def test_e1_dom_parse_and_merge(benchmark, words):
    sources = workload_sources(words=words)
    merged = benchmark(parse_and_merge, sources)
    paper_row(
        benchmark,
        experiment="E1",
        system="DOM+merge",
        words=words,
        boundaries=len(merged["boundaries"]),
    )


@pytest.mark.parametrize("words", SIZES)
def test_e1_dom_parse_only(benchmark, words):
    """The merge-free lower bound: k DOM parses with no cross-hierarchy
    capability at all (what plain XML users start from)."""
    sources = workload_sources(words=words)

    def run():
        return {name: parse_dom(source) for name, source in sources.items()}

    doms = benchmark(run)
    paper_row(
        benchmark,
        experiment="E1",
        system="DOM only",
        words=words,
        documents=len(doms),
    )


def test_e1_linearity_check():
    """Sanity assertion on the *shape*: quadrupling the input must not
    blow up SACX super-linearly (factor ≤ ~8 leaves generous slack for
    constant overheads)."""
    import time

    def best_of(fn, n=3):
        times = []
        for _ in range(n):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    small = workload_sources(words=1000)
    large = workload_sources(words=4000)
    t_small = best_of(lambda: parse_concurrent(small))
    t_large = best_of(lambda: parse_concurrent(large))
    assert t_large < t_small * 10, (t_small, t_large)
