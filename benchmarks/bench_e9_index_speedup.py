"""E9 — indexed vs unindexed query speed, and editing-session maintenance.

Measures the two query classes the index subsystem accelerates, on
the synthetic corpora of ``workloads/generator.py``:

* **name-test** — a selective tag lookup (``//page``): the unindexed
  engine streams every element of the document; the structural summary
  resolves the step to its candidate list;
* **contains** — a full-text predicate (``//w[contains(., 'gar')]``):
  unindexed, one substring scan per candidate; indexed, one binary
  search over the term index's occurrence offsets.

Stored documents answer span queries from the element rows
(``elements_intersecting``), not from their persisted index, so no
span class is timed here.

The **editing scenario** measures what incremental index maintenance
buys an authoring session: k edits (milestone insertions, markup
wrapped over existing lines, removals), each followed by a warm-index
query.  The incremental manager absorbs each edit by replaying the
document's delta journal; the baseline manager (``incremental=False``)
pays a full index rebuild per edit — exactly what every
edit cost before the delta protocol existed.

Timings are best-of-N wall times (same protocol as the E4 headline
check); each size row reports the speedup ratio indexed → unindexed.
Run standalone for the report tables::

    PYTHONPATH=src python benchmarks/bench_e9_index_speedup.py

or through pytest (the assertions are the acceptance bars: at the
largest size, at least one query class must clear 2x, and incremental
maintenance must beat rebuild-per-edit by ≥ 5x)::

    PYTHONPATH=src python -m pytest benchmarks/bench_e9_index_speedup.py -q
"""

from __future__ import annotations

import time

from repro.editing import Editor
from repro.index import IndexManager
from repro.workloads import WorkloadSpec, generate
from repro.xpath import ExtendedXPath

SIZES = (1000, 4000, 8000)
DENSITY = 0.25
NAME_QUERY = ExtendedXPath("//page")
CONTAINS_QUERY = ExtendedXPath("//w[contains(., 'gar')]")
SESSION_EDITS = 18


def best_of(fn, n: int = 5) -> float:
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def measure_size(words: int) -> dict[str, float]:
    """One row of the E9 table: per-class speedups at one corpus size."""
    document = generate(
        WorkloadSpec(words=words, hierarchies=4, overlap_density=DENSITY)
    )
    row: dict[str, float] = {"words": words}

    # -- name-test and contains: in-memory engine, manager attached or not.
    document.detach_index()
    document.ordered_elements()  # pre-warm the shared document-order cache
    baseline_name = best_of(lambda: NAME_QUERY.nodes(document))
    baseline_contains = best_of(lambda: CONTAINS_QUERY.nodes(document))
    manager = IndexManager.for_document(document)
    manager.terms.occurrences("gar")  # pre-warm, like the E4 index warm-up
    indexed_name = best_of(lambda: NAME_QUERY.nodes(document))
    indexed_contains = best_of(lambda: CONTAINS_QUERY.nodes(document))
    assert NAME_QUERY.nodes(document) and CONTAINS_QUERY.nodes(document)
    row["name_test"] = baseline_name / indexed_name
    row["contains"] = baseline_contains / indexed_contains
    row["name_indexed_s"] = indexed_name
    row["name_baseline_s"] = baseline_name
    row["contains_indexed_s"] = indexed_contains
    row["contains_baseline_s"] = baseline_contains
    document.detach_index()
    return row


def editing_session(document, edits: int) -> None:
    """k edits, each followed by a warm-index query (the authoring loop)."""
    editor = Editor(document, prevalidate=False)
    lines = list(document.elements(tag="line"))
    step = max(1, document.length // edits)
    for i in range(edits):
        kind = i % 3
        if kind == 0:
            editor.insert_milestone("physical", "anchor", (i * step) % document.length)
        elif kind == 1:
            line = lines[i % len(lines)]
            editor.insert_markup("physical", "seg", line.start, line.end)
        else:
            editor.undo()  # take back the wrap: removal via the journal
        NAME_QUERY.nodes(document)  # the warm-index query after the edit


def measure_editing(words: int, edits: int = SESSION_EDITS) -> dict[str, float]:
    """One row of the editing table: incremental vs rebuild-per-edit."""
    spec = WorkloadSpec(words=words, hierarchies=4, overlap_density=DENSITY)
    incremental_doc = generate(spec)
    rebuild_doc = generate(spec)
    incremental = IndexManager.for_document(incremental_doc)
    rebuild = IndexManager(rebuild_doc, incremental=False).attach()

    t0 = time.perf_counter()
    editing_session(incremental_doc, edits)
    incremental_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    editing_session(rebuild_doc, edits)
    rebuild_time = time.perf_counter() - t0
    assert incremental.delta_count > 0 and incremental.build_count == 1
    assert rebuild.build_count > edits // 2  # it really rebuilt per edit
    incremental_doc.detach_index()
    rebuild_doc.detach_index()
    return {
        "words": words,
        "edits": edits,
        "incremental_ms": incremental_time * 1e3,
        "rebuild_ms": rebuild_time * 1e3,
        "speedup": rebuild_time / incremental_time,
    }


def run() -> list[dict[str, float]]:
    return [measure_size(words) for words in SIZES]


def run_editing() -> list[dict[str, float]]:
    return [measure_editing(words) for words in SIZES]


def report(rows: list[dict[str, float]]) -> str:
    lines = [
        "E9 — index speedup (ratios > 1 favor the index)",
        f"{'words':>8} {'name-test':>10} {'contains':>10}",
    ]
    for row in rows:
        lines.append(
            f"{row['words']:>8} {row['name_test']:>9.1f}x "
            f"{row['contains']:>9.1f}x"
        )
    return "\n".join(lines)


def report_editing(rows: list[dict[str, float]]) -> str:
    lines = [
        "E9 — editing session: incremental maintenance vs rebuild-per-edit",
        f"{'words':>8} {'edits':>6} {'incremental':>12} {'rebuild':>10} "
        f"{'speedup':>8}",
    ]
    for row in rows:
        lines.append(
            f"{row['words']:>8} {row['edits']:>6} "
            f"{row['incremental_ms']:>10.1f}ms {row['rebuild_ms']:>8.1f}ms "
            f"{row['speedup']:>7.1f}x"
        )
    return "\n".join(lines)


def test_e9_index_speedup():
    """Acceptance bar: ≥ 2x on at least one query class at the largest
    corpus size (asserted loosely; the printed table records the rest)."""
    rows = run()
    print("\n" + report(rows))
    largest = rows[-1]
    best = max(largest["name_test"], largest["contains"])
    assert best >= 2.0, largest


def test_e9_editing_session():
    """Acceptance bar: incremental index maintenance ≥ 5x faster than
    rebuild-per-edit for a k-edit session at the 8k-word corpus."""
    row = measure_editing(SIZES[-1])
    print("\n" + report_editing([row]))
    assert row["speedup"] >= 5.0, row


if __name__ == "__main__":
    rows = run()
    print(report(rows))
    print()
    editing_rows = run_editing()
    print(report_editing(editing_rows))
