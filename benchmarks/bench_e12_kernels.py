"""E12 — batch kernels and the compiled-plan cache.

Three studies on the standard synthetic corpora:

* **batch vs object walk** — the hot query shapes of E9/E10 evaluated
  twice under the *same* cost-based plan choices: once through the flat
  ``array('q')`` kernels (``BatchProgram`` over ``CandidateVector``
  columns), once through the classic per-node object walk
  (``Planner(batch=False)``), so the measured ratio isolates the kernel
  layer from planning.  The heavy shapes (full name scan, ``contains``,
  ``starts-with`` — the ones E9/E10 spend their time in) must clear
  ≥ 5x at the largest size; the micro shapes (already tens of
  microseconds before this layer) must clear ≥ 2x.  Every pair of runs
  must return byte-identical node lists;
* **overlap predicates** — ``A[overlapping::B]`` from the structural
  summary and ``A[@n='5'][overlapping::B]`` from an attribute posting,
  answered by the boundary-column kernel (``rows_overlapping`` over
  ``IndexManager.overlap_bounds``) vs the per-candidate stab path of
  the classic engine (``index=False``) in the same process.  Both must
  return byte-identical node lists and clear ≥ 5x at the largest size;
* **probe vs walk** — the two exact term kernels on the same whole
  ``w`` vector: the occurrence-driven probe (``probe_span_contains``,
  ``probe_span_starts_with``) vs the merge walk over every row
  (``rows_span_contains``, ``rows_span_starts_with``).  Both must
  return identical rows, and the probe must clear ≥ 2x at the largest
  size for a needle that is sparse against the vector;
* **compiled-plan cache** — a repeated one-shot query served from the
  process-wide plan cache vs the same query re-parsed and re-planned
  every call (cache cleared between calls).

Run standalone for the report tables::

    PYTHONPATH=src python benchmarks/bench_e12_kernels.py

or through pytest (the assertions are the acceptance bars)::

    PYTHONPATH=src python -m pytest benchmarks/bench_e12_kernels.py -q
"""

from __future__ import annotations

import time

from repro.index import IndexManager
from repro.index.kernels import (
    probe_span_contains,
    probe_span_starts_with,
    rows_span_contains,
    rows_span_starts_with,
)
from repro.workloads import WorkloadSpec, generate
from repro.xpath import Evaluator, ExtendedXPath, Planner, clear_plan_cache
from repro.xpath import xpath as xpath_once

SIZES = (2000, 8000)
DENSITY = 0.25

#: (expression, speedup floor at the largest size).  The heavy shapes
#: carry the ≥ 5x acceptance bar; the micro shapes run in microseconds
#: either way, so their bar only guards against the kernels losing.
HOT_QUERIES = (
    ("//w", 5.0),
    ("//w[contains(., 'gar')]", 5.0),
    ("//w[starts-with(., 'gar')]", 5.0),
    ("//page", 2.0),
    ("//line[@n='7']", 2.0),
)

#: (expression, speedup floor at the largest size) of the overlap arm.
OVERLAP_QUERIES = (
    ("//dmg[overlapping::line]", 5.0),
    ("//line[@n='5'][overlapping::dmg]", 5.0),
)

CACHE_QUERY = "//line[@n='7']"

#: The probe-vs-walk arm: (filter, probe kernel, walk kernel), run on the
#: whole ``w`` vector with a needle that is sparse against it.
KERNEL_PAIRS = (
    ("contains", probe_span_contains, rows_span_contains),
    ("starts-with", probe_span_starts_with, rows_span_starts_with),
)
KERNEL_NEEDLE = "gar"
KERNEL_FLOOR = 2.0
KERNEL_REPEATS = 31


def corpus(words: int):
    document = generate(
        WorkloadSpec(words=words, hierarchies=4, overlap_density=DENSITY)
    )
    document.ordered_elements()  # pre-warm the shared order cache
    manager = IndexManager(document).attach()
    return document, manager


def best_of(fn, n: int = 5) -> float:
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def measure_batch(document, manager, words: int) -> list[dict]:
    """Kernel path vs object walk under identical plan choices."""
    rows = []
    for expression, floor in HOT_QUERIES:
        compiled = ExtendedXPath(expression)
        object_plan = Planner(document, manager, batch=False).plan(
            compiled.ast, expression
        )
        batch = compiled.nodes(document)
        walked = Evaluator(document, plan=object_plan).evaluate(compiled.ast)
        assert len(batch) == len(walked) and all(
            a is b for a, b in zip(batch, walked)
        ), expression
        batch_plan = Planner(document, manager).plan(
            compiled.ast, expression
        )
        assert batch_plan.whole_program is not None, expression
        compiled.nodes(document)  # warm the vector snapshots
        batch_time = best_of(lambda: compiled.nodes(document))
        object_time = best_of(
            lambda: Evaluator(document, plan=object_plan).evaluate(
                compiled.ast
            )
        )
        rows.append({
            "query": expression,
            "words": words,
            "floor": floor,
            "rows": len(batch),
            "batch_ms": batch_time * 1e3,
            "object_ms": object_time * 1e3,
            "speedup": object_time / batch_time,
        })
    return rows


def measure_overlap(document, manager, words: int) -> list[dict]:
    """Overlap-predicate programs vs the classic per-candidate stabs."""
    rows = []
    for expression, floor in OVERLAP_QUERIES:
        compiled = ExtendedXPath(expression)
        plan = Planner(document, manager).plan(compiled.ast, expression)
        assert plan.whole_program is not None, expression
        served = compiled.nodes(document)
        stabbed = compiled.nodes(document, index=False)
        assert served, expression
        assert len(served) == len(stabbed) and all(
            a is b for a, b in zip(served, stabbed)
        ), expression
        served_time = best_of(lambda: compiled.nodes(document))
        stab_time = best_of(lambda: compiled.nodes(document, index=False))
        rows.append({
            "query": expression,
            "words": words,
            "floor": floor,
            "rows": len(served),
            "batch_ms": served_time * 1e3,
            "object_ms": stab_time * 1e3,
            "speedup": stab_time / served_time,
        })
    return rows


def measure_kernels(manager, words: int) -> list[dict]:
    """The probe and the walk on the same whole ``w`` vector."""
    vector = manager.candidate_vector("w")
    assert vector.ends_sorted(), "the w vector must admit the probe"
    occurrences = manager.occurrence_array(KERNEL_NEEDLE)
    size = len(KERNEL_NEEDLE)
    rows = []
    for label, probe, walk in KERNEL_PAIRS:
        def probed():
            return probe(vector.starts, vector.ends, occurrences, size)

        def walked():
            return walk(vector.starts, vector.ends, occurrences, size,
                        vector.all_rows())

        answer = probed()
        assert answer == walked(), label
        # The arms alternate, so a slow phase of the machine lands on
        # both instead of deciding their ratio.
        probe_times, walk_times = [], []
        for _ in range(KERNEL_REPEATS):
            probe_times.append(best_of(probed, n=1))
            walk_times.append(best_of(walked, n=1))
        probe_time, walk_time = min(probe_times), min(walk_times)
        rows.append({
            "query": f"{label}(., {KERNEL_NEEDLE!r}) on //w",
            "words": words,
            "floor": KERNEL_FLOOR,
            "rows": len(answer),
            "occurrences": len(occurrences),
            "batch_ms": probe_time * 1e3,
            "object_ms": walk_time * 1e3,
            "speedup": walk_time / probe_time,
        })
    return rows


def measure_plan_cache(document, words: int) -> dict:
    """One-shot queries with the plan cache vs re-compiling every call."""
    clear_plan_cache()
    xpath_once(document, CACHE_QUERY)  # prime
    cached_time = best_of(lambda: xpath_once(document, CACHE_QUERY), n=7)

    def cold():
        clear_plan_cache()
        xpath_once(document, CACHE_QUERY)

    cold_time = best_of(cold, n=7)
    clear_plan_cache()
    return {
        "words": words,
        "query": CACHE_QUERY,
        "cached_ms": cached_time * 1e3,
        "cold_ms": cold_time * 1e3,
        "speedup": cold_time / cached_time,
    }


def report_batch(
    rows,
    title: str = "E12 — batch kernels vs object walk (same plan choices)",
    baseline: str = "object",
    served: str = "batch",
) -> str:
    lines = [
        title,
        f"{'query':<34} {'words':>6} {'rows':>6} {baseline:>10} "
        f"{served:>10} {'speedup':>8}",
    ]
    for row in rows:
        lines.append(
            f"{row['query']:<34} {row['words']:>6} {row['rows']:>6} "
            f"{row['object_ms']:>8.3f}ms {row['batch_ms']:>8.3f}ms "
            f"{row['speedup']:>7.1f}x"
        )
    return "\n".join(lines)


def report_overlap(rows) -> str:
    return report_batch(
        rows, "E12 — overlap predicates: boundary kernel vs stab path",
        "stab",
    )


def report_kernels(rows) -> str:
    return report_batch(
        rows, "E12 — term kernels: occurrence probe vs row walk (same "
        "vector)", "walk", "probe",
    )


def report_cache(rows) -> str:
    lines = [
        "E12 — compiled-plan cache (one-shot xpath, cached vs cold)",
        f"{'words':>6} {'cold':>10} {'cached':>10} {'speedup':>8}",
    ]
    for row in rows:
        lines.append(
            f"{row['words']:>6} {row['cold_ms']:>8.3f}ms "
            f"{row['cached_ms']:>8.3f}ms {row['speedup']:>7.1f}x"
        )
    return "\n".join(lines)


def run_all() -> tuple[list[dict], list[dict]]:
    batch_rows: list[dict] = []
    cache_rows: list[dict] = []
    for words in SIZES:
        document, manager = corpus(words)
        batch_rows.extend(measure_batch(document, manager, words))
        cache_rows.append(measure_plan_cache(document, words))
    return batch_rows, cache_rows


def run_kernels() -> list[dict]:
    rows: list[dict] = []
    for words in SIZES:
        _document, manager = corpus(words)
        rows.extend(measure_kernels(manager, words))
    return rows


def run_overlap() -> list[dict]:
    rows: list[dict] = []
    for words in SIZES:
        rows.extend(measure_overlap(*corpus(words), words))
    return rows


def test_e12_kernel_speedup_and_identity():
    """Acceptance bar: the heavy E9/E10 shapes clear ≥ 5x through the
    kernel path at the largest size, results byte-identical."""
    batch_rows, cache_rows = run_all()
    print("\n" + report_batch(batch_rows))
    print("\n" + report_cache(cache_rows))
    largest = [row for row in batch_rows if row["words"] == max(SIZES)]
    for row in largest:
        assert row["speedup"] >= row["floor"], report_batch(largest)
    for row in cache_rows:
        assert row["speedup"] >= 2.0, report_cache(cache_rows)


def test_e12_overlap_kernel_speedup_and_identity():
    """Acceptance bar: overlap predicates through the boundary kernel
    clear ≥ 5x over the per-candidate stab path at the largest size,
    results byte-identical."""
    rows = run_overlap()
    print("\n" + report_overlap(rows))
    for row in rows:
        if row["words"] == max(SIZES):
            assert row["speedup"] >= row["floor"], report_overlap(rows)


def test_e12_probe_kernel_speedup_and_identity():
    """Acceptance bar: on the same whole ``w`` vector the occurrence
    probe returns the walk's rows and clears ≥ 2x at the largest size,
    for ``contains`` and ``starts-with`` alike."""
    rows = run_kernels()
    print("\n" + report_kernels(rows))
    for row in rows:
        if row["words"] == max(SIZES):
            assert row["speedup"] >= row["floor"], report_kernels(rows)


if __name__ == "__main__":
    rows = run_all()
    overlap_rows = run_overlap()
    kernel_rows = run_kernels()
    print(report_batch(rows[0]))
    print()
    print(report_overlap(overlap_rows))
    print()
    print(report_kernels(kernel_rows))
    print()
    print(report_cache(rows[1]))
