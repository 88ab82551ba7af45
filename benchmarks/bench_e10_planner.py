"""E10 — cost-based planner: predicate reordering and access-path quality.

Three studies on the synthetic corpora of ``workloads/generator.py``:

* **predicate reordering** — multi-predicate queries pairing an
  expensive, unselective generic predicate with a cheap, selective
  index-served one.  The planner evaluates the selective predicate
  first; the baseline is the *same* index-served plan with reordering
  disabled (``Planner(reorder=False)``), so the measured ratio isolates
  the ordering decision from index service itself;
* **new step shapes** — the three shapes this release made
  index-aware (descendant from non-root contexts via label-path
  containment, ``starts-with(., 'lit')``, attribute-value postings)
  must actually hit the index (plan choice + served counters) and
  answer byte-identically to the unindexed engine;
* **plan quality** — for every scenario with at least two priced
  access paths, each alternative is forced and timed; the planner's
  pick must be the empirical winner (within a 1.5x noise band) on
  ≥ 90% of scenarios.

Run standalone for the report tables::

    PYTHONPATH=src python benchmarks/bench_e10_planner.py

or through pytest (the assertions are the acceptance bars: ≥ 2x from
reordering on at least one scenario, all three new shapes index-served,
plan quality ≥ 0.9)::

    PYTHONPATH=src python -m pytest benchmarks/bench_e10_planner.py -q
"""

from __future__ import annotations

import time

from repro.index import IndexManager
from repro.workloads import WorkloadSpec, generate
from repro.xpath import Evaluator, ExtendedXPath, Planner

WORDS = 4000
DENSITY = 0.25

REORDER_QUERIES = (
    # generic-unselective first, index-served-selective second: source
    # order runs the expensive predicate over every candidate.
    "//w[contains(., ', ')][contains(., 'gar')]",
    "//w[contains(., 'a b')][starts-with(., 'gar')]",
    "//line[contains(., ', ')][@n='7']",
)

QUALITY_SCENARIOS = (
    "//page",
    "//w",
    "//pb",
    "//line[@n='7']",
    "//s/descendant::keyword",
    "//s/descendant::w",
    "//page/descendant::line",
    "//page/descendant::pb",
    "//vline/overlapping::line",
    "//line/overlapping::vline",
)


def corpus():
    """The E10 corpus: the standard 4-hierarchy manuscript plus a rare
    ``keyword`` layer (the planner's rare-label-under-context case)."""
    document = generate(
        WorkloadSpec(words=WORDS, hierarchies=4, overlap_density=DENSITY)
    )
    words = [e for e in document.elements(tag="w")]
    for i in range(0, len(words), len(words) // 6):
        document.insert_element(
            "linguistic", "keyword", words[i].start, words[i].end
        )
    manager = IndexManager.for_document(document)
    return document, manager


def best_of(fn, n: int = 5) -> float:
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def evaluate_under(document, plan, ast):
    return Evaluator(document, plan=plan).evaluate(ast)


def measure_reordering(document, manager) -> list[dict]:
    """Per query: the same indexed plan with and without reordering."""
    rows = []
    for expression in REORDER_QUERIES:
        compiled = ExtendedXPath(expression)
        reordered = Planner(document, manager).plan(compiled.ast, expression)
        source = Planner(document, manager, reorder=False).plan(
            compiled.ast, expression
        )
        assert any(step.reordered for _, plans in reordered.paths
                   for step in plans), expression
        fast = best_of(lambda: evaluate_under(document, reordered, compiled.ast))
        slow = best_of(lambda: evaluate_under(document, source, compiled.ast))
        assert evaluate_under(document, reordered, compiled.ast) == \
            evaluate_under(document, source, compiled.ast)
        rows.append({
            "query": expression,
            "reordered_ms": fast * 1e3,
            "source_ms": slow * 1e3,
            "speedup": slow / fast,
        })
    return rows


def check_new_shapes(document, manager) -> list[dict]:
    """The three new index-aware step shapes must hit the index and
    answer byte-identically to the unindexed engine."""
    cases = [
        ("//s/descendant::keyword", "subtree"),
        ("//line[@n='7']", "attr"),
        ("//w[starts-with(., 'gar')]", "summary"),
    ]
    rows = []
    for expression, expected_choice in cases:
        compiled = ExtendedXPath(expression)
        plan = compiled.explain(document)
        choices = plan.choices()
        assert expected_choice in choices, (expression, choices)
        served = sum(step.served for _, plans in plan.paths for step in plans)
        assert served > 0, expression
        indexed = compiled.evaluate(document)
        assert indexed == compiled.evaluate(document, index=False)
        if expression.startswith("//w[starts-with"):
            predicate = plan.steps[0].predicates[0]
            assert predicate.kind == "starts-with" and predicate.index_served
        indexed_time = best_of(lambda: compiled.evaluate(document))
        plain_time = best_of(
            lambda: compiled.evaluate(document, index=False)
        )
        rows.append({
            "query": expression,
            "choice": expected_choice,
            "rows": len(indexed),
            "indexed_ms": indexed_time * 1e3,
            "unindexed_ms": plain_time * 1e3,
            "speedup": plain_time / indexed_time,
        })
    return rows


def measure_quality(document, manager) -> list[dict]:
    """Force every priced alternative of every scenario and time it;
    the planner's pick should be the empirical winner (1.5x band)."""
    rows = []
    for expression in QUALITY_SCENARIOS:
        compiled = ExtendedXPath(expression)
        plan = Planner(document, manager).plan(compiled.ast, expression)
        # The interesting step: the most contested one (most priced
        # alternatives), preferring later steps — step 1 of a //x/...
        # path is usually a foregone summary-vs-scan call.
        contested = [
            step
            for _, plans in plan.paths
            for step in plans
            if len(step.costs) > 1
        ]
        if not contested:
            continue
        candidate_step = max(
            enumerate(contested), key=lambda pair: (len(pair[1].costs), pair[0])
        )[1]
        chosen = candidate_step.choice
        timings: dict[str, float] = {}
        for alternative in candidate_step.costs:
            candidate_step.choice = alternative
            timings[alternative] = best_of(
                lambda: evaluate_under(document, plan, compiled.ast), n=3
            )
        candidate_step.choice = chosen
        best_name = min(timings, key=timings.get)
        rows.append({
            "query": expression,
            "chosen": chosen,
            "best": best_name,
            "chosen_ms": timings[chosen] * 1e3,
            "best_ms": timings[best_name] * 1e3,
            "win": timings[chosen] <= timings[best_name] * 1.5,
        })
    return rows


def report_reordering(rows) -> str:
    lines = [
        "E10 — predicate reordering (same plan, ordering on vs off)",
        f"{'query':<48} {'reordered':>10} {'source':>10} {'speedup':>8}",
    ]
    for row in rows:
        lines.append(
            f"{row['query']:<48} {row['reordered_ms']:>8.2f}ms "
            f"{row['source_ms']:>8.2f}ms {row['speedup']:>7.1f}x"
        )
    return "\n".join(lines)


def report_shapes(rows) -> str:
    lines = [
        "E10 — new index-served step shapes (vs unindexed engine)",
        f"{'query':<32} {'choice':>8} {'rows':>5} {'indexed':>9} "
        f"{'unindexed':>10} {'speedup':>8}",
    ]
    for row in rows:
        lines.append(
            f"{row['query']:<32} {row['choice']:>8} {row['rows']:>5} "
            f"{row['indexed_ms']:>7.2f}ms {row['unindexed_ms']:>8.2f}ms "
            f"{row['speedup']:>7.1f}x"
        )
    return "\n".join(lines)


def report_quality(rows) -> str:
    wins = sum(row["win"] for row in rows)
    lines = [
        f"E10 — plan quality: {wins}/{len(rows)} scenarios won "
        "(1.5x noise band)",
        f"{'query':<32} {'chosen':>8} {'best':>8} {'chosen':>9} {'best':>9}",
    ]
    for row in rows:
        marker = " " if row["win"] else " *LOST*"
        lines.append(
            f"{row['query']:<32} {row['chosen']:>8} {row['best']:>8} "
            f"{row['chosen_ms']:>7.2f}ms {row['best_ms']:>7.2f}ms{marker}"
        )
    return "\n".join(lines)


def test_e10_predicate_reordering():
    """Acceptance bar: ≥ 2x on at least one multi-predicate scenario
    from selectivity-ordered predicate evaluation alone."""
    document, manager = corpus()
    rows = measure_reordering(document, manager)
    print("\n" + report_reordering(rows))
    assert max(row["speedup"] for row in rows) >= 2.0, rows


def test_e10_new_shapes_hit_the_index():
    """Acceptance bar: non-root descendant, starts-with, and
    attribute-value steps are index-served and byte-identical."""
    document, manager = corpus()
    rows = check_new_shapes(document, manager)
    print("\n" + report_shapes(rows))


def test_e10_plan_quality():
    """Acceptance bar: the planner picks the empirically winning access
    path on ≥ 90% of multi-choice scenarios."""
    document, manager = corpus()
    rows = measure_quality(document, manager)
    print("\n" + report_quality(rows))
    wins = sum(row["win"] for row in rows)
    assert rows and wins / len(rows) >= 0.9, report_quality(rows)


if __name__ == "__main__":
    doc, mgr = corpus()
    reorder_rows = measure_reordering(doc, mgr)
    print(report_reordering(reorder_rows))
    print()
    shape_rows = check_new_shapes(doc, mgr)
    print(report_shapes(shape_rows))
    print()
    quality_rows = measure_quality(doc, mgr)
    print(report_quality(quality_rows))
