"""Observation records what runs; it does not change what runs.

A query whose location path compiled to a
:class:`~repro.xpath.planner.BatchProgram` runs that program whether or
not ``repro.obs`` metrics are enabled, a tracer is installed, or the
query runs under ``explain(analyze=True)``.  Observed, the program is
accounted as its path's one step: one context in (the document node),
its rows out, with wall time, spans, metrics and a drift record.  The
answers stay byte-identical to the unobserved run and to the unindexed
engine.
"""

from __future__ import annotations

import pytest

import repro.obs as obs
from repro.index import IndexManager
from repro.sacx.distributed import parse_distributed
from repro.serialize.distributed import export_distributed
from repro.workloads import WorkloadSpec, generate
from repro.xpath import ExtendedXPath, clear_plan_cache
from repro.xpath.planner import BatchProgram

#: The compiled shapes of the ``open-doc-query`` benchmark mix.
COMPILED = (
    "//w",
    "//line[@n='3']",
    "//w[contains(., 'gar')]",
    "//w[starts-with(., 'hwa')]",
    "//quote[overlapping::line]",
    "//line[@n='5'][overlapping::dmg]",
)


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    obs.disable()
    yield
    obs.reset()
    obs.disable()


@pytest.fixture(scope="module")
def document():
    spec = WorkloadSpec(words=2000, hierarchies=5, seed=2005)
    parsed = parse_distributed(export_distributed(generate(spec)))
    IndexManager.for_document(parsed)
    return parsed


@pytest.fixture
def program_runs(monkeypatch):
    """Counts ``BatchProgram.run`` calls and the answers they gave."""
    runs: list[bool] = []
    run = BatchProgram.run

    def counted(self, *args):
        result = run(self, *args)
        runs.append(result is not None)
        return result

    monkeypatch.setattr(BatchProgram, "run", counted)
    return runs


def rows(nodes) -> list[tuple]:
    return [(node.hierarchy, node.tag, node.start, node.end, node.ordinal,
             tuple(sorted(node.attributes.items()))) for node in nodes]


def evaluate_metrics(query, document):
    obs.enable()
    try:
        return query.evaluate(document)
    finally:
        obs.disable()


def evaluate_traced(query, document):
    with obs.tracing():
        return query.evaluate(document)


@pytest.mark.parametrize("expression", COMPILED)
def test_every_compiled_shape_answers_something(document, expression):
    query = ExtendedXPath(expression)
    assert query.explain(document).whole_program is not None
    assert query.evaluate(document)


@pytest.mark.parametrize("observe", [evaluate_metrics, evaluate_traced],
                         ids=["metrics", "tracer"])
@pytest.mark.parametrize("expression", COMPILED)
def test_observed_runs_take_the_program(document, program_runs, expression,
                                        observe):
    query = ExtendedXPath(expression)
    plain = rows(query.evaluate(document))
    unindexed = rows(query.evaluate(document, index=False))
    del program_runs[:]
    observed = rows(observe(query, document))
    assert program_runs == [True], "the compiled program did not answer"
    assert observed == plain == unindexed


@pytest.mark.parametrize("expression", COMPILED)
def test_analyze_runs_the_program_and_accounts_it(document, program_runs,
                                                  expression):
    query = ExtendedXPath(expression)
    plain = rows(query.evaluate(document))
    del program_runs[:]
    plan = query.explain(document, analyze=True)
    assert program_runs == [True]
    (step,) = plan.steps
    assert step.actual_in == 1 and step.served == 1
    assert step.actual_out == len(plain)
    assert step.actual_ns > 0
    (record,) = [r for r in obs.ring.records() if r.expression == expression]
    assert (record.step_index, record.choice) == (0, step.choice)
    assert record.actual_out == len(plain)


def test_metrics_count_the_program_as_one_step(document):
    """One step; its rows examined are the document node plus what the
    kernel read — here the probe: the needle's occurrences and the rows
    it emitted."""
    query = ExtendedXPath("//w[contains(., 'gar')]")
    answer = query.evaluate(document)
    evaluate_metrics(query, document)
    counters = obs.report()["metrics"]["counters"]
    occurrences = document.index_manager.occurrence_array("gar")
    assert counters["xpath.steps"] == 1
    assert counters["xpath.rows_examined"] == \
        1 + len(occurrences) + len(answer)
    assert counters["xpath.rows_produced"] == len(answer)


@pytest.mark.parametrize("expression", [
    "//w[contains(., 'a')]",               # dense needle: the walk
    "//quote[overlapping::line]",          # every candidate row read
    "//line[@n='5'][overlapping::dmg]",    # attr posting, then its rows
])
def test_metrics_count_the_rows_the_kernels_read(document, expression):
    manager = document.index_manager
    plan = ExtendedXPath(expression).explain(document)
    (step,) = plan.steps
    if step.choice == "attr":
        vector = manager.attr_vector(*step.attr_key)
        read = len(vector) + sum(
            element.tag == "line" for element in vector.elements
        )
    elif "contains" in expression:
        vector = manager.candidate_vector("w")
        last = manager.occurrence_array("a")[-1]
        read = min(len(vector),
                   sum(start <= last for start in vector.starts) + 1)
    else:
        read = len(manager.candidate_vector("quote"))
    evaluate_metrics(ExtendedXPath(expression), document)
    counters = obs.report()["metrics"]["counters"]
    assert counters["xpath.rows_examined"] == 1 + read


def test_a_compiled_query_keeps_the_span_shape(document):
    plan = ExtendedXPath("//w").explain(document, analyze=True)
    assert plan.whole_program is not None
    (query,) = plan.trace.roots
    assert query.name == "query"
    (execute,) = query.children
    assert execute.name == "execute"
    (step,) = execute.children
    assert step.name == "step"
    assert step.attributes["choice"] == plan.steps[0].choice
    assert step.attributes["rows_in"] == 1
    assert step.attributes["rows_out"] == plan.steps[0].actual_out > 0
    (access,) = step.children
    assert access.name == "access-path"
    assert access.attributes["served"] == 1
    assert access.attributes["fallbacks"] == 0
    assert access.attributes["rows"] == step.attributes["rows_out"]


@pytest.mark.parametrize("index, hits", [(None, [False, True]),
                                         (False, [False, False])],
                         ids=["indexed", "unindexed"])
def test_traced_plan_span_reports_the_cache_hit(document, index, hits):
    # An unindexed evaluation builds no plan, so it has none to reuse.
    clear_plan_cache()
    query = ExtendedXPath("//line[@n='3']")
    with obs.tracing() as tracer:
        for _ in range(2):
            query.evaluate(document, index=index)
    cached = [span.attributes["cached"] for span in tracer.find("plan")]
    assert cached == hits


def test_a_declined_program_is_marked_and_the_walk_answers(document,
                                                           program_runs):
    expression = f"//{document.root.tag}"
    query = ExtendedXPath(expression)
    plan = query.explain(document, analyze=True)
    assert plan.whole_program is not None and program_runs == [False]
    declined, walked = plan.trace.find("step")
    assert declined.attributes["declined"] is True
    assert "rows_out" not in declined.attributes
    assert walked.attributes["rows_out"] == 1
    assert rows(query.evaluate(document)) == \
        rows(query.evaluate(document, index=False))
