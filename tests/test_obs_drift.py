"""Estimate-vs-actual drift capture, and EXPLAIN ANALYZE.

The planner guesses per-step cardinalities (``est_out``); the observed
evaluator records what actually came out.  The difference — *drift* —
is the planner's report card.  These tests pin down three properties:

1. A corpus the estimator mis-models (tag frequencies far from the
   summary's assumptions) produces drift records with the right shape.
2. The ring is bounded: it retains the newest ``capacity`` records and
   counts, not stores, the overflow.
3. Observation is inert: results are byte-identical with tracing and
   metrics fully live, and ``explain(analyze=True)`` reports measured
   per-step time and rows without perturbing answers.
"""

from __future__ import annotations

import pytest

import repro.obs as obs
from repro.core.goddag import GoddagBuilder
from repro.index.manager import IndexManager
from repro.obs.drift import DriftRecord, DriftRing
from repro.workloads import WorkloadSpec, generate
from repro.xpath import ExtendedXPath, explain


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    obs.disable()
    yield
    obs.reset()
    obs.disable()


def skewed_document():
    """A corpus where one tag dwarfs the others: label-path summary
    averages mis-estimate per-step fan-out badly."""
    words = " ".join(f"w{i:04d}" for i in range(120))
    builder = GoddagBuilder(words)
    builder.add_hierarchy("physical")
    builder.add_hierarchy("linguistic")
    builder.add_annotation("physical", "page", 0, len(words))
    # One dense region, one empty one.
    offset = 0
    for i, word in enumerate(words.split()):
        end = offset + len(word)
        if i < 100:
            builder.add_annotation("linguistic", "w", offset, end)
        offset = end + 1
    builder.add_annotation("physical", "line", 0, 200)
    builder.add_annotation("physical", "line", 201, len(words))
    return builder.build()


class TestDriftRecord:
    def test_drift_formula(self):
        record = DriftRecord("//w", 0, "descendant", "w", "SUMMARY", 10, 40)
        assert record.drift == pytest.approx((40 - 10) / 40)
        zero = DriftRecord("//w", 0, "descendant", "w", "SUMMARY", 5, 0)
        assert zero.drift == pytest.approx(-5.0)  # max(actual, 1) guard

    def test_to_dict_is_json_ready(self):
        import json

        record = DriftRecord("//w", 1, "child", "line", "STAB", 3, 7)
        payload = json.loads(json.dumps(record.to_dict()))
        assert payload["expression"] == "//w"
        assert payload["drift"] == round(record.drift, 4)


class TestDriftRing:
    def test_bounded_retention_keeps_newest(self):
        ring = DriftRing(capacity=4)
        for i in range(10):
            ring.record(DriftRecord("//x", i, "child", "x", "SCAN", 1, 2))
        assert len(ring) == 4
        assert ring.total_recorded == 10
        assert [r.step_index for r in ring.records()] == [6, 7, 8, 9]
        ring.clear()
        assert len(ring) == 0 and ring.total_recorded == 0


class TestDriftCapture:
    # Evaluation plans, and so records drift, only with an index
    # attached; an unindexed evaluation has no estimates to drift from.

    def test_skewed_corpus_produces_drift_records(self):
        document = skewed_document()
        IndexManager(document).attach()
        queries = ["//w", "//line/contained::w", "//page//w"]
        with obs.tracing():
            for expression in queries:
                ExtendedXPath(expression).nodes(document)
        records = obs.ring.records()
        assert records, "observed evaluation must feed the drift ring"
        assert {r.expression for r in records} <= set(queries)
        # The dense/empty split guarantees at least one mis-estimate.
        assert any(abs(r.drift) > 0.1 for r in records)
        for record in records:
            assert record.axis and record.test and record.choice
            assert record.actual_out >= 0 and record.est_out >= 0

    def test_ring_stays_bounded_under_query_storms(self):
        document = skewed_document()
        IndexManager(document).attach()
        query = ExtendedXPath("//line/contained::w")
        obs.enable()
        reps = 0
        while obs.ring.total_recorded <= obs.ring.capacity:
            query.nodes(document)
            reps += 1
            assert reps < 1000, "drift records never accumulated"
        assert len(obs.ring) == obs.ring.capacity
        assert obs.ring.total_recorded > len(obs.ring)
        report = obs.report()
        assert report["drift"]["retained"] == obs.ring.capacity
        assert report["drift"]["recorded"] == obs.ring.total_recorded

    def test_observation_is_byte_identical(self):
        document = generate(
            WorkloadSpec(words=150, hierarchies=3, overlap_density=0.3))
        queries = ["//w", "//note", "//line/contained::w",
                   "//w[contains(., 'gar')]", "count(//w)",
                   "//page/line[2]"]
        for expression in queries:
            query = ExtendedXPath(expression)
            plain = query.evaluate(document)
            with obs.tracing():
                obs.enable()
                traced = query.evaluate(document)
                obs.disable()
            if isinstance(plain, list):
                plain = [(type(n).__name__, getattr(n, "span", None))
                         for n in plain]
                traced = [(type(n).__name__, getattr(n, "span", None))
                          for n in traced]
            assert plain == traced, expression


class TestExplainAnalyze:
    def test_measured_time_and_drift_in_the_plan(self):
        document = skewed_document()
        plan = explain(document, "//line/contained::w", analyze=True)
        steps = [s for _, plans in plan.paths for s in plans]
        assert steps
        assert any(step.actual_ns > 0 for step in steps)
        assert all(step.actual_out >= 0 for step in steps)
        rendered = plan.render()
        assert "measured:" in rendered and "drift=" in rendered
        payload = plan.to_dict()
        for path in payload["paths"]:
            for step in path["steps"]:
                assert "actual_ns" in step and "drift" in step

    def test_analyze_attaches_the_trace(self):
        document = skewed_document()
        plan = explain(document, "//w", analyze=True)
        assert plan.trace is not None
        names = {span.name for span in plan.trace.walk()}
        assert {"query", "execute", "step", "access-path"} <= names
        (query,) = plan.trace.find("query")
        assert query.attributes["analyze"] is True
        for step in plan.trace.find("step"):
            assert step.attributes["rows_out"] >= 0
            assert step.duration_ns > 0

    def test_analyze_respects_an_installed_tracer(self):
        document = skewed_document()
        with obs.tracing() as tracer:
            plan = explain(document, "//w", analyze=True)
        assert plan.trace is tracer
        assert obs.current_tracer() is None  # context restored

    def test_plain_explain_is_untimed(self):
        document = skewed_document()
        plan = explain(document, "//w")
        steps = [s for _, plans in plan.paths for s in plans]
        assert all(step.actual_ns == 0 for step in steps)
        assert "measured:" not in plan.render()
        assert plan.trace is None
