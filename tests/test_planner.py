"""Unit tests for the cost-based XPath query planner.

Pins the planner's access-path choices on synthetic skews (rare vs.
common labels, long vs. short postings), the selectivity ordering of
multi-predicate steps, the positional-predicate safety gates, the
``explain()`` report surface, and — throughout — byte-identical results
between the planned (index-served) and classic evaluation paths.
"""

from __future__ import annotations

import pytest

from repro.core.goddag import GoddagBuilder
from repro.editing import Editor
from repro.index import AttributeIndex, IndexManager
from repro.storage import GoddagStore
from repro.workloads import WorkloadSpec, generate
from repro.xpath import ExtendedXPath, Planner
from repro.xpath.classify import predicate_shape
from repro.xpath.parser import parse_xpath


def snapshot(value):
    if not isinstance(value, list):
        return value
    out = []
    for node in value:
        if getattr(node, "is_element", False):
            out.append((node.hierarchy, node.tag, node.start, node.end,
                        tuple(sorted(node.attributes.items()))))
        else:
            out.append((type(node).__name__, node.start, node.end))
    return out


def assert_equivalent(query: str, document) -> None:
    """Planned (indexed) and classic evaluation answer identically."""
    compiled = ExtendedXPath(query)
    assert snapshot(compiled.evaluate(document)) == \
        snapshot(compiled.evaluate(document, index=False)), query


@pytest.fixture(scope="module")
def manuscript():
    document = generate(WorkloadSpec(words=400, hierarchies=2, seed=5))
    IndexManager.for_document(document)
    return document


class TestAccessPathChoice:
    def test_rare_label_from_root_uses_the_summary(self, manuscript):
        plan = ExtendedXPath("//page").explain(manuscript)
        step = plan.steps[0]
        assert step.choice == "summary"
        assert step.costs["summary"] < step.costs["scan"]
        assert step.served == 1 and step.fallbacks == 0
        assert step.actual_out > 0

    def test_bare_wildcard_scans(self, manuscript):
        plan = ExtendedXPath("//*").explain(manuscript)
        assert plan.steps[0].choice == "scan"
        assert "summary" not in plan.steps[0].costs

    def test_common_label_under_many_contexts_scans(self, manuscript):
        # Every w lies under some s: filtering the full 400-strong w
        # posting once per s context would cost far more than walking
        # each s subtree once.
        plan = ExtendedXPath("//s/descendant::w").explain(manuscript)
        step = plan.steps[1]
        assert step.choice == "scan"
        assert step.costs["scan"] < step.costs["subtree"]
        assert_equivalent("//s/descendant::w", manuscript)

    def test_rare_label_under_few_contexts_uses_label_paths(self, manuscript):
        # pb milestones are one-per-page: the posting is tiny, the page
        # subtrees are large — label-path containment wins.
        plan = ExtendedXPath("//page/descendant::pb").explain(manuscript)
        step = plan.steps[1]
        assert step.choice == "subtree"
        assert step.costs["subtree"] < step.costs["scan"]
        assert step.served > 0 and step.fallbacks == 0
        assert_equivalent("//page/descendant::pb", manuscript)

    def test_short_attribute_posting_drives_the_step(self, manuscript):
        # @n='2' posting (a handful of rows) ≪ the line population.
        plan = ExtendedXPath("//line[@n='2']").explain(manuscript)
        step = plan.steps[0]
        assert step.choice == "attr"
        assert step.attr_key == ("n", "2")
        assert step.costs["attr"] < step.costs["summary"] < step.costs["scan"]
        assert step.actual_out > 0
        assert_equivalent("//line[@n='2']", manuscript)

    def test_positional_predicate_pins_subtree_steps_to_scan(self, manuscript):
        plan = ExtendedXPath("//page/descendant::pb[1]").explain(manuscript)
        step = plan.steps[1]
        assert step.choice == "scan"
        assert "subtree" not in step.costs
        assert_equivalent("//page/descendant::pb[1]", manuscript)

    def test_extension_axis_prefers_candidates_for_rare_tags(self, manuscript):
        plan = ExtendedXPath("//s/overlapping::line").explain(manuscript)
        step = plan.steps[1]
        assert set(step.costs) == {"stab", "overlap"}
        assert_equivalent("//s/overlapping::line", manuscript)

    def test_no_index_plans_scan_only(self):
        document = generate(WorkloadSpec(words=60, hierarchies=2, seed=9))
        plan = ExtendedXPath("//page").explain(document)
        assert not plan.indexed
        assert plan.steps[0].choice == "scan"
        assert "all steps scan" in plan.render()


class TestPredicateOrdering:
    def test_selective_attribute_runs_first(self, manuscript):
        plan = ExtendedXPath(
            "//line[contains(., 'a')][@n='2']"
        ).explain(manuscript)
        step = plan.steps[0]
        assert step.reordered
        assert step.order == (1, 0)
        assert [p.kind for p in step.predicates] == ["contains", "attr-eq"]
        assert step.predicates[1].selectivity < step.predicates[0].selectivity
        assert_equivalent("//line[contains(., 'a')][@n='2']", manuscript)

    def test_positional_predicates_disable_reordering(self, manuscript):
        # The positional [2] also blocks the //-fusion rewrite, so the
        # predicate-carrying step is the trailing child step.
        plan = ExtendedXPath("//line[@n='2'][2]").explain(manuscript)
        step = plan.steps[-1]
        assert not step.reordered and step.order == (0, 1)
        assert step.exact_order_only
        assert_equivalent("//line[@n='2'][2]", manuscript)

    def test_reorder_knob_off_keeps_source_order(self, manuscript):
        planner = Planner(manuscript, manuscript.index_manager, reorder=False)
        ast = ExtendedXPath("//line[contains(., 'a')][@n='2']").ast
        plan = planner.plan(ast)
        assert plan.steps[0].order == (0, 1)
        assert not plan.steps[0].reordered

    def test_rare_literal_ranks_before_common_literal(self, manuscript):
        # 'a' posts thousands of occurrences, 'gar' a few dozen: the
        # shorter posting is the more selective predicate.
        plan = ExtendedXPath(
            "//w[contains(., 'a')][contains(., 'gar')]"
        ).explain(manuscript)
        step = plan.steps[0]
        assert step.reordered and step.order == (1, 0)
        assert_equivalent("//w[contains(., 'a')][contains(., 'gar')]",
                          manuscript)


class TestIndexServedPredicates:
    def test_starts_with_is_index_served_and_exact(self, manuscript):
        plan = ExtendedXPath("//w[starts-with(., 'gar')]").explain(manuscript)
        predicate = plan.steps[0].predicates[0]
        assert predicate.kind == "starts-with" and predicate.index_served
        assert_equivalent("//w[starts-with(., 'gar')]", manuscript)

    def test_non_alphanumeric_prefix_falls_back(self, manuscript):
        plan = ExtendedXPath("//w[starts-with(., 'g r')]").explain(manuscript)
        predicate = plan.steps[0].predicates[0]
        assert predicate.kind == "starts-with" and not predicate.index_served
        assert_equivalent("//w[starts-with(., 'g r')]", manuscript)

    @pytest.mark.parametrize("expression, kind, needle", [
        ("//w[contains(., 'gar')]", "contains", "gar"),
        ("//w[starts-with(., 'gar')]", "starts-with", "gar"),
        ("//w[contains(., 'g r')]", "contains", "g r"),
        ("//line[@n='3']", "attr-eq", None),
        ("//w[@n]", "generic", None),
    ])
    def test_predicate_plan_keeps_its_literal(
        self, manuscript, expression, kind, needle
    ):
        predicate = ExtendedXPath(expression).explain(manuscript) \
            .steps[0].predicates[0]
        assert (predicate.kind, predicate.needle) == (kind, needle)

    def test_batch_filters_read_the_planned_literals(self, manuscript):
        expr = ExtendedXPath("//w[contains(., 'gar')][starts-with(., 'ga')]")
        plan = Planner(manuscript, manuscript.index_manager).plan(expr.ast)
        program = plan.whole_program
        assert program is not None
        assert sorted((f.kind, f.needle) for f in program.filters) == \
            [("contains", "gar"), ("starts-with", "ga")]
        assert_equivalent("//w[contains(., 'gar')][starts-with(., 'ga')]",
                          manuscript)

    def test_attr_predicate_on_unserved_steps_still_shortcuts(self, manuscript):
        assert_equivalent("//line/following-sibling::line[@n='3']",
                          manuscript)

    def test_shape_analyses(self):
        def shape(source):
            return predicate_shape(parse_xpath(source))

        assert shape("starts-with(., 'ab')").kind == "starts-with"
        assert shape("starts-with(., 'ab')").needle == "ab"
        assert shape("starts-with(x, 'ab')").kind == "generic"
        assert shape("@n = '2'").key == ("n", "2")
        assert shape("'2' = @n").key == ("n", "2")
        assert shape("@* = '2'").kind == "generic"
        assert shape("@n = x").kind == "generic"
        assert shape("@n = '2'").reorder_safe
        assert shape("contains(., 'x')").reorder_safe
        assert shape("w").reorder_safe
        assert not shape("2").reorder_safe
        assert not shape("position() = 2").reorder_safe
        assert not shape("last()").reorder_safe
        assert not shape("count(//w)").reorder_safe


class TestTrickyShapesStayByteIdentical:
    """The canonical-order edge cases, under the planner."""

    @pytest.fixture()
    def tricky(self):
        builder = GoddagBuilder("abcdef ghijkl mnopqr")
        builder.add_hierarchy("h")
        builder.add_hierarchy("k")
        builder.add_annotation("h", "a", 1, 5)
        builder.add_annotation("h", "a", 1, 5)      # same-span nesting
        builder.add_annotation("h", "a", 0, 6)      # wraps the chain
        builder.add_annotation("h", "b", 7, 13)
        builder.add_annotation("k", "c", 3, 10)     # overlaps both
        document = builder.build()
        editor = Editor(document)
        editor.insert_milestone("h", "pb", 0)       # at the a-chain start
        editor.insert_milestone("h", "pb", 7)       # at b's start
        editor.set_attribute(next(document.elements(tag="b")), "n", "1")
        IndexManager.for_document(document)
        return document

    @pytest.mark.parametrize("query", [
        "//a/descendant::a",
        "//a/descendant-or-self::a",
        "//a/descendant::pb",
        "//a/descendant-or-self::*",
        "//h:a",
        "//b[@n='1']",
        "//a[@n='1']",
        "//c/overlapping::a",
        "//a/overlapping::c",
        "//a/containing::c",
        "//c/contained::a",
        "//a/coextensive::a",
        "//a/descendant::a[1]",
        "//b/descendant::pb",
    ])
    def test_equivalence(self, tricky, query):
        assert_equivalent(query, tricky)

    def test_subtree_membership_respects_same_span_chains(self, tricky):
        manager = tricky.index_manager
        outer, middle, inner = manager.structural.candidates("a")
        assert manager.structural.is_descendant_of(inner, outer)
        assert manager.structural.is_descendant_of(middle, outer)
        assert not manager.structural.is_descendant_of(outer, inner)
        assert not manager.structural.is_descendant_of(outer, outer)
        members = manager.structural.subtree_candidates(outer, "a")
        assert members == [middle, inner]


class TestAttributeIndex:
    def test_tracks_edits_like_a_rebuild(self):
        document = generate(WorkloadSpec(words=120, hierarchies=2, seed=3))
        manager = IndexManager.for_document(document)
        editor = Editor(document, prevalidate=False)
        line = next(document.elements(tag="line"))
        editor.set_attribute(line, "rev", "x")
        editor.set_attribute(line, "rev", "y")       # value move
        editor.insert_markup("physical", "seg", 0, 9)
        editor.remove_attribute(line, "rev")
        editor.undo()                                 # rev=y back
        rebuilt = AttributeIndex.from_document(document)
        assert manager.attrs.candidates("rev", "y") == \
            rebuilt.candidates("rev", "y")
        assert manager.attrs.posting_length("rev", "x") == 0
        assert manager.attrs.key_count == rebuilt.key_count
        assert manager.attrs.posting_count == rebuilt.posting_count

    def test_root_attribute_edits_match_a_rebuild(self):
        """Postings index elements only; a tracked attribute edit on the
        shared root must not enter incrementally (a rebuild — which
        walks ordered_elements(), root excluded — would drop it)."""
        document = generate(WorkloadSpec(words=60, hierarchies=2, seed=2))
        manager = IndexManager.for_document(document)
        document.set_attribute(document.root, "lang", "en")
        rebuilt = AttributeIndex.from_document(document)
        assert manager.attrs.posting_length("lang", "en") == 0
        assert manager.payload("d")["attrs"] == \
            IndexManager(document).payload("d")["attrs"]
        assert rebuilt.posting_length("lang", "en") == 0

    def test_stats_schema(self):
        document = generate(WorkloadSpec(words=80, hierarchies=2, seed=4))
        manager = IndexManager(document)
        stats = manager.stats()
        assert stats["schema"] == "repro-stats/1"
        assert stats["source"] == "index.manager"
        counts = stats["counts"]
        for key in ("elements", "label_paths", "terms",
                    "postings", "attr_keys", "attr_postings", "builds",
                    "deltas", "stale"):
            assert f"index.{key}" in counts, key
        assert "index.solid_elements" not in counts
        assert counts["index.attr_postings"] >= counts["index.attr_keys"] > 0
        assert counts["index.postings"] >= counts["index.terms"] > 0


class TestExplainSurface:
    def test_every_compiled_query_exposes_explain(self, manuscript):
        for expression in ("//w", "count(//line)", "//s/descendant::w",
                           "3 + 4", "//line[@n='2']/contained::w"):
            plan = ExtendedXPath(expression).explain(manuscript)
            text = plan.render()
            assert text.startswith(f"plan for: {expression}")
            assert str(plan) == text
        assert ExtendedXPath("3 + 4").explain(manuscript).paths == []

    def test_estimates_and_actuals_are_reported(self, manuscript):
        plan = ExtendedXPath("//line[@n='2']").explain(manuscript)
        step = plan.steps[0]
        assert step.est_in == 1.0
        assert step.actual_in == 1
        assert step.actual_out == len(
            ExtendedXPath("//line[@n='2']").nodes(manuscript))
        assert "est rows" in plan.render() and "actual" in plan.render()

    def test_explain_without_execution_has_no_actuals(self, manuscript):
        plan = ExtendedXPath("//w").explain(manuscript, execute=False)
        assert plan.steps[0].actual_in == 0 and plan.steps[0].served == 0

    def test_to_dict_round_trip(self, manuscript):
        plan = ExtendedXPath("//line[@n='2']").explain(manuscript)
        data = plan.to_dict()
        assert data["expression"] == "//line[@n='2']"
        assert data["indexed"] is True
        assert data["paths"][0]["steps"][0]["choice"] == "attr"


class TestStoredAttributeCounts:
    @pytest.mark.parametrize("backend", ["sqlite"])
    def test_count_attribute_indexed_vs_fallback(self, backend, tmp_path):
        document = generate(WorkloadSpec(words=160, hierarchies=3, seed=6))
        with GoddagStore(tmp_path / "s.sqlite") as store:
            store.save(document, "ms")
            unindexed = store.count_attribute("ms", "n", "2")
            assert unindexed == sum(
                1 for e in document.elements()
                if e.attributes.get("n") == "2"
            )
            store.build_index("ms")
            assert store.count_attribute("ms", "n", "2") == unindexed
            assert store.count_attribute("ms", "n", "nope") == 0
            assert store.count_attribute("ms", "nope", "2") == 0
