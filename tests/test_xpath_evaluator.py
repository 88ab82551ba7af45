"""Unit and integration tests for the Extended XPath evaluator.

The fixture mirrors the paper's Figure 1: an Old English manuscript
fragment with physical (line/pb), linguistic (s/w), and editorial
(restoration/damage) hierarchies in genuine conflict.
"""

import math

import pytest

from repro import GoddagBuilder
from repro.errors import XPathEvaluationError
from repro.xpath import ExtendedXPath, xpath
from repro.xpath.axes import AttributeNode
from repro.xpath.parser import MAX_DEPTH


TEXT = "swa hwilc swa thas boc raet and raede"
#       0123456789...


def figure_one_doc():
    builder = GoddagBuilder(TEXT)
    builder.add_hierarchy("phys")
    builder.add_hierarchy("ling")
    builder.add_hierarchy("edit")
    builder.add_annotation("phys", "line", 0, 18, {"n": "1"})
    builder.add_annotation("phys", "line", 19, 37, {"n": "2"})
    builder.add_annotation("ling", "s", 0, 37)
    builder.add_annotation("ling", "w", 0, 3)            # swa
    builder.add_annotation("ling", "w", 4, 9)            # hwilc
    builder.add_annotation("ling", "w", 10, 13)          # swa
    builder.add_annotation("ling", "w", 14, 18)          # thas
    builder.add_annotation("ling", "w", 19, 22)          # boc
    builder.add_annotation("ling", "w", 23, 27)          # raet
    builder.add_annotation("edit", "res", 14, 22)        # thas boc (crosses lines)
    builder.add_annotation("edit", "dmg", 28, 37)        # and raede
    builder.add_annotation("phys", "pb", 19, 19, {"folio": "36v"})
    return builder.build()


@pytest.fixture()
def doc():
    return figure_one_doc()


def tags(nodes):
    return [n.tag for n in nodes]


class TestBasicSelection:
    def test_descendant_name(self, doc):
        assert len(xpath(doc, "//w")) == 6

    def test_absolute_child_path(self, doc):
        assert tags(xpath(doc, "/r/line")) == ["line", "line"]

    def test_root_selection(self, doc):
        result = xpath(doc, "/r")
        assert len(result) == 1 and result[0].is_root

    def test_document_node(self, doc):
        result = xpath(doc, "/")
        assert len(result) == 1

    def test_wildcard(self, doc):
        # top-level: line, line, s, res, dmg — pb nests inside line 2.
        assert len(xpath(doc, "/r/*")) == 5

    def test_positional_predicate(self, doc):
        line2 = xpath(doc, "//line[2]")[0]
        assert line2.get("n") == "2"

    def test_last(self, doc):
        assert xpath(doc, "//w[last()]")[0].text == "raet"

    def test_attribute_predicate(self, doc):
        assert xpath(doc, "//line[@n='2']")[0].start == 19

    def test_attribute_axis(self, doc):
        values = xpath(doc, "//line/@n")
        assert [a.value for a in values] == ["1", "2"]
        assert all(isinstance(a, AttributeNode) for a in values)

    def test_text_nodes(self, doc):
        texts = xpath(doc, "//w[1]/text()")
        assert [leaf.text for leaf in texts] == ["swa"]

    def test_hierarchy_qualified(self, doc):
        assert len(xpath(doc, "//ling:*")) == 7
        assert len(xpath(doc, "//phys:*")) == 3
        assert xpath(doc, "//edit:res") == xpath(doc, "//res")

    def test_union(self, doc):
        both = xpath(doc, "//res | //dmg")
        assert tags(both) == ["res", "dmg"]

    def test_path_after_filter(self, doc):
        words = xpath(doc, "(//line)[2]/contained::w")
        assert [w.text for w in words] == ["boc", "raet"]


class TestClassicalAxesOnGoddag:
    def test_parent_single_hierarchy(self, doc):
        parents = xpath(doc, "//w[5]/parent::*")
        assert tags(parents) == ["s"]

    def test_leaf_has_multiple_parents(self, doc):
        # The leaf "boc" is covered by line2 (phys), w (ling), res (edit).
        parents = xpath(doc, "//w[5]/text()/parent::*")
        assert sorted(tags(parents)) == ["line", "res", "w"]

    def test_ancestor_crosses_to_root(self, doc):
        ancestors = xpath(doc, "//w[1]/ancestor::*")
        assert tags(ancestors) == ["r", "s"]

    def test_ancestor_of_leaf_unions_hierarchies(self, doc):
        ancestors = xpath(doc, "//w[5]/text()/ancestor::*")
        assert sorted(tags(ancestors)) == ["line", "r", "res", "s", "w"]

    def test_following_excludes_overlapping(self, doc):
        # res [14,22) overlaps line1 and line2; it follows neither.
        following = xpath(doc, "//res/following::*")
        assert "line" not in tags(following)
        assert "dmg" in tags(following)

    def test_preceding_mirror(self, doc):
        preceding = xpath(doc, "//dmg/preceding::w")
        assert len(preceding) == 6

    def test_following_sibling(self, doc):
        siblings = xpath(doc, "//w[1]/following-sibling::w")
        assert len(siblings) == 5

    def test_preceding_sibling_position_is_proximity(self, doc):
        # nearest preceding sibling first
        nearest = xpath(doc, "//w[3]/preceding-sibling::w[1]")
        assert nearest[0].text == "hwilc"

    def test_descendant_stays_in_hierarchy(self, doc):
        # line2 has only pb as descendant (w's belong to ling).
        descendants = xpath(doc, "//line[2]/descendant::*")
        assert tags(descendants) == ["pb"]

    def test_self(self, doc):
        assert tags(xpath(doc, "//res/self::res")) == ["res"]
        assert xpath(doc, "//res/self::dmg") == []


class TestExtensionAxes:
    def test_overlapping(self, doc):
        over = xpath(doc, "//res/overlapping::*")
        assert tags(over) == ["line", "line"]

    def test_overlapping_is_symmetric(self, doc):
        assert tags(xpath(doc, "//line[1]/overlapping::res")) == ["res"]
        assert tags(xpath(doc, "//res/overlapping::line")) == ["line", "line"]

    def test_overlapping_left_right(self, doc):
        # line1 [0,18) straddles res's start: left-overlap of res.
        assert xpath(doc, "//res/overlapping-left::line")[0].get("n") == "1"
        # line2 [19,37) straddles res's end.
        assert xpath(doc, "//res/overlapping-right::line")[0].get("n") == "2"

    def test_containing(self, doc):
        containing = xpath(doc, "//w[5]/containing::*")
        assert sorted(tags(containing)) == ["line", "res"]

    def test_contained(self, doc):
        contained = xpath(doc, "//line[1]/contained::w")
        assert len(contained) == 4

    def test_contained_does_not_include_overlapping(self, doc):
        contained = xpath(doc, "//line[1]/contained::*")
        assert "res" not in tags(contained)

    def test_coextensive(self, doc):
        builder = GoddagBuilder("abcd")
        builder.add_hierarchy("h1")
        builder.add_hierarchy("h2")
        builder.add_annotation("h1", "a", 0, 4)
        builder.add_annotation("h2", "b", 0, 4)
        d = builder.build()
        assert tags(xpath(d, "//a/coextensive::*")) == ["b"]

    def test_overlap_query_of_the_demo(self, doc):
        """The demo's motivating query: overlapping content given two
        tags — which words does the restoration cut across?"""
        result = xpath(doc, "//res/overlapping::line/contained::w")
        assert len(result) == 6  # all words inside either line

    def test_zero_width_never_overlaps(self, doc):
        assert xpath(doc, "//pb/overlapping::*") == []


class TestFunctions:
    def test_count_and_arith(self, doc):
        assert xpath(doc, "count(//w) * 2") == 12.0

    def test_string_value_of_element(self, doc):
        assert xpath(doc, "string(//res)") == "thas boc"

    def test_concat_contains(self, doc):
        assert xpath(doc, "concat('a', 'b')") == "ab"
        assert xpath(doc, "contains(string(//dmg), 'raede')") is True

    def test_normalize_space(self, doc):
        assert xpath(doc, "normalize-space('  a   b  ')") == "a b"

    def test_translate(self, doc):
        assert xpath(doc, "translate('abc', 'ab', 'BA')") == "BAc"
        assert xpath(doc, "translate('abc', 'c', '')") == "ab"

    def test_substring_family(self, doc):
        assert xpath(doc, "substring('12345', 2)") == "2345"
        assert xpath(doc, "substring-before('a=b', '=')") == "a"
        assert xpath(doc, "substring-after('a=b', '=')") == "b"

    def test_numbers(self, doc):
        assert xpath(doc, "floor(2.7)") == 2.0
        assert xpath(doc, "ceiling(2.1)") == 3.0
        assert xpath(doc, "round(2.5)") == 3.0
        assert xpath(doc, "number('42')") == 42.0
        assert math.isnan(xpath(doc, "number('nope')"))

    def test_boolean_logic(self, doc):
        assert xpath(doc, "true() and not(false())") is True
        assert xpath(doc, "boolean(//nothing)") is False

    def test_div_mod(self, doc):
        assert xpath(doc, "7 div 2") == 3.5
        assert xpath(doc, "7 mod 2") == 1.0

    def test_hierarchy_function(self, doc):
        assert xpath(doc, "hierarchy(//res)") == "edit"

    def test_span_functions(self, doc):
        assert xpath(doc, "start(//res)") == 14.0
        assert xpath(doc, "end(//res)") == 22.0
        assert xpath(doc, "span-length(//res)") == 8.0

    def test_overlap_text_function(self, doc):
        res = xpath(doc, "//res")[0]
        value = ExtendedXPath("overlap-text(//line[1])").evaluate(doc, res)
        assert value == "thas"

    def test_overlaps_predicate(self, doc):
        crossing = xpath(doc, "//w[overlaps(//res)]")
        assert crossing == []  # every word nests inside or outside res
        crossing_lines = xpath(doc, "//line[overlaps(//res)]")
        assert len(crossing_lines) == 2

    def test_leaf_count(self, doc):
        assert xpath(doc, "leaf-count(//res)") == 3.0  # thas | ' ' pb boc

    def test_name_function(self, doc):
        assert xpath(doc, "name(//res)") == "res"

    def test_sum(self, doc):
        builder = GoddagBuilder("1 22 333")
        builder.add_hierarchy("h")
        builder.add_annotation("h", "n", 0, 1)
        builder.add_annotation("h", "n", 2, 4)
        builder.add_annotation("h", "n", 5, 8)
        assert xpath(builder.build(), "sum(//n)") == 356.0

    def test_unknown_function(self, doc):
        with pytest.raises(XPathEvaluationError):
            xpath(doc, "frobnicate(//w)")


class TestXPathNumericEdgeCases:
    """XPath 1.0 section 4.2/4.4 results for NaN and infinite arguments."""

    def test_substring_with_infinite_length_keeps_everything(self, doc):
        assert xpath(doc, 'substring("12345", -42, 1 div 0)') == "12345"

    def test_substring_with_nan_start_is_empty(self, doc):
        assert xpath(doc, 'substring("12345", 0 div 0)') == ""

    def test_substring_rounds_half_up(self, doc):
        assert xpath(doc, 'substring("12345", 1.5, 2.6)') == "234"
        assert xpath(doc, 'substring("12345", 2.5, 1)') == "3"

    def test_substring_from_minus_infinity(self, doc):
        assert xpath(doc, 'substring("12345", -1 div 0)') == "12345"
        assert xpath(doc, 'substring("12345", -1 div 0, 1 div 0)') == ""

    def test_floor_of_nan_is_nan(self, doc):
        assert math.isnan(xpath(doc, "floor(0 div 0)"))

    def test_ceiling_of_nan_is_nan(self, doc):
        assert math.isnan(xpath(doc, "ceiling(0 div 0)"))

    def test_floor_of_infinity_is_infinity(self, doc):
        assert xpath(doc, "floor(1 div 0)") == math.inf
        assert xpath(doc, "floor(-1 div 0)") == -math.inf

    def test_ceiling_of_infinity_is_infinity(self, doc):
        assert xpath(doc, "ceiling(1 div 0)") == math.inf
        assert xpath(doc, "ceiling(-1 div 0)") == -math.inf


class TestArity:
    """A built-in called with the wrong number of arguments raises
    XPathEvaluationError (one arity table, checked by the evaluator)."""

    @pytest.mark.parametrize("expression", [
        "boolean()",
        "not()",
        "count()",
        'starts-with("a")',
        "contains(1)",
        'contains(., "a", "b")',
        'translate("a")',
        'concat("a")',
        "element-by-id()",
        "last(1)",
    ])
    def test_wrong_arity_raises(self, doc, expression):
        with pytest.raises(XPathEvaluationError, match="argument"):
            xpath(doc, expression)

    def test_wrong_arity_inside_a_predicate_raises_with_an_index(self, doc):
        from repro.index import IndexManager

        IndexManager.for_document(doc)
        for index in (None, False):
            with pytest.raises(XPathEvaluationError):
                ExtendedXPath(
                    "//line[contains(., 'a', 'b')][@n='9']"
                ).evaluate(doc, index=index)

    def test_registered_functions_are_not_checked(self, doc):
        from repro.xpath import FUNCTIONS, register_function

        register_function("arity-free", lambda context, args: float(len(args)))
        try:
            assert xpath(doc, "arity-free(1, 2, 3)") == 3.0
        finally:
            del FUNCTIONS["arity-free"]


class TestComparisonSemantics:
    def test_nodeset_equals_string_is_existential(self, doc):
        assert xpath(doc, "//w = 'boc'") is True
        assert xpath(doc, "//w = 'zebra'") is False

    def test_nodeset_notequals_is_existential_too(self, doc):
        # Some word differs from 'boc', so both = and != hold.
        assert xpath(doc, "//w != 'boc'") is True

    def test_number_comparison_with_nodeset(self, doc):
        builder = GoddagBuilder("5 10 15")
        builder.add_hierarchy("h")
        for start, end in ((0, 1), (2, 4), (5, 7)):
            builder.add_annotation("h", "n", start, end)
        d = builder.build()
        assert xpath(d, "//n > 12") is True
        assert xpath(d, "//n > 15") is False

    def test_empty_nodeset_comparisons(self, doc):
        assert xpath(doc, "//nothing = 'x'") is False
        assert xpath(doc, "//nothing != 'x'") is False


class TestEngineFacade:
    def test_compiled_reuse(self, doc):
        query = ExtendedXPath("//w")
        assert len(query.nodes(doc)) == 6
        assert query.first(doc).text == "swa"
        assert query.exists(doc)

    def test_nodes_type_error(self, doc):
        with pytest.raises(TypeError):
            ExtendedXPath("count(//w)").nodes(doc)

    def test_context_node_evaluation(self, doc):
        line2 = xpath(doc, "//line[2]")[0]
        words = ExtendedXPath("contained::w").nodes(doc, line2)
        assert [w.text for w in words] == ["boc", "raet"]

    def test_relative_vs_absolute_from_context(self, doc):
        line2 = xpath(doc, "//line[2]")[0]
        assert len(ExtendedXPath("//w").nodes(doc, line2)) == 6

    def test_index_true_uses_the_attached_manager(self, doc):
        from repro.index.manager import IndexManager

        manager = IndexManager.for_document(doc)
        query = ExtendedXPath("//line[@n='2']")
        want = query.evaluate(doc, index=False)
        assert query.evaluate(doc, index=True) == want
        assert query.evaluate(doc, index=manager) == want
        assert query.explain(doc, index=True, execute=False).to_dict() \
            == query.explain(doc, execute=False).to_dict()


class TestVariables:
    def test_variable_in_comparison(self, doc):
        value = ExtendedXPath("count(//w) = $n").evaluate(
            doc, variables={"n": 6.0}
        )
        assert value is True

    def test_variable_as_path_start(self, doc):
        res = xpath(doc, "//res")
        words = ExtendedXPath("$r/contained::w").nodes(
            doc, variables={"r": res}
        )
        assert [w.text for w in words] == ["thas", "boc"]

    def test_unbound_variable_raises(self, doc):
        with pytest.raises(XPathEvaluationError):
            ExtendedXPath("$ghost").evaluate(doc)


class TestDeepestAcceptedExpressions:
    """Every AST the parser accepts runs through the recursive passes —
    optimizer, classifier, planner, router, evaluator, EXPLAIN ANALYZE —
    without exhausting the stack."""

    @pytest.mark.parametrize("expression", [
        "(" * MAX_DEPTH + "1" + ")" * MAX_DEPTH,
        "//w" + "[self::w" * (MAX_DEPTH - 2) + "[1" + "]" * (MAX_DEPTH - 1),
        "not(" * (MAX_DEPTH - 1) + "1" + ")" * (MAX_DEPTH - 1),
        "-" * (MAX_DEPTH - 1) + "1",
        " or ".join(["//w"] * MAX_DEPTH),
        "//w[" + " and ".join(["contains(., 'a')"] * (MAX_DEPTH - 2)) + "]",
    ], ids=["parentheses", "predicates", "calls", "unary-minus", "or-chain",
            "and-chain"])
    def test_runs_through_every_pass(self, doc, expression):
        from repro.collection.router import routing_features
        from repro.index import IndexManager
        from repro.xpath.ast import children
        from repro.xpath.classify import predicate_shape

        IndexManager.for_document(doc)
        query = ExtendedXPath(expression)
        stack = [query.ast]
        while stack:
            expr = stack.pop()
            predicate_shape(expr)
            stack.extend(children(expr))
        routing_features(query.ast)
        indexed = query.evaluate(doc)
        assert indexed == query.evaluate(doc, index=False)
        query.explain(doc, analyze=True)
