"""Unit tests for the Extended XPath lexer and parser."""

import pytest

from repro.errors import XPathSyntaxError
from repro.xpath import parse_xpath, tokenize
from repro.xpath.parser import MAX_DEPTH
from repro.xpath.ast import (
    Binary,
    FilterExpr,
    FunctionCall,
    Literal,
    LocationPath,
    NodeTest,
    Number,
    Step,
    Union,
    Unary,
)


class TestTokenizer:
    def test_basic_path(self):
        kinds = [t.kind for t in tokenize("//line[1]")]
        assert kinds == ["dslash", "name", "lbracket", "number", "rbracket", "eof"]

    def test_axis_token(self):
        values = [t.value for t in tokenize("child::w")]
        assert values == ["child", "::", "w", ""]

    def test_strings_both_quotes(self):
        tokens = tokenize("'abc' \"def\"")
        assert [t.value for t in tokens[:2]] == ["abc", "def"]

    def test_numbers(self):
        tokens = tokenize("3 3.14 .5")
        assert [t.value for t in tokens[:3]] == ["3", "3.14", ".5"]

    def test_dots(self):
        kinds = [t.kind for t in tokenize(". .. ./..")]
        assert kinds == ["dot", "ddot", "dot", "slash", "ddot", "eof"]

    def test_hyphenated_names_are_single_tokens(self):
        tokens = tokenize("following-sibling::x")
        assert tokens[0].value == "following-sibling"

    def test_unterminated_string(self):
        with pytest.raises(XPathSyntaxError):
            tokenize("'never closed")

    def test_illegal_character(self):
        with pytest.raises(XPathSyntaxError):
            tokenize("//line # comment")


class TestPathParsing:
    def test_relative_child_steps(self):
        path = parse_xpath("line/w")
        assert isinstance(path, LocationPath)
        assert not path.absolute
        assert [s.axis for s in path.steps] == ["child", "child"]
        assert [s.test.name for s in path.steps] == ["line", "w"]

    def test_absolute_path(self):
        path = parse_xpath("/r/line")
        assert path.absolute
        assert len(path.steps) == 2

    def test_double_slash_expands(self):
        path = parse_xpath("//w")
        assert path.absolute
        assert path.steps[0].axis == "descendant-or-self"
        assert path.steps[0].test.kind == "node"
        assert path.steps[1].test.name == "w"

    def test_root_only(self):
        path = parse_xpath("/")
        assert path.absolute
        assert path.steps == ()

    def test_explicit_axes(self):
        path = parse_xpath("ancestor::page/following-sibling::line")
        assert [s.axis for s in path.steps] == ["ancestor", "following-sibling"]

    def test_extension_axes(self):
        for axis in ("overlapping", "overlapping-left", "overlapping-right",
                     "containing", "contained", "coextensive"):
            path = parse_xpath(f"{axis}::w")
            assert path.steps[0].axis == axis

    def test_unknown_axis_rejected(self):
        with pytest.raises(XPathSyntaxError):
            parse_xpath("sideways::w")

    def test_attribute_shorthand(self):
        path = parse_xpath("@n")
        assert path.steps[0].axis == "attribute"
        assert path.steps[0].test.name == "n"

    def test_dot_and_dotdot(self):
        path = parse_xpath("./../w")
        assert [s.axis for s in path.steps] == ["self", "parent", "child"]

    def test_wildcard(self):
        path = parse_xpath("*")
        assert path.steps[0].test.name == "*"

    def test_hierarchy_qualified_name(self):
        path = parse_xpath("phys:line")
        test = path.steps[0].test
        assert test == NodeTest("name", "line", hierarchy="phys")

    def test_hierarchy_wildcard(self):
        path = parse_xpath("phys:*")
        test = path.steps[0].test
        assert test == NodeTest("name", "*", hierarchy="phys")

    def test_text_and_node_tests(self):
        assert parse_xpath("text()").steps[0].test.kind == "text"
        assert parse_xpath("node()").steps[0].test.kind == "node"

    def test_predicates_attach_to_step(self):
        path = parse_xpath("line[2][@n='4']")
        step = path.steps[0]
        assert len(step.predicates) == 2
        assert step.predicates[0] == Number(2.0)


class TestExpressionParsing:
    def test_precedence_or_and(self):
        expr = parse_xpath("1 or 0 and 0")
        assert isinstance(expr, Binary) and expr.op == "or"
        assert isinstance(expr.right, Binary) and expr.right.op == "and"

    def test_precedence_arithmetic(self):
        expr = parse_xpath("1 + 2 * 3")
        assert expr.op == "+"
        assert isinstance(expr.right, Binary) and expr.right.op == "*"

    def test_comparison_chain(self):
        expr = parse_xpath("count(//w) > 3")
        assert expr.op == ">"
        assert isinstance(expr.left, FunctionCall)

    def test_unary_minus(self):
        expr = parse_xpath("-3")
        assert isinstance(expr, Unary)

    def test_union(self):
        expr = parse_xpath("//a | //b")
        assert isinstance(expr, Union)

    def test_function_call_args(self):
        expr = parse_xpath("concat('a', 'b', 'c')")
        assert isinstance(expr, FunctionCall)
        assert expr.args == (Literal("a"), Literal("b"), Literal("c"))

    def test_filter_expr_with_path(self):
        expr = parse_xpath("(//line)[1]/w")
        assert isinstance(expr, FilterExpr)
        assert expr.predicates == (Number(1.0),)
        assert expr.steps[0].test.name == "w"

    def test_string_literals(self):
        assert parse_xpath("'hello'") == Literal("hello")

    def test_div_mod_keywords(self):
        expr = parse_xpath("7 div 2")
        assert expr.op == "div"
        expr = parse_xpath("7 mod 2")
        assert expr.op == "mod"

    @pytest.mark.parametrize("bad", [
        "",
        "//",
        "line[",
        "line[]",
        "(1",
        "child::",
        "1 +",
        "//line extra",
        "concat('a' 'b')",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(XPathSyntaxError):
            parse_xpath(bad)


class TestNestingCap:
    """Deep nesting is a typed syntax error, never a RecursionError."""

    @pytest.mark.parametrize("deep", [
        "(" * 100 + "1" + ")" * 100,
        "//w[" * 100 + "1" + "]" * 100,
        "-" * 5000 + "1",
        "not(" * 1500 + "1" + ")" * 1500,
    ], ids=["parentheses", "predicates", "unary-minus", "calls"])
    def test_deep_input_raises_a_syntax_error(self, deep):
        with pytest.raises(XPathSyntaxError, match="nests deeper"):
            parse_xpath(deep)

    def test_long_operator_chains_count_as_nesting(self):
        parse_xpath(" + ".join(["1"] * MAX_DEPTH))
        with pytest.raises(XPathSyntaxError):
            parse_xpath(" + ".join(["1"] * (MAX_DEPTH + 1)))

    def test_the_cap_is_exact(self):
        parse_xpath("(" * MAX_DEPTH + "1" + ")" * MAX_DEPTH)
        with pytest.raises(XPathSyntaxError):
            parse_xpath("(" * (MAX_DEPTH + 1) + "1" + ")" * (MAX_DEPTH + 1))
        parse_xpath("-" * (MAX_DEPTH - 1) + "1")
        with pytest.raises(XPathSyntaxError):
            parse_xpath("-" * MAX_DEPTH + "1")
