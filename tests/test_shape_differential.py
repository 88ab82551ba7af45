"""Differential test: the shape classifier against the retired recognizers.

:mod:`repro.xpath.classify` replaced the pattern matchers that the
optimizer, the lazy row path and the router each ran over the same
AST.  ``_shape_oracle`` keeps those matchers verbatim.  For every
subexpression of every input the classifier must agree with them:

* ``predicate_shape`` — the kind, literal and ``(name, value)`` key of
  ``indexable_contains`` / ``indexable_starts_with`` /
  ``indexable_attr_eq``, ``term_indexable`` as ``TermIndex.is_indexable``
  of that literal, and ``reorder_safe`` as the old analysis;
* ``path_shape`` as read by ``LazyDocument.xpath`` — the old
  ``descendant_tag_shape``.

The one intended difference: a predicate holding a call with a wrong
argument count is never reorder-safe (it raises wherever it runs, so an
index path must not skip it).

Inputs are hypothesis-generated ASTs, which reach shapes the parser
never builds, and every expression in ``tests/test_planner.py``,
``benchmarks/bench_e10_planner.py`` and the collection differential.
``REPRO_DIFF_SEEDS`` scales the number of generated examples.
"""

from __future__ import annotations

import ast as python_ast
import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import _shape_oracle as oracle
from repro.collection import split_collection_expression
from repro.errors import ReproError
from repro.index.term import TermIndex
from repro.streaming.lazy import _row_query
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
    VariableRef,
    children,
)
from repro.xpath.classify import path_shape, predicate_shape
from repro.xpath.functions import arity_error
from repro.xpath.optimizer import optimize
from repro.xpath.parser import ALL_AXES, parse_xpath

REPO = Path(__file__).resolve().parent.parent

#: Files whose XPath string constants are replayed through the classifier.
SOURCES = (
    "tests/test_planner.py",
    "benchmarks/bench_e10_planner.py",
    "tests/test_collection_differential.py",
)

EXAMPLES = 300 * max(1, int(os.environ.get("REPRO_DIFF_SEEDS", "1")))


def source_expressions() -> list[str]:
    """Every string constant of :data:`SOURCES` that parses as XPath
    (``collection()`` queries in their per-document form)."""
    found = set()
    for relative in SOURCES:
        tree = python_ast.parse((REPO / relative).read_text(encoding="utf-8"))
        for node in python_ast.walk(tree):
            if not (isinstance(node, python_ast.Constant)
                    and isinstance(node.value, str)):
                continue
            text = node.value
            if not any(mark in text for mark in "/@[("):
                continue
            try:
                if text.startswith("collection()"):
                    text = split_collection_expression(text)
                parse_xpath(text)
            except ReproError:
                continue
            found.add(text)
    return sorted(found)


def subexpressions(root):
    stack = [root]
    while stack:
        expr = stack.pop()
        yield expr
        stack.extend(children(expr))


def malformed(expr) -> bool:
    return any(
        isinstance(node, FunctionCall)
        and arity_error(node.name, len(node.args)) is not None
        for node in subexpressions(expr)
    )


def assert_agrees(root) -> None:
    for expr in subexpressions(root):
        shape = predicate_shape(expr)
        contains = oracle.indexable_contains(expr)
        starts = oracle.indexable_starts_with(expr)
        key = oracle.indexable_attr_eq(expr)
        if contains is not None:
            expected = ("contains", contains, None)
        elif starts is not None:
            expected = ("starts-with", starts, None)
        elif key is not None:
            expected = ("attr-eq", None, key)
        else:
            expected = ("generic", None, None)
        assert (shape.kind, shape.needle, shape.key) == expected, expr
        needle = expected[1]
        assert shape.term_indexable == (
            needle is not None and TermIndex.is_indexable(needle)
        ), expr
        assert shape.reorder_safe == (
            oracle.reorder_safe(expr) and not malformed(expr)
        ), expr
        if isinstance(expr, LocationPath):
            assert_path_agrees(expr)


def assert_path_agrees(path: LocationPath) -> None:
    old = oracle.descendant_tag_shape(path)
    assert _row_query(path) == (
        None if old is None else (old.tag, old.hierarchy, old.attr, old.value)
    ), path
    shape = path_shape(path)
    if len(path.steps) != 1 or path.steps[0].test.kind != "name":
        assert shape is None, path
        return
    step = path.steps[0]
    assert (shape.absolute, shape.axis, shape.test) == \
        (path.absolute, step.axis, step.test)
    assert shape.predicates == tuple(
        predicate_shape(p) for p in step.predicates
    )


# -- replayed expressions -------------------------------------------------------

EXPRESSIONS = source_expressions()


def test_sources_yield_expressions():
    assert len(EXPRESSIONS) > 40
    assert "//w[starts-with(., 'gar')]" in EXPRESSIONS
    assert "//line[@n='2']" in EXPRESSIONS


@pytest.mark.parametrize("expression", EXPRESSIONS)
def test_classifier_agrees_on_source_expressions(expression):
    assert_agrees(optimize(parse_xpath(expression)))
    assert_agrees(parse_xpath(expression))


# -- generated ASTs ---------------------------------------------------------------

CONTEXT = LocationPath(False, (Step("self", NodeTest("node")),))

node_tests = st.builds(
    NodeTest,
    st.sampled_from(("name", "name", "name", "node", "text")),
    st.sampled_from(("w", "line", "n", "*")),
    st.sampled_from((None, None, "h")),
)
literals = st.builds(
    Literal, st.sampled_from(("", "gar", "a b", "x-y", "æ1", "2", ", "))
)
attribute_paths = st.builds(
    lambda test, predicates: LocationPath(
        False, (Step("attribute", test, predicates),)
    ),
    node_tests,
    st.sampled_from(((), (), (Number(1.0),))),
)
near_subjects = st.sampled_from((
    CONTEXT,
    LocationPath(False, (Step("parent", NodeTest("node")),)),
    LocationPath(False, (Step("self", NodeTest("node"), (Number(1.0),)),)),
    LocationPath(True, (Step("self", NodeTest("node")),)),
    LocationPath(False, (Step("self", NodeTest("text")),)),
    LocationPath(False, (Step("self", NodeTest("node")),) * 2),
))
plain_attributes = st.builds(
    lambda name: LocationPath(
        False, (Step("attribute", NodeTest("name", name)),)
    ),
    st.sampled_from(("n", "resp")),
)
attribute_paths = st.one_of(plain_attributes, attribute_paths)
needles = st.one_of(literals, literals, near_subjects, attribute_paths)
needle_calls = st.builds(
    lambda name, subject, needle, count: FunctionCall(
        name, (subject, needle, Literal("b"))[:count]
    ),
    st.sampled_from(("contains", "starts-with")),
    st.one_of(st.just(CONTEXT), near_subjects),
    needles,
    st.sampled_from((1, 2, 2, 2, 3)),
)
attribute_equalities = st.builds(
    lambda path, operand, flip: Binary(
        "=", *((operand, path) if flip else (path, operand))
    ),
    attribute_paths,
    needles,
    st.booleans(),
)
exact_attribute_equalities = st.builds(
    lambda path, literal, flip: Binary(
        "=", *((literal, path) if flip else (path, literal))
    ),
    plain_attributes,
    literals,
    st.booleans(),
)
shaped = st.one_of(needle_calls, attribute_equalities,
                   exact_attribute_equalities)
descendant_paths = st.builds(
    lambda axis, test, predicates: LocationPath(
        True, (Step(axis, test, predicates),)
    ),
    st.sampled_from(("descendant", "descendant", "descendant-or-self")),
    node_tests,
    st.lists(shaped, max_size=2).map(tuple),
)
leaves = st.one_of(
    literals,
    st.builds(Number, st.sampled_from((1.0, 2.0))),
    st.builds(VariableRef, st.just("v")),
    near_subjects,
    attribute_paths,
    shaped,
    descendant_paths,
)


def extend(inner):
    predicates = st.lists(inner, max_size=2).map(tuple)
    steps = st.builds(Step, st.sampled_from(sorted(ALL_AXES)), node_tests,
                      predicates)
    return st.one_of(
        st.builds(Binary, st.sampled_from(("and", "or", "=", "+", "div")),
                  inner, inner),
        st.builds(Unary, inner),
        st.builds(Union, inner, inner),
        st.builds(FunctionCall,
                  st.sampled_from(("not", "count", "position", "last",
                                   "concat", "overlaps", "unknown")),
                  st.lists(inner, max_size=3).map(tuple)),
        st.builds(LocationPath, st.booleans(),
                  st.lists(steps, min_size=1, max_size=3).map(tuple)),
        st.builds(FilterExpr, inner, predicates,
                  st.lists(steps, max_size=2).map(tuple)),
    )


expressions = st.recursive(leaves, extend, max_leaves=10)


@settings(max_examples=EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(expressions)
def test_classifier_agrees_on_generated_asts(expr):
    assert_agrees(expr)
    assert_agrees(optimize(expr))


@settings(max_examples=EXAMPLES, deadline=None)
@given(descendant_paths)
def test_classifier_agrees_on_one_step_paths(path):
    assert_agrees(path)
