"""Test-only oracle: frozen copies of the retired shape recognizers.

Before :mod:`repro.xpath.classify` there were several pattern matchers
over the optimized AST.  This module keeps the ones that were deleted,
verbatim: ``repro.xpath.optimizer``'s ``indexable_contains``,
``indexable_starts_with``, ``indexable_attr_eq`` (with
``_self_text_literal``) and the ``reorder_safe`` analysis (with
``yields_boolean`` and ``uses_position``), and ``repro.xpath.shapes``'s
``DescendantTagShape`` / ``descendant_tag_shape``.
``tests/test_shape_differential.py`` holds the classifier to them.
Nothing under ``src/`` imports this module; do not edit it to follow
the classifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.xpath.ast import (
    Binary,
    Expr,
    FilterExpr,
    FunctionCall,
    Literal,
    LocationPath,
    Number,
    Step,
    Union,
    Unary,
)


_POSITIONAL_FUNCTIONS = frozenset({"position", "last"})


def uses_position(expr: Expr) -> bool:
    """True when ``expr`` may depend on the proximity position."""
    if isinstance(expr, Number):
        return False  # handled at the predicate level, see below
    if isinstance(expr, FunctionCall):
        if expr.name in _POSITIONAL_FUNCTIONS:
            return True
        return any(uses_position(arg) for arg in expr.args)
    if isinstance(expr, Binary):
        return uses_position(expr.left) or uses_position(expr.right)
    if isinstance(expr, Unary):
        return uses_position(expr.operand)
    if isinstance(expr, Union):
        return uses_position(expr.left) or uses_position(expr.right)
    if isinstance(expr, FilterExpr):
        # Positions inside a nested filter have their own context.
        return False
    if isinstance(expr, LocationPath):
        return False  # ditto: steps get fresh contexts
    return False


def _self_text_literal(predicate: Expr, function: str) -> str | None:
    """The literal of a ``function(., 'lit')`` predicate whose subject is
    the bare context node, or ``None`` for any other shape."""
    if not isinstance(predicate, FunctionCall) or predicate.name != function:
        return None
    if len(predicate.args) != 2:
        return None
    subject, needle = predicate.args
    if not isinstance(needle, Literal):
        return None
    if not isinstance(subject, LocationPath) or subject.absolute:
        return None
    if len(subject.steps) != 1:
        return None
    step = subject.steps[0]
    if step.axis != "self" or step.test.kind != "node" or step.predicates:
        return None
    return needle.value


def indexable_contains(predicate: Expr) -> str | None:
    """The literal of a ``contains(., 'lit')`` predicate, when a term
    index may serve it *exactly*; ``None`` otherwise.

    The subject must be the bare context node (``.``, i.e.
    ``self::node()`` with no predicates) so the tested string is the
    node's own text, and the needle must be a literal.  Whether that
    literal is actually index-servable (alphanumeric-only, so no
    occurrence can straddle a token boundary) is the term index's call
    via ``TermIndex.is_indexable``.
    """
    return _self_text_literal(predicate, "contains")


def indexable_starts_with(predicate: Expr) -> str | None:
    """The literal of a ``starts-with(., 'lit')`` predicate, when a term
    index may serve it exactly; ``None`` otherwise.

    Same shape contract as :func:`indexable_contains`: the subject must
    be the bare context node and the prefix a literal.  An indexable
    (alphanumeric) prefix starts the node's text exactly when the term
    index records an occurrence at the node's start offset that fits
    inside the node's span.
    """
    return _self_text_literal(predicate, "starts-with")


def indexable_attr_eq(predicate: Expr) -> tuple[str, str] | None:
    """The ``(name, value)`` of an ``@name = 'literal'`` predicate, or
    ``None`` for any other shape.

    The attribute step must be a plain single name (no wildcard, no
    hierarchy qualifier, no nested predicates) and the other operand a
    literal (either side).  Such a predicate holds exactly for elements
    carrying attribute ``name`` with string value ``value`` — which an
    attribute-value posting list answers directly.
    """
    if not isinstance(predicate, Binary) or predicate.op != "=":
        return None
    left, right = predicate.left, predicate.right
    if isinstance(left, Literal) and not isinstance(right, Literal):
        left, right = right, left
    if not isinstance(right, Literal):
        return None
    if not isinstance(left, LocationPath) or left.absolute:
        return None
    if len(left.steps) != 1:
        return None
    step = left.steps[0]
    if step.axis != "attribute" or step.predicates:
        return None
    test = step.test
    if test.kind != "name" or test.name == "*" or test.hierarchy is not None:
        return None
    return test.name, right.value


#: Functions whose result is statically known to be a boolean (so a
#: predicate built from them can never be a number compared against the
#: proximity position).
_BOOLEAN_FUNCTIONS = frozenset({
    "not", "boolean", "true", "false", "contains", "starts-with", "overlaps",
})


def yields_boolean(expr: Expr) -> bool:
    """True when ``expr`` provably evaluates to a non-numeric value.

    A predicate whose value is a *number* is positional by coercion
    (``[2]`` keeps the second node), so only predicates that provably
    yield booleans, strings, or node-sets may be evaluated out of
    order.  The analysis is a conservative whitelist: comparison and
    logic operators, boolean-returning core functions, bare location
    paths (node-set → boolean), and string literals qualify; numbers,
    arithmetic, variables, and unknown functions do not.
    """
    if isinstance(expr, Binary):
        return expr.op in ("or", "and", "=", "!=", "<", "<=", ">", ">=")
    if isinstance(expr, FunctionCall):
        return expr.name in _BOOLEAN_FUNCTIONS
    if isinstance(expr, LocationPath):
        return True
    if isinstance(expr, Literal):
        return True
    return False


def reorder_safe(predicate: Expr) -> bool:
    """True when ``predicate`` may be evaluated out of order.

    Safe predicates are pure per-node booleans: they provably yield a
    non-numeric value (:func:`yields_boolean`) and read neither
    ``position()`` nor ``last()`` of the step context
    (:func:`uses_position`).  The planner reorders a step's predicates
    by estimated selectivity only when *every* predicate of the step is
    safe; one unsafe predicate pins the whole step to source order.
    """
    return yields_boolean(predicate) and not uses_position(predicate)


@dataclass(frozen=True)
class DescendantTagShape:
    """``//tag`` (optionally hierarchy-qualified, optionally with one
    ``[@attr='value']`` predicate), after optimization."""

    tag: str
    hierarchy: Optional[str]
    attr: Optional[str] = None
    value: Optional[str] = None


def descendant_tag_shape(ast: Expr) -> DescendantTagShape | None:
    """Match ``ast`` against :class:`DescendantTagShape`, else ``None``."""
    if not isinstance(ast, LocationPath) or not ast.absolute:
        return None
    if len(ast.steps) != 1:
        return None
    step: Step = ast.steps[0]
    if step.axis != "descendant":
        return None
    test = step.test
    if test.kind != "name" or test.name == "*":
        return None
    if not step.predicates:
        return DescendantTagShape(test.name, test.hierarchy)
    if len(step.predicates) != 1:
        return None
    equality = indexable_attr_eq(step.predicates[0])
    if equality is None:
        return None
    return DescendantTagShape(test.name, test.hierarchy,
                              equality[0], equality[1])
