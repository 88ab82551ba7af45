"""The one shape classifier of optimized Extended XPath ASTs.

The planner (pricing, batch compilation), the evaluator (index-served
predicate filters, through what the plan recorded), the lazy row path
(``LazyDocument.xpath``) and the collection router read query shapes
from here and keep only their own eligibility rules.  Classify
**optimized** ASTs, so ``//w`` and ``/descendant-or-self::node()/w``
land on the same shape.

A predicate's kind is one of:

* ``contains`` / ``starts-with`` — ``f(., 'lit')`` whose subject is the
  bare context node (``self::node()``, no predicates).  The literal is
  ``term_indexable`` when ``TermIndex.is_indexable`` holds (non-empty,
  alphanumeric: no occurrence straddles a token boundary);
* ``attr-eq`` — ``@name = 'lit'``, literal on either side, one plain
  attribute step (no wildcard, hierarchy qualifier or predicates): an
  attribute posting answers it exactly;
* ``overlap`` — ``ax::B`` with ``ax`` one of ``overlapping``,
  ``overlapping-left``, ``overlapping-right``: a relative one-step path
  whose name test is ``B``, ``h:B`` or ``h:*`` (not a bare ``*``) and
  which has no predicates.  Its ``axis`` and ``test`` name the partner
  set; the boundary columns of ``test`` answer it exactly;
* ``generic`` — anything else.

Orthogonally, ``reorder_safe`` says whether it may run out of order.
"""

from __future__ import annotations

from typing import NamedTuple

from ..index.kernels import OVERLAP_SIDES
from ..index.term import TermIndex
from .ast import (
    Binary,
    Expr,
    FunctionCall,
    Literal,
    LocationPath,
    NodeTest,
    children,
)
from .functions import arity_error
from .optimizer import uses_position

CONTAINS = "contains"
STARTS_WITH = "starts-with"
ATTR_EQ = "attr-eq"
OVERLAP = "overlap"
GENERIC = "generic"

#: The extension axes an ``overlap`` predicate may walk.
OVERLAP_AXES = frozenset(OVERLAP_SIDES)


class PredicateShape(NamedTuple):
    """What one predicate is, independent of any document or index."""

    kind: str                           #: one of the five kinds above
    needle: str | None = None           #: the literal of contains/starts-with
    key: tuple[str, str] | None = None  #: the (name, value) of an attr-eq
    term_indexable: bool = False        #: the term index serves the needle
    reorder_safe: bool = False          #: may run out of source order
    axis: str | None = None             #: the axis of an overlap
    test: NodeTest | None = None        #: the partner name test of an overlap


class PathShape(NamedTuple):
    """A location path of exactly one name-test step."""

    absolute: bool
    axis: str
    test: NodeTest
    predicates: tuple[PredicateShape, ...]


def predicate_shape(predicate: Expr) -> PredicateShape:
    """The :class:`PredicateShape` of ``predicate``."""
    safe = _reorder_safe(predicate)
    if isinstance(predicate, FunctionCall):
        needle = _context_needle(predicate)
        if needle is not None:
            return PredicateShape(
                predicate.name, needle=needle,
                term_indexable=TermIndex.is_indexable(needle),
                reorder_safe=safe,
            )
    elif isinstance(predicate, Binary) and predicate.op == "=":
        key = _attribute_key(predicate.left, predicate.right)
        if key is not None:
            return PredicateShape(ATTR_EQ, key=key, reorder_safe=safe)
    elif _one_relative_step(predicate):
        step = predicate.steps[0]
        test = step.test
        if (
            step.axis in OVERLAP_AXES
            and not step.predicates
            and test.kind == "name"
            and not (test.name == "*" and test.hierarchy is None)
        ):
            return PredicateShape(OVERLAP, reorder_safe=safe,
                                  axis=step.axis, test=test)
    return PredicateShape(GENERIC, reorder_safe=safe)


def path_shape(expr: Expr) -> PathShape | None:
    """The :class:`PathShape` of ``expr``, or ``None`` when it is not a
    location path of exactly one name-test step."""
    if not isinstance(expr, LocationPath) or len(expr.steps) != 1:
        return None
    step = expr.steps[0]
    if step.test.kind != "name":
        return None
    return PathShape(
        expr.absolute, step.axis, step.test,
        tuple(predicate_shape(p) for p in step.predicates),
    )


def _context_needle(call: FunctionCall) -> str | None:
    if call.name not in (CONTAINS, STARTS_WITH) or len(call.args) != 2:
        return None
    subject, needle = call.args
    if not isinstance(needle, Literal) or not _one_relative_step(subject):
        return None
    step = subject.steps[0]
    if step.axis != "self" or step.test.kind != "node" or step.predicates:
        return None
    return needle.value


def _attribute_key(left: Expr, right: Expr) -> tuple[str, str] | None:
    if isinstance(left, Literal) and not isinstance(right, Literal):
        left, right = right, left
    if not isinstance(right, Literal) or not _one_relative_step(left):
        return None
    step = left.steps[0]
    test = step.test
    if step.axis != "attribute" or step.predicates:
        return None
    if test.kind != "name" or test.name == "*" or test.hierarchy is not None:
        return None
    return test.name, right.value


def _one_relative_step(expr: Expr) -> bool:
    return (
        isinstance(expr, LocationPath)
        and not expr.absolute
        and len(expr.steps) == 1
    )


#: Core functions whose result is always a boolean.
_BOOLEAN_FUNCTIONS = frozenset({
    "not", "boolean", "true", "false", "contains", "starts-with", "overlaps",
})


def _yields_boolean(expr: Expr) -> bool:
    """True when ``expr`` provably evaluates to a non-number (a number
    predicate is positional by coercion: ``[2]``).  A conservative
    whitelist: comparisons and logic, boolean core functions, location
    paths and string literals."""
    if isinstance(expr, Binary):
        return expr.op in ("or", "and", "=", "!=", "<", "<=", ">", ">=")
    if isinstance(expr, FunctionCall):
        return expr.name in _BOOLEAN_FUNCTIONS
    return isinstance(expr, (LocationPath, Literal))


def _malformed_call(expr: Expr) -> bool:
    """True when a call anywhere in ``expr`` has a wrong argument count."""
    stack = [expr]
    while stack:
        node = stack.pop()
        if (
            isinstance(node, FunctionCall)
            and arity_error(node.name, len(node.args)) is not None
        ):
            return True
        stack.extend(children(node))
    return False


def _reorder_safe(predicate: Expr) -> bool:
    """A pure per-node boolean that reads neither ``position()`` nor
    ``last()``.  A predicate holding a malformed call raises wherever it
    runs, so it is never safe: running a more selective predicate first
    must not skip it.  The planner reorders a step's predicates only
    when every one of them is safe."""
    return (
        _yields_boolean(predicate)
        and not uses_position(predicate)
        and not _malformed_call(predicate)
    )
