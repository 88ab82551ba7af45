"""Compile-time rewrites and analyses of Extended XPath ASTs.

One classic rewrite, applied when provably safe:

``descendant-or-self::node()/child::T``  →  ``descendant::T``

(the expansion of ``//T``).  The naive expansion visits every node of
the document *and* asks each for its children; the fused form runs one
document-order stream.  The rewrite changes predicate *context sizes*,
so it is applied only when the child step carries no positional
predicates (no bare numbers, no ``position()``/``last()`` calls) —
the case where XPath 1.0 semantics provably coincide.

Shape analyses of the optimized AST (index-servable predicates,
reorder safety, row-servable paths) live in :mod:`repro.xpath.classify`.
"""

from __future__ import annotations

from .ast import (
    Binary,
    Expr,
    FilterExpr,
    FunctionCall,
    LocationPath,
    Number,
    Step,
    Union,
    Unary,
)

_POSITIONAL_FUNCTIONS = frozenset({"position", "last"})


def uses_position(expr: Expr) -> bool:
    """True when ``expr`` may depend on the proximity position."""
    if isinstance(expr, FunctionCall):
        return expr.name in _POSITIONAL_FUNCTIONS or any(
            uses_position(arg) for arg in expr.args
        )
    if isinstance(expr, (Binary, Union)):
        return uses_position(expr.left) or uses_position(expr.right)
    if isinstance(expr, Unary):
        return uses_position(expr.operand)
    # A bare number is positional at the predicate level (see
    # _step_is_positional); nested paths and filters get fresh contexts.
    return False


def _step_is_positional(step: Step) -> bool:
    # [2] is positional by definition
    return any(
        isinstance(p, Number) or uses_position(p) for p in step.predicates
    )


def _fuse_steps(steps: tuple[Step, ...]) -> tuple[Step, ...]:
    out: list[Step] = []
    i = 0
    while i < len(steps):
        step = steps[i]
        nxt = steps[i + 1] if i + 1 < len(steps) else None
        if (
            nxt is not None
            and step.axis == "descendant-or-self"
            and step.test.kind == "node"
            and not step.predicates
            and nxt.axis == "child"
            and not _step_is_positional(nxt)
        ):
            out.append(Step("descendant", nxt.test, nxt.predicates))
            i += 2
            continue
        out.append(step)
        i += 1
    return tuple(out)


def _optimize_steps(steps: tuple[Step, ...]) -> tuple[Step, ...]:
    return _fuse_steps(tuple(
        Step(s.axis, s.test, tuple(optimize(p) for p in s.predicates))
        for s in steps
    ))


def optimize(expr: Expr) -> Expr:
    """Rewrite ``expr`` (recursively) into an equivalent, faster form."""
    if isinstance(expr, LocationPath):
        return LocationPath(expr.absolute, _optimize_steps(expr.steps))
    if isinstance(expr, FilterExpr):
        return FilterExpr(
            optimize(expr.primary),
            tuple(optimize(p) for p in expr.predicates),
            _optimize_steps(expr.steps),
        )
    if isinstance(expr, Binary):
        return Binary(expr.op, optimize(expr.left), optimize(expr.right))
    if isinstance(expr, Unary):
        return Unary(optimize(expr.operand))
    if isinstance(expr, Union):
        return Union(optimize(expr.left), optimize(expr.right))
    if isinstance(expr, FunctionCall):
        return FunctionCall(expr.name, tuple(optimize(a) for a in expr.args))
    return expr
